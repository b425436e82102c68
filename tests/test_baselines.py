"""Tests for the gradient trainer, exact bespoke baseline and SOTA comparators."""

import numpy as np
import pytest

from repro.approx.topology import Topology
from repro.baselines.approx_tc23 import (
    Tc23ApproximateMLP,
    Tc23Config,
    approximate_weight_code,
    approximate_weight_codes,
    explore_tc23,
)
from repro.baselines.exact_bespoke import BespokeMLP, quantize_float_mlp, train_exact_baseline
from repro.baselines.gradient import FloatMLP, GradientTrainer
from repro.baselines.stochastic_date21 import StochasticConfig, StochasticMLP
from repro.baselines.vos_tcad23 import VosApproximateMLP, VosConfig, explore_vos
from repro.hardware.area import csd_nonzero_digits


@pytest.fixture(scope="module")
def toy_data():
    from repro.datasets.preprocessing import normalize_01, stratified_split
    from repro.datasets.synthetic import SyntheticSpec, generate_synthetic_classification

    rng = np.random.default_rng(11)
    spec = SyntheticSpec(num_features=6, num_classes=3, num_samples=300, class_sep=3.0, noise=0.15)
    features, labels = generate_synthetic_classification(spec, rng)
    features = normalize_01(features)
    return stratified_split(features, labels, 0.7, rng)


@pytest.fixture(scope="module")
def trained_baseline(toy_data):
    x_train, y_train, _, _ = toy_data
    trainer = GradientTrainer(epochs=60, restarts=1, seed=0)
    bespoke, float_model = train_exact_baseline(x_train, y_train, (6, 4, 3), trainer=trainer)
    return bespoke, float_model


class TestGradientTrainer:
    def test_random_default_rng_is_deterministic(self):
        # Regression (lint RP03): FloatMLP.random() without an explicit
        # generator used to He-initialize from OS entropy.
        topology = Topology((6, 4, 3))
        first = FloatMLP.random(topology)
        second = FloatMLP.random(topology)
        for a, b in zip(first.weights, second.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(first.biases, second.biases):
            np.testing.assert_array_equal(a, b)

    def test_learns_separable_data(self, toy_data):
        x_train, y_train, x_test, y_test = toy_data
        result = GradientTrainer(epochs=60, restarts=1, seed=0).train(x_train, y_train, (6, 4, 3))
        assert result.train_accuracy > 0.85
        assert result.model.accuracy(x_test, y_test) > 0.8
        assert result.wall_clock_seconds > 0
        assert len(result.losses) == 60

    def test_loss_decreases(self, toy_data):
        x_train, y_train, _, _ = toy_data
        result = GradientTrainer(epochs=40, restarts=1, seed=0).train(x_train, y_train, (6, 4, 3))
        assert result.losses[-1] < result.losses[0]

    def test_restarts_pick_best(self, toy_data):
        x_train, y_train, _, _ = toy_data
        single = GradientTrainer(epochs=15, restarts=1, seed=0).train(x_train, y_train, (6, 2, 3))
        multi = GradientTrainer(epochs=15, restarts=3, seed=0).train(x_train, y_train, (6, 2, 3))
        assert multi.train_accuracy >= single.train_accuracy - 1e-9

    def test_input_validation(self, toy_data):
        x_train, y_train, _, _ = toy_data
        trainer = GradientTrainer(epochs=1, restarts=1)
        with pytest.raises(ValueError):
            trainer.train(x_train, y_train, (5, 3, 3))  # wrong feature count
        with pytest.raises(ValueError):
            trainer.train(x_train, y_train, (6, 3, 2))  # too few outputs
        with pytest.raises(ValueError):
            GradientTrainer(restarts=0)

    def test_float_mlp_construction_checks(self, rng):
        topology = Topology((3, 2, 2))
        model = FloatMLP.random(topology, rng)
        with pytest.raises(ValueError):
            FloatMLP(topology=topology, weights=model.weights[:1], biases=model.biases)


class TestExactBespoke:
    def test_quantization_preserves_accuracy(self, toy_data, trained_baseline):
        x_train, y_train, x_test, y_test = toy_data
        bespoke, float_model = trained_baseline
        from repro.quant.quantizers import quantize_inputs

        float_acc = float_model.accuracy(x_test, y_test)
        quant_acc = bespoke.accuracy(quantize_inputs(x_test), y_test)
        assert quant_acc >= float_acc - 0.1

    def test_weight_codes_fit_8_bits(self, trained_baseline):
        bespoke, _ = trained_baseline
        for codes in bespoke.weight_codes:
            assert codes.min() >= -128 and codes.max() <= 127

    def test_forward_shapes(self, trained_baseline, rng):
        bespoke, _ = trained_baseline
        x = rng.integers(0, 16, size=(9, 6))
        assert bespoke.forward(x).shape == (9, 3)
        assert bespoke.predict(x).shape == (9,)

    def test_synthesize_produces_report(self, trained_baseline):
        bespoke, _ = trained_baseline
        report = bespoke.synthesize()
        assert report.area_cm2 > 0 and report.power_mw > 0
        assert report.power_mw / report.area_cm2 == pytest.approx(3.4, abs=1.0)

    def test_structure_validation(self, trained_baseline):
        bespoke, _ = trained_baseline
        with pytest.raises(ValueError):
            BespokeMLP(
                topology=bespoke.topology,
                weight_codes=bespoke.weight_codes[:1],
                bias_codes=bespoke.bias_codes,
                shifts=bespoke.shifts,
            )

    def test_quantize_float_mlp_shift_calibration(self, toy_data, trained_baseline):
        x_train, _, _, _ = toy_data
        _, float_model = trained_baseline
        bespoke = quantize_float_mlp(float_model, x_train)
        assert all(shift >= 0 for shift in bespoke.shifts)
        assert bespoke.input_bits_per_layer == [4, 8]


def hand_float_mlp(first_layer):
    """A (2, 2, 2) float MLP with the given first-layer weights."""
    return FloatMLP(
        topology=Topology((2, 2, 2)),
        weights=[np.asarray(first_layer, dtype=float), np.array([[1.0, -1.0], [0.5, 0.25]])],
        biases=[np.zeros(2), np.zeros(2)],
    )


class TestWeightFixedPoint:
    """Symmetric per-layer weight quantization of :func:`quantize_float_mlp`."""

    calibration = np.array([[0.0, 1.0], [1.0, 0.5], [0.25, 0.75]])

    def test_codes_round_to_the_nearest_step(self):
        bespoke = quantize_float_mlp(hand_float_mlp([[1.0, -0.6], [0.25, 0.0]]), self.calibration)
        # The largest magnitude (1.0) maps to the top code 127.
        assert bespoke.weight_codes[0].tolist() == [[127, -76], [32, 0]]

    def test_zero_weights_quantize_to_zero(self):
        bespoke = quantize_float_mlp(hand_float_mlp(np.zeros((2, 2))), self.calibration)
        assert np.all(bespoke.weight_codes[0] == 0)

    @pytest.mark.parametrize("weight_bits", [4, 6, 8])
    def test_codes_fill_the_signed_range(self, weight_bits, rng):
        weights = rng.normal(size=(2, 2)) * 3.0
        bespoke = quantize_float_mlp(
            hand_float_mlp(weights), self.calibration, weight_bits=weight_bits
        )
        top = (1 << (weight_bits - 1)) - 1
        for codes in bespoke.weight_codes:
            assert codes.min() >= -top - 1 and codes.max() <= top
            assert np.abs(codes).max() == top

    def test_round_trip_error_within_half_a_step(self, rng):
        weights = rng.normal(size=(2, 2)) * 5.0
        bespoke = quantize_float_mlp(hand_float_mlp(weights), self.calibration)
        scale = np.abs(weights).max() / 127
        assert np.all(np.abs(bespoke.weight_codes[0] * scale - weights) <= scale / 2 + 1e-12)


class TestTc23Baseline:
    def test_weight_approximation_reduces_csd_digits(self):
        for code in (87, -113, 255, 73):
            approx = approximate_weight_code(code, max_csd_digits=2)
            assert csd_nonzero_digits(approx) <= 2

    def test_weight_approximation_identity_when_cheap(self):
        assert approximate_weight_code(8, 2) == 8
        assert approximate_weight_code(0, 2) == 0
        assert approximate_weight_code(5, 0) == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_table_approximation_matches_scalar_map(self, seed):
        """The unique-code table equals the per-code map element for
        element, on matrices with zero, negative and repeated codes."""
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(1, 9, size=2))
        codes = rng.integers(-300, 301, size=shape)
        codes[rng.random(shape) < 0.2] = 0
        codes.flat[0] = -int(rng.integers(1, 128))
        for digits in (0, 1, 2, 3, 9):
            got = approximate_weight_codes(codes, digits)
            expected = np.array(
                [approximate_weight_code(int(c), digits) for c in codes.ravel()],
                dtype=np.int64,
            ).reshape(shape)
            assert got.dtype == np.int64 and got.shape == shape
            assert np.array_equal(got, expected)

    def test_table_approximation_of_empty_and_tc23_layers(self, trained_baseline):
        assert approximate_weight_codes(np.zeros((0, 3), dtype=np.int64), 2).shape == (0, 3)
        bespoke, _ = trained_baseline
        model = Tc23ApproximateMLP(bespoke, Tc23Config(max_csd_digits=1))
        for codes, approx in zip(bespoke.weight_codes, model.weight_codes):
            expected = [approximate_weight_code(int(c), 1) for c in codes.ravel()]
            assert approx.dtype == np.int64
            assert approx.ravel().tolist() == expected

    def test_tc23_accuracy_degrades_gracefully(self, toy_data, trained_baseline):
        x_train, y_train, x_test, y_test = toy_data
        bespoke, _ = trained_baseline
        from repro.quant.quantizers import quantize_inputs

        xq = quantize_inputs(x_test)
        exact_acc = bespoke.accuracy(xq, y_test)
        mild = Tc23ApproximateMLP(bespoke, Tc23Config(max_csd_digits=3, truncation_bits=0))
        assert mild.accuracy(xq, y_test) >= exact_acc - 0.1

    def test_tc23_truncation_shrinks_area(self, trained_baseline):
        bespoke, _ = trained_baseline
        full = Tc23ApproximateMLP(bespoke, Tc23Config(2, 0)).synthesize()
        truncated = Tc23ApproximateMLP(bespoke, Tc23Config(2, 3)).synthesize()
        assert truncated.area_cm2 < full.area_cm2

    def test_explore_tc23_respects_loss_budget(self, toy_data, trained_baseline):
        x_train, y_train, x_test, y_test = toy_data
        bespoke, _ = trained_baseline
        from repro.quant.quantizers import quantize_inputs

        xq = quantize_inputs(x_test)
        base_acc = bespoke.accuracy(xq, y_test)
        model, report, sweep = explore_tc23(bespoke, xq, y_test, base_acc, max_accuracy_loss=0.05)
        assert len(sweep) == 12
        if model is not None:
            assert model.accuracy(xq, y_test) >= base_acc - 0.05
            assert report.area_cm2 < bespoke.synthesize().area_cm2

    def test_explore_tc23_approximates_codes_once_per_digit_count(
        self, toy_data, trained_baseline, monkeypatch
    ):
        from repro.baselines import approx_tc23
        from repro.quant.quantizers import quantize_inputs

        _, _, x_test, y_test = toy_data
        bespoke, _ = trained_baseline
        xq = quantize_inputs(x_test)
        base_acc = bespoke.accuracy(xq, y_test)
        # Reference: every configuration built on its own.
        expected = []
        for digits in (1, 2, 3):
            for trunc in (0, 1, 2, 3):
                model = Tc23ApproximateMLP(bespoke, Tc23Config(digits, trunc))
                report = model.synthesize()
                expected.append(
                    {
                        "max_csd_digits": digits,
                        "truncation_bits": trunc,
                        "accuracy": model.accuracy(xq, y_test),
                        "area_cm2": report.area_cm2,
                        "power_mw": report.power_mw,
                    }
                )

        passes = []
        original = approx_tc23.approximate_weight_codes

        def counting(codes, max_csd_digits):
            passes.append(max_csd_digits)
            return original(codes, max_csd_digits)

        monkeypatch.setattr(approx_tc23, "approximate_weight_codes", counting)
        model, report, sweep = explore_tc23(bespoke, xq, y_test, base_acc)
        layers = len(bespoke.weight_codes)
        assert sorted(passes) == [1] * layers + [2] * layers + [3] * layers
        assert sweep == expected
        if model is not None:
            assert report == model.synthesize()

    def test_explore_tc23_sweeps_the_module_grid(self, toy_data, trained_baseline):
        from itertools import product

        from repro.baselines import approx_tc23
        from repro.quant.quantizers import quantize_inputs

        _, _, x_test, y_test = toy_data
        bespoke, _ = trained_baseline
        xq = quantize_inputs(x_test)
        _, _, sweep = explore_tc23(bespoke, xq, y_test, bespoke.accuracy(xq, y_test))
        assert approx_tc23.CSD_DIGIT_OPTIONS == (1, 2, 3)
        assert approx_tc23.TRUNCATION_OPTIONS == (0, 1, 2, 3)
        assert [(row["max_csd_digits"], row["truncation_bits"]) for row in sweep] == list(
            product(approx_tc23.CSD_DIGIT_OPTIONS, approx_tc23.TRUNCATION_OPTIONS)
        )

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            Tc23Config(max_csd_digits=0)
        with pytest.raises(ValueError):
            Tc23Config(truncation_bits=-1)


class TestVosBaseline:
    def test_error_probability_scales_with_voltage(self):
        assert VosConfig(voltage=1.0).timing_error_probability == 0.0
        assert VosConfig(voltage=0.6).timing_error_probability == pytest.approx(0.08)
        assert 0 < VosConfig(voltage=0.8).timing_error_probability < 0.08

    def test_power_lower_than_nominal(self, trained_baseline):
        bespoke, _ = trained_baseline
        vos = VosApproximateMLP(bespoke, VosConfig(voltage=0.8))
        nominal = Tc23ApproximateMLP(bespoke, Tc23Config(2, 0)).synthesize()
        assert vos.synthesize().power_mw < nominal.power_mw

    def test_vos_accuracy_not_better_than_exact(self, toy_data, trained_baseline):
        x_train, y_train, x_test, y_test = toy_data
        bespoke, _ = trained_baseline
        from repro.quant.quantizers import quantize_inputs

        xq = quantize_inputs(x_test)
        vos = VosApproximateMLP(bespoke, VosConfig(voltage=0.7), seed=1)
        assert vos.accuracy(xq, y_test) <= bespoke.accuracy(xq, y_test) + 0.05

    def test_explore_vos_returns_sweep(self, toy_data, trained_baseline):
        x_train, y_train, x_test, y_test = toy_data
        bespoke, _ = trained_baseline
        from repro.quant.quantizers import quantize_inputs

        xq = quantize_inputs(x_test)
        base_acc = bespoke.accuracy(xq, y_test)
        _, _, sweep = explore_vos(bespoke, xq, y_test, base_acc)
        assert len(sweep) == 6

    def test_explore_vos_sweeps_the_module_grid(self, toy_data, trained_baseline):
        from repro.baselines import vos_tcad23
        from repro.quant.quantizers import quantize_inputs

        _, _, x_test, y_test = toy_data
        bespoke, _ = trained_baseline
        xq = quantize_inputs(x_test)
        _, _, sweep = explore_vos(bespoke, xq, y_test, bespoke.accuracy(xq, y_test))
        assert vos_tcad23.CSD_DIGIT_OPTIONS == (1, 2, 3)
        assert vos_tcad23.VOLTAGE_OPTIONS == (0.8, 0.7)
        assert [(row["max_csd_digits"], row["voltage"]) for row in sweep] == [
            (digits, voltage)
            for digits in vos_tcad23.CSD_DIGIT_OPTIONS
            for voltage in vos_tcad23.VOLTAGE_OPTIONS
        ]
        # The lower supply of each digit count draws less power on the
        # same circuit.
        for high, low in zip(sweep[::2], sweep[1::2]):
            assert low["area_cm2"] == high["area_cm2"]
            assert low["power_mw"] < high["power_mw"]

    def test_invalid_voltage(self):
        with pytest.raises(ValueError):
            VosConfig(voltage=0.4)


class TestStochasticBaseline:
    def test_accuracy_much_lower_than_float(self, toy_data, trained_baseline):
        x_train, y_train, x_test, y_test = toy_data
        _, float_model = trained_baseline
        stochastic = StochasticMLP(float_model, StochasticConfig(seed=0))
        sc_acc = stochastic.accuracy(x_test, y_test)
        float_acc = float_model.accuracy(x_test, y_test)
        assert sc_acc <= float_acc
        assert 0.0 <= sc_acc <= 1.0

    def test_small_area_but_long_latency(self, trained_baseline):
        bespoke, float_model = trained_baseline
        stochastic = StochasticMLP(float_model)
        report = stochastic.synthesize()
        assert report.area_cm2 < bespoke.synthesize().area_cm2
        assert report.clock_period_ms == pytest.approx(1024 * 0.22)

    def test_longer_streams_reduce_output_noise(self, toy_data, trained_baseline):
        x_train, y_train, x_test, y_test = toy_data
        _, float_model = trained_baseline
        sample = x_test[:5]

        def output_spread(stream_length: int) -> float:
            outputs = [
                StochasticMLP(
                    float_model, StochasticConfig(stream_length=stream_length, seed=seed)
                ).forward(sample)
                for seed in range(8)
            ]
            return float(np.std(np.stack(outputs), axis=0).mean())

        # Binomial sampling noise shrinks with the bitstream length.
        assert output_spread(4096) < output_spread(16)

    def test_invalid_stream_length(self):
        with pytest.raises(ValueError):
            StochasticConfig(stream_length=0)
