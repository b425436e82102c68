"""Tests for the approximate layer forward model (eq. 4), one neuron and many."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.approx.layer import ApproximateLayer, worst_case_shift
from repro.approx.masks import mask_popcount
from repro.quant.qrelu import QReLU


def simple_neuron(bias=5, activation=None, input_bits=4, **columns):
    """A small, hand-checkable neuron: a one-column :class:`ApproximateLayer`."""
    params = dict(
        masks=np.array([0b1111, 0b1010, 0b0000]),
        signs=np.array([1, -1, 1]),
        exponents=np.array([0, 2, 1]),
    )
    params.update(columns)
    return ApproximateLayer(
        **{name: np.asarray(value)[..., None] for name, value in params.items()},
        biases=np.array([bias]),
        input_bits=input_bits,
        activation=activation,
    )


def reference_neuron(x, masks, signs, exponents, bias, activation=None):
    """Eq. (4) for one neuron, written out per input in plain Python."""
    outputs = []
    for row in x.tolist():
        acc = bias
        for value, mask, sign, exponent in zip(row, masks, signs, exponents):
            acc += sign * ((value & mask) << exponent)
        outputs.append(acc)
    outputs = np.array(outputs, dtype=np.int64)
    return outputs if activation is None else activation(outputs)


class TestApproximateNeuron:
    def test_summands_match_equation4(self):
        neuron = simple_neuron()
        x = np.array([[7, 15, 9]])
        # (7 & 15) << 0 = 7 ; -( (15 & 0b1010) << 2 ) = -(10 << 2) = -40 ; masked-out -> 0
        assert neuron.accumulate(x)[0, 0] == 7 - 40 + 0 + 5

    def test_paper_mask_example(self):
        # Paper Section III-B: A = a5a4a3a2a1a0, mask 101101 keeps a5,a3,a2,a0.
        neuron = simple_neuron(
            bias=0, input_bits=6, masks=[0b101101], signs=[1], exponents=[0]
        )
        assert neuron.accumulate(np.array([[0b111111]]))[0, 0] == 0b101101

    def test_forward_without_activation_is_accumulator(self):
        neuron = simple_neuron()
        x = np.array([[1, 2, 3]])
        assert neuron.forward(x)[0, 0] == neuron.accumulate(x)[0, 0]

    def test_forward_with_qrelu(self):
        neuron = simple_neuron(activation=QReLU(shift=0, out_bits=4))
        x = np.array([[15, 0, 0]])
        assert neuron.forward(x)[0, 0] == min(15 + 5, 15)

    def test_zero_mask_removes_connection(self):
        neuron = simple_neuron(masks=np.array([0, 0, 0]))
        x = np.array([[15, 15, 15]])
        assert neuron.accumulate(x)[0, 0] == neuron.biases[0]

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            simple_neuron(masks=np.array([16, 0, 0]))  # exceeds 4 bits
        with pytest.raises(ValueError):
            simple_neuron(signs=np.array([1, 0, 1]))
        with pytest.raises(ValueError):
            simple_neuron(exponents=np.array([-1, 0, 0]))
        with pytest.raises(ValueError):
            simple_neuron(masks=np.array([[1, 2, 3]]))  # wrong ndim


class TestWorstCaseShift:
    def test_small_layer_no_shift_needed(self):
        # 1 input of 4 bits, max exponent 0: accumulator fits in 8 bits.
        assert worst_case_shift(1, 4, 0, 8) == 0

    def test_larger_layer_requires_shift(self):
        shift = worst_case_shift(fan_in=10, input_bits=4, max_exponent=6, out_bits=8)
        max_acc = 10 * (15 << 6)
        assert (max_acc >> shift) <= 2**8 * 2  # within a factor of the target range
        assert shift > 0

    def test_rejects_non_positive_fan_in(self):
        with pytest.raises(ValueError):
            worst_case_shift(0, 4, 0, 8)


class TestApproximateLayer:
    def make_layer(self, rng, fan_in=5, fan_out=3, input_bits=4, activation=None):
        return ApproximateLayer(
            masks=rng.integers(0, 1 << input_bits, size=(fan_in, fan_out)),
            signs=rng.choice([-1, 1], size=(fan_in, fan_out)),
            exponents=rng.integers(0, 7, size=(fan_in, fan_out)),
            biases=rng.integers(-128, 128, size=fan_out),
            input_bits=input_bits,
            activation=activation,
        )

    def test_layer_matches_per_neuron_forward(self, rng):
        layer = self.make_layer(rng, activation=QReLU(shift=3, out_bits=8))
        x = rng.integers(0, 16, size=(20, 5))
        layer_out = layer.forward(x)
        for j in range(layer.fan_out):
            expected = reference_neuron(
                x,
                layer.masks[:, j].tolist(),
                layer.signs[:, j].tolist(),
                layer.exponents[:, j].tolist(),
                int(layer.biases[j]),
                layer.activation,
            )
            assert np.array_equal(layer_out[:, j], expected)

    def test_accumulate_shape_and_1d_input(self, rng):
        layer = self.make_layer(rng)
        assert layer.accumulate(np.zeros(5, dtype=int)).shape == (1, 3)
        assert layer.accumulate(np.zeros((7, 5), dtype=int)).shape == (7, 3)

    def test_accumulate_rejects_wrong_features(self, rng):
        layer = self.make_layer(rng)
        with pytest.raises(ValueError):
            layer.accumulate(np.zeros((4, 9), dtype=int))

    def test_accumulator_bounds_contain_samples(self, rng):
        layer = self.make_layer(rng)
        x = rng.integers(0, 16, size=(300, 5))
        acc = layer.accumulate(x)
        assert np.all(acc.max(axis=0) <= layer.max_accumulators())
        assert np.all(acc.min(axis=0) >= layer.min_accumulators())

    def test_accumulator_bounds_hand_computed(self):
        """Column 0 is ``simple_neuron``; column 1 has a negative bias."""
        layer = ApproximateLayer(
            masks=np.array([[0b1111, 0b0011], [0b1010, 0b1111], [0b0000, 0b0001]]),
            signs=np.array([[1, -1], [-1, 1], [1, -1]]),
            exponents=np.array([[0, 1], [2, 0], [1, 3]]),
            biases=np.array([5, -7]),
            input_bits=4,
        )
        assert layer.max_accumulators().tolist() == [15 + 5, 15]
        assert layer.min_accumulators().tolist() == [-(0b1010 << 2), -(3 << 1) - (1 << 3) - 7]

    def test_accumulator_bounds_are_reached(self, rng):
        """Without biases, the input that is all-max exactly on a neuron's
        positive (negative) summands reaches its upper (lower) bound."""
        layer = self.make_layer(rng, fan_in=5, fan_out=1)
        layer.biases[:] = 0
        positive = layer.signs[:, 0] > 0
        upper = np.where(positive, 15, 0)[None, :]
        lower = np.where(positive, 0, 15)[None, :]
        assert layer.accumulate(upper)[0, 0] == layer.max_accumulators()[0]
        assert layer.accumulate(lower)[0, 0] == layer.min_accumulators()[0]

    def test_validation_errors(self, rng):
        with pytest.raises(ValueError):
            ApproximateLayer(
                masks=np.zeros((2, 2)),
                signs=np.ones((2, 2)),
                exponents=np.zeros((2, 2)),
                biases=np.zeros(3),
                input_bits=4,
            )

    def test_validate_false_skips_the_range_checks(self):
        """Trusted producers (the chromosome decoder) skip the value-range
        checks; the shape checks still run."""
        params = dict(
            masks=np.array([[16]]), signs=np.array([[0]]), exponents=np.array([[-1]]),
            biases=np.zeros(1), input_bits=4,
        )
        with pytest.raises(ValueError):
            ApproximateLayer(**params)
        ApproximateLayer(**params, validate=False)
        with pytest.raises(ValueError):
            ApproximateLayer(**dict(params, biases=np.zeros(2)), validate=False)

    def test_input_bits_above_the_width_are_dropped(self):
        layer = ApproximateLayer(
            masks=np.array([[0b1111]]), signs=np.array([[1]]), exponents=np.array([[1]]),
            biases=np.zeros(1), input_bits=4,
        )
        assert layer.accumulate(np.array([[0b110101]]))[0, 0] == 0b0101 << 1

    def test_retained_bits_and_active_connections(self):
        """A connection is active while its mask keeps a bit; the retained
        bits are the masks' popcounts."""
        layer = ApproximateLayer(
            masks=np.array([[0b1010, 0], [0b1, 0b1111]]),
            signs=np.ones((2, 2), dtype=int),
            exponents=np.zeros((2, 2), dtype=int),
            biases=np.zeros(2, dtype=int),
            input_bits=4,
        )
        assert np.count_nonzero(layer.masks) == 3
        assert int(mask_popcount(layer.masks).sum()) == 2 + 1 + 4
        # A unit input on every connection sums exactly the retained '1' bits.
        assert layer.accumulate(np.ones((1, 2), dtype=int)).tolist() == [[1, 1]]
        assert layer.accumulate(np.full((1, 2), 15)).tolist() == [[0b1010 + 1, 15]]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_property_qrelu_layer_output_bounded(self, seed):
        rng = np.random.default_rng(seed)
        layer = self.make_layer(rng, activation=QReLU(shift=2, out_bits=8))
        x = rng.integers(0, 16, size=(10, 5))
        out = layer.forward(x)
        assert out.min() >= 0 and out.max() <= 255
