"""Tests for Verilog module and testbench generation.

Besides the text's structure, the emitted module is executed as Verilog
(:mod:`repro.eda.microverilog`) on hand-worked neurons, so each
``acc_lL_nJ`` net is checked against a value computed by hand rather
than only against the Python model, and on the accumulator extremes its
declared width must hold.
"""

import numpy as np
import pytest

from repro.approx.config import ApproxConfig
from repro.approx.mlp import ApproximateMLP
from repro.approx.topology import Topology
from repro.eda.microverilog import MicroVerilogError, parse_module, simulate_mlp_module
from repro.rtl.testbench import generate_testbench
from repro.rtl.verilog import generate_mlp_verilog, generate_neuron_expression


def _one_neuron_design(masks, signs, exponents, bias, input_bits=4):
    """A ``(fan_in, 2, 2)`` model whose neuron ``acc_l0_n0`` has the given
    parameters; the rest of the model is random."""
    masks = np.asarray(masks)
    rng = np.random.default_rng(0)
    mlp = ApproximateMLP.random(
        Topology((masks.size, 2, 2)), ApproxConfig(input_bits=input_bits), rng
    )
    layer = mlp.layers[0]
    layer.masks[:, 0] = masks
    layer.signs[:, 0] = signs
    layer.exponents[:, 0] = exponents
    layer.biases[0] = bias
    return mlp


def _first_accumulator_net(mlp, vectors):
    """Net ``acc_l0_n0`` of the emitted module, executed on ``vectors``."""
    _, nets = simulate_mlp_module(generate_mlp_verilog(mlp), np.asarray(vectors))
    return nets[0][:, 0]


#: Hand-worked neurons: ``(input_bits, masks, signs, exponents, bias,
#: vectors, accumulators)``.
HAND_NEURONS = {
    "positive_only": (4, [15, 15], [1, 1], [0, 1], 3,
                      [[5, 7], [0, 0], [15, 15]], [5 + 14 + 3, 3, 15 + 30 + 3]),
    "negative_sign": (4, [15], [-1], [0], 0, [[9], [0], [15]], [-9, 0, -15]),
    "masked_bits_ignored": (4, [0b1010], [1], [0], 0, [[15], [5], [10]], [10, 0, 10]),
    "mixed_signs_shifted": (4, [15, 0b1010, 0], [1, -1, 1], [0, 2, 1], 5,
                            [[7, 15, 9], [0, 0, 0], [15, 15, 15]],
                            [7 - 40 + 5, 5, 15 - 40 + 5]),
    "max_exponent_min_bias": (4, [15], [-1], [6], -128, [[15], [0]],
                              [-(15 << 6) - 128, -128]),
    "pruned_bias_only": (4, [0, 0], [1, -1], [3, 3], 127,
                         [[15, 15], [0, 0]], [127, 127]),
    "one_bit_inputs": (1, [1, 1, 1], [1, -1, 1], [0, 1, 2], -1,
                       [[1, 1, 1], [0, 1, 0], [1, 0, 0]], [1 - 2 + 4 - 1, -2 - 1, 1 - 1]),
    "eight_bit_inputs": (8, [0xFF, 0x0F], [1, -1], [6, 0], 0,
                         [[255, 255], [16, 15], [0, 0]], [(255 << 6) - 15, (16 << 6) - 15, 0]),
}


class TestVerilogGeneration:
    @pytest.fixture
    def mlp(self, rng, make_mlp):
        return make_mlp(rng, sizes=(4, 3, 2), mask_density=0.7)

    def test_module_structure(self, mlp):
        text = generate_mlp_verilog(mlp, module_name="bc_mlp")
        assert text.startswith("// Automatically generated")
        assert "module bc_mlp (" in text
        assert text.rstrip().endswith("endmodule")
        assert text.count("input  wire") == 4
        assert "class_index" in text

    def test_hardwired_constants_present(self, mlp):
        text = generate_mlp_verilog(mlp)
        layer = mlp.layers[0]
        nonzero = np.flatnonzero(layer.masks[:, 0])
        if nonzero.size:
            i = int(nonzero[0])
            assert f"in{i} & 4'd{int(layer.masks[i, 0])}" in text

    def test_neuron_expression_zero_when_pruned(self, rng, make_mlp):
        mlp = make_mlp(rng, sizes=(3, 2, 2), mask_density=0.0)
        for layer in mlp.layers:
            layer.biases[:] = 0
        expr = generate_neuron_expression(mlp, 0, 0, "in")
        assert "&" not in expr

    def test_every_neuron_has_a_wire(self, mlp):
        text = generate_mlp_verilog(mlp)
        for j in range(3):
            assert f"acc_l0_n{j}" in text
        for j in range(2):
            assert f"acc_l1_n{j}" in text

    def test_testbench_contains_golden_predictions(self, mlp, rng):
        vectors = rng.integers(0, 16, size=(5, 4))
        expected = mlp.predict(vectors)
        text = generate_testbench(mlp, vectors=vectors)
        assert "TESTBENCH PASSED" in text
        for value in expected:
            assert f"'d{int(value)}" in text

    def test_testbench_random_vectors(self, mlp):
        text = generate_testbench(mlp, num_random_vectors=3)
        assert text.count("#1;") == 3

    def test_testbench_rejects_bad_vector_shape(self, mlp):
        with pytest.raises(ValueError):
            generate_testbench(mlp, vectors=np.zeros((2, 7), dtype=int))

    def test_testbench_is_verilog_2001_compatible(self, mlp):
        """Regression: the mismatch message must not use the
        SystemVerilog-only ``%p`` format (breaks e.g. iverilog) — the
        applied input vector is spelled out literally instead."""
        vectors = np.array([[3, 0, 7, 2], [1, 15, 4, 9]])
        text = generate_testbench(mlp, vectors=vectors)
        assert "%p" not in text
        assert "inputs={3, 0, 7, 2}" in text
        assert "inputs={1, 15, 4, 9}" in text


class TestAccumulatorNetValues:
    @pytest.mark.parametrize("case", sorted(HAND_NEURONS))
    def test_hand_worked_neuron(self, case):
        input_bits, masks, signs, exponents, bias, vectors, expected = HAND_NEURONS[case]
        mlp = _one_neuron_design(masks, signs, exponents, bias, input_bits)
        assert _first_accumulator_net(mlp, vectors).tolist() == expected
        assert mlp.layers[0].accumulate(np.asarray(vectors))[:, 0].tolist() == expected

    @pytest.mark.parametrize(
        "signs", [[1, 1, 1], [-1, -1, -1], [1, -1, 1]],
        ids=["all_positive", "all_negative", "mixed"],
    )
    def test_extreme_inputs_reach_the_bounds(self, signs):
        """With every mask open and no bias, the input that is all-max on
        the positive summands reaches the neuron's upper bound and its
        complement the lower one: the net holds both extremes exactly."""
        signs = np.array(signs)
        mlp = _one_neuron_design([15, 15, 15], signs, [0, 3, 6], 0)
        layer = mlp.layers[0]
        upper = np.where(signs > 0, 15, 0)
        lower = np.where(signs < 0, 15, 0)
        nets = _first_accumulator_net(mlp, [upper, lower])
        assert nets.tolist() == [layer.max_accumulators()[0], layer.min_accumulators()[0]]


class TestAccumulatorNetWidths:
    def test_declared_width_holds_the_bounds(self, edge_design):
        mlp, _ = edge_design
        module = parse_module(generate_mlp_verilog(mlp))
        for index, layer in enumerate(mlp.layers):
            lows, highs = layer.min_accumulators(), layer.max_accumulators()
            for j in range(layer.fan_out):
                signal = module.signals[f"acc_l{index}_n{j}"]
                assert signal.signed
                assert -(1 << (signal.width - 1)) <= lows[j]
                assert highs[j] <= (1 << (signal.width - 1)) - 1


class TestEmittedModuleStimulus:
    @pytest.fixture
    def text(self, rng, make_mlp):
        return generate_mlp_verilog(make_mlp(rng, sizes=(4, 3, 2)))

    @pytest.mark.parametrize(
        "vectors, message",
        [
            (np.full((2, 4), 16), "range"),
            (np.full((2, 4), -1), "range"),
            (np.zeros((2, 3), dtype=int), "stimulus provides 3"),
            (np.zeros(4, dtype=int), "vectors must be"),
            (np.zeros((2, 4, 1), dtype=int), "vectors must be"),
        ],
        ids=["above_range", "negative", "too_few_inputs", "one_dimensional", "three_dimensional"],
    )
    def test_bad_vectors_rejected(self, text, vectors, message):
        with pytest.raises(MicroVerilogError, match=message):
            simulate_mlp_module(text, vectors)

    @pytest.mark.parametrize(
        "stimulus, message",
        [
            ({f"in{i}": np.zeros(2, dtype=int) for i in range(3)}, "input ports"),
            ({f"in{i}": np.zeros(2 + (i == 3), dtype=int) for i in range(4)}, "ragged"),
            ({f"in{i}": np.zeros((2, 1), dtype=int) for i in range(4)}, "one-dimensional"),
        ],
        ids=["missing_port", "ragged", "two_dimensional_port"],
    )
    def test_bad_port_stimulus_rejected(self, text, stimulus, message):
        with pytest.raises(MicroVerilogError, match=message):
            parse_module(text).evaluate(stimulus)
