"""Property suite: emitted RTL artifacts round-trip losslessly.

For random MLPs (via the shared ``make_mlp``/``random_population``
factories) across topologies, bit widths and mask densities:

* the module text, executed as Verilog by microverilog, drives every
  ``acc_lL_nJ`` accumulator net to the exact model accumulator —
  generation → parsing → evaluation is lossless;
* the testbench text's stimulus and golden responses parse back out
  (``extract_testbench_vectors``) bit-identically to what was applied,
  through the new named :class:`~repro.rtl.testbench.TestbenchVectors`
  result;
* the microverilog simulator, the testbench golden responses and the
  Python model agree on every vector (``verify_design`` with zero
  mismatches) — the full oracle closure.
"""

import hashlib
import re

import numpy as np
import pytest

from hypothesis import example, given, settings, strategies as st

from repro.approx.config import ApproxConfig
from repro.eda.microverilog import simulate_mlp_module
from repro.evaluation.verification import verify_design
from repro.rtl.testbench import (
    TestbenchVectors,
    extract_testbench_vectors,
    generate_testbench,
)
from repro.rtl.verilog import generate_mlp_verilog, rename_module


def _draw_case(make_mlp, seed, hidden, input_bits, mask_density):
    rng = np.random.default_rng(seed)
    config = ApproxConfig(input_bits=input_bits)
    mlp = make_mlp(
        rng, sizes=(4, hidden, 3), config=config, mask_density=mask_density
    )
    vectors = rng.integers(
        0, config.max_input_value + 1, size=(24, mlp.topology.num_inputs)
    )
    return mlp, vectors.astype(np.int64)


class TestAccumulatorNetRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**9),
        hidden=st.integers(min_value=2, max_value=5),
        input_bits=st.integers(min_value=2, max_value=6),
        mask_density=st.floats(min_value=0.1, max_value=1.0),
    )
    def test_accumulator_nets_execute_exactly(
        self, make_mlp, seed, hidden, input_bits, mask_density
    ):
        mlp, vectors = _draw_case(make_mlp, seed, hidden, input_bits, mask_density)
        classes, nets = simulate_mlp_module(generate_mlp_verilog(mlp), vectors)
        assert len(nets) == len(mlp.layers)
        activations = vectors
        for layer, recovered in zip(mlp.layers, nets):
            accumulators = layer.accumulate(activations)
            assert recovered.dtype == np.int64
            assert np.array_equal(recovered, accumulators)
            if layer.activation is not None:
                activations = layer.activation(accumulators)
        assert np.array_equal(classes, mlp.predict(vectors))

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**9),
        fan_in=st.integers(min_value=1, max_value=6),
        input_bits=st.integers(min_value=1, max_value=8),
        all_negative=st.booleans(),
        pow2_masks=st.booleans(),
    )
    def test_first_layer_nets_across_widths_and_signs(
        self, make_mlp, seed, fan_in, input_bits, all_negative, pow2_masks
    ):
        """Input widths from 1 to 8 bits, all-negative weights and
        single-bit masks, with the all-zero and all-max input rows."""
        rng = np.random.default_rng(seed)
        mlp = make_mlp(rng, sizes=(fan_in, 3, 2), config=ApproxConfig(input_bits=input_bits))
        layer = mlp.layers[0]
        if pow2_masks:
            layer.masks[:] = 1 << rng.integers(0, input_bits, size=layer.masks.shape)
        if all_negative:
            layer.signs[:] = -1
        high = (1 << input_bits) - 1
        vectors = rng.integers(0, high + 1, size=(6, fan_in))
        vectors[0, :] = 0
        vectors[1, :] = high
        _, nets = simulate_mlp_module(generate_mlp_verilog(mlp), vectors)
        assert np.array_equal(nets[0], layer.accumulate(vectors))

    def test_edge_design_accumulator_nets(self, edge_design):
        mlp, vectors = edge_design
        _, nets = simulate_mlp_module(generate_mlp_verilog(mlp), vectors)
        activations = vectors
        for layer, recovered in zip(mlp.layers, nets):
            accumulators = layer.accumulate(activations)
            assert np.array_equal(recovered, accumulators)
            if layer.activation is not None:
                activations = layer.activation(accumulators)


class TestTestbenchRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**9),
        hidden=st.integers(min_value=2, max_value=5),
        input_bits=st.integers(min_value=2, max_value=6),
        mask_density=st.floats(min_value=0.1, max_value=1.0),
    )
    def test_vectors_and_golden_recovered_bit_identically(
        self, make_mlp, seed, hidden, input_bits, mask_density
    ):
        mlp, vectors = _draw_case(make_mlp, seed, hidden, input_bits, mask_density)
        text = generate_testbench(mlp, vectors=vectors)
        parsed = extract_testbench_vectors(text)
        assert isinstance(parsed, TestbenchVectors)
        assert np.array_equal(parsed.vectors, vectors)
        assert np.array_equal(parsed.golden, mlp.predict(vectors))
        assert parsed.num_vectors == vectors.shape[0]
        assert parsed.num_inputs == vectors.shape[1]
        # Historical unpacking stays supported.
        recovered_vectors, recovered_golden = parsed
        assert recovered_vectors is parsed.vectors
        assert recovered_golden is parsed.golden


class TestOracleClosure:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**9),
        hidden=st.integers(min_value=2, max_value=5),
        input_bits=st.integers(min_value=2, max_value=6),
        mask_density=st.floats(min_value=0.1, max_value=1.0),
    )
    # An accumulator narrower than the QReLU output once made the emitted
    # ``sat`` part-select read past its declared width.
    @example(seed=611723, hidden=2, input_bits=2, mask_density=0.125)
    def test_microverilog_and_model_agree(
        self, make_mlp, seed, hidden, input_bits, mask_density
    ):
        mlp, vectors = _draw_case(make_mlp, seed, hidden, input_bits, mask_density)
        verification = verify_design(mlp, vectors)
        assert verification.total_mismatches == 0
        assert verification.passed


class TestSaturationWireWidth:
    def test_sat_wire_covers_output_bits_for_narrow_accumulators(self, make_mlp):
        mlp, _ = _draw_case(make_mlp, seed=611723, hidden=2, input_bits=2, mask_density=0.125)
        text = generate_mlp_verilog(mlp)
        declared = {
            name: int(msb) + 1
            for msb, name in re.findall(r"wire signed \[(\d+):0\] (sat_l\d+_n\d+) =", text)
        }
        acc_widths = [
            int(msb) + 1
            for msb in re.findall(r"wire signed \[(\d+):0\] acc_l0_n\d+ =", text)
        ]
        out_bits = mlp.layers[0].activation.out_bits
        assert min(acc_widths) < out_bits  # the narrow-accumulator case
        assert declared and all(width >= out_bits for width in declared.values())
        for name in declared:
            assert f"{name}[{out_bits - 1}:0]" in text


class TestPopulationRoundTrip:
    def test_layout_decoded_population_verifies_clean(self, random_population):
        """GA-shaped candidates (layout decode) survive the closure too."""
        rng = np.random.default_rng(5)
        for model in random_population(rng, (4, 3, 2), 6):
            vectors = rng.integers(0, 16, size=(16, 4))
            verification = verify_design(model, vectors)
            assert verification.passed


class TestRenameModule:
    """Publishing renames the canonical module text instead of
    regenerating it: the two must agree byte for byte."""

    @pytest.mark.parametrize("name", ["approx_mlp", "approx_mlp_toy_0f3a9c", "m"])
    def test_equals_regenerating_with_the_name(self, edge_design, name):
        mlp, _ = edge_design
        assert rename_module(generate_mlp_verilog(mlp), name) == generate_mlp_verilog(
            mlp, module_name=name
        )

    def test_text_without_module_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            rename_module("// no module here\nwire x;\n", "m")


#: Per corner design, the sha256 of: ``generate_mlp_verilog``; the
#: published testbench (``seed=0``, 16 vectors); a testbench on a
#: 32-vector ``_draw_vectors`` stimulus.  Designs with the same input
#: width and the same 32 golden classes share the last one.
EMITTED_SHA256 = {
    "all_pruned": (
        "46c537c0b4d1d47e0e91140ba836cf461a7b4de55b4c965850f34450c7705625",
        "9033474189b3553f543dad5ab316c5aced30cea5eca193323c9379587d6c4f19",
        "0ea361fea22c1868da8a37fa2843f3212102a37ab4c54d7178a3ae1e4c7ff027",
    ),
    "constant_hidden_layer": (
        "703fa91b5ab1e7a7844efd435e6ac29f453c921a21d4b8eb05604e75e508bd36",
        "dc55253cd4d1d48915f1b59620ce8fad4c3b31a8dfcfcbbc73ff26bf90b118dd",
        "0ea361fea22c1868da8a37fa2843f3212102a37ab4c54d7178a3ae1e4c7ff027",
    ),
    "minimal_widths": (
        "ef11edd7e662a1cc851ba998a9939be8701d6aa0e1d08eba4eaf73fac5004699",
        "afc6c4f7691f801b9a8d44f3eb16508c8b1f05256bd8de25ba51c4a40f987bde",
        "fa3beac83b0b8fa148fb01c304c9bf2aa7b3974822eea62da7beef486230472d",
    ),
    "one_bit_inputs": (
        "56688d5b2cdd2a7fbe04b5b0f65cd7a42cc4bebfa262c83aafb6497660e30b5b",
        "e0673a70f88c96178af25d9e9b65aafbb98873a45e4e3dd4fcef0385e25a713f",
        "fa3beac83b0b8fa148fb01c304c9bf2aa7b3974822eea62da7beef486230472d",
    ),
    "shift_past_accumulator": (
        "c2e4c45f2755382d2733f346a481a68f657c68de692b5bff3576d4ce2aedfcba",
        "62dc67505a9de9fa0ad5dedf69293f0c1f45cc95e8629330ff1353c782fba891",
        "0ea361fea22c1868da8a37fa2843f3212102a37ab4c54d7178a3ae1e4c7ff027",
    ),
    "sparse": (
        "94aee92744d62d137713005a5933ad37533645a6a0cafc6c559cc047fdd9d8f2",
        "0b13f2160a053513a0e3f08fc86626d9d9949a90cb0ddf682bdf4634091cebe9",
        "0ea361fea22c1868da8a37fa2843f3212102a37ab4c54d7178a3ae1e4c7ff027",
    ),
}


class TestEmittedBytesPinned:
    """The emitters' bytes, and the reader's errors, are fixed: a faster
    emitter or reader must reproduce them exactly."""

    def test_module_and_testbench_bytes(self, edge_design, request):
        from repro.evaluation.verification import _draw_vectors

        mlp, _ = edge_design
        name = request.node.callspec.params["edge_design"]
        module = f"approx_mlp_{name}"
        texts = (
            generate_mlp_verilog(mlp, module_name=module),
            generate_testbench(mlp, module_name=module, testbench_name=f"{module}_tb", seed=0),
            generate_testbench(
                mlp, vectors=_draw_vectors(5, mlp.config.max_input_value, 32, seed=0)
            ),
        )
        digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in texts)
        assert digests == EMITTED_SHA256[name]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("module empty; endmodule", "text does not contain generated testbench stimulus"),
            (
                "    in0 = 4'd1;\n    in1 = 4'd2;\n    in0 = 4'd3;\n"
                "if (class_index !== 2'd1)\nif (class_index !== 2'd0)\n",
                "3 input assignments do not divide into 2 golden checks",
            ),
            (
                "    in0 = 4'd1;\n    in1 = 4'd2;\n    in1 = 4'd3;\n    in0 = 4'd3;\n"
                "if (class_index !== 2'd1)\nif (class_index !== 2'd0)\n",
                "input assignments are not in canonical order",
            ),
        ],
        ids=["no_stimulus", "count_does_not_divide", "out_of_order"],
    )
    def test_reader_errors(self, text, message):
        with pytest.raises(ValueError) as error:
            extract_testbench_vectors(text)
        assert str(error.value) == message


#: The reader's input pattern before it took a literal prefix: an
#: ``inN = <bits>'d<value>;`` line anchored at a line start.  The current
#: pattern must find exactly the same ``(index, value)`` pairs.
_REFERENCE_INPUT_RE = re.compile(r"^\s*in(\d+) = \d+'d(\d+);$", re.MULTILINE)

#: Fragments of testbench lines, line breaks, ASCII and Unicode
#: whitespace (only ``\n`` ends a line for ``^``/``$``) and near misses.
_PIECES = st.sampled_from(
    [
        "in", "in0", "in12", " = ", "4'd", "'d", "7", "0", "٣", ";", "\n", "\n\n",
        " ", "        ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x85", " ", "\xa0",
        "x", "#1;", "// in1 = 4'd2;", "in3 = 4'd9;", "    in1 = 8'd255;\n", "in2 = 'd1;",
    ]
)


@pytest.fixture(scope="module")
def tamper_base(make_mlp):
    """A short emitted testbench (4 vectors of 3 inputs) to tamper with."""
    rng = np.random.default_rng(3)
    mlp = make_mlp(rng, sizes=(3, 2, 2), mask_density=0.5)
    return generate_testbench(mlp, vectors=rng.integers(0, 16, size=(4, 3)))


def _input_pairs(text):
    """The ``(index, value)`` pairs the reader takes from ``text``."""
    from repro.rtl.vectors import _INPUT_RE

    return _INPUT_RE.findall("\n" + text)


class TestInputPattern:
    """The reader's literal-prefixed input pattern finds the same pairs
    as the line-anchored reference on any text."""

    def test_matches_reference_on_emitted_testbenches(self, edge_design):
        mlp, vectors = edge_design
        text = generate_testbench(mlp, vectors=vectors)
        pairs = _input_pairs(text)
        assert pairs == _REFERENCE_INPUT_RE.findall(text)
        assert len(pairs) == vectors.size

    @settings(max_examples=200, deadline=None)
    @given(
        edits=st.lists(
            st.tuples(st.floats(0.0, 1.0), st.integers(0, 4), st.lists(_PIECES, max_size=3).map("".join)),
            min_size=1,
            max_size=6,
        )
    )
    def test_matches_reference_on_tampered_testbenches(self, tamper_base, edits):
        """Cut and splice an emitted testbench at random places."""
        text = tamper_base
        for where, cut, insert in edits:
            at = int(where * len(text))
            text = text[:at] + insert + text[at + cut :]
        assert _input_pairs(text) == _REFERENCE_INPUT_RE.findall(text)

    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(st.lists(_PIECES, max_size=40).map("".join), st.text(max_size=80)))
    def test_matches_reference_on_random_text(self, text):
        assert _input_pairs(text) == _REFERENCE_INPUT_RE.findall(text)

