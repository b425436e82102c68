"""Tests for the batched netlist simulator and the differential harness.

Three layers of guarantees, mirroring the repo's vectorization pattern
(`tests/test_core_operators_population.py`):

* the compiled batched engine is **bit-identical** to the retained
  scalar ``slow=True`` oracle across 100+ random netlists/vector sets;
* randomized **property-based differential tests** (seeded hypothesis
  sweeps over gate types, input widths, negative weights and pow2-mask
  configs, including two's-complement boundary values) assert
  netlist-sim == Python model == (where applicable) testbench golden
  vectors;
* the ``verify_front`` harness reports zero model/netlist/RTL
  mismatches over a synthesized front, detects tampered RTL, memoizes
  through ``EvaluationCache``, and is reachable from the pipeline/CLI.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.approx.neuron import ApproximateNeuron
from repro.core.cache import EvaluationCache
from repro.evaluation.verification import verify_design, verify_front
from repro.hardware.netlist import Netlist, build_neuron_netlist
from repro.hardware.simulator import (
    CompiledNetlist,
    compile_netlist,
    simulate,
    simulate_batch,
    simulate_neuron_netlist,
)
from repro.rtl.testbench import extract_testbench_vectors, generate_testbench
from repro.rtl.verilog import generate_mlp_verilog


def _neuron_buses(neuron, vectors):
    vectors = np.asarray(vectors, dtype=np.int64)
    return {f"x{i}": vectors[:, i] for i in range(neuron.fan_in)}


#: Placeholder result for runner tests that stub out the session.
from repro.evaluation.artifacts import Artifact as _Artifact

_EMPTY_ARTIFACT = _Artifact.build(
    "stub", [], scale="smoke", seed=0, datasets=(), display=()
)


@pytest.fixture(scope="module")
def tiny_ga_result():
    from repro.core.trainer import GAConfig, GATrainer

    rng = np.random.default_rng(77)
    inputs = rng.integers(0, 16, size=(60, 4))
    labels = rng.integers(0, 2, size=60)
    trainer = GATrainer(
        (4, 3, 2), ga_config=GAConfig(population_size=12, generations=3, seed=1)
    )
    return trainer.train(inputs, labels)


# ----------------------------------------------------------------------
# Batched engine vs scalar oracle
# ----------------------------------------------------------------------
class TestBatchedOracleEquivalence:
    def test_100_random_netlists_bit_identical(self, make_neuron):
        """The slow=True oracle guarantee: ≥100 random netlists, exact."""
        rng = np.random.default_rng(0)
        for trial in range(110):
            fan_in = int(rng.integers(1, 7))
            input_bits = int(rng.integers(1, 9))
            neuron = make_neuron(rng, fan_in=fan_in, input_bits=input_bits)
            vectors = rng.integers(0, 1 << input_bits, size=(int(rng.integers(1, 9)), fan_in))
            fast = simulate_neuron_netlist(neuron, vectors)
            slow = simulate_neuron_netlist(neuron, vectors, slow=True)
            model = neuron.accumulate(np.asarray(vectors, dtype=np.int64)).tolist()
            assert fast == slow == model, trial

    def test_boundary_vectors_twos_complement(self, make_neuron):
        """All-zero / all-max stimulus hits the accumulator extremes."""
        rng = np.random.default_rng(1)
        for signs in ([1, 1, 1], [-1, -1, -1], [1, -1, 1]):
            neuron = ApproximateNeuron(
                masks=np.array([0b1111, 0b1111, 0b1111]),
                signs=np.array(signs),
                exponents=np.array([0, 2, 4]),
                bias=int(rng.integers(-64, 64)),
                input_bits=4,
            )
            vectors = np.array([[0, 0, 0], [15, 15, 15], [15, 0, 15]])
            results = simulate_neuron_netlist(neuron, vectors)
            assert results == simulate_neuron_netlist(neuron, vectors, slow=True)
            assert results == neuron.accumulate(vectors).tolist()
            # The all-max vector reaches the accumulator extreme of the
            # uniform-sign neurons (modulo the bias term).
            if all(s == 1 for s in signs):
                assert results[1] - neuron.bias + max(neuron.bias, 0) == neuron.max_accumulator()
            if all(s == -1 for s in signs):
                assert results[1] - neuron.bias + min(neuron.bias, 0) == neuron.min_accumulator()

    def test_mux_and_const_gate_kernels(self):
        """Hand-built netlist covering MUX2 and the constant generators."""
        netlist = Netlist()
        a, b = netlist.add_input_bus("a", 2)
        (sel,) = netlist.add_input_bus("sel", 1)
        one = netlist.add_gate("CONST1", ())[0]
        muxed = netlist.add_gate("MUX2", (a, b, sel))[0]
        inverted = netlist.add_gate("XNOR2", (muxed, one))[0]
        zero = netlist.add_gate("CONST0", ())[0]
        low = netlist.add_gate("OR2", (inverted, zero))[0]
        netlist.output_bits = [low, muxed]
        values = {
            "a": np.array([0, 1, 2, 3, 1]),
            "sel": np.array([0, 0, 1, 1, 1]),
        }
        fast = simulate_batch(netlist, values)
        slow = simulate_batch(netlist, values, slow=True)
        assert np.array_equal(fast, slow)

    def test_input_validation(self, make_neuron):
        rng = np.random.default_rng(2)
        neuron = make_neuron(rng, fan_in=2, input_bits=4)
        netlist = build_neuron_netlist(neuron)
        with pytest.raises(KeyError):
            simulate_batch(netlist, {"x0": np.array([1])})
        with pytest.raises(ValueError):
            simulate_batch(netlist, {"x0": np.array([1]), "x1": np.array([16])})
        with pytest.raises(ValueError):
            simulate_batch(netlist, {"x0": np.array([1, 2]), "x1": np.array([1])})
        with pytest.raises(ValueError):
            simulate_batch(netlist, {"x0": np.array([[1]]), "x1": np.array([[1]])})
        with pytest.raises(ValueError):
            simulate_neuron_netlist(neuron, np.zeros((3, 5), dtype=int))


# ----------------------------------------------------------------------
# Compile-time structural validation (the former per-vector hot scan)
# ----------------------------------------------------------------------
class TestCompiledPlan:
    def test_undriven_net_rejected_at_compile_time(self):
        netlist = Netlist()
        (a,) = netlist.add_input_bus("a", 1)
        phantom = netlist.new_net()  # allocated but never driven
        out = netlist.add_gate("AND2", (a, phantom))[0]
        netlist.output_bits = [out]
        with pytest.raises(RuntimeError, match="undriven"):
            compile_netlist(netlist)
        with pytest.raises(RuntimeError, match="undriven"):
            simulate(netlist, {"a": 1})

    def test_undriven_output_bit_rejected(self):
        netlist = Netlist()
        (a,) = netlist.add_input_bus("a", 1)
        netlist.output_bits = [a, netlist.new_net()]
        with pytest.raises(RuntimeError, match="output bits"):
            compile_netlist(netlist)

    def test_duplicate_driver_rejected(self):
        netlist = Netlist()
        (a,) = netlist.add_input_bus("a", 1)
        out = netlist.add_gate("NOT", (a,))[0]
        from repro.hardware.gates import Gate

        netlist.gates.append(Gate(gate_type="BUF", inputs=(a,), outputs=(out,)))
        netlist.invalidate_plan()
        netlist.output_bits = [out]
        with pytest.raises(ValueError, match="driven more than once"):
            compile_netlist(netlist)

    def test_empty_output_bus_rejected(self):
        """The width == 0 two's-complement edge case is a clear error."""
        netlist = Netlist()
        netlist.add_input_bus("a", 2)
        with pytest.raises(ValueError, match="empty output bus"):
            compile_netlist(netlist)
        with pytest.raises(ValueError, match="empty output bus"):
            simulate(netlist, {"a": 1})

    def test_plan_is_memoized_and_invalidated(self, make_neuron):
        rng = np.random.default_rng(3)
        netlist = build_neuron_netlist(make_neuron(rng))
        plan = netlist.compiled()
        assert netlist.compiled() is plan
        assert isinstance(plan, CompiledNetlist)
        netlist.add_gate("NOT", (netlist.output_bits[0],))
        assert netlist.compiled() is not plan

    def test_output_bus_reassignment_recompiles_plan(self):
        """Reassigning ``output_bits`` (the dominant mutation idiom) after
        a compile must not leave the batched path on the stale bus."""
        netlist = Netlist()
        a, b = netlist.add_input_bus("a", 2)
        inverted = netlist.add_gate("NOT", (a,))[0]
        netlist.output_bits = [a, b]
        values = {"a": np.array([0, 1, 2, 3])}
        first = simulate_batch(netlist, values)
        assert np.array_equal(first, simulate_batch(netlist, values, slow=True))
        netlist.output_bits = [inverted]  # no mutator method involved
        second = simulate_batch(netlist, values)
        assert np.array_equal(second, simulate_batch(netlist, values, slow=True))
        assert not np.array_equal(first, second)

    def test_wide_bus_exact_packing(self):
        """Buses wider than 62 bits fall back to exact Python-int packing."""
        netlist = Netlist()
        bits = [netlist.add_constant(0) for _ in range(70)]
        netlist.output_bits = list(bits)
        assert compile_netlist(netlist).run({}).tolist() == [0]
        netlist2 = Netlist()
        bits = [netlist2.add_constant(0) for _ in range(70)]
        netlist2.constants[bits[0]] = 1
        netlist2.constants[bits[69]] = 1  # sign bit → negative
        netlist2.output_bits = list(bits)
        assert compile_netlist(netlist2).run({}).tolist() == [1 - (1 << 69)]


# ----------------------------------------------------------------------
# Property-based differential sweeps
# ----------------------------------------------------------------------
GATE_POOL = ("NOT", "BUF", "AND2", "OR2", "NAND2", "NOR2", "XOR2", "XNOR2",
             "MUX2", "HA", "FA")
GATE_ARITY = {"NOT": 1, "BUF": 1, "MUX2": 3, "HA": 2, "FA": 3}


class TestPropertyDifferential:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**9),
        fan_in=st.integers(min_value=1, max_value=6),
        input_bits=st.integers(min_value=1, max_value=8),
        all_negative=st.booleans(),
        pow2_masks=st.booleans(),
    )
    def test_neuron_netlist_matches_model(
        self, seed, fan_in, input_bits, all_negative, pow2_masks
    ):
        """Seeded sweep over widths, negative weights and pow2 masks."""
        rng = np.random.default_rng(seed)
        if pow2_masks:
            masks = 1 << rng.integers(0, input_bits, size=fan_in)
        else:
            masks = rng.integers(0, 1 << input_bits, size=fan_in)
        signs = (
            -np.ones(fan_in, dtype=np.int64)
            if all_negative
            else rng.choice([-1, 1], size=fan_in)
        )
        neuron = ApproximateNeuron(
            masks=masks,
            signs=signs,
            exponents=rng.integers(0, 5, size=fan_in),
            bias=int(rng.integers(-128, 128)),
            input_bits=input_bits,
        )
        high = (1 << input_bits) - 1
        vectors = rng.integers(0, high + 1, size=(6, fan_in))
        vectors[0, :] = 0     # two's-complement boundary values
        vectors[1, :] = high
        fast = simulate_neuron_netlist(neuron, vectors)
        assert fast == simulate_neuron_netlist(neuron, vectors, slow=True)
        assert fast == neuron.accumulate(vectors).tolist()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**9))
    def test_random_gate_dag_matches_scalar(self, seed):
        """Random netlists over every gate type: batched == scalar walk."""
        rng = np.random.default_rng(seed)
        netlist = Netlist()
        width = int(rng.integers(1, 6))
        pool = list(netlist.add_input_bus("a", width))
        pool.append(netlist.add_constant(0))
        pool.append(netlist.add_constant(1))
        for _ in range(int(rng.integers(1, 26))):
            gate_type = GATE_POOL[int(rng.integers(0, len(GATE_POOL)))]
            arity = GATE_ARITY.get(gate_type, 2)
            inputs = tuple(pool[int(i)] for i in rng.integers(0, len(pool), size=arity))
            pool.extend(netlist.add_gate(gate_type, inputs))
        out_width = int(rng.integers(1, min(8, len(pool)) + 1))
        netlist.output_bits = [
            pool[int(i)] for i in rng.integers(0, len(pool), size=out_width)
        ]
        values = {"a": rng.integers(0, 1 << width, size=6)}
        fast = simulate_batch(netlist, values)
        slow = simulate_batch(netlist, values, slow=True)
        assert np.array_equal(fast, slow)


# ----------------------------------------------------------------------
# Cross-layer differential verification (model ↔ netlist ↔ RTL)
# ----------------------------------------------------------------------
class TestVerifyDesign:
    def test_random_mlps_verify_clean(self, make_mlp):
        rng = np.random.default_rng(5)
        for sizes in ((4, 3, 2), (5, 4, 3), (3, 3, 3, 2)):
            mlp = make_mlp(rng, sizes=sizes, mask_density=0.6)
            vectors = rng.integers(0, 16, size=(10, sizes[0]))
            result = verify_design(mlp, vectors)
            assert result.passed
            assert result.num_vectors == 10
            assert result.num_neurons == sum(sizes[1:])

    def test_testbench_roundtrip(self, make_mlp, rng):
        mlp = make_mlp(rng)
        vectors = rng.integers(0, 16, size=(7, 4))
        text = generate_testbench(mlp, vectors=vectors)
        tb_vectors, golden = extract_testbench_vectors(text)
        assert np.array_equal(tb_vectors, vectors)
        assert np.array_equal(golden, mlp.predict(vectors))

    def test_tampered_testbench_detected(self, make_mlp, rng):
        """The harness is a real differential check: flipping one golden
        response in the emitted RTL text must be reported."""
        mlp = make_mlp(rng)
        vectors = rng.integers(0, 16, size=(6, 4))
        text = generate_testbench(mlp, vectors=vectors)
        golden = extract_testbench_vectors(text)[1]
        flipped = 1 - int(golden[0])
        needle = f"class_index !== 1'd{int(golden[0])}"
        assert needle in text
        tampered = text.replace(needle, f"class_index !== 1'd{flipped}", 1)
        result = verify_design(mlp, vectors, testbench_text=tampered)
        assert not result.passed
        assert result.model_mismatches == 1
        assert result.rtl_mismatches == 1
        assert result.netlist_mismatches == 0

    def test_foreign_stimulus_rejected(self, make_mlp, rng):
        mlp = make_mlp(rng)
        vectors = rng.integers(0, 16, size=(4, 4))
        other = generate_testbench(mlp, vectors=(vectors + 1) % 16)
        with pytest.raises(ValueError, match="stimulus"):
            verify_design(mlp, vectors, testbench_text=other)
        with pytest.raises(ValueError, match="shape"):
            verify_design(mlp, np.zeros((2, 9), dtype=int))

    def test_extractor_rejects_foreign_text(self):
        with pytest.raises(ValueError):
            extract_testbench_vectors("module empty; endmodule")

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**9),
        field=st.sampled_from(("masks", "exponents", "biases")),
    )
    def test_mutated_literal_detected_iff_accumulators_change(
        self, make_mlp, seed, field
    ):
        """Emit the module text of a model with one mask, exponent or bias
        changed, and verify it against the original model: the text leg
        counts exactly the (neuron, vector) accumulators the change
        alters, and the netlist, RTL and model legs stay clean."""
        rng = np.random.default_rng(seed)
        mlp = make_mlp(rng, sizes=(5, 4, 3), mask_density=0.5)
        mutant = mlp.copy()
        layer_index = int(rng.integers(len(mlp.layers)))
        layer, config = mutant.layers[layer_index], mlp.config
        j = int(rng.integers(layer.fan_out))
        i = int(rng.integers(layer.fan_in))
        if field == "masks":
            layer.masks[i, j] ^= 1 << int(rng.integers(layer.input_bits))
        elif field == "exponents":
            choices = [e for e in range(config.max_exponent + 1) if e != layer.exponents[i, j]]
            layer.exponents[i, j] = choices[int(rng.integers(len(choices)))]
        else:
            choices = [b for b in (config.bias_min, 0, config.bias_max) if b != layer.biases[j]]
            layer.biases[j] = choices[int(rng.integers(len(choices)))]
        vectors = rng.integers(0, config.max_input_value + 1, size=(16, 5))

        altered = 0
        original_inputs = mutant_inputs = vectors
        for original_layer, mutant_layer in zip(mlp.layers, mutant.layers):
            original_acc = original_layer.accumulate(original_inputs)
            mutant_acc = mutant_layer.accumulate(mutant_inputs)
            altered += int(np.count_nonzero(original_acc != mutant_acc))
            if original_layer.activation is not None:
                original_inputs = original_layer.activation(original_acc)
                mutant_inputs = mutant_layer.activation(mutant_acc)

        result = verify_design(mlp, vectors, verilog_text=generate_mlp_verilog(mutant))
        assert result.expression_mismatches == altered
        assert result.passed == (altered == 0)
        assert result.netlist_mismatches == 0
        assert result.rtl_mismatches == 0
        assert result.model_mismatches == 0

    def test_truncated_verilog_module_rejected(self, make_mlp, rng):
        mlp = make_mlp(rng)
        vectors = rng.integers(0, 16, size=(4, 4))
        text = generate_mlp_verilog(mlp)
        first_wire = text.index("wire signed")
        second_wire = text.index("wire signed", first_wire + 1)
        truncated = text[:first_wire] + text[second_wire:]
        with pytest.raises(ValueError, match="acc_l0_n0"):
            verify_design(mlp, vectors, verilog_text=truncated)
        # An output accumulator renamed out of the acc_lL_nJ scheme leaves
        # the module's last layer one neuron short of the model's.
        with pytest.raises(ValueError, match="fan-outs"):
            verify_design(mlp, vectors, verilog_text=text.replace("acc_l1_n1", "score_1"))


class TestVerifyFront:
    def test_front_verifies_clean_end_to_end(self, tiny_ga_result):
        verification = verify_front(tiny_ga_result, num_vectors=16, seed=3)
        assert verification.num_designs == len(tiny_ga_result.estimated_front)
        assert verification.num_designs > 0
        assert verification.num_vectors == 16
        assert verification.netlist_mismatches == 0
        assert verification.rtl_mismatches == 0
        assert verification.model_mismatches == 0
        assert verification.total_mismatches == 0
        assert verification.passed

    def test_cache_memoizes_per_design_results(self, tiny_ga_result, decode_calls):
        cache = EvaluationCache()
        first = verify_front(tiny_ga_result, num_vectors=8, cache=cache)
        assert first.cache_hits == 0
        # Each simulated design is decoded once; a memoized one is not.
        assert decode_calls[0] == first.num_designs
        second = verify_front(tiny_ga_result, num_vectors=8, cache=cache)
        assert decode_calls[0] == first.num_designs
        assert second.cache_hits == second.num_designs == first.num_designs
        assert second.results == first.results
        # Different stimulus is a different key: no stale hits.
        third = verify_front(tiny_ga_result, num_vectors=8, seed=9, cache=cache)
        assert third.cache_hits == 0

    def test_max_designs_cap(self, tiny_ga_result):
        capped = verify_front(tiny_ga_result, num_vectors=4, max_designs=1)
        assert capped.num_designs == 1
        empty = verify_front(tiny_ga_result, num_vectors=4, max_designs=0)
        assert empty.num_designs == 0
        assert empty.passed
        assert empty.num_vectors == 0

    def test_front_shares_compiled_plans_across_designs(self, tiny_ga_result):
        """One compiled netlist schedule serves every parameter-identical
        neuron across the whole front."""
        verification = verify_front(tiny_ga_result, num_vectors=8, seed=3)
        assert (
            verification.plans_compiled + verification.plan_reuses
            == verification.num_neuron_checks
        )
        assert 0 < verification.plans_compiled <= verification.num_neuron_checks

    def test_plan_sharing_is_result_identical(self, tiny_ga_result):
        """Shared plans change nothing: per-design verify_design without a
        plan cache produces the same results."""
        from repro.evaluation.verification import _draw_vectors

        config = tiny_ga_result.layout.config
        vectors = _draw_vectors(
            tiny_ga_result.layout.topology.num_inputs,
            config.max_input_value,
            8,
            seed=3,
        )
        shared = verify_front(tiny_ga_result, vectors=vectors)
        solo = [
            verify_design(tiny_ga_result.decode(point), vectors)
            for point in tiny_ga_result.estimated_front
        ]
        assert shared.results == solo

    def test_plan_cache_reuses_identical_neurons(self, make_neuron, rng):
        from repro.evaluation.verification import NetlistPlanCache

        neuron_a = make_neuron(rng)
        neuron_b = ApproximateNeuron(
            masks=neuron_a.masks.copy(),
            signs=neuron_a.signs.copy(),
            exponents=neuron_a.exponents.copy(),
            bias=neuron_a.bias,
            input_bits=neuron_a.input_bits,
        )
        cache = NetlistPlanCache()
        first = cache.netlist(neuron_a)
        second = cache.netlist(neuron_b)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1 and len(cache) == 1
        # A different bias is a different netlist.
        different = ApproximateNeuron(
            masks=neuron_a.masks.copy(),
            signs=neuron_a.signs.copy(),
            exponents=neuron_a.exponents.copy(),
            bias=neuron_a.bias + 1,
            input_bits=neuron_a.input_bits,
        )
        assert cache.netlist(different) is not first
        assert len(cache) == 2

    def test_verification_survives_snapshot_roundtrip(self, tiny_ga_result, tmp_path):
        """DesignVerification entries are on the snapshot allowlist."""
        cache = EvaluationCache()
        first = verify_front(tiny_ga_result, num_vectors=8, cache=cache)
        path = tmp_path / "verify.cache.pkl"
        saved = cache.save(path)
        assert saved >= first.num_designs
        restored = EvaluationCache()
        assert restored.load(path) == saved
        again = verify_front(tiny_ga_result, num_vectors=8, cache=restored)
        assert again.cache_hits == first.num_designs
        assert again.results == first.results


# ----------------------------------------------------------------------
# Sign-off: verify_front and rtl_records share one parse per design
# ----------------------------------------------------------------------
def _front_result(ga_result, cache):
    """A one-dataset pipeline result over ``ga_result``'s whole front."""
    from repro.evaluation.pareto_analysis import evaluate_front

    rng = np.random.default_rng(5)
    inputs = rng.integers(0, 16, size=(20, 4))
    labels = rng.integers(0, 2, size=20)
    designs = evaluate_front(ga_result, inputs, labels, cache=cache)
    approximate = SimpleNamespace(ga_result=ga_result, designs=designs, cache=cache)
    return SimpleNamespace(spec=SimpleNamespace(name="toy"), approximate=approximate)


def _count_parses(monkeypatch):
    """Count every ``parse_module`` call from here on (one-element list)."""
    from repro.eda import microverilog

    calls = [0]
    original = microverilog.parse_module

    def counting(text):
        calls[0] += 1
        return original(text)

    monkeypatch.setattr(microverilog, "parse_module", counting)
    return calls


class TestSharedModuleParse:
    def test_verify_then_publish_parses_each_design_once(self, tiny_ga_result, monkeypatch):
        from repro.experiments.publish import rtl_records

        unshared = rtl_records(_front_result(tiny_ga_result, None))
        parses = _count_parses(monkeypatch)
        cache = EvaluationCache()
        result = _front_result(tiny_ga_result, cache)
        verification = verify_front(tiny_ga_result, num_vectors=8, cache=cache)
        designs = verification.num_designs
        assert designs == len(result.approximate.designs) > 1
        assert parses[0] == designs
        assert len(cache.modules) == designs

        records = rtl_records(result)
        assert parses[0] == designs
        assert cache.modules.hits == designs
        # Every entry is dropped once publishing has used it.
        assert len(cache.modules) == 0
        assert records == unshared

    def test_publish_alone_parses_each_design_once(self, tiny_ga_result, monkeypatch):
        from repro.experiments.publish import rtl_records

        parses = _count_parses(monkeypatch)
        for cache in (EvaluationCache(), None):
            parses[0] = 0
            result = _front_result(tiny_ga_result, cache)
            records = rtl_records(result)
            assert parses[0] == len(records) == len(result.approximate.designs)
            if cache is not None:
                assert len(cache.modules) == 0

    def test_published_text_is_regenerated_text(self, tiny_ga_result, decode_calls):
        from repro.experiments.publish import rtl_records

        cache = EvaluationCache()
        result = _front_result(tiny_ga_result, cache)
        verify_front(tiny_ga_result, num_vectors=8, cache=cache)
        decode_calls[0] = 0
        records = rtl_records(result)
        # Publishing decodes each design once, memo hit or not.
        assert decode_calls[0] == len(records) == len(result.approximate.designs)
        for design, record in zip(result.approximate.designs, records):
            model = tiny_ga_result.decode(design.point)
            assert record.module_name != "approx_mlp"
            assert record.verilog == generate_mlp_verilog(
                model, module_name=record.module_name
            )

    def test_snapshot_holds_no_module(self, tiny_ga_result, tmp_path, monkeypatch):
        import pickle

        from repro.experiments.publish import rtl_records

        cache = EvaluationCache()
        first = verify_front(tiny_ga_result, num_vectors=8, cache=cache)
        assert len(cache.modules) == first.num_designs
        path = tmp_path / "signoff.cache.pkl"
        saved = cache.save(path)
        blob = path.read_bytes()
        assert set(pickle.loads(blob)["sections"]) == set(EvaluationCache._PERSISTED_SECTIONS)
        assert b"MicroVerilogModule" not in blob

        restored = EvaluationCache()
        assert restored.load(path) == saved
        assert len(restored.modules) == 0
        # Warm: verification is served from reports and parses nothing;
        # publishing then parses each design once.
        parses = _count_parses(monkeypatch)
        again = verify_front(tiny_ga_result, num_vectors=8, cache=restored)
        assert again.cache_hits == first.num_designs and parses[0] == 0
        records = rtl_records(_front_result(tiny_ga_result, restored))
        assert parses[0] == len(records)

    def test_tampered_memo_module_is_refused(self, tiny_ga_result):
        """A module whose argmax output disagrees with the golden vectors
        never enters the store, even when it comes from the memo."""
        from repro.eda.microverilog import parse_module
        from repro.experiments.publish import rtl_records

        cache = EvaluationCache()
        result = _front_result(tiny_ga_result, cache)
        point = result.approximate.designs[0].point
        key = (
            EvaluationCache.layout_key(tiny_ga_result.layout),
            EvaluationCache.genome_key(point.payload),
        )
        text = generate_mlp_verilog(tiny_ga_result.decode(point))
        honest = "    assign class_index = best_index;\n"
        assert honest in text
        tampered = text.replace(honest, "    assign class_index = ~best_index;\n")
        cache.modules.put(key, (text, parse_module(tampered)))
        with pytest.raises(ValueError, match="refusing to publish"):
            rtl_records(result)


# ----------------------------------------------------------------------
# Pipeline / CLI wiring
# ----------------------------------------------------------------------
class TestPipelineVerifyRtl:
    def test_pipeline_runs_and_stores_verification(self):
        from repro.experiments.config import ExperimentScale
        from repro.experiments.session import ExperimentSession

        scale = ExperimentScale(
            name="tiny-verify",
            datasets=("breast_cancer",),
            max_samples=160,
            gradient_epochs=8,
            gradient_restarts=1,
            ga_population=10,
            ga_generations=3,
            max_front_designs=8,
            verify_rtl=True,
            verify_vectors=10,
        )
        session = ExperimentSession(scale)
        result = session.front("breast_cancer")
        verification = result.approximate.verification
        assert verification is not None
        assert verification.num_vectors == 10
        assert verification.passed
        summary = session.verification_summary()
        assert summary["breast_cancer"] is verification

    def test_pipeline_skips_verification_by_default(self):
        from repro.experiments.pipeline import ApproximateResult

        assert ApproximateResult.__dataclass_fields__["verification"].default is None

    def test_runner_flag_plumbs_into_scale(self, monkeypatch, capsys):
        from repro.experiments import runner, session

        seen = {}

        class StubSession(session.ExperimentSession):
            def run(self, experiments=None, export_dir=None, dataset_workers=None, **kwargs):
                seen["scale"] = self.scale
                return {name: _EMPTY_ARTIFACT for name in experiments}

        # runner.main imports the session class when an experiment runs.
        monkeypatch.setattr(session, "ExperimentSession", StubSession)
        assert (
            runner.main(
                ["--experiment", "table1", "--scale", "smoke",
                 "--verify-rtl", "--verify-vectors", "9"]
            )
            == 0
        )
        assert seen["scale"].verify_rtl is True
        assert seen["scale"].verify_vectors == 9
        assert "table1" in capsys.readouterr().out

    def test_runner_rejects_bad_vector_count(self):
        from repro.experiments import runner

        with pytest.raises(SystemExit):
            runner.main(
                ["--experiment", "table1", "--verify-rtl", "--verify-vectors", "0"]
            )

    def test_runner_rejects_orphan_verify_vectors(self):
        """--verify-vectors alone would silently verify nothing."""
        from repro.experiments import runner

        with pytest.raises(SystemExit):
            runner.main(["--experiment", "table1", "--verify-vectors", "16"])

    def test_single_vector_stimulus_is_the_zero_boundary(self, tiny_ga_result):
        """num_vectors=1 still pins a boundary assignment (all-zero)."""
        from repro.evaluation.verification import _draw_vectors

        single = _draw_vectors(4, 15, 1, seed=0)
        assert single.shape == (1, 4)
        assert np.all(single == 0)
        assert verify_front(tiny_ga_result, num_vectors=1).passed


# ----------------------------------------------------------------------
# Seeded stimulus + EDA oracle wiring
# ----------------------------------------------------------------------
class TestSeededVerification:
    def test_draw_vectors_is_seed_deterministic(self):
        """Two draws with the same seed are bit-identical; a different
        seed draws different stimulus (beyond the pinned boundaries)."""
        from repro.evaluation.verification import _draw_vectors

        first = _draw_vectors(5, 15, 32, seed=11)
        second = _draw_vectors(5, 15, 32, seed=11)
        assert np.array_equal(first, second)
        other = _draw_vectors(5, 15, 32, seed=12)
        assert not np.array_equal(first, other)

    def test_verify_front_reruns_identically_for_same_seed(self, tiny_ga_result):
        first = verify_front(tiny_ga_result, num_vectors=8, seed=21)
        second = verify_front(tiny_ga_result, num_vectors=8, seed=21)
        assert second.results == first.results

    def test_every_design_runs_the_module_text_once(self, tiny_ga_result, monkeypatch):
        """The module text of every design is executed as Verilog once, and
        the ``eda=True`` form perfbench passes shares the default's entries."""
        from repro.eda import microverilog

        calls = []
        simulate = microverilog.simulate_mlp_module
        monkeypatch.setattr(
            microverilog,
            "simulate_mlp_module",
            lambda text, vectors: calls.append(text) or simulate(text, vectors),
        )
        cache = EvaluationCache()
        first = verify_front(tiny_ga_result, num_vectors=6, cache=cache)
        assert first.cache_hits == 0
        assert len(calls) == first.eda_checked == first.num_designs > 0
        assert first.expression_mismatches == first.eda_mismatches == 0
        again = verify_front(tiny_ga_result, num_vectors=6, cache=cache, eda=True)
        assert len(calls) == first.num_designs
        assert again.cache_hits == again.num_designs
        assert again.results == first.results

    def test_eda_false_is_rejected(self, tiny_ga_result):
        with pytest.raises(ValueError, match="eda"):
            verify_front(tiny_ga_result, num_vectors=4, eda=False)

    def test_scale_defaults(self):
        from repro.experiments.config import ExperimentScale

        fields = ExperimentScale.__dataclass_fields__
        assert sorted(name for name in fields if name.startswith("verify")) == [
            "verify_rtl", "verify_seed", "verify_vectors"
        ]
        assert fields["verify_rtl"].default is False
        assert fields["verify_seed"].default is None

    def test_pipeline_uses_verify_seed_over_scale_seed(self, monkeypatch):
        """verify_seed overrides the experiment seed for stimulus draws."""
        from repro.experiments import session as session_module
        from repro.experiments.config import ExperimentScale

        seen = {}

        def spy_verify_front(ga_result, **kwargs):
            seen.update(kwargs)
            return None

        monkeypatch.setattr(session_module, "verify_front", spy_verify_front)
        scale = ExperimentScale(
            name="tiny-seeded",
            datasets=("breast_cancer",),
            max_samples=120,
            gradient_epochs=4,
            gradient_restarts=1,
            ga_population=8,
            ga_generations=2,
            max_front_designs=4,
            verify_rtl=True,
            verify_vectors=6,
            verify_seed=99,
        )
        session_module.ExperimentSession(scale).front("breast_cancer")
        assert seen["seed"] == 99
        assert "eda" not in seen

    def test_runner_verify_rtl_runs_every_oracle(self, monkeypatch, capsys, tiny_ga_result):
        """``--verify-rtl`` alone runs the whole sweep, and its
        ``[verify]`` line always reports both module-text legs."""
        from repro.experiments import runner, session

        seen = {}
        checked = verify_front(tiny_ga_result, num_vectors=4, seed=7)

        class StubSession(session.ExperimentSession):
            def run(self, experiments=None, export_dir=None, dataset_workers=None, **kwargs):
                seen["scale"] = self.scale
                return {name: _EMPTY_ARTIFACT for name in experiments}

            def verification_summary(self):
                return {"breast_cancer": checked}

        # runner.main imports the session class when an experiment runs.
        monkeypatch.setattr(session, "ExperimentSession", StubSession)
        assert (
            runner.main(
                ["--experiment", "table1", "--scale", "smoke",
                 "--verify-rtl", "--verify-seed", "7"]
            )
            == 0
        )
        assert seen["scale"].verify_rtl is True
        assert seen["scale"].verify_seed == 7
        assert "expr 0 / eda 0 / total 0 mismatches [OK]" in capsys.readouterr().out

    def test_runner_rejects_orphan_verify_seed(self):
        """--verify-seed alone would silently seed nothing."""
        from repro.experiments import runner

        with pytest.raises(SystemExit):
            runner.main(["--experiment", "table1", "--verify-seed", "3"])
