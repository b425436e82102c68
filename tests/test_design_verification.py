"""Tests for the differential sign-off harness.

The ``verify_front`` harness reports zero model/RTL mismatches over a
synthesized front, detects tampered testbench and module text (a
property test mutates mask, exponent and bias literals), memoizes
through ``EvaluationCache``, shares one module parse with publishing,
and is reachable from the pipeline/CLI.
"""

import copy
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cache import EvaluationCache
from repro.evaluation.verification import verify_design, verify_front
from repro.rtl.testbench import extract_testbench_vectors, generate_testbench
from repro.rtl.verilog import generate_mlp_verilog


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
# Cross-layer differential verification (model ↔ testbench ↔ module text)
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
        response in the emitted RTL text must be reported by both legs
        that read the golden responses."""
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
        assert result.eda_mismatches == 1
        assert result.expression_mismatches == 0

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
        alters, and the model-vs-testbench leg stays clean."""
        rng = np.random.default_rng(seed)
        mlp = make_mlp(rng, sizes=(5, 4, 3), mask_density=0.5)
        mutant = copy.deepcopy(mlp)
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
        assert result.model_mismatches == 0

    @pytest.mark.parametrize("shape", [(4,), (3, 5), (2, 4, 1)])
    def test_vectors_of_wrong_shape_rejected(self, make_mlp, rng, shape):
        with pytest.raises(ValueError, match="vectors must have shape"):
            verify_design(make_mlp(rng), np.zeros(shape, dtype=np.int64))

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
        assert verification.model_mismatches == 0
        assert verification.expression_mismatches == 0
        assert verification.eda_mismatches == 0
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

    def test_neuron_checks_count_every_accumulator_net(self, tiny_ga_result):
        """Every design compares one accumulator net per neuron, and the
        front result is the per-design results in front order."""
        from repro.evaluation.verification import _draw_vectors

        config = tiny_ga_result.layout.config
        vectors = _draw_vectors(
            tiny_ga_result.layout.topology.num_inputs,
            config.max_input_value,
            8,
            seed=3,
        )
        verification = verify_front(tiny_ga_result, vectors=vectors)
        models = [tiny_ga_result.decode(point) for point in tiny_ga_result.estimated_front]
        assert verification.results == [verify_design(model, vectors) for model in models]
        fan_outs = [sum(layer.fan_out for layer in model.layers) for model in models]
        assert [result.num_neurons for result in verification.results] == fan_outs
        assert verification.num_neuron_checks == sum(fan_outs) > 0
        assert verification.plans_compiled == verification.plan_reuses == 0

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
            def run(self, experiments=None, export_dir=None, **kwargs):
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
            def run(self, experiments=None, export_dir=None, **kwargs):
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
        out = capsys.readouterr().out
        assert (
            f"({checked.num_neuron_checks} accumulator nets) -- "
            "model 0 / expr 0 / eda 0 / total 0 mismatches [OK]"
        ) in out
        assert "netlist" not in out

    def test_runner_rejects_orphan_verify_seed(self):
        """--verify-seed alone would silently seed nothing."""
        from repro.experiments import runner

        with pytest.raises(SystemExit):
            runner.main(["--experiment", "table1", "--verify-seed", "3"])
