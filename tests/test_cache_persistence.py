"""Tests of the disk-backed evaluation cache (save/load + session wiring).

Covers the snapshot format (versioning, the code guard, the unpickling
allowlist, atomic writes, LRU-order preservation), the corruption
tolerance of :meth:`EvaluationCache.load`, the process-stable split
fingerprints, and the end-to-end promise: a second identical experiment
run against the same ``--cache-dir`` restores the baseline and both GA
results, from one snapshot file per dataset.
"""

from __future__ import annotations

import dataclasses
import logging
import pickle
import re

import numpy as np
import pytest

from repro.baselines.gradient import GradientTrainer
from repro.core.trainer import GATrainer
from repro.core.cache import (
    CACHE_FORMAT_VERSION,
    EvaluationCache,
    code_digest,
    pack_arrays,
    unpack_arrays,
)
from repro.baselines.exact_bespoke import BespokeMLP
from repro.core import cache as cache_module
from repro.datasets.registry import get_spec
from repro.experiments import session as session_module
from repro.experiments.config import ExperimentScale, get_scale
from repro.experiments.session import ExperimentSession


class TestSnapshotRoundTrip:
    def test_save_and_load_restores_data_sections(self, tmp_path):
        cache = EvaluationCache()
        cache.accuracy.put((("k", b"g"), "split"), 0.875)
        cache.accuracy.put((("k", b"h"), "split"), 0.5)
        cache.reports.put(("g", 200.0), {"area": 3.5})
        cache.stages.put(("ga", ("key",)), ("packed",))
        path = tmp_path / "snap.pkl"
        assert cache.save(path) == 4
        assert [p.name for p in tmp_path.iterdir()] == ["snap.pkl"]  # one file

        restored = EvaluationCache()
        assert restored.load(path) == 4
        assert restored.accuracy.get((("k", b"g"), "split")) == 0.875
        assert restored.accuracy.get((("k", b"h"), "split")) == 0.5
        assert restored.stages.get(("ga", ("key",))) == ("packed",)
        assert restored.reports.get(("g", 200.0)) == {"area": 3.5}

    def test_report_key_is_genome_and_clock_period(self):
        genome = ("layout", b"genes")
        key = EvaluationCache.report_key(genome, 200)
        assert key == (genome, 200.0)
        assert isinstance(key[1], float)
        assert EvaluationCache.report_key(genome, 200.0) == key
        assert EvaluationCache.report_key(genome, 250.0) != key
        assert EvaluationCache.report_key(("layout", b"other"), 200.0) != key

    def test_section_bounds_are_the_class_constants(self):
        cache = EvaluationCache()
        assert EvaluationCache.MAX_ACCURACY_ENTRIES == 250_000
        assert EvaluationCache.MAX_REPORT_ENTRIES == 65_536
        assert cache.accuracy.max_size == EvaluationCache.MAX_ACCURACY_ENTRIES
        assert cache.reports.max_size == EvaluationCache.MAX_REPORT_ENTRIES
        assert cache.modules.max_size == EvaluationCache.MAX_MODULE_ENTRIES

    def test_baselines_section_round_trips_bit_exactly(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = [rng.normal(size=(4, 3)), rng.normal(size=(3,))]
        key = EvaluationCache.baseline_key(
            EvaluationCache.split_fingerprint(np.ones((5, 4)), np.zeros(5, dtype=np.int64)),
            (4, 3),
            GradientTrainer(epochs=7),
        )
        cache = EvaluationCache()
        cache.stages.put(key, pack_arrays(arrays))
        path = tmp_path / "snap.pkl"
        assert cache.save(path) == 1

        restored = EvaluationCache()
        assert restored.load(path) == 1
        unpacked = unpack_arrays(restored.stages.get(key), [(4, 3), (3,)])
        assert [a.tobytes() for a in unpacked] == [a.tobytes() for a in arrays]

    def test_baseline_key_covers_trainer_settings(self):
        split = ("split",)
        key = EvaluationCache.baseline_key(split, (4, 3), GradientTrainer())
        assert key == EvaluationCache.baseline_key(split, (4, 3), GradientTrainer())
        for changed in (
            GradientTrainer(epochs=201),
            GradientTrainer(seed=1),
            GradientTrainer(learning_rate=0.02),
        ):
            assert EvaluationCache.baseline_key(split, (4, 3), changed) != key
        assert EvaluationCache.baseline_key(split, (4, 2), GradientTrainer()) != key
        assert EvaluationCache.baseline_key(("other",), (4, 3), GradientTrainer()) != key
        kind, parts = key
        assert kind == "baseline"
        # The code guard is recorded once per snapshot file, not per key.
        assert parts[:2] == (split, (4, 3))
        assert np.__version__ not in parts and code_digest() not in parts

    def test_code_digest_covers_every_package_source(self, tmp_path, monkeypatch):
        """An edit anywhere in the package changes the digest, so no stage
        key of the old tree matches."""
        import repro.core.cache as cache_module

        package = tmp_path / "repro"
        (package / "core").mkdir(parents=True)
        (package / "core" / "cache.py").write_text("# cache\n")
        (package / "baselines").mkdir()
        gradient = package / "baselines" / "gradient.py"
        gradient.write_text("EPOCHS = 1\n")
        monkeypatch.setattr(cache_module, "__file__", str(package / "core" / "cache.py"))
        digests = []
        try:
            for text in ("EPOCHS = 1\n", "EPOCHS = 2\n"):
                gradient.write_text(text)
                code_digest.cache_clear()
                digests.append(code_digest())
        finally:
            code_digest.cache_clear()
        assert digests[0] != digests[1]

    @pytest.mark.parametrize(
        "value",
        [
            "not a tuple",
            [((2, 2), bytes(32))],
            (((2, 2), bytes(31)),),
            (((4,), bytes(32)),),
            (((2, 2), bytes(32)), ((2,), bytes(16))),
            (((2, 2), "not bytes"),),
        ],
        ids=["str", "list", "byte-length", "shape", "arity", "payload-type"],
    )
    def test_unpack_arrays_rejects_malformed_values(self, value):
        assert unpack_arrays(value, [(2, 2)]) is None

    def test_modules_section_is_not_persisted(self, tmp_path):
        cache = EvaluationCache()
        cache.modules.put(("layout", b"g"), ("module text", None))
        cache.accuracy.put((b"g", "split"), 1.0)
        path = tmp_path / "snap.pkl"
        assert cache.save(path) == 1
        restored = EvaluationCache()
        restored.load(path)
        assert len(restored.modules) == 0
        assert len(restored.accuracy) == 1

    def test_load_preserves_lru_order(self, tmp_path, monkeypatch):
        cache = EvaluationCache()
        for index in range(5):
            cache.accuracy.put(("ctx", index), index)
        cache.accuracy.get(("ctx", 0))  # refresh: 0 becomes most recent
        path = tmp_path / "snap.pkl"
        cache.save(path)
        monkeypatch.setattr(EvaluationCache, "MAX_ACCURACY_ENTRIES", 2)
        restored = EvaluationCache()
        restored.load(path)
        # Entries are stored least-recent first, so a smaller cache
        # keeps the hottest tail: the refreshed 0 and the latest insert.
        assert restored.accuracy.entries() == [(("ctx", 4), 4), (("ctx", 0), 0)]

    def test_save_creates_parent_directories(self, tmp_path):
        cache = EvaluationCache()
        cache.accuracy.put("k", "v")
        path = tmp_path / "nested" / "dir" / "snap.pkl"
        cache.save(path)
        assert path.exists()

    def test_save_is_atomic(self, tmp_path):
        path = tmp_path / "snap.pkl"
        first = EvaluationCache()
        first.accuracy.put("k", "old")
        first.save(path)
        second = EvaluationCache()
        second.accuracy.put("k", "new")
        second.save(path)
        assert list(tmp_path.iterdir()) == [path]  # no temp files left behind
        restored = EvaluationCache()
        restored.load(path)
        assert restored.accuracy.get("k") == "new"


class TestSnapshotCompaction:
    """The section bounds cap what a long-lived ``--cache-dir`` holds."""

    def _entry_count(self, path):
        probe = EvaluationCache()
        return probe.load(path)

    def test_bloated_snapshot_shrinks_to_section_bounds(self, tmp_path, monkeypatch):
        """A snapshot accumulated by a large cache shrinks back to the
        section bounds of the cache that saves it next."""
        big = EvaluationCache()
        for index in range(500):
            big.accuracy.put(("ctx", index), float(index))
        path = tmp_path / "snap.pkl"
        assert big.save(path) == 500

        monkeypatch.setattr(EvaluationCache, "MAX_ACCURACY_ENTRIES", 50)
        small = EvaluationCache()
        assert small.load(path) == 500  # read fully, bounded on put
        assert len(small.accuracy) == 50
        assert small.save(path) == 50
        assert self._entry_count(path) == 50


def _full_cache() -> EvaluationCache:
    """A cache with one entry in every persisted section."""
    cache = EvaluationCache()
    cache.accuracy.put((b"g1", "split"), 0.875)
    cache.reports.put((b"g1", 200.0), {"area": 3.5})
    cache.stages.put(("ga", ("key",)), ("packed",))
    return cache


def _rewrite_pickle(path, edit) -> None:
    payload = pickle.loads(path.read_bytes())
    edit(payload)
    path.write_bytes(pickle.dumps(payload))


class TestCorruptionTolerance:
    def test_missing_file_loads_nothing(self, tmp_path):
        cache = EvaluationCache()
        assert cache.load(tmp_path / "absent.pkl") == 0

    def test_garbage_bytes_load_nothing(self, tmp_path):
        path = tmp_path / "garbage.pkl"
        path.write_bytes(b"\x00\x01not a pickle at all")
        assert EvaluationCache().load(path) == 0

    def test_truncated_snapshot_loads_nothing(self, tmp_path):
        cache = EvaluationCache()
        for index in range(100):
            cache.accuracy.put(("ctx", index), float(index))
        path = tmp_path / "snap.pkl"
        cache.save(path)
        truncated = tmp_path / "truncated.pkl"
        truncated.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert EvaluationCache().load(truncated) == 0

    def test_foreign_pickle_loads_nothing(self, tmp_path):
        path = tmp_path / "foreign.pkl"
        path.write_bytes(pickle.dumps({"something": "else"}))
        assert EvaluationCache().load(path) == 0

    def test_version_mismatch_loads_nothing(self, tmp_path):
        cache = EvaluationCache()
        cache.accuracy.put("k", "v")
        path = tmp_path / "snap.pkl"
        cache.save(path)
        payload = pickle.loads(path.read_bytes())
        payload["version"] = CACHE_FORMAT_VERSION + 1
        path.write_bytes(pickle.dumps(payload))
        assert EvaluationCache().load(path) == 0

    @pytest.mark.parametrize("version", range(1, CACHE_FORMAT_VERSION))
    def test_every_earlier_format_version_loads_nothing(self, tmp_path, caplog, version):
        """A head of today's shape and code but an earlier format number
        is refused by that number alone."""
        path = tmp_path / "snap.pkl"
        _full_cache().save(path)
        _rewrite_pickle(path, lambda payload: payload.update(version=version))
        cache = EvaluationCache()
        with caplog.at_level(logging.WARNING, logger="repro.core.cache"):
            assert cache.load(path) == 0
        assert f"format version {version} (expected {CACHE_FORMAT_VERSION})" in caplog.text
        assert not any(len(getattr(cache, name)) for name in ("accuracy", "reports", "stages", "modules"))

    def test_format_10_directory_loads_nothing_and_is_rewritten(self, tmp_path, caplog):
        """A format-10 snapshot (a head recording its fitness file's entry
        count and stamp, next to that ``.fitness`` file) restores nothing;
        the next save writes a current head, with no fitness record, that
        loads again."""
        path = tmp_path / "breast_cancer.cache.pkl"
        _full_cache().save(path)
        _rewrite_pickle(path, lambda payload: payload.update(version=10, fitness=(1, 1.0)))
        (tmp_path / "breast_cancer.cache.pkl.fitness").write_bytes(
            pickle.dumps({"magic": "repro-fitness-memo", "version": 10, "entries": []})
        )
        cache = EvaluationCache()
        with caplog.at_level(logging.WARNING, logger="repro.core.cache"):
            assert cache.load(path) == 0
        assert "format version 10" in caplog.text
        written = _full_cache().save(path)
        payload = pickle.loads(path.read_bytes())
        assert payload["version"] == CACHE_FORMAT_VERSION
        assert "fitness" not in payload
        assert EvaluationCache().load(path) == written == 3
        # The stale fitness file went with the rewrite.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["breast_cancer.cache.pkl"]

    def test_version_4_snapshot_is_ignored(self, tmp_path, caplog, small_topology, approx_config):
        """A version-4 snapshot (nested tuple context keys holding the
        ApproxConfig dataclass) is refused whole by the unpickling
        allowlist, before its version is read, so nothing is mis-read."""
        split = ((3, 4), (3,), "int64", "int64", "0" * 32)
        context = ((tuple(small_topology.sizes), approx_config, True), 0.75, 0.1, split)
        value = (0.25, 12.0, 0.75, 0.0)
        payload = {
            "magic": "repro-evaluation-cache",
            "version": 4,
            "sections": {
                "fitness": [((context, b"genome"), value, 1.0)],
                "accuracy": [],
                "reports": [],
                "baselines": [],
            },
        }
        path = tmp_path / "v4.pkl"
        path.write_bytes(pickle.dumps(payload))
        cache = EvaluationCache()
        with caplog.at_level(logging.WARNING, logger="repro.core.cache"):
            assert cache.load(path) == 0
        assert "disallowed global repro.approx.config.ApproxConfig" in caplog.text
        assert not any(len(getattr(cache, name)) for name in ("accuracy", "reports", "stages", "modules"))

    def test_version_6_verification_report_is_ignored(self, tmp_path, caplog):
        """A version-6 snapshot holds ``DesignVerification`` reports that
        still carry the gate-level netlist counts.  The old shape passes
        the unpickling allowlist, so its version alone refuses it."""
        from repro.evaluation.verification import DesignVerification

        old = object.__new__(DesignVerification)
        old.__dict__.update(
            num_vectors=8,
            num_neurons=5,
            netlist_mismatches=0,
            rtl_mismatches=0,
            model_mismatches=0,
            expression_mismatches=0,
            eda_mismatches=0,
        )
        payload = {
            "magic": "repro-evaluation-cache",
            "version": 6,
            "sections": {
                "fitness": [],
                "accuracy": [],
                "reports": [(("rtl-verify", "layout", "genome", "stimulus"), old, 1.0)],
                "baselines": [],
            },
        }
        path = tmp_path / "v6.pkl"
        path.write_bytes(pickle.dumps(payload))
        cache = EvaluationCache()
        with caplog.at_level(logging.WARNING, logger="repro.core.cache"):
            assert cache.load(path) == 0
        assert f"format version 6 (expected {CACHE_FORMAT_VERSION})" in caplog.text
        assert len(cache.reports) == 0

        # Relabelled as current (entries as today's pairs), it would load.
        payload["version"] = CACHE_FORMAT_VERSION
        payload["code"] = (np.__version__, code_digest())
        payload["sections"]["reports"] = [(key, value) for key, value, _ in payload["sections"]["reports"]]
        path.write_bytes(pickle.dumps(payload))
        assert EvaluationCache().load(path) == 1

    def test_malicious_pickle_is_refused_without_execution(self, tmp_path):
        """Snapshots deserialize through a restricted unpickler: a
        pickle carrying an os.system payload must be rejected before
        anything executes, not after."""
        import os

        marker = tmp_path / "pwned"

        class Evil:
            def __reduce__(self):
                return (os.system, (f"touch {marker}",))

        path = tmp_path / "evil.pkl"
        path.write_bytes(pickle.dumps(Evil()))
        assert EvaluationCache().load(path) == 0
        assert not marker.exists()

    @pytest.mark.parametrize(
        "section",
        [42, [((b"g1", "split"), 0.875, 0.0)]],
        ids=["not-an-entry-list", "format-13-triples"],
    )
    def test_malformed_section_is_skipped(self, tmp_path, caplog, section):
        cache = EvaluationCache()
        cache.reports.put("k", "v")
        path = tmp_path / "snap.pkl"
        cache.save(path)
        _rewrite_pickle(path, lambda payload: payload["sections"].update(accuracy=section))
        restored = EvaluationCache()
        with caplog.at_level(logging.WARNING, logger="repro.core.cache"):
            assert restored.load(path) == 1
        assert "ignoring malformed 'accuracy' section" in caplog.text
        assert restored.reports.get("k") == "v"
        assert len(restored.accuracy) == 0

    def test_section_table_of_wrong_type_loads_nothing(self, tmp_path, caplog):
        path = tmp_path / "snap.pkl"
        _full_cache().save(path)
        _rewrite_pickle(path, lambda payload: payload.update(sections=[]))
        restored = EvaluationCache()
        with caplog.at_level(logging.WARNING, logger="repro.core.cache"):
            assert restored.load(path) == 0
        assert "without a section table" in caplog.text

    def test_code_guard_refuses_the_head_of_other_code(self, tmp_path, caplog, monkeypatch):
        import repro.core.cache as cache_module

        path = tmp_path / "snap.pkl"
        _full_cache().save(path)
        monkeypatch.setattr(cache_module, "code_digest", lambda: "an edited tree")
        restored = EvaluationCache()
        with caplog.at_level(logging.WARNING, logger="repro.core.cache"):
            assert restored.load(path) == 0
        assert "written by other code" in caplog.text
        assert len(restored.stages) == 0


class TestStableKeys:
    def test_split_fingerprint_uses_no_process_salted_hash(self):
        """The fingerprint must survive a process restart: every part is
        a plain value (no builtin ``hash`` of bytes, which is salted by
        ``PYTHONHASHSEED``)."""
        inputs = np.arange(12, dtype=np.int64).reshape(4, 3)
        labels = np.array([0, 1, 0, 1])
        fingerprint = EvaluationCache.split_fingerprint(inputs, labels)
        assert fingerprint == EvaluationCache.split_fingerprint(inputs, labels)
        # Stable golden value: changes here break every on-disk cache,
        # so they must come with a CACHE_FORMAT_VERSION bump.
        flat = []

        def flatten(part):
            if isinstance(part, tuple):
                for item in part:
                    flatten(item)
            else:
                flat.append(part)

        flatten(fingerprint)
        assert all(isinstance(part, (int, str)) for part in flat)

    def test_split_fingerprint_distinguishes_dtype(self):
        same_bytes_a = np.array([1, 2, 3, 4], dtype=np.int32)
        same_bytes_b = same_bytes_a.view(np.float32)
        labels = np.zeros(4, dtype=np.int64)
        assert EvaluationCache.split_fingerprint(
            same_bytes_a, labels
        ) != EvaluationCache.split_fingerprint(same_bytes_b, labels)

    def test_ga_stage_keys_round_trip_through_pickle(self, small_topology, approx_config):
        """The GA's stage key is flat builtins (the layout and evaluator
        context folded into strings); pickling must not change its
        equality or hash."""
        from repro.core.trainer import GAConfig

        trainer = GATrainer(small_topology.sizes, approx_config, ga_config=GAConfig(seed=1))
        inputs = np.arange(12, dtype=np.int64).reshape(3, 4) % 16
        key = trainer.result_key(inputs, np.array([0, 1, 0]), baseline_accuracy=0.75)
        assert key[0] == "ga"
        copy = pickle.loads(pickle.dumps(key))
        assert copy == key and hash(copy) == hash(key)
        assert copy != trainer.result_key(inputs, np.array([0, 1, 0]), baseline_accuracy=0.5)

    def test_fitness_context_separates_constraints(self, small_topology, approx_config):
        """The folded context digest of the GA's stage key tells
        evaluators apart by layout, baseline accuracy, loss bound and
        training split."""
        from repro.approx.topology import Topology
        from repro.core.chromosome import ChromosomeLayout
        from repro.core.fitness import FitnessEvaluator

        layout = ChromosomeLayout(small_topology, approx_config)
        inputs = np.arange(12, dtype=np.int64).reshape(3, 4) % 16
        labels = np.array([0, 1, 0])
        assert isinstance(EvaluationCache.layout_key(layout), str)

        def context(**kwargs):
            arguments = dict(
                layout=layout,
                train_inputs=inputs,
                train_labels=labels,
                baseline_accuracy=0.75,
                max_accuracy_loss=0.1,
            )
            arguments.update(kwargs)
            return FitnessEvaluator.context_key(**arguments)

        variants = [
            context(),
            context(baseline_accuracy=None),
            context(baseline_accuracy=0.5),
            context(max_accuracy_loss=0.05),
            context(train_labels=np.array([1, 1, 0])),
            context(layout=ChromosomeLayout(Topology((*small_topology.sizes[:-1], 3)), approx_config)),
            context(layout=ChromosomeLayout(small_topology, dataclasses.replace(approx_config, weight_bits=6))),
        ]
        assert len(set(variants)) == len(variants)
        assert context(baseline_accuracy=np.float64(0.75)) == context()


TINY = ExperimentScale(
    name="tiny-cache",
    datasets=("breast_cancer",),
    max_samples=200,
    gradient_epochs=30,
    gradient_restarts=1,
    ga_population=16,
    ga_generations=6,
    max_front_designs=6,
    seed=0,
)


def _count_gradient_training(monkeypatch) -> dict:
    """Count ``GradientTrainer.train`` calls (the baseline's training)."""
    calls = {"n": 0}
    original = GradientTrainer.train

    def counting(self, *args, **kwargs):
        calls["n"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(GradientTrainer, "train", counting)
    return calls


def _baseline_fingerprint(baseline) -> tuple:
    """Every value the restored baseline must reproduce, as bytes."""
    bespoke = baseline.bespoke
    return (
        [w.tobytes() for w in baseline.float_model.weights],
        [b.tobytes() for b in baseline.float_model.biases],
        [w.tobytes() for w in bespoke.weight_codes],
        [b.tobytes() for b in bespoke.bias_codes],
        list(bespoke.shifts),
        bespoke.input_bits,
        bespoke.activation_bits,
        dataclasses.asdict(baseline.report),
        baseline.train_accuracy,
        baseline.test_accuracy,
    )


def _corrupt_first_pair(packed, edit) -> tuple:
    """``packed`` (:func:`pack_arrays` pairs) with ``edit(shape, data)`` applied to the first."""
    return (edit(*packed[0]),) + packed[1:]


def _drop_stage_entries(snapshot, kind: str) -> int:
    """Remove a snapshot's ``stages`` entries of one kind; returns how many."""
    payload = pickle.loads(snapshot.read_bytes())
    entries = payload["sections"]["stages"]
    kept = [entry for entry in entries if entry[0][0] != kind]
    payload["sections"]["stages"] = kept
    snapshot.write_bytes(pickle.dumps(payload))
    return len(entries) - len(kept)


def _count_ga_training(monkeypatch) -> dict:
    """Count ``GATrainer.train`` calls (both GA stages run through it)."""
    calls = {"n": 0}
    original = GATrainer.train

    def counting(self, *args, **kwargs):
        calls["n"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(GATrainer, "train", counting)
    return calls


def _without_seconds(artifact):
    """The artifact with every wall-clock (``*_seconds``) column removed."""
    rows = tuple(
        {key: value for key, value in row.items() if not key.endswith("_seconds")}
        for row in artifact.rows
    )
    return dataclasses.replace(artifact, rows=rows)


def _ga_fingerprint(ga_result) -> tuple:
    """Everything a restored GA result must reproduce."""
    return (
        [
            (point.error, point.area, point.accuracy, point.payload.tobytes())
            for point in ga_result.pareto_points
        ],
        ga_result.history,
        ga_result.evaluations,
        ga_result.baseline_accuracy,
    )


class TestPipelinePersistence:
    def test_ga_plain_folds_its_entries_into_the_snapshot(self, tmp_path):
        """The hardware-unaware GA's result joins the front's snapshot, so
        it also serves the Table III GA next run."""
        session = ExperimentSession(TINY, cache_dir=tmp_path)
        session.front("breast_cancer")
        after_front = session.cache_summary()["breast_cancer"]["saved"]
        session.ga_plain("breast_cancer")
        after_plain = session.cache_summary()["breast_cancer"]["saved"]
        assert after_plain > after_front
        restored = EvaluationCache()
        assert restored.load(tmp_path / "breast_cancer.cache.pkl") == after_plain

    def test_no_cache_dir_keeps_pipeline_diskless(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        session = ExperimentSession(TINY)
        assert session.cache_dir is None
        session.front("breast_cancer")
        assert list(tmp_path.iterdir()) == []  # nothing written anywhere
        assert session.cache_summary()["breast_cancer"]["loaded"] == 0

    def test_second_session_restores_the_baseline(self, tmp_path, monkeypatch):
        first = ExperimentSession(TINY, cache_dir=tmp_path)
        first_artifacts = first.run(["table1", "table2"])
        assert first.cache_summary()["breast_cancer"]["baseline"] == "trained"

        calls = _count_gradient_training(monkeypatch)
        second = ExperimentSession(TINY, cache_dir=tmp_path)
        second_artifacts = second.run(["table1", "table2"])
        assert calls["n"] == 0
        assert second.cache_summary()["breast_cancer"]["baseline"] == "restored"
        assert _baseline_fingerprint(
            second.baseline("breast_cancer").baseline
        ) == _baseline_fingerprint(first.baseline("breast_cancer").baseline)
        for name in ("table1", "table2"):
            assert second_artifacts[name] == first_artifacts[name], name
        assert second.stage_counts() == first.stage_counts()

    @pytest.mark.parametrize(
        "change", [{"gradient_epochs": 31}, {"seed": 1}], ids=["epochs", "seed"]
    )
    def test_changed_settings_miss_and_retrain(self, tmp_path, monkeypatch, change):
        ExperimentSession(TINY, cache_dir=tmp_path).front("breast_cancer")
        calls = _count_gradient_training(monkeypatch)
        changed = ExperimentSession(
            dataclasses.replace(TINY, **change), cache_dir=tmp_path
        )
        changed.front("breast_cancer")
        assert calls["n"] == 1
        assert changed.cache_summary()["breast_cancer"]["baseline"] == "trained"

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda value: "garbage",
            lambda value: (_corrupt_first_pair(value[0], lambda shape, data: (shape, data[:-8])),)
            + value[1:],
            lambda value: (_corrupt_first_pair(value[0], lambda shape, data: (shape[::-1], data)),)
            + value[1:],
            lambda value: (value[0], _corrupt_first_pair(value[1], lambda shape, data: (shape, data[:-8])))
            + value[2:],
            lambda value: value[:2] + ((-1,) * len(value[2]),) + value[3:],
            lambda value: value[:3] + ((4.0, 4),) + value[4:],
            lambda value: value[:4] + ("not a report",),
            lambda value: value[:4] + (dataclasses.replace(value[4], clock_period_ms=1.0),),
        ],
        ids=["non-tuple", "byte-length", "shape", "code-bytes", "shifts", "bits", "report", "clock"],
    )
    def test_malformed_entry_is_retrained_and_overwritten(
        self, tmp_path, monkeypatch, caplog, corrupt
    ):
        cold = ExperimentSession(TINY).baseline("breast_cancer").baseline
        ExperimentSession(TINY, cache_dir=tmp_path).baseline("breast_cancer")
        snapshot = tmp_path / "breast_cancer.cache.pkl"
        payload = pickle.loads(snapshot.read_bytes())
        assert payload["version"] == CACHE_FORMAT_VERSION == 15
        (key, value), = payload["sections"]["stages"]
        payload["sections"]["stages"] = [(key, corrupt(value))]
        snapshot.write_bytes(pickle.dumps(payload))

        calls = _count_gradient_training(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="repro.experiments.session"):
            retrained = ExperimentSession(TINY, cache_dir=tmp_path)
            result = retrained.baseline("breast_cancer").baseline
        assert calls["n"] == 1
        assert "malformed cached baseline" in caplog.text
        assert _baseline_fingerprint(result) == _baseline_fingerprint(cold)

        # The retrained baseline overwrote the bad entry on disk.
        restored = ExperimentSession(TINY, cache_dir=tmp_path)
        assert _baseline_fingerprint(
            restored.baseline("breast_cancer").baseline
        ) == _baseline_fingerprint(cold)
        assert calls["n"] == 1


class TestGARestore:
    """The GA stages restore their results from the snapshot."""

    def test_second_session_trains_no_ga(self, tmp_path, monkeypatch):
        first = ExperimentSession(TINY, cache_dir=tmp_path)
        first_artifacts = first.run(["table2", "table3"])
        assert first.cache_summary()["breast_cancer"]["ga"] == "trained"

        calls = _count_ga_training(monkeypatch)
        second = ExperimentSession(TINY, cache_dir=tmp_path)
        second_artifacts = second.run(["table2", "table3"])
        assert calls["n"] == 0
        summary = second.cache_summary()["breast_cancer"]
        assert (summary["baseline"], summary["ga"]) == ("restored", "restored")
        for name in ("table2", "table3"):
            assert _without_seconds(second_artifacts[name]) == _without_seconds(
                first_artifacts[name]
            ), name
        assert second.stage_counts() == first.stage_counts()
        assert _ga_fingerprint(
            second.front("breast_cancer").approximate.ga_result
        ) == _ga_fingerprint(first.front("breast_cancer").approximate.ga_result)
        assert _ga_fingerprint(second.ga_plain("breast_cancer")) == _ga_fingerprint(
            first.ga_plain("breast_cancer")
        )

    def test_front_and_plain_ga_keep_separate_entries(self, tmp_path):
        ExperimentSession(TINY, cache_dir=tmp_path).run(["table3"])
        payload = pickle.loads((tmp_path / "breast_cancer.cache.pkl").read_bytes())
        kinds = sorted(key[0] for key, _ in payload["sections"]["stages"])
        assert kinds == ["baseline", "ga", "ga"]
        front, plain = (value for key, value in payload["sections"]["stages"] if key[0] == "ga")
        assert front != plain

    @pytest.mark.parametrize(
        "change",
        [{"ga_generations": 7}, {"seed": 1}, "code"],
        ids=["generations", "seed", "code-digest"],
    )
    def test_changed_settings_or_code_miss(self, tmp_path, monkeypatch, change):
        import repro.core.cache as cache_module

        ExperimentSession(TINY, cache_dir=tmp_path).front("breast_cancer")
        scale = TINY
        if change == "code":
            monkeypatch.setattr(cache_module, "code_digest", lambda: "an edited tree")
        else:
            scale = dataclasses.replace(TINY, **change)
        calls = _count_ga_training(monkeypatch)
        changed = ExperimentSession(scale, cache_dir=tmp_path)
        changed.front("breast_cancer")
        assert calls["n"] == 1
        assert changed.cache_summary()["breast_cancer"]["ga"] == "trained"

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda value, layout: "garbage",
            lambda value, layout: (
                value[0],
                ((*value[1][0][:3], value[1][0][3][:-8]),) + value[1][1:],
                value[2],
            ),
            lambda value, layout: (
                value[0],
                ((*value[1][0][:3], (layout.upper_bounds + 1).astype("<i8").tobytes()),)
                + value[1][1:],
                value[2],
            ),
            lambda value, layout: (value[0], value[1], (value[2][0][:-1],) + value[2][1:]),
            lambda value, layout: (float(value[0]), value[1], value[2]),
        ],
        ids=["non-tuple", "genome-length", "genome-bounds", "history-arity", "count-type"],
    )
    def test_malformed_entry_replays_and_is_overwritten(
        self, tmp_path, monkeypatch, caplog, corrupt
    ):
        first = ExperimentSession(TINY, cache_dir=tmp_path)
        cold = _ga_fingerprint(first.front("breast_cancer").approximate.ga_result)
        layout = first.front("breast_cancer").approximate.ga_result.layout
        snapshot = tmp_path / "breast_cancer.cache.pkl"
        payload = pickle.loads(snapshot.read_bytes())
        payload["sections"]["stages"] = [
            (key, corrupt(value, layout) if key[0] == "ga" else value)
            for key, value in payload["sections"]["stages"]
        ]
        snapshot.write_bytes(pickle.dumps(payload))

        calls = _count_ga_training(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="repro.experiments.session"):
            replayed = ExperimentSession(TINY, cache_dir=tmp_path)
            result = replayed.front("breast_cancer").approximate.ga_result
        assert calls["n"] == 1
        assert "malformed cached ga of breast_cancer" in caplog.text
        assert replayed.cache_summary()["breast_cancer"]["ga"] == "trained"
        # The replay evolves the same archive and history.
        assert _ga_fingerprint(result) == cold

        # The replayed result overwrote the bad entry on disk.
        restored = ExperimentSession(TINY, cache_dir=tmp_path)
        assert _ga_fingerprint(restored.front("breast_cancer").approximate.ga_result) == cold
        assert restored.cache_summary()["breast_cancer"]["ga"] == "restored"
        assert calls["n"] == 1


class TestWholeBaselineRestore:
    """The ``baseline`` stage entry holds the float model, the quantized
    bespoke circuit and its hardware report, so a hit neither trains,
    quantizes nor synthesizes."""

    @pytest.mark.parametrize("name", get_scale("ci").datasets)
    def test_restored_baseline_equals_a_fresh_computation(self, tmp_path, monkeypatch, name):
        scale = get_scale("ci")
        fresh = ExperimentSession(scale).baseline(name).baseline
        ExperimentSession(scale, cache_dir=tmp_path).baseline(name)

        calls = {"quantize": 0, "synthesize": 0}
        original_quantize = session_module.quantize_float_mlp
        original_synthesize = BespokeMLP.synthesize

        def counting_quantize(*args, **kwargs):
            calls["quantize"] += 1
            return original_quantize(*args, **kwargs)

        def counting_synthesize(self, *args, **kwargs):
            calls["synthesize"] += 1
            return original_synthesize(self, *args, **kwargs)

        monkeypatch.setattr(session_module, "quantize_float_mlp", counting_quantize)
        monkeypatch.setattr(BespokeMLP, "synthesize", counting_synthesize)
        gradient = _count_gradient_training(monkeypatch)
        warm = ExperimentSession(scale, cache_dir=tmp_path)
        restored = warm.baseline(name).baseline
        assert gradient["n"] == calls["quantize"] == calls["synthesize"] == 0
        assert ("baseline", get_spec(name).name) in warm._restored
        assert _baseline_fingerprint(restored) == _baseline_fingerprint(fresh)
        assert restored.report == fresh.report
        assert restored.bespoke.topology == fresh.bespoke.topology

    def test_format_11_baseline_entry_is_ignored_and_recomputed(
        self, tmp_path, monkeypatch, caplog
    ):
        """A baseline entry of the format-11 shape (the float arrays
        alone) in a current snapshot is refused with a WARNING; the
        baseline is trained again and its whole entry written back."""
        cold = ExperimentSession(TINY).baseline("breast_cancer").baseline
        ExperimentSession(TINY, cache_dir=tmp_path).baseline("breast_cancer")
        snapshot = tmp_path / "breast_cancer.cache.pkl"
        payload = pickle.loads(snapshot.read_bytes())
        (key, value), = payload["sections"]["stages"]
        assert len(value) == 5
        payload["sections"]["stages"] = [(key, value[0])]
        snapshot.write_bytes(pickle.dumps(payload))

        calls = _count_gradient_training(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="repro.experiments.session"):
            session = ExperimentSession(TINY, cache_dir=tmp_path)
            result = session.baseline("breast_cancer").baseline
        assert calls["n"] == 1
        assert "ignoring malformed cached baseline of breast_cancer" in caplog.text
        assert _baseline_fingerprint(result) == _baseline_fingerprint(cold)
        (_, rewritten), = pickle.loads(snapshot.read_bytes())["sections"]["stages"]
        assert rewritten == value


def _snapshot_state(directory) -> dict:
    """``{file name: (bytes, mtime_ns)}`` of every snapshot in ``directory``."""
    return {
        path.name: (path.read_bytes(), path.stat().st_mtime_ns)
        for path in sorted(directory.glob("*.cache.pkl"))
    }


TINY_PAIR = dataclasses.replace(TINY, name="tiny-pair", datasets=("breast_cancer", "redwine"))


class TestSnapshotWriteSkip:
    """A session rewrites a snapshot if and only if it changed a
    persisted section since the load or the last write."""

    def test_warm_session_leaves_every_snapshot_unchanged(self, tmp_path):
        ExperimentSession(TINY_PAIR, cache_dir=tmp_path).run(["table2", "table3"])
        before = _snapshot_state(tmp_path)
        assert sorted(before) == ["breast_cancer.cache.pkl", "redwine.cache.pkl"]

        warm = ExperimentSession(TINY_PAIR, cache_dir=tmp_path)
        warm.run(["table2", "table3"])
        assert _snapshot_state(tmp_path) == before
        for name, summary in warm.cache_summary().items():
            assert summary["loaded"] > 0 and summary["saved"] == 0, name
            assert (summary["baseline"], summary["ga"]) == ("restored", "restored"), name
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before)

    def test_session_that_computes_rewrites_its_snapshot(self, tmp_path, monkeypatch):
        """A warm ``table2`` session followed by ``table3`` trains the
        hardware-unaware GA, so that dataset's snapshot is rewritten with
        one more entry; a dataset whose accuracy entries were dropped
        rescores its front and is rewritten too."""
        ExperimentSession(TINY_PAIR, cache_dir=tmp_path).run(["table2"])
        before = _snapshot_state(tmp_path)

        session = ExperimentSession(TINY_PAIR, cache_dir=tmp_path)
        session.front("breast_cancer")
        assert session.cache_summary()["breast_cancer"]["saved"] == 0
        assert _snapshot_state(tmp_path) == before
        session.ga_plain("breast_cancer")
        after = _snapshot_state(tmp_path)
        assert after["breast_cancer.cache.pkl"][0] != before["breast_cancer.cache.pkl"][0]
        saved = session.cache_summary()["breast_cancer"]["saved"]
        assert saved == session.cache_summary()["breast_cancer"]["loaded"] + 1
        assert after["redwine.cache.pkl"] == before["redwine.cache.pkl"]

        redwine = tmp_path / "redwine.cache.pkl"
        _rewrite_pickle(redwine, lambda payload: payload["sections"].update(accuracy=[]))
        edited = redwine.read_bytes()
        rescored = ExperimentSession(TINY_PAIR, cache_dir=tmp_path)
        rescored.front("redwine")
        assert rescored.cache_summary()["redwine"]["saved"] > 0
        assert redwine.read_bytes() != edited
        reloaded = EvaluationCache()
        reloaded.load(redwine)
        assert len(reloaded.accuracy) > 0

    def test_earlier_format_directory_is_rewritten_without_its_fitness_file(self, tmp_path):
        """A directory from format 11 or earlier loads nothing, so the
        session retrains and rewrites the head; a leftover ``.fitness``
        file beside it is deleted."""
        ExperimentSession(TINY, cache_dir=tmp_path).front("breast_cancer")
        snapshot = tmp_path / "breast_cancer.cache.pkl"
        _rewrite_pickle(snapshot, lambda payload: payload.update(version=10))
        (tmp_path / "breast_cancer.cache.pkl.fitness").write_bytes(b"format-10 fitness memo")

        session = ExperimentSession(TINY, cache_dir=tmp_path)
        session.front("breast_cancer")
        summary = session.cache_summary()["breast_cancer"]
        assert summary["loaded"] == 0 and summary["saved"] > 0
        assert summary["baseline"] == "trained"
        assert [p.name for p in tmp_path.iterdir()] == ["breast_cancer.cache.pkl"]
        assert pickle.loads(snapshot.read_bytes())["version"] == CACHE_FORMAT_VERSION


def _snapshot_bytes(directory) -> dict:
    """``{file name: bytes}`` of every snapshot in ``directory``."""
    return {name: data for name, (data, _) in _snapshot_state(directory).items()}


class TestSnapshotDeterminism:
    """A snapshot holds no wall-clock value: two cold sessions over
    separate directories write the same bytes."""

    def test_front_and_plain_ga_write_identical_snapshots(self, tmp_path):
        for run in ("a", "b"):
            session = ExperimentSession(TINY, cache_dir=tmp_path / run)
            session.front("breast_cancer")
            session.ga_plain("breast_cancer")
        first = _snapshot_bytes(tmp_path / "a")
        assert list(first) == ["breast_cancer.cache.pkl"]
        assert _snapshot_bytes(tmp_path / "b") == first

    def test_threaded_table2_writes_identical_snapshots(self, tmp_path):
        """Two threaded fills, and a serial one, write the same bytes."""
        for run, workers in (("a", 2), ("b", 2), ("serial", 0)):
            scale = dataclasses.replace(TINY_PAIR, dataset_workers=workers)
            ExperimentSession(scale, cache_dir=tmp_path / run).run(["table2"])
        first = _snapshot_bytes(tmp_path / "a")
        assert sorted(first) == ["breast_cancer.cache.pkl", "redwine.cache.pkl"]
        assert _snapshot_bytes(tmp_path / "b") == first
        assert _snapshot_bytes(tmp_path / "serial") == first


class TestSplitFingerprintMemo:
    def test_frozen_split_is_hashed_once_with_the_same_key(self, monkeypatch):
        """A dataset split's read-only arrays are fingerprinted once; the
        key equals the one computed from writable copies."""
        dataset = ExperimentSession(TINY).baseline("breast_cancer").dataset
        inputs, labels = dataset.quantized_test()
        expected = EvaluationCache.split_fingerprint(inputs.copy(), labels.copy())

        digests = {"n": 0}
        original = cache_module.hashlib.blake2b

        def counting(*args, **kwargs):
            digests["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cache_module.hashlib, "blake2b", counting)
        first = EvaluationCache.split_fingerprint(inputs, labels)
        for _ in range(3):
            assert EvaluationCache.split_fingerprint(*dataset.quantized_test()) == first
        assert first == expected
        assert digests["n"] <= 1
        # Writable arrays are always hashed: their content may change.
        writable = inputs.copy()
        EvaluationCache.split_fingerprint(writable, labels)
        EvaluationCache.split_fingerprint(writable, labels)
        assert digests["n"] >= 2

    def test_memo_entry_leaves_with_its_arrays(self):
        inputs = np.arange(12, dtype=np.int64).reshape(4, 3).copy()
        labels = np.arange(4, dtype=np.int64)
        inputs.flags.writeable = labels.flags.writeable = False
        EvaluationCache.split_fingerprint(inputs, labels)
        key = (id(inputs), id(labels))
        assert key in cache_module._FINGERPRINTS
        del inputs
        assert key not in cache_module._FINGERPRINTS

    def test_read_only_view_is_not_memoized(self):
        """A read-only view of a writable array can still change."""
        base = np.zeros((4, 3), dtype=np.int64)
        view = base[:]
        view.flags.writeable = False
        labels = np.zeros(4, dtype=np.int64)
        labels.flags.writeable = False
        first = EvaluationCache.split_fingerprint(view, labels)
        base[0, 0] = 1
        assert EvaluationCache.split_fingerprint(view, labels) != first


def _read_exports(directory) -> dict:
    """Every exported JSON file under ``directory``, ``*_seconds`` keys stripped."""
    import json

    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items() if not k.endswith("_seconds")}
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value

    return {
        path.relative_to(directory).as_posix(): strip(json.loads(path.read_text("utf-8")))
        for path in sorted(directory.rglob("*.json"))
    }


class TestOneFilePerDataset:
    def test_runner_writes_no_fitness_file_and_scores_every_lookup(
        self, tmp_path, capsys, monkeypatch
    ):
        """A cold ``runner --cache-dir`` writes one snapshot per dataset and
        no fitness file; the warm run restores both GA stages and exports
        the same numbers.  Every GA generation scored each unique lookup."""
        from repro.experiments import runner as runner_module
        from repro.experiments.config import SCALES

        monkeypatch.setitem(SCALES, "tiny-cache", TINY)
        cache_dir = tmp_path / "cache"

        def run(export_dir):
            argv = [
                "--experiment", "table3", "--scale", "tiny-cache",
                "--cache-dir", str(cache_dir), "--export-dir", str(export_dir),
            ]
            assert runner_module.main(argv) == 0
            out = capsys.readouterr().out
            return next(l for l in out.splitlines() if l.startswith("[cache] breast_cancer"))

        assert run(tmp_path / "cold").endswith("baseline trained, ga trained")
        assert [p.name for p in cache_dir.iterdir()] == ["breast_cancer.cache.pkl"]
        assert run(tmp_path / "warm").endswith("baseline restored, ga restored")
        assert list(cache_dir.glob("*.fitness")) == []
        assert _read_exports(tmp_path / "warm") == _read_exports(tmp_path / "cold")

        restored = ExperimentSession(TINY, cache_dir=cache_dir)
        for ga_result in (
            restored.front("breast_cancer").approximate.ga_result,
            restored.ga_plain("breast_cancer"),
        ):
            assert ga_result.history
            for row in ga_result.history:
                assert row.fitness_computations == row.evaluations > 0


class TestRunnerFlag:
    def test_runner_cache_dir_reports_restored_stages(self, tmp_path, capsys, monkeypatch):
        """``runner.py --cache-dir`` wires the directory through and
        prints the per-dataset ``[cache]`` summary."""
        from repro.experiments import runner as runner_module
        from repro.experiments.config import SCALES

        monkeypatch.setitem(SCALES, "tiny-cache", TINY)
        argv = [
            "--experiment",
            "table2",
            "--scale",
            "tiny-cache",
            "--cache-dir",
            str(tmp_path),
        ]
        assert runner_module.main(argv) == 0
        first_out = capsys.readouterr().out
        assert "[cache] breast_cancer" in first_out
        assert "baseline trained" in first_out
        snapshot = tmp_path / "breast_cancer.cache.pkl"
        cold_bytes = snapshot.read_bytes()

        assert runner_module.main(argv) == 0
        second_out = capsys.readouterr().out
        line = next(
            l for l in second_out.splitlines() if l.startswith("[cache] breast_cancer")
        )
        # Both stages were restored and nothing was added, so the warm run
        # read the snapshot and left it as it was.
        assert "fitness" not in line
        loaded, saved = re.search(r"snapshot loaded (\d+) / saved (\d+) entries", line).groups()
        assert int(loaded) > 0 and int(saved) == 0
        assert line.endswith("baseline restored, ga restored")
        assert snapshot.read_bytes() == cold_bytes

    def test_runner_reports_baseline_only_runs(self, tmp_path, capsys, monkeypatch):
        """A ``table1`` run trains no GA but still reads and writes each
        dataset's snapshot, so it prints one ``[cache]`` line per dataset:
        ``ga none`` on both runs, and on the warm run a restored baseline
        and an unchanged snapshot."""
        from repro.experiments import runner as runner_module
        from repro.experiments.config import SCALES

        monkeypatch.setitem(SCALES, "tiny-pair", TINY_PAIR)
        argv = ["--experiment", "table1", "--scale", "tiny-pair", "--cache-dir", str(tmp_path)]

        def cache_lines():
            assert runner_module.main(argv) == 0
            out = capsys.readouterr().out
            return [l for l in out.splitlines() if l.startswith("[cache]")]

        cold = cache_lines()
        assert [l.split(":")[0] for l in cold] == ["[cache] breast_cancer", "[cache] redwine"]
        assert all(l.endswith("baseline trained, ga none") for l in cold)
        snapshots = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(snapshots) == ["breast_cancer.cache.pkl", "redwine.cache.pkl"]

        warm = cache_lines()
        assert [l.split(":")[0] for l in warm] == ["[cache] breast_cancer", "[cache] redwine"]
        for line in warm:
            loaded, saved = re.search(r"snapshot loaded (\d+) / saved (\d+) entries", line).groups()
            assert int(loaded) > 0 and int(saved) == 0
            assert line.endswith("baseline restored, ga none")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == snapshots
