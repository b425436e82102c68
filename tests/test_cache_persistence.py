"""Tests of the disk-backed evaluation cache (save/load + session wiring).

Covers the snapshot format (versioning, the code guard, atomic writes,
LRU-order preservation), the fitness file that is read only on first
use and rewritten only when read or compacted, the corruption tolerance
of :meth:`EvaluationCache.load`, the process-stable split fingerprints,
and the end-to-end promise: a second identical experiment run against
the same ``--cache-dir`` restores the baseline and both GA results
without opening a fitness file, and without its GA entries is served
almost entirely (> 90 %) from the fitness cache.
"""

from __future__ import annotations

import dataclasses
import logging
import pickle

import numpy as np
import pytest

from repro.baselines.gradient import GradientTrainer
from repro.core.trainer import GATrainer
from repro.core.cache import (
    CACHE_FORMAT_VERSION,
    EvaluationCache,
    SnapshotPolicy,
    code_digest,
    pack_arrays,
    unpack_arrays,
)
from repro.experiments.config import ExperimentScale
from repro.experiments.session import ExperimentSession


class TestSnapshotRoundTrip:
    def test_save_and_load_restores_data_sections(self, tmp_path):
        cache = EvaluationCache()
        cache.fitness.put(("ctx", b"genome-1"), (0.25, 12.0))
        cache.fitness.put(("ctx", b"genome-2"), (0.5, 8.0))
        cache.accuracy.put((("k", b"g"), "split"), 0.875)
        cache.reports.put(("g", 1.0, 200.0, False), {"area": 3.5})
        path = tmp_path / "snap.pkl"
        assert cache.save(path) == 4

        restored = EvaluationCache()
        assert restored.load(path) == 4
        assert restored.fitness.get(("ctx", b"genome-1")) == (0.25, 12.0)
        assert restored.fitness.get(("ctx", b"genome-2")) == (0.5, 8.0)
        assert restored.accuracy.get((("k", b"g"), "split")) == 0.875
        assert restored.reports.get(("g", 1.0, 200.0, False)) == {"area": 3.5}

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

    def test_baseline_key_covers_trainer_settings_but_not_verbose(self):
        split = ("split",)
        key = EvaluationCache.baseline_key(split, (4, 3), GradientTrainer())
        assert key == EvaluationCache.baseline_key(
            split, (4, 3), GradientTrainer(verbose=True)
        )
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
        cache.fitness.put(("ctx", b"g"), 1.0)
        path = tmp_path / "snap.pkl"
        assert cache.save(path) == 1
        restored = EvaluationCache()
        restored.load(path)
        assert len(restored.modules) == 0
        assert len(restored.fitness) == 1

    def test_load_preserves_lru_order(self, tmp_path):
        cache = EvaluationCache()
        for index in range(5):
            cache.fitness.put(("ctx", index), index)
        cache.fitness.get(("ctx", 0))  # refresh: 0 becomes most recent
        path = tmp_path / "snap.pkl"
        cache.save(path)
        restored = EvaluationCache(max_fitness_entries=2)
        restored.load(path)
        # Entries are stored least-recent first, so a smaller cache
        # keeps the hottest tail: the refreshed 0 and the latest insert.
        assert restored.fitness.keys() == [("ctx", 4), ("ctx", 0)]

    def test_save_creates_parent_directories(self, tmp_path):
        cache = EvaluationCache()
        cache.fitness.put("k", "v")
        path = tmp_path / "nested" / "dir" / "snap.pkl"
        cache.save(path)
        assert path.exists()

    def test_save_is_atomic(self, tmp_path):
        path = tmp_path / "snap.pkl"
        first = EvaluationCache()
        first.fitness.put("k", "old")
        first.save(path)
        second = EvaluationCache()
        second.fitness.put("k", "new")
        second.save(path)
        leftovers = [
            p for p in tmp_path.iterdir() if p not in (path, EvaluationCache.fitness_path(path))
        ]
        assert leftovers == []  # no temp files left behind
        restored = EvaluationCache()
        restored.load(path)
        assert restored.fitness.get("k") == "new"


class TestSnapshotCompaction:
    """The cache-eviction policy for long-lived ``--cache-dir`` directories."""

    def _entry_count(self, path):
        probe = EvaluationCache()
        return probe.load(path)

    def test_bloated_snapshot_shrinks_to_section_bounds(self, tmp_path):
        """A snapshot accumulated by a large cache shrinks back to the
        section bounds of the cache that saves it next."""
        big = EvaluationCache()
        for index in range(500):
            big.fitness.put(("ctx", index), float(index))
        path = tmp_path / "snap.pkl"
        assert big.save(path) == 500

        small = EvaluationCache(max_fitness_entries=50)
        assert small.load(path) == 500  # read fully, bounded on put
        assert len(small.fitness) == 50
        assert small.save(path) == 50
        assert self._entry_count(path) == 50

    def test_policy_age_bound_drops_stale_entries(self, tmp_path):
        cache = EvaluationCache()
        cache.fitness.put("fresh", 1.0)
        cache.fitness.put("stale", 2.0)
        now = cache.fitness.last_used("fresh")
        cache.fitness._stamps["stale"] = now - 1000.0
        path = tmp_path / "snap.pkl"
        policy = SnapshotPolicy(max_age_seconds=500.0)
        assert cache.save(path, policy=policy, now=now) == 1
        restored = EvaluationCache()
        restored.load(path)
        assert restored.fitness.get("fresh") == 1.0
        assert "stale" not in restored.fitness

    def test_stamps_survive_the_snapshot_round_trip(self, tmp_path):
        """Aging keeps working across restarts: the persisted last-used
        time is restored on load, not replaced by load time."""
        cache = EvaluationCache()
        cache.fitness.put("old", 1.0)
        old_stamp = cache.fitness.last_used("old") - 10_000.0
        cache.fitness._stamps["old"] = old_stamp
        path = tmp_path / "snap.pkl"
        cache.save(path)

        restored = EvaluationCache()
        restored.load(path)
        assert restored.fitness.last_used("old") == old_stamp
        # A second save with an age policy can therefore still drop it.
        assert restored.save(path, policy=SnapshotPolicy(max_age_seconds=500.0)) == 0

    def test_policy_rejects_non_positive_bounds(self):
        with pytest.raises(ValueError):
            SnapshotPolicy(max_age_seconds=0)
        with pytest.raises(ValueError):
            SnapshotPolicy(max_age_seconds=-1.0)

    def test_pipeline_scale_policy_reaches_save(self, tmp_path):
        """The scale's age bound becomes the session's policy."""
        scale = ExperimentScale(
            name="tiny-policy",
            datasets=("breast_cancer",),
            cache_dir=str(tmp_path),
            cache_max_age_days=7.0,
        )
        session = ExperimentSession(scale)
        assert session.snapshot_policy == SnapshotPolicy(max_age_seconds=7.0 * 86400.0)
        diskless = ExperimentSession(
            ExperimentScale(name="no-policy", cache_max_age_days=None)
        )
        assert diskless.snapshot_policy is None


def _full_cache() -> EvaluationCache:
    """A cache with one entry in every persisted section."""
    cache = EvaluationCache()
    cache.fitness.put(("ctx", b"g1"), (0.25, 12.0))
    cache.fitness.put(("ctx", b"g2"), (0.5, 8.0))
    cache.accuracy.put((b"g1", "split"), 0.875)
    cache.reports.put((b"g1", 1.0, 200.0, False), {"area": 3.5})
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
            cache.fitness.put(("ctx", index), float(index))
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
        cache.fitness.put("k", "v")
        path = tmp_path / "snap.pkl"
        cache.save(path)
        payload = pickle.loads(path.read_bytes())
        payload["version"] = CACHE_FORMAT_VERSION + 1
        path.write_bytes(pickle.dumps(payload))
        assert EvaluationCache().load(path) == 0

    def test_version_4_snapshot_is_ignored(self, tmp_path, caplog, small_topology, approx_config):
        """A version-4 snapshot (nested tuple context keys holding the
        ApproxConfig dataclass) is refused by its version, not mis-read."""
        from repro.core.fitness import FitnessValues

        split = ((3, 4), (3,), "int64", "int64", "0" * 32)
        context = ((tuple(small_topology.sizes), approx_config, True), 0.75, 0.1, split)
        value = FitnessValues(error=0.25, area=12.0, accuracy=0.75)
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
        assert f"format version 4 (expected {CACHE_FORMAT_VERSION})" in caplog.text
        assert len(cache.fitness) == 0

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

        payload["version"] = CACHE_FORMAT_VERSION
        payload["code"] = (np.__version__, code_digest())
        path.write_bytes(pickle.dumps(payload))
        assert EvaluationCache().load(path) == 1

    def test_version_7_int64_keyed_snapshot_is_ignored(
        self, tmp_path, caplog, small_topology, approx_config
    ):
        """A version-7 snapshot keys fitness entries by the int64 genome;
        the current memo would never hit them, so the version refuses
        the whole file."""
        from repro.core.chromosome import ChromosomeLayout
        from repro.core.fitness import FitnessEvaluator, FitnessValues

        layout = ChromosomeLayout(small_topology, approx_config)
        inputs = np.arange(12, dtype=np.int64).reshape(3, 4) % 16
        evaluator = FitnessEvaluator(layout, inputs, np.array([0, 1, 0]))
        genome = np.asarray(layout.lower_bounds)
        key = evaluator._fitness_key(genome.astype(np.int64).tobytes())
        value = FitnessValues(error=0.25, area=12.0, accuracy=0.75)
        payload = {
            "magic": "repro-evaluation-cache",
            "version": 7,
            "sections": {"fitness": [(key, value, 1.0)], "accuracy": [], "reports": [], "baselines": []},
        }
        path = tmp_path / "v7.pkl"
        path.write_bytes(pickle.dumps(payload))
        cache = EvaluationCache()
        with caplog.at_level(logging.WARNING, logger="repro.core.cache"):
            assert cache.load(path) == 0
        assert f"format version 7 (expected {CACHE_FORMAT_VERSION})" in caplog.text
        assert len(cache.fitness) == 0

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

    def test_malformed_section_is_skipped(self, tmp_path):
        cache = EvaluationCache()
        cache.fitness.put("k", "v")
        path = tmp_path / "snap.pkl"
        cache.save(path)
        payload = pickle.loads(path.read_bytes())
        payload["sections"]["accuracy"] = 42  # not an entry list
        path.write_bytes(pickle.dumps(payload))
        restored = EvaluationCache()
        restored.load(path)
        assert restored.fitness.get("k") == "v"
        assert len(restored.accuracy) == 0

    def test_section_table_of_wrong_type_loads_nothing(self, tmp_path, caplog):
        path = tmp_path / "snap.pkl"
        _full_cache().save(path)
        _rewrite_pickle(path, lambda payload: payload.update(sections=[]))
        restored = EvaluationCache()
        with caplog.at_level(logging.WARNING, logger="repro.core.cache"):
            assert restored.load(path) == 0
        assert "without a section table" in caplog.text
        assert restored.fitness.backing is None


class TestLazyFitnessFile:
    """The fitness section lives in its own file, read on first use."""

    def test_load_defers_the_fitness_file_until_first_access(self, tmp_path):
        path = tmp_path / "snap.pkl"
        assert _full_cache().save(path) == 5
        assert EvaluationCache.fitness_path(path) == tmp_path / "snap.pkl.fitness"

        restored = EvaluationCache()
        assert restored.load(path) == 5  # the head's recorded count
        assert restored.fitness.backing[:2] == (EvaluationCache.fitness_path(path), 2)
        assert restored.stages.get(("ga", ("key",))) == ("packed",)
        assert restored.fitness.backing is not None  # other sections do not read it
        assert restored.fitness.get(("ctx", b"g1")) == (0.25, 12.0)
        assert restored.fitness.backing is None
        assert restored.fitness.keys() == [("ctx", b"g2"), ("ctx", b"g1")]

    @pytest.mark.parametrize(
        "access",
        [
            lambda section: section.get("absent"),
            lambda section: section.put("new", 1.0),
            lambda section: section.pop("absent"),
            lambda section: "absent" in section,
            len,
            lambda section: section.keys(),
            lambda section: section.last_used("absent"),
            lambda section: section.entries(now=0.0),
            lambda section: section.restore([("new", 1.0, 0.0)]),
        ],
        ids=["get", "put", "pop", "in", "len", "keys", "last_used", "entries", "restore"],
    )
    def test_every_access_reads_the_file(self, tmp_path, access):
        path = tmp_path / "snap.pkl"
        _full_cache().save(path)
        restored = EvaluationCache()
        restored.load(path)
        access(restored.fitness)
        assert restored.fitness.backing is None
        assert ("ctx", b"g1") in restored.fitness

    def test_clear_drops_the_unread_file(self, tmp_path):
        path = tmp_path / "snap.pkl"
        _full_cache().save(path)
        restored = EvaluationCache()
        restored.load(path)
        EvaluationCache.fitness_path(path).unlink()
        restored.clear()  # nothing to read: no warning, nothing left
        assert restored.fitness.backing is None
        assert len(restored.fitness) == 0

    def test_evaluator_cache_view_reads_the_file(self, tmp_path, small_topology, approx_config):
        from repro.core.chromosome import ChromosomeLayout
        from repro.core.fitness import FitnessEvaluator

        path = tmp_path / "snap.pkl"
        _full_cache().save(path)
        restored = EvaluationCache()
        restored.load(path)
        layout = ChromosomeLayout(small_topology, approx_config)
        inputs = np.arange(12, dtype=np.int64).reshape(3, 4) % 16
        evaluator = FitnessEvaluator(layout, inputs, np.array([0, 1, 0]), cache=restored)
        assert len(evaluator._cache) == 2

    def test_unread_file_is_carried_forward_not_rewritten(self, tmp_path):
        path = tmp_path / "snap.pkl"
        _full_cache().save(path)
        fitness_file = EvaluationCache.fitness_path(path)
        before = fitness_file.stat()
        restored = EvaluationCache()
        assert restored.load(path) == 5
        assert restored.save(path, policy=SnapshotPolicy(max_age_seconds=500.0)) == 5
        after = fitness_file.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert restored.fitness.backing is not None
        assert EvaluationCache().load(path) == 5

    def test_aged_file_is_compacted_on_save_without_a_read_first(self, tmp_path):
        cache = EvaluationCache()
        cache.fitness.put("fresh", 1.0)
        cache.fitness.put("stale", 2.0)
        now = cache.fitness.last_used("fresh")
        cache.fitness._stamps["stale"] = now - 1000.0
        path = tmp_path / "snap.pkl"
        assert cache.save(path, now=now) == 2
        assert pickle.loads(path.read_bytes())["fitness"] == (2, now - 1000.0)

        restored = EvaluationCache()
        restored.load(path)
        assert restored.fitness.backing is not None  # nothing read it
        assert restored.save(path, policy=SnapshotPolicy(max_age_seconds=500.0), now=now) == 1
        assert restored.fitness.backing is None
        payload = pickle.loads(EvaluationCache.fitness_path(path).read_bytes())
        assert [key for key, _, _ in payload["entries"]] == ["fresh"]
        assert pickle.loads(path.read_bytes())["fitness"] == (1, now)

    def test_file_over_the_section_bound_is_compacted_on_save(self, tmp_path):
        big = EvaluationCache()
        for index in range(20):
            big.fitness.put(("ctx", index), float(index))
        path = tmp_path / "snap.pkl"
        big.save(path)
        small = EvaluationCache(max_fitness_entries=5)
        assert small.load(path) == 20
        assert small.save(path) == 5
        assert EvaluationCache().load(path) == 5

    def test_save_to_another_path_writes_its_own_fitness_file(self, tmp_path):
        path, other = tmp_path / "a.pkl", tmp_path / "b.pkl"
        _full_cache().save(path)
        restored = EvaluationCache()
        restored.load(path)
        assert restored.save(other) == 5
        copy = EvaluationCache()
        copy.load(other)
        assert copy.fitness.get(("ctx", b"g2")) == (0.5, 8.0)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda path: path.unlink(),
            lambda path: path.write_bytes(b"\x00garbage"),
            lambda path: _rewrite_pickle(
                path, lambda p: p.update(version=CACHE_FORMAT_VERSION - 1)
            ),
            lambda path: _rewrite_pickle(path, lambda p: p.update(code=("0.0", "other"))),
            lambda path: _rewrite_pickle(path, lambda p: p.update(magic="repro-evaluation-cache")),
            lambda path: _rewrite_pickle(path, lambda p: p.update(entries=42)),
        ],
        ids=["missing", "garbage", "version", "code", "magic", "entries"],
    )
    def test_bad_fitness_file_keeps_the_head(self, tmp_path, caplog, damage):
        path = tmp_path / "snap.pkl"
        _full_cache().save(path)
        damage(EvaluationCache.fitness_path(path))
        restored = EvaluationCache()
        with caplog.at_level(logging.WARNING, logger="repro.core.cache"):
            assert restored.load(path) == 5
            assert not caplog.records  # the fitness file is not opened yet
            assert restored.fitness.get(("ctx", b"g1")) is None
        assert len(caplog.records) == 1
        assert "snap.pkl.fitness" in caplog.text
        assert len(restored.fitness) == 0
        assert restored.accuracy.get((b"g1", "split")) == 0.875
        assert restored.reports.get((b"g1", 1.0, 200.0, False)) == {"area": 3.5}
        assert restored.stages.get(("ga", ("key",))) == ("packed",)

    def test_load_into_non_empty_cache_merges_both_files(self, tmp_path):
        path = tmp_path / "snap.pkl"
        _full_cache().save(path)
        cache = EvaluationCache()
        cache.fitness.put(("ctx", b"mine"), (0.0, 1.0))
        cache.accuracy.put((b"mine", "split"), 0.5)
        assert cache.load(path) == 5
        assert cache.fitness.backing is None  # read at once, not deferred
        assert cache.fitness.keys() == [("ctx", b"mine"), ("ctx", b"g1"), ("ctx", b"g2")]
        assert cache.accuracy.keys() == [(b"mine", "split"), (b"g1", "split")]

    def test_second_load_merges_the_first_deferred_file(self, tmp_path):
        first, second = tmp_path / "a.pkl", tmp_path / "b.pkl"
        _full_cache().save(first)
        other = EvaluationCache()
        other.fitness.put(("ctx", b"other"), (1.0, 0.0))
        other.save(second)
        cache = EvaluationCache()
        assert cache.load(first) == 5
        assert cache.load(second) == 1
        assert cache.fitness.keys() == [("ctx", b"g1"), ("ctx", b"g2"), ("ctx", b"other")]

    def test_code_guard_refuses_the_head_of_other_code(self, tmp_path, caplog, monkeypatch):
        import repro.core.cache as cache_module

        path = tmp_path / "snap.pkl"
        _full_cache().save(path)
        monkeypatch.setattr(cache_module, "code_digest", lambda: "an edited tree")
        restored = EvaluationCache()
        with caplog.at_level(logging.WARNING, logger="repro.core.cache"):
            assert restored.load(path) == 0
        assert "written by other code" in caplog.text
        assert restored.fitness.backing is None
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

    def test_fitness_keys_round_trip_through_pickle(self, small_topology, approx_config):
        """Snapshot keys embed the layout identity and the evaluator
        context as flat strings; pickling must not change their
        equality/hash."""
        from repro.core.chromosome import ChromosomeLayout
        from repro.core.fitness import FitnessEvaluator

        layout = ChromosomeLayout(small_topology, approx_config)
        inputs = np.arange(12, dtype=np.int64).reshape(3, 4) % 16
        evaluator = FitnessEvaluator(layout, inputs, np.array([0, 1, 0]), baseline_accuracy=0.75)
        (genome,) = layout.memo_keys(np.zeros((1, layout.num_genes), dtype=np.int64))
        key = evaluator._fitness_key(genome)
        assert [type(part) for part in key] == [str, bytes]
        assert isinstance(EvaluationCache.layout_key(layout), str)
        assert pickle.loads(pickle.dumps(key)) == key
        assert hash(pickle.loads(pickle.dumps(key))) == hash(key)

    def test_fitness_context_separates_constraints(self, small_topology, approx_config):
        """The folded context digest still tells evaluators apart by
        layout, baseline accuracy, loss bound and training split."""
        from repro.core.chromosome import ChromosomeLayout
        from repro.core.fitness import FitnessEvaluator

        layout = ChromosomeLayout(small_topology, approx_config)
        inputs = np.arange(12, dtype=np.int64).reshape(3, 4) % 16
        labels = np.array([0, 1, 0])

        def context(**kwargs):
            arguments = dict(
                layout=layout, train_inputs=inputs, train_labels=labels, baseline_accuracy=0.75
            )
            arguments.update(kwargs)
            return FitnessEvaluator(**arguments)._context_key

        variants = [
            context(),
            context(baseline_accuracy=None),
            context(baseline_accuracy=0.5),
            context(max_accuracy_loss=0.05),
            context(train_labels=np.array([1, 1, 0])),
            context(layout=ChromosomeLayout(small_topology, approx_config, learn_shifts=False)),
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
        baseline.train_accuracy,
        baseline.test_accuracy,
    )


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
    def test_second_run_hits_over_90_percent(self, tmp_path):
        """The acceptance criterion: an identical second run against the
        same cache directory reports > 90 % fitness-cache hit rate and
        reproduces the same designs."""
        first = ExperimentSession(TINY, cache_dir=tmp_path)
        first_result = first.front("breast_cancer")
        first_summary = first.cache_summary()["breast_cancer"]
        assert first_summary["loaded"] == 0
        assert first_summary["saved"] > 0
        assert (tmp_path / "breast_cancer.cache.pkl").exists()
        # Without its GA entry the second session replays the GA through
        # the fitness memo instead of restoring it.
        dropped = _drop_stage_entries(tmp_path / "breast_cancer.cache.pkl", "ga")
        assert dropped == 1

        second = ExperimentSession(TINY, cache_dir=tmp_path)
        second_result = second.front("breast_cancer")
        second_summary = second.cache_summary()["breast_cancer"]
        assert second_summary["loaded"] == first_summary["saved"] - dropped
        assert second_summary["hit_rate"] > 0.9

        # Same seed + restored fitness values => identical evolution.
        first_designs = [
            (d.point.error, d.point.area, d.test_accuracy, d.report.area_cm2)
            for d in first_result.approximate.designs
        ]
        second_designs = [
            (d.point.error, d.point.area, d.test_accuracy, d.report.area_cm2)
            for d in second_result.approximate.designs
        ]
        assert first_designs == second_designs

        # The GA never recomputed a fitness: everything it asked for was
        # either restored from disk or memoized within the run.
        ga_stats = second_result.approximate.ga_result.history[-1]
        assert ga_stats.fitness_computations == 0

    def test_ga_plain_folds_its_entries_into_the_snapshot(self, tmp_path):
        """The hardware-unaware GA shares the front's cache and saves it
        again, so the snapshot also serves the Table III GA next run."""
        session = ExperimentSession(TINY, cache_dir=tmp_path)
        session.front("breast_cancer")
        after_front = session.cache_summary()["breast_cancer"]["saved"]
        session.ga_plain("breast_cancer")
        after_plain = session.cache_summary()["breast_cancer"]["saved"]
        assert after_plain > after_front
        restored = EvaluationCache()
        assert restored.load(tmp_path / "breast_cancer.cache.pkl") == after_plain

    def test_scale_cache_dir_is_used(self, tmp_path):
        scale = ExperimentScale(
            name="tiny-cache-scale",
            datasets=("breast_cancer",),
            max_samples=200,
            gradient_epochs=30,
            gradient_restarts=1,
            ga_population=16,
            ga_generations=4,
            max_front_designs=6,
            seed=0,
            cache_dir=str(tmp_path / "from-scale"),
        )
        session = ExperimentSession(scale)
        session.front("breast_cancer")
        assert (tmp_path / "from-scale" / "breast_cancer.cache.pkl").exists()

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
            lambda value: ((value[0][0], value[0][1][:-8]),) + value[1:],
            lambda value: ((value[0][0][::-1], value[0][1]),) + value[1:],
        ],
        ids=["non-tuple", "byte-length", "shape"],
    )
    def test_malformed_entry_is_retrained_and_overwritten(
        self, tmp_path, monkeypatch, caplog, corrupt
    ):
        cold = ExperimentSession(TINY).baseline("breast_cancer").baseline
        ExperimentSession(TINY, cache_dir=tmp_path).baseline("breast_cancer")
        snapshot = tmp_path / "breast_cancer.cache.pkl"
        payload = pickle.loads(snapshot.read_bytes())
        assert payload["version"] == CACHE_FORMAT_VERSION == 10
        (key, value, stamp), = payload["sections"]["stages"]
        payload["sections"]["stages"] = [(key, corrupt(value), stamp)]
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
        # Nothing was looked up in this session.
        assert (summary["evaluations"], summary["cache_hits"], summary["hit_rate"]) == (0, 0, 0.0)
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
        kinds = sorted(key[0] for key, _, _ in payload["sections"]["stages"])
        assert kinds == ["baseline", "ga", "ga"]
        front, plain = (
            value for key, value, _ in payload["sections"]["stages"] if key[0] == "ga"
        )
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

    def test_edited_code_recomputes_fitness_instead_of_reading_the_memo(
        self, tmp_path, monkeypatch, caplog
    ):
        """After a source edit the GA that the stage miss reruns computes
        its fitness values; it never reads the old code's memo."""
        import repro.core.cache as cache_module
        from repro.core.fitness import FitnessEvaluator

        ExperimentSession(TINY, cache_dir=tmp_path).front("breast_cancer")
        monkeypatch.setattr(cache_module, "code_digest", lambda: "an edited tree")
        scored = {"rows": 0}
        original = FitnessEvaluator.compute_population

        def counting(self, population, slow=False):
            scored["rows"] += len(population)
            return original(self, population, slow=slow)

        monkeypatch.setattr(FitnessEvaluator, "compute_population", counting)
        with caplog.at_level(logging.WARNING, logger="repro.core.cache"):
            edited = ExperimentSession(TINY, cache_dir=tmp_path)
            result = edited.front("breast_cancer").approximate.ga_result
        assert scored["rows"] > 0
        assert result.history[-1].fitness_computations == scored["rows"]
        assert "written by other code" in caplog.text
        assert edited.cache_summary()["breast_cancer"]["loaded"] == 0

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
            (key, corrupt(value, layout) if key[0] == "ga" else value, stamp)
            for key, value, stamp in payload["sections"]["stages"]
        ]
        snapshot.write_bytes(pickle.dumps(payload))

        calls = _count_ga_training(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="repro.experiments.session"):
            replayed = ExperimentSession(TINY, cache_dir=tmp_path)
            result = replayed.front("breast_cancer").approximate.ga_result
        assert calls["n"] == 1
        assert "malformed cached ga of breast_cancer" in caplog.text
        assert replayed.cache_summary()["breast_cancer"]["ga"] == "trained"
        # The replay hits the fitness memo, so only its counters differ.
        assert _ga_fingerprint(result)[0] == cold[0]

        # The replayed result overwrote the bad entry on disk.
        restored = ExperimentSession(TINY, cache_dir=tmp_path)
        assert _ga_fingerprint(
            restored.front("breast_cancer").approximate.ga_result
        )[0] == cold[0]
        assert restored.cache_summary()["breast_cancer"]["ga"] == "restored"
        assert calls["n"] == 1


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


class TestWarmSessionSkipsFitnessFile:
    def test_restored_ga_never_opens_the_fitness_file(
        self, tmp_path, capsys, caplog, monkeypatch
    ):
        """A warm session whose GA is restored reads and writes no fitness
        file: deleted after the cold run, it is neither missed nor
        recreated.  A later GA miss then warns once and recomputes."""
        from repro.experiments import runner as runner_module
        from repro.experiments.config import SCALES

        monkeypatch.setitem(SCALES, "tiny-cache", TINY)
        cache_dir = tmp_path / "cache"

        def run(export_dir):
            argv = [
                "--experiment", "table2", "--scale", "tiny-cache",
                "--cache-dir", str(cache_dir), "--export-dir", str(export_dir),
            ]
            assert runner_module.main(argv) == 0
            out = capsys.readouterr().out
            return next(l for l in out.splitlines() if l.startswith("[cache] breast_cancer"))

        run(tmp_path / "cold")
        fitness_file = EvaluationCache.fitness_path(cache_dir / "breast_cancer.cache.pkl")
        fitness_file.unlink()
        with caplog.at_level(logging.WARNING):
            line = run(tmp_path / "warm")
        assert line.endswith("baseline restored, ga restored")
        assert not caplog.records
        assert not fitness_file.exists()
        assert _read_exports(tmp_path / "warm") == _read_exports(tmp_path / "cold")

        caplog.clear()
        computations = _count_ga_training(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="repro.core.cache"):
            missed = ExperimentSession(
                dataclasses.replace(TINY, ga_generations=7), cache_dir=cache_dir
            )
            result = missed.front("breast_cancer").approximate.ga_result
        assert computations["n"] == 1
        assert len(caplog.records) == 1
        assert "breast_cancer.cache.pkl.fitness" in caplog.text
        assert result.history[-1].fitness_computations > 0
        assert fitness_file.exists()  # the GA's work is written back


class TestRunnerFlag:
    def test_runner_cache_dir_reports_hit_rate(self, tmp_path, capsys, monkeypatch):
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
        assert (tmp_path / "breast_cancer.cache.pkl").exists()

        assert runner_module.main(argv) == 0
        second_out = capsys.readouterr().out
        line = next(
            l for l in second_out.splitlines() if l.startswith("[cache] breast_cancer")
        )
        # Both stages were restored: this session looked nothing up.
        assert "fitness 0/0 hits" in line
        assert line.endswith("baseline restored, ga restored")
