"""Tests of the ExperimentSession API and its typed artifacts.

Covers the tentpole guarantees of the session redesign:

* ``run("all")`` trains the per-dataset gradient baseline and the
  hardware-aware GA **exactly once** — experiments share the memoized
  stage graph instead of re-driving the pipeline;
* every experiment's artifact round-trips ``to_json -> from_json ->
  format`` **bit-identically**, and the exported CSV parses;
* artifact **schemas are stable**: the golden files under
  ``tests/golden/`` pin each experiment's columns and display layout,
  so accidental schema drift fails loudly (update the goldens together
  with a conscious ``ARTIFACT_SCHEMA_VERSION`` decision).
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from pathlib import Path

import pytest

from repro.baselines.gradient import GradientTrainer
from repro.core.trainer import GATrainer
from repro.evaluation.artifacts import (
    ARTIFACT_SCHEMA_VERSION,
    Artifact,
    ArtifactError,
    normalize_cell,
)
from repro.experiments.config import ExperimentScale
from repro.experiments.session import (
    EXPERIMENT_DEFINITIONS,
    EXPERIMENT_ORDER,
    ExperimentSession,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

TINY = ExperimentScale(
    name="tiny-session",
    datasets=("breast_cancer",),
    max_samples=250,
    gradient_epochs=40,
    gradient_restarts=1,
    ga_population=20,
    ga_generations=10,
    max_front_designs=8,
    seed=0,
)


@pytest.fixture(scope="module")
def session_run():
    """One full ``run("all")`` with the trainer entry points counted."""
    ga_calls = []
    grad_calls = []
    ga_orig, grad_orig = GATrainer.train, GradientTrainer.train

    def counting_ga(self, *args, **kwargs):
        ga_calls.append(kwargs)
        return ga_orig(self, *args, **kwargs)

    def counting_grad(self, *args, **kwargs):
        grad_calls.append(kwargs)
        return grad_orig(self, *args, **kwargs)

    GATrainer.train = counting_ga
    GradientTrainer.train = counting_grad
    try:
        session = ExperimentSession(TINY)
        artifacts = session.run("all")
    finally:
        GATrainer.train = ga_orig
        GradientTrainer.train = grad_orig
    return session, artifacts, ga_calls, grad_calls


class TestSharedStages:
    def test_all_experiments_produced(self, session_run):
        _, artifacts, _, _ = session_run
        assert tuple(artifacts) == EXPERIMENT_ORDER
        for artifact in artifacts.values():
            assert len(artifact.rows) >= 1

    def test_gradient_training_runs_exactly_once_per_dataset(self, session_run):
        _, _, _, grad_calls = session_run
        # Table I/II/III, Fig. 4/5 and both ablations all read the one
        # shared gradient-baseline stage.
        assert len(grad_calls) == len(TINY.datasets)

    def test_ga_training_runs_exactly_once_per_stage(self, session_run):
        session, _, ga_calls, _ = session_run
        # Per dataset: 1 shared hardware-aware front (table2 + table3's
        # GA-AxC column + fig4 + fig5 + both ablations' identity
        # variants) + 1 hardware-unaware plain GA (table3's GA column).
        # Plus the four genuinely restricted/altered ablation variants
        # on the ablation dataset.  Nothing trains twice.
        expected = 2 * len(TINY.datasets) + 4
        assert len(ga_calls) == expected
        counts = session.stage_counts()
        for name in TINY.datasets:
            assert counts[("ga_front", name)] == 1
            assert counts[("ga_plain", name)] == 1
            assert counts[("gradient_baseline", name)] == 1

    def test_second_run_retrains_nothing(self, session_run):
        session, first, ga_calls, grad_calls = session_run
        before = (len(ga_calls), len(grad_calls))
        second = session.run("all")
        assert (len(ga_calls), len(grad_calls)) == before
        assert second == first  # artifacts are memoized, not rebuilt

    def test_table3_reports_shared_stage_timings(self, session_run):
        session, artifacts, _, _ = session_run
        row = artifacts["table3"].rows[0]
        result = session.front("breast_cancer")
        assert row["grad_seconds"] == result.baseline.training_seconds
        assert row["ga_axc_seconds"] == result.approximate.training_seconds

    @pytest.mark.perf_ratio
    def test_table3_reports_shared_stage_timings_wall_clock(self, session_run):
        _, artifacts, _, _ = session_run
        row = artifacts["table3"].rows[0]
        assert row["grad_seconds"] < row["ga_seconds"]

    def test_run_rejects_unknown_experiment(self, session_run):
        session, _, _, _ = session_run
        with pytest.raises(KeyError, match="unknown experiment"):
            session.run(["table2", "table9"])

    def test_custom_loss_reselects_from_memoized_front(self, session_run):
        """A non-default accuracy-loss budget must be honored even after
        the front stage was memoized at the default budget."""
        from repro.evaluation.pareto_analysis import select_design
        from repro.serving import queries

        session, _, ga_calls, _ = session_run
        before = len(ga_calls)
        row = queries.selection_row(session.record("breast_cancer"), max_accuracy_loss=0.5)
        assert len(ga_calls) == before  # no retraining, selection only
        result = session.front("breast_cancer")
        expected = select_design(
            result.approximate.designs,
            baseline_accuracy=result.baseline.test_accuracy,
            max_accuracy_loss=0.5,
        )
        assert row["max_accuracy_loss"] == 0.5
        assert row["area_cm2"] == expected.area_cm2
        assert row["accuracy"] == expected.test_accuracy

    def test_prefetch_plan_respects_experiment_scope(self, session_run):
        session, _, _, _ = session_run
        # Ablations read only their fixed dataset's front.
        front, baseline = session._prefetch_plan(["ablation_approx"])
        assert front == ("breast_cancer",) and baseline == ()
        # Baseline-only experiments warm the gradient stage, not the GA.
        front, baseline = session._prefetch_plan(["table1"])
        assert front == () and baseline == TINY.datasets
        # Front experiments subsume their baselines.
        front, baseline = session._prefetch_plan(["table1", "table2"])
        assert front == TINY.datasets and baseline == ()


class TestArtifactRoundTrip:
    def test_json_round_trip_is_bit_identical(self, session_run):
        _, artifacts, _, _ = session_run
        for name, artifact in artifacts.items():
            text = artifact.to_json()
            restored = Artifact.from_json(text)
            assert restored == artifact, name
            assert restored.to_json() == text, name
            assert restored.format() == artifact.format(), name

    def test_export_files_round_trip(self, session_run, tmp_path):
        _, artifacts, _, _ = session_run
        for name, artifact in artifacts.items():
            paths = artifact.save(tmp_path)
            assert [p.name for p in paths] == [f"{name}.json", f"{name}.csv"]
            restored = Artifact.from_json(paths[0].read_text(encoding="utf-8"))
            assert restored == artifact, name

    def test_exported_json_is_strict(self, session_run):
        """No NaN/Infinity literals: the export must parse everywhere."""
        _, artifacts, _, _ = session_run
        for artifact in artifacts.values():
            json.loads(artifact.to_json(), parse_constant=pytest.fail)

    def test_csv_parses_with_full_header(self, session_run):
        _, artifacts, _, _ = session_run
        for name, artifact in artifacts.items():
            parsed = list(csv.reader(io.StringIO(artifact.to_csv())))
            assert parsed[0] == artifact.columns, name
            assert len(parsed) == len(artifact.rows) + 1, name


class TestSchemaGolden:
    @pytest.mark.parametrize("name", EXPERIMENT_ORDER)
    def test_schema_matches_golden(self, session_run, name):
        _, artifacts, _, _ = session_run
        artifact = artifacts[name]
        golden = json.loads(
            (GOLDEN_DIR / f"{name}.schema.json").read_text(encoding="utf-8")
        )
        produced = {
            "experiment": artifact.experiment,
            "schema_version": artifact.schema_version,
            "columns": sorted(artifact.columns),
            "display": [list(pair) for pair in artifact.display],
        }
        assert produced == golden, (
            f"artifact schema of {name!r} drifted from tests/golden/"
            f"{name}.schema.json; if intentional, regenerate the golden "
            f"and consider bumping ARTIFACT_SCHEMA_VERSION"
        )

    def test_schema_version_is_pinned(self):
        assert ARTIFACT_SCHEMA_VERSION == 1


class TestArtifactUnit:
    def _artifact(self, rows, display=None):
        return Artifact.build(
            "unit", rows, scale="tiny", seed=0, datasets=("d",), display=display
        )

    def test_special_floats_round_trip(self):
        artifact = self._artifact(
            [{"a": float("inf"), "b": float("-inf"), "c": float("nan"), "d": 1.5}]
        )
        text = artifact.to_json()
        json.loads(text, parse_constant=pytest.fail)  # strict JSON
        restored = Artifact.from_json(text)
        assert restored == artifact
        row = restored.rows[0]
        assert row["a"] == math.inf and row["b"] == -math.inf
        assert math.isnan(row["c"]) and row["d"] == 1.5

    def test_numpy_scalars_are_normalized(self):
        import numpy as np

        artifact = self._artifact([{"i": np.int64(3), "f": np.float64(0.5)}])
        assert type(artifact.rows[0]["i"]) is int
        assert type(artifact.rows[0]["f"]) is float

    @pytest.mark.parametrize(
        "make, expected",
        [
            (lambda np: np.int8(-7), -7),
            (lambda np: np.uint64(2**64 - 1), 2**64 - 1),
            (lambda np: np.int64(-(2**63)), -(2**63)),
            (lambda np: np.float16(0.5), 0.5),
            (lambda np: np.float32(0.1), 0.10000000149011612),
            (lambda np: np.float64(-0.0), -0.0),
            (lambda np: np.float64("inf"), math.inf),
        ],
    )
    def test_numpy_scalar_becomes_its_python_value(self, make, expected):
        import numpy as np

        value = normalize_cell(make(np))
        # repr tells -0.0 from 0.0 and an int from an equal float.
        assert type(value) is type(expected) and repr(value) == repr(expected)

    def test_non_scalar_cell_is_rejected(self):
        with pytest.raises(ArtifactError, match="not a serializable scalar"):
            self._artifact([{"bad": [1, 2, 3]}])

    @pytest.mark.parametrize(
        "make",
        [
            lambda np: np.bool_(True),
            lambda np: np.complex128(1j),
            lambda np: np.array(3),
            lambda np: np.array([1.0]),
            lambda np: np.datetime64("2024-01-01"),
            lambda np: 1j,
        ],
        ids=["bool_", "complex128", "0-d array", "1-d array", "datetime64", "complex"],
    )
    def test_numpy_and_complex_cells_are_rejected(self, make):
        import numpy as np

        with pytest.raises(ArtifactError, match="not a serializable scalar"):
            normalize_cell(make(np))
        with pytest.raises(ArtifactError, match="not a serializable scalar"):
            self._artifact([{"bad": make(np)}])

    def test_version_mismatch_is_rejected(self):
        text = self._artifact([{"a": 1}]).to_json()
        payload = json.loads(text)
        payload["schema_version"] = ARTIFACT_SCHEMA_VERSION + 1
        with pytest.raises(ArtifactError, match="schema version"):
            Artifact.from_json(json.dumps(payload))

    def test_garbage_json_is_rejected(self):
        with pytest.raises(ArtifactError, match="not valid JSON"):
            Artifact.from_json("{nope")

    def test_none_becomes_empty_csv_cell(self):
        artifact = self._artifact([{"a": None, "b": 2}])
        assert artifact.to_csv().splitlines()[1] == ",2"

    def test_auto_display_uses_first_row_keys(self):
        artifact = self._artifact([{"x": 1, "y": 2}])
        assert artifact.display == (("x", "x"), ("y", "y"))

    def test_artifacts_are_hashable_and_set_dedupable(self):
        first = self._artifact([{"a": 1}])
        second = self._artifact([{"a": 1}])
        assert first == second and hash(first) == hash(second)
        assert len({first, second}) == 1


class TestParallelPrefetch:
    def test_dataset_workers_warm_stages_concurrently(self):
        scale = ExperimentScale(
            name="tiny-parallel",
            datasets=("breast_cancer", "redwine"),
            max_samples=200,
            gradient_epochs=30,
            gradient_restarts=1,
            ga_population=16,
            ga_generations=4,
            max_front_designs=6,
            seed=0,
            dataset_workers=2,
        )
        session = ExperimentSession(scale)
        artifacts = session.run(["table2"])
        rows = artifacts["table2"].rows
        assert [row["dataset"] for row in rows] == ["breast_cancer", "redwine"]
        counts = session.stage_counts()
        for name in scale.datasets:
            assert counts[("ga_front", name)] == 1

    def test_parallel_results_match_serial(self):
        scale = ExperimentScale(
            name="tiny-parallel-eq",
            datasets=("breast_cancer", "redwine"),
            max_samples=200,
            gradient_epochs=30,
            gradient_restarts=1,
            ga_population=16,
            ga_generations=4,
            max_front_designs=6,
            seed=0,
        )
        serial = ExperimentSession(scale).run(["table2"])["table2"]
        parallel = ExperimentSession(
            dataclasses.replace(scale, dataset_workers=2)
        ).run(["table2"])["table2"]
        assert parallel == serial


class TestRunnerExport:
    def test_experiment_choices_follow_experiment_order(self, capsys):
        from repro.experiments import runner

        with pytest.raises(SystemExit) as shown:
            runner.main(["--help"])
        assert shown.value.code == 0
        help_text = capsys.readouterr().out
        for name in EXPERIMENT_ORDER:
            assert name in help_text
        with pytest.raises(SystemExit) as rejected:
            runner.main(["--experiment", "table9"])
        assert rejected.value.code == 2

    @pytest.mark.parametrize(
        "flag", ["--workers", "--islands", "--migration-interval", "--migration-size"]
    )
    def test_removed_ga_engine_flags_are_rejected(self, flag, capsys):
        from repro.experiments import runner

        with pytest.raises(SystemExit) as rejected:
            runner.main(["--experiment", "table1", flag, "2"])
        assert rejected.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err

    def test_export_dir_writes_json_and_csv(self, tmp_path, monkeypatch, capsys):
        from repro.experiments import runner
        from repro.experiments.config import SCALES

        monkeypatch.setitem(SCALES, "tiny-session", TINY)
        out = tmp_path / "exports"
        assert (
            runner.main(
                [
                    "--experiment",
                    "table2",
                    "--scale",
                    "tiny-session",
                    "--export-dir",
                    str(out),
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "=== table2" in printed and "[export]" in printed
        restored = Artifact.from_json(
            (out / "table2.json").read_text(encoding="utf-8")
        )
        assert restored.experiment == "table2"
        assert restored.scale == "tiny-session"
        assert (out / "table2.csv").exists()
