"""Integration tests: the experiment harness end to end at smoke scale.

These tests reproduce miniature versions of every table and figure,
asserting the qualitative claims of the paper (our designs shrink area
and power versus the baseline, the stochastic baseline loses accuracy,
voltage scaling moves circuits to smaller power sources) rather than
absolute numbers.  Wall-clock orderings (Table III) are ``perf_ratio``
checks, skipped unless ``REPRO_PERF_RATIO=1``.
"""

import dataclasses

import numpy as np
import pytest

from repro.experiments.config import ExperimentScale, get_scale
from repro.experiments.session import ExperimentSession

TINY = ExperimentScale(
    name="tiny",
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
def session():
    return ExperimentSession(TINY)


class TestScales:
    def test_known_scales(self):
        assert get_scale("smoke").name == "smoke"
        assert get_scale("ci").name == "ci"
        assert get_scale("full").ga_generations > get_scale("ci").ga_generations
        with pytest.raises(KeyError):
            get_scale("huge")

    @pytest.mark.parametrize(
        "field, value",
        [("ga_workers", 2), ("ga_workers", 1), ("ga_islands", 2), ("ga_islands", 0)],
    )
    def test_ga_engine_fields_are_fixed(self, field, value):
        with pytest.raises(ValueError, match="one in-process engine"):
            ExperimentScale(name="bad", **{field: value})

    def test_ga_engine_fields_accept_their_fixed_values(self):
        scale = dataclasses.replace(get_scale("ci"), ga_workers=0, ga_islands=1)
        assert scale == get_scale("ci")


class TestSession:
    def test_baseline_stage(self, session):
        result = session.baseline("breast_cancer")
        assert result.baseline.test_accuracy > 0.85
        assert result.baseline.report.area_cm2 > 1.0
        assert result.approximate is None

    def test_stages_are_memoized(self, session):
        first = session.baseline("breast_cancer")
        second = session.baseline("breast_cancer")
        assert first is second
        assert session.front("breast_cancer") is session.front("breast_cancer")
        counts = session.stage_counts()
        assert counts[("gradient_baseline", "breast_cancer")] == 1
        assert counts[("ga_front", "breast_cancer")] == 1

    def test_front_stage(self, session):
        result = session.front("breast_cancer")
        assert result.baseline is session.baseline("breast_cancer").baseline
        approx = result.approximate
        assert approx is not None
        assert approx.selected is not None
        assert len(approx.designs) >= 1
        assert len(approx.true_front) >= 1


    def test_both_ga_stages_train_with_the_scale_budget(self, monkeypatch):
        from repro.experiments import session as session_module

        configs = []
        real_trainer = session_module.GATrainer

        def recording_trainer(topology, ga_config):
            configs.append(ga_config)
            return real_trainer(topology, ga_config=ga_config)

        monkeypatch.setattr(session_module, "GATrainer", recording_trainer)
        fresh = ExperimentSession(TINY)
        fresh.front("breast_cancer")
        fresh.ga_plain("breast_cancer")
        assert len(configs) == 2
        assert configs[0] == configs[1]
        assert configs[0].population_size == TINY.ga_population
        assert configs[0].generations == TINY.ga_generations
        assert configs[0].seed == TINY.seed


class TestTable1:
    def test_rows_and_formatting(self, session):
        rows = session.artifact("table1").rows
        assert len(rows) == 1
        row = rows[0]
        assert row["topology"] == "(10, 3, 2)"
        assert row["accuracy"] > 0.85
        assert row["area_cm2"] > 0
        text = session.artifact("table1").format()
        assert "breast_cancer" in text


class TestTable2:
    def test_reduction_factors_exceed_one(self, session):
        rows = session.artifact("table2").rows
        row = rows[0]
        # The headline claim: the approximate MLP is smaller and less
        # power hungry than the exact baseline within the 5% loss budget
        # (the paper reports >5x; at the tiny CI budget we require >1.5x).
        assert row["area_reduction"] > 1.5
        assert row["power_reduction"] > 1.5
        assert row["accuracy"] >= row["baseline_accuracy"] - 0.07
        assert "breast_cancer" in session.artifact("table2").format()


class TestFig4:
    def test_methods_present_and_ours_beats_baseline(self, session):
        rows = session.artifact("fig4").rows
        methods = {row["method"] for row in rows}
        assert {"ours", "tc23", "date21"}.issubset(methods)
        ours = next(row for row in rows if row["method"] == "ours")
        assert ours["norm_area"] < 1.0
        assert ours["norm_power"] < 1.0
        date21 = next(row for row in rows if row["method"] == "date21")
        # The stochastic baseline loses far more accuracy than ours.
        assert date21["accuracy"] <= ours["accuracy"]


class TestFig5:
    def test_voltage_scaling_moves_to_smaller_source(self, session):
        rows = session.artifact("fig5").rows
        ours = next(row for row in rows if row["design"] == "ours")
        ours_low = next(row for row in rows if row["design"] == "ours_0v6")
        baseline = next(row for row in rows if row["design"] == "baseline_micro20")
        assert ours_low["power_mw"] < ours["power_mw"]
        assert ours["power_mw"] < baseline["power_mw"]
        assert ours_low["voltage"] == pytest.approx(0.6)


class TestTable3:
    def test_gradient_faster_than_ga(self, session):
        rows = session.artifact("table3").rows
        row = rows[0]
        # Both GA flows request the same evaluation budget; the unique
        # lookup counts stay within it (in-batch duplicates are folded).
        budget = session.scale.ga_population * (session.scale.ga_generations + 1)
        assert 0 < row["ga_evaluations"] <= budget
        assert 0 < row["ga_axc_evaluations"] <= budget

    @pytest.mark.perf_ratio
    def test_gradient_faster_than_ga_wall_clock(self, session):
        row = session.artifact("table3").rows[0]
        assert row["grad_seconds"] < row["ga_seconds"]
        # GA-AxC should not be drastically slower than the plain GA.
        assert row["ga_axc_seconds"] < row["ga_seconds"] * 3 + 1.0
