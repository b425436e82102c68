"""Tests for Pareto/hardware analysis and reporting."""

import pytest

from repro.core.pareto import ParetoPoint
from repro.evaluation.pareto_analysis import (
    EvaluatedDesign,
    select_design,
    true_pareto_front,
)
from repro.evaluation.report import format_table, reduction_factor
from repro.hardware.synthesis import HardwareReport


def make_report(area: float, power: float, voltage: float = 1.0) -> HardwareReport:
    return HardwareReport(
        area_cm2=area,
        power_mw=power,
        delay_ms=10.0,
        voltage=voltage,
        clock_period_ms=200.0,
    )


def make_design(accuracy: float, area: float, power: float = 1.0) -> EvaluatedDesign:
    return EvaluatedDesign(
        point=ParetoPoint(error=1 - accuracy, area=area, accuracy=accuracy),
        test_accuracy=accuracy,
        report=make_report(area, power),
    )


class TestParetoAnalysis:
    def test_true_pareto_front_filters_dominated(self):
        designs = [
            make_design(0.95, 10.0),
            make_design(0.90, 5.0),
            make_design(0.85, 8.0),  # dominated by the second
        ]
        front = true_pareto_front(designs)
        assert len(front) == 2
        assert all(d.area_cm2 != 8.0 for d in front)

    def test_select_design_smallest_within_budget(self):
        designs = [make_design(0.95, 10.0), make_design(0.92, 3.0), make_design(0.80, 1.0)]
        chosen = select_design(designs, baseline_accuracy=0.95, max_accuracy_loss=0.05)
        assert chosen.area_cm2 == 3.0

    def test_select_design_fallback_to_best_accuracy(self):
        designs = [make_design(0.5, 1.0), make_design(0.6, 2.0)]
        chosen = select_design(designs, baseline_accuracy=0.99, max_accuracy_loss=0.01)
        assert chosen.test_accuracy == 0.6

    def test_select_design_empty(self):
        assert select_design([], baseline_accuracy=0.9) is None


class TestReporting:
    def test_reduction_factor(self):
        assert reduction_factor(10.0, 2.0) == pytest.approx(5.0)
        assert reduction_factor(10.0, 0.0) == float("inf")
        with pytest.raises(ValueError):
            reduction_factor(-1.0, 1.0)

    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["xyz", 0.001]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)
        assert "xyz" in text and "0.001" in text

    def test_format_table_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])
