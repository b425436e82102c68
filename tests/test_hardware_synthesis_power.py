"""Tests for the synthesis flow, hardware reports and power sources."""

import numpy as np
import pytest

from repro.approx.config import ApproxConfig
from repro.approx.mlp import ApproximateMLP
from repro.approx.topology import Topology
from repro.hardware.egfet import rescale_power_delay
from repro.hardware.power_sources import (
    BLUE_SPARK,
    ENERGY_HARVESTER,
    MOLEX,
    PRINTED_POWER_SOURCES,
    ZINERGY,
    PowerSource,
    classify_power_source,
)
from repro.hardware.synthesis import (
    HardwareReport,
    synthesize_approximate_mlp,
    synthesize_exact_mlp,
)
from repro.serving.queries import scale_report
from repro.serving.store import ReportRecord


@pytest.fixture
def dense_mlp(rng):
    return ApproximateMLP.random(Topology((10, 3, 2)), ApproxConfig(), rng, mask_density=1.0)


@pytest.fixture
def sparse_mlp(rng):
    return ApproximateMLP.random(Topology((10, 3, 2)), ApproxConfig(), rng, mask_density=0.1)


class TestSynthesizeApproximate:
    def test_report_fields_positive(self, dense_mlp):
        report = synthesize_approximate_mlp(dense_mlp)
        assert report.area_cm2 > 0
        assert report.power_mw > 0
        assert report.delay_ms > 0
        assert report.voltage == 1.0
        assert "FA" in report.cell_counts

    def test_sparser_mlp_is_smaller(self, dense_mlp, sparse_mlp):
        dense_report = synthesize_approximate_mlp(dense_mlp)
        sparse_report = synthesize_approximate_mlp(sparse_mlp)
        assert sparse_report.area_cm2 < dense_report.area_cm2
        assert sparse_report.power_mw < dense_report.power_mw

    def test_voltage_scaling_reduces_power_not_area(self, dense_mlp):
        nominal = synthesize_approximate_mlp(dense_mlp, voltage=1.0)
        scaled = scale_report(ReportRecord.from_report(nominal), 0.6)
        assert scaled.area_cm2 == pytest.approx(nominal.area_cm2)
        assert scaled.power_mw == pytest.approx(nominal.power_mw * 0.36, rel=1e-6)
        assert scaled.delay_ms > nominal.delay_ms

    def test_direct_low_voltage_synthesis_matches_scaling(self, dense_mlp):
        direct = synthesize_approximate_mlp(dense_mlp, voltage=0.6)
        nominal = synthesize_approximate_mlp(dense_mlp, voltage=1.0)
        power, _ = rescale_power_delay(nominal.power_mw, nominal.delay_ms, 1.0, 0.6)
        assert direct.power_mw == pytest.approx(power, rel=1e-6)

    def test_delay_fits_the_clock_period(self, dense_mlp):
        report = synthesize_approximate_mlp(dense_mlp, clock_period_ms=200.0)
        assert report.clock_period_ms == 200.0
        assert 0.0 < report.delay_ms <= report.clock_period_ms

    def test_area_breakdown_sums_close_to_total(self, dense_mlp):
        report = synthesize_approximate_mlp(dense_mlp)
        assert sum(report.area_breakdown.values()) == pytest.approx(report.area_cm2, rel=1e-6)


class TestSynthesizeExact:
    def make_codes(self, rng, topology=Topology((10, 3, 2))):
        weight_codes = []
        bias_codes = []
        for fan_in, fan_out in topology.layer_shapes():
            weight_codes.append(rng.integers(-127, 128, size=(fan_in, fan_out)))
            bias_codes.append(rng.integers(-500, 500, size=fan_out))
        return weight_codes, bias_codes

    def test_baseline_in_table1_range(self, rng):
        # A (10,3,2) bespoke MLP with 8-bit weights should land in the
        # vicinity of Table I's Breast Cancer baseline (12 cm2, 40 mW).
        weight_codes, bias_codes = self.make_codes(rng)
        report = synthesize_exact_mlp(weight_codes, bias_codes, [4, 8])
        assert 4.0 < report.area_cm2 < 40.0
        assert 15.0 < report.power_mw < 140.0

    def test_exact_larger_than_typical_approximate(self, rng, sparse_mlp):
        weight_codes, bias_codes = self.make_codes(rng)
        exact = synthesize_exact_mlp(weight_codes, bias_codes, [4, 8])
        approx = synthesize_approximate_mlp(sparse_mlp)
        assert exact.area_cm2 > approx.area_cm2

    def test_argument_validation(self, rng):
        weight_codes, bias_codes = self.make_codes(rng)
        with pytest.raises(ValueError):
            synthesize_exact_mlp(weight_codes, bias_codes, [4])

    def test_power_density_consistent(self, rng):
        weight_codes, bias_codes = self.make_codes(rng)
        report = synthesize_exact_mlp(weight_codes, bias_codes, [4, 8])
        assert 3.0 <= report.power_mw / report.area_cm2 <= 4.5


class TestPowerSources:
    def test_catalog_ordering(self):
        budgets = [source.max_power_mw for source in PRINTED_POWER_SOURCES]
        assert budgets == sorted(budgets)
        assert ENERGY_HARVESTER.kind == "harvester"
        assert BLUE_SPARK.max_power_mw == 5.0
        assert ZINERGY.max_power_mw == 15.0
        assert MOLEX.max_power_mw == 30.0

    def test_classification_thresholds(self):
        assert classify_power_source(0.5).power_source is ENERGY_HARVESTER
        assert classify_power_source(3.0).power_source is BLUE_SPARK
        assert classify_power_source(10.0).power_source is ZINERGY
        assert classify_power_source(25.0).power_source is MOLEX
        assert classify_power_source(100.0).power_source is None

    def test_any_source_order_gives_the_same_choice(self):
        import itertools

        for power in (0.5, 1.0, 3.0, 10.0, 25.0, 100.0):
            expected = classify_power_source(power).power_source
            for order in itertools.permutations(PRINTED_POWER_SOURCES):
                assert classify_power_source(power, sources=order).power_source is expected

    def test_first_listed_source_wins_a_budget_tie(self):
        twin = PowerSource(name="Blue Spark twin", max_power_mw=BLUE_SPARK.max_power_mw)
        assert classify_power_source(3.0, sources=[MOLEX, twin, BLUE_SPARK]).power_source is twin
        assert classify_power_source(3.0, sources=[BLUE_SPARK, MOLEX, twin]).power_source is BLUE_SPARK

    def test_zone_labels(self):
        assert classify_power_source(0.5).label == ENERGY_HARVESTER.name
        assert classify_power_source(100.0).label == "No Adequate Power Supply"
        assert classify_power_source(0.5, area_cm2=100.0).label == "Unsustainable Area"

    def test_self_powered_flag(self):
        assert classify_power_source(0.5, area_cm2=1.0).self_powered
        assert not classify_power_source(3.0, area_cm2=1.0).self_powered

    def test_feasible_flag(self):
        assert classify_power_source(3.0, area_cm2=5.0).feasible
        assert not classify_power_source(100.0).feasible

    def test_invalid_power_source(self):
        with pytest.raises(ValueError):
            PowerSource(name="bad", max_power_mw=0.0)
        with pytest.raises(ValueError):
            PowerSource(name="bad", max_power_mw=1.0, kind="solar")

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            classify_power_source(-1.0)
