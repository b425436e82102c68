"""Tests for the EGFET library, CSD encoding and peripheral area models."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.hardware.area import (
    argmax_cell_counts,
    constant_multiplier_columns,
    csd_encode,
    csd_nonzero_digits,
    exact_neuron_adder_cost,
    exact_neuron_columns,
    merge_cell_counts,
    qrelu_cell_counts,
)
from repro.hardware.egfet import (
    MIN_VOLTAGE,
    NOMINAL_VOLTAGE,
    CellSpec,
    EGFETLibrary,
    default_egfet_library,
    rescale_power_delay,
)


class TestCsdEncoding:
    @given(st.integers(min_value=-(2**15), max_value=2**15))
    def test_property_csd_reconstructs_value(self, value):
        digits = csd_encode(value)
        assert sum(d * (1 << p) for p, d in digits) == value

    @given(st.integers(min_value=-(2**15), max_value=2**15))
    def test_property_no_adjacent_nonzero_digits(self, value):
        positions = sorted(p for p, _ in csd_encode(value))
        assert all(b - a >= 2 for a, b in zip(positions, positions[1:]))

    def test_known_encodings(self):
        assert csd_nonzero_digits(0) == 0
        assert csd_nonzero_digits(1) == 1
        assert csd_nonzero_digits(7) == 2   # 8 - 1
        assert csd_nonzero_digits(255) == 2  # 256 - 1

    def test_csd_digits_never_more_than_binary_ones(self):
        for value in range(256):
            assert csd_nonzero_digits(value) <= max(bin(value).count("1"), 1)


class TestExactNeuronColumns:
    def test_multiplier_columns_width_check(self):
        with pytest.raises(ValueError):
            constant_multiplier_columns(255, input_bits=4, width=4)

    def test_single_weight_column_count(self):
        columns = constant_multiplier_columns(1, input_bits=4, width=10)
        assert columns.sum() == 4

    def test_zero_weight_contributes_nothing(self):
        columns = exact_neuron_columns([0, 0], input_bits=4, bias_code=0)
        assert columns.sum() == 0

    def test_larger_weights_cost_more(self):
        cheap = exact_neuron_adder_cost([1, 1, 1], input_bits=4)
        expensive = exact_neuron_adder_cost([85, 85, 85], input_bits=4)  # many CSD digits
        assert expensive.total_full_adders > cheap.total_full_adders

    def test_bias_included(self):
        without = exact_neuron_columns([3], input_bits=4, bias_code=0).sum()
        with_bias = exact_neuron_columns([3], input_bits=4, bias_code=255).sum()
        assert with_bias > without


class TestEgfetLibrary:
    def test_default_library_cells(self):
        library = default_egfet_library()
        for cell in ("INV", "NAND2", "XOR2", "FA", "HA", "DFF", "MUX2"):
            spec = library.cell(cell)
            assert isinstance(spec, CellSpec)
            assert spec.area_cm2 > 0 and spec.power_mw > 0 and spec.delay_ms > 0

    def test_unknown_cell_raises(self):
        with pytest.raises(KeyError):
            default_egfet_library().cell("NAND17")

    def test_fa_is_several_gate_equivalents(self):
        library = default_egfet_library()
        nand2_equivalents = library.cell("FA").area_cm2 / library.cell("NAND2").area_cm2
        assert 5 < nand2_equivalents < 12

    def test_power_density_matches_baseline_ratio(self):
        # Table I shows ~3.3-4.2 mW/cm2; the library is calibrated inside
        # that window.
        library = default_egfet_library()
        spec = library.cell("FA")
        assert 3.0 <= spec.power_mw / spec.area_cm2 <= 4.5

    def test_voltage_power_scaling_quadratic(self):
        library = default_egfet_library()
        assert library.voltage_power_factor(1.0) == pytest.approx(1.0)
        assert library.voltage_power_factor(0.6) == pytest.approx(0.36)

    def test_voltage_below_minimum_rejected(self):
        library = default_egfet_library()
        with pytest.raises(ValueError):
            library.voltage_power_factor(0.3)
        with pytest.raises(ValueError):
            library.power("FA", voltage=-1.0)

    def test_delay_increases_at_low_voltage(self):
        library = default_egfet_library()
        assert library.delay("FA", voltage=MIN_VOLTAGE) > library.delay("FA", voltage=NOMINAL_VOLTAGE)

    def test_area_and_power_scale_with_count(self):
        library = default_egfet_library()
        assert library.area("FA", 10) == pytest.approx(10 * library.area("FA"))
        assert library.power("FA", 10) == pytest.approx(10 * library.power("FA"))

    def test_default_library_is_built_once_and_read_only(self):
        library = default_egfet_library()
        assert default_egfet_library() is library
        with pytest.raises(TypeError):
            library.cells["FA"] = CellSpec(area_cm2=1, power_mw=1, delay_ms=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            library.power_exponent = 3.0
        fresh = default_egfet_library.__wrapped__()
        assert fresh is not library
        for field in dataclasses.fields(EGFETLibrary):
            assert getattr(fresh, field.name) == getattr(library, field.name), field.name

    def test_cellspec_rejects_negative(self):
        with pytest.raises(ValueError):
            CellSpec(area_cm2=-1, power_mw=0, delay_ms=0)


class TestVoltageRescale:
    @pytest.mark.parametrize("voltage", [0.6, 0.8, 1.0])
    def test_same_supply_keeps_power_and_delay(self, voltage):
        power, delay = rescale_power_delay(1.25, 180.0, voltage, voltage)
        assert power == pytest.approx(1.25, rel=1e-12)
        assert delay == pytest.approx(180.0, rel=1e-12)

    def test_follows_the_library_scaling_laws(self):
        library = default_egfet_library()
        power, delay = rescale_power_delay(2.0, 100.0, NOMINAL_VOLTAGE, 0.6)
        assert power == pytest.approx(2.0 * 0.36)
        assert delay == pytest.approx(100.0 * library.voltage_delay_factor(0.6))
        assert delay > 100.0

    def test_round_trip_restores_the_nominal_figures(self):
        power, delay = rescale_power_delay(3.5, 220.0, NOMINAL_VOLTAGE, MIN_VOLTAGE)
        back = rescale_power_delay(power, delay, MIN_VOLTAGE, NOMINAL_VOLTAGE)
        assert back == pytest.approx((3.5, 220.0), rel=1e-12)

    def test_supply_below_minimum_rejected(self):
        with pytest.raises(ValueError):
            rescale_power_delay(1.0, 1.0, NOMINAL_VOLTAGE, 0.3)


class TestPeripheralCounts:
    def test_qrelu_counts_scale_with_excess_bits(self):
        small = qrelu_cell_counts(acc_bits=9, shift=0, out_bits=8)
        large = qrelu_cell_counts(acc_bits=16, shift=0, out_bits=8)
        assert large["OR2"] > small["OR2"]

    def test_qrelu_rejects_bad_out_bits(self):
        with pytest.raises(ValueError):
            qrelu_cell_counts(8, 0, 0)

    def test_argmax_single_class_is_free(self):
        assert argmax_cell_counts(1, 10) == {}

    def test_argmax_scales_with_classes(self):
        two = sum(argmax_cell_counts(2, 10).values())
        ten = sum(argmax_cell_counts(10, 10).values())
        assert ten > two

    def test_argmax_rejects_zero_classes(self):
        with pytest.raises(ValueError):
            argmax_cell_counts(0, 8)

    def test_merge_cell_counts(self):
        merged = merge_cell_counts({"FA": 2.0}, {"FA": 3.0, "INV": 1.0})
        assert merged == {"FA": 5.0, "INV": 1.0}
