"""Tests for the input quantizers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.quant.quantizers import InputQuantizer, UniformQuantizer, quantize_inputs


class TestUniformQuantizer:
    def test_levels_and_step(self):
        quantizer = UniformQuantizer(bits=4, lo=0.0, hi=1.0)
        assert quantizer.levels == 16
        assert quantizer.max_code == 15
        assert quantizer.step == pytest.approx(1 / 15)

    def test_endpoints_map_to_extremes(self):
        quantizer = UniformQuantizer(bits=4)
        assert quantizer.quantize(np.array([0.0]))[0] == 0
        assert quantizer.quantize(np.array([1.0]))[0] == 15

    def test_out_of_range_saturates(self):
        quantizer = UniformQuantizer(bits=4)
        assert quantizer.quantize(np.array([-0.5]))[0] == 0
        assert quantizer.quantize(np.array([2.0]))[0] == 15

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            UniformQuantizer(bits=4, lo=1.0, hi=0.0)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            UniformQuantizer(bits=0)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_property_codes_in_range(self, value):
        code = quantize_inputs(np.array([value]), bits=4)[0]
        assert 0 <= code <= 15

    def test_grid_values_map_to_their_codes(self):
        quantizer = UniformQuantizer(bits=3, lo=-1.0, hi=1.0)
        codes = np.arange(8)
        assert np.array_equal(quantizer.quantize(quantizer.lo + codes * quantizer.step), codes)

    def test_rounds_to_the_nearest_code(self):
        quantizer = UniformQuantizer(bits=2, lo=0.0, hi=3.0)
        values = np.array([0.4, 0.6, 1.49, 1.51, 2.6])
        assert quantizer.quantize(values).tolist() == [0, 1, 1, 2, 3]

    @given(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
    def test_property_error_within_half_a_step(self, value):
        """In range, the code's grid value is within half a step of the
        input; out of range, the code saturates at the nearer end."""
        quantizer = UniformQuantizer(bits=5, lo=-1.0, hi=1.0)
        code = int(quantizer.quantize(np.array([value]))[0])
        clipped = min(max(value, quantizer.lo), quantizer.hi)
        assert abs(quantizer.lo + code * quantizer.step - clipped) <= quantizer.step / 2 + 1e-12


class TestInputQuantizer:
    def test_default_bits(self):
        assert InputQuantizer().bits == 4

    def test_quantize_inputs_matches_class(self):
        values = np.linspace(0, 1, 17)
        assert np.array_equal(quantize_inputs(values), InputQuantizer().quantize(values))
