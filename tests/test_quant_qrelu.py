"""Tests for the QReLU activation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.quant.qrelu import QReLU, qrelu


class TestQReLUFunction:
    def test_negative_values_clamp_to_zero(self):
        assert np.all(qrelu(np.array([-5, -1, -1000])) == 0)

    def test_positive_values_pass_through_below_max(self):
        assert np.array_equal(qrelu(np.array([0, 10, 255])), np.array([0, 10, 255]))

    def test_saturation_at_out_bits(self):
        assert qrelu(np.array([300]), out_bits=8)[0] == 255
        assert qrelu(np.array([300]), out_bits=4)[0] == 15

    def test_shift_divides_by_power_of_two(self):
        assert qrelu(np.array([256]), shift=4)[0] == 16

    def test_shift_then_saturate(self):
        assert qrelu(np.array([1 << 16]), shift=4, out_bits=8)[0] == 255

    def test_rejects_negative_shift(self):
        with pytest.raises(ValueError):
            qrelu(np.array([1]), shift=-1)

    def test_rejects_non_integer_input(self):
        with pytest.raises(TypeError):
            qrelu(np.array([1.5]))

    def test_rejects_zero_out_bits(self):
        with pytest.raises(ValueError):
            qrelu(np.array([1]), out_bits=0)

    @given(
        st.integers(min_value=-(10**6), max_value=10**6),
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=1, max_value=12),
    )
    def test_property_output_in_range(self, value, shift, out_bits):
        result = qrelu(np.array([value]), shift=shift, out_bits=out_bits)[0]
        assert 0 <= result <= (1 << out_bits) - 1


class TestQReLUClass:
    def test_callable_matches_function(self):
        activation = QReLU(shift=2, out_bits=8)
        values = np.arange(-10, 2000, 37)
        assert np.array_equal(activation(values), qrelu(values, shift=2, out_bits=8))

    def test_max_value(self):
        """The largest output is ``2**out_bits - 1``, reached by saturation."""
        top = np.array([1 << 20, (1 << 20) + 12345])
        assert QReLU(out_bits=8)(top).tolist() == [255, 255]
        assert QReLU(out_bits=4)(top).tolist() == [15, 15]
        assert QReLU(out_bits=4)(np.array([15, 16])).tolist() == [15, 15]

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            QReLU(shift=-1)
        with pytest.raises(ValueError):
            QReLU(out_bits=0)
