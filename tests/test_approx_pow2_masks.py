"""Tests for the pow2 weight projection and mask utilities."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.approx.layer import ApproximateLayer
from repro.approx.masks import full_mask, mask_popcount
from repro.approx.pow2 import nearest_pow2_array


def one_connection(mask: int, sign: int, exponent: int, input_bits: int = 4) -> ApproximateLayer:
    """A one-input, one-neuron layer without bias: its accumulator is the summand."""
    return ApproximateLayer(
        masks=[[mask]], signs=[[sign]], exponents=[[exponent]], biases=[0], input_bits=input_bits
    )


def pow2_value(value: float, max_exponent: int) -> int:
    """``s * 2**k`` of ``value`` projected by :func:`nearest_pow2_array`."""
    signs, exponents = nearest_pow2_array(np.array([value]), max_exponent)
    return int(signs[0]) * (1 << int(exponents[0]))


class TestPow2Summand:
    @pytest.mark.parametrize(
        "sign, exponent", [(1, 0), (1, 3), (1, 6), (-1, 0), (-1, 2), (-1, 5)]
    )
    def test_summand_is_shift_and_sign(self, sign, exponent):
        """``w * x`` with ``w = s * 2**k`` is ``x`` shifted left by ``k``, negated for ``s = -1``."""
        x = np.array([[0], [1], [3], [15]])
        summands = one_connection(full_mask(4), sign, exponent).accumulate(x)[:, 0]
        assert summands.tolist() == [sign * (value << exponent) for value in (0, 1, 3, 15)]
        assert summands.tolist() == [sign * 2**exponent * value for value in (0, 1, 3, 15)]


class TestPow2Helpers:
    def test_nearest_pow2_exact_values(self):
        assert pow2_value(8.0, 6) == 8
        assert pow2_value(-16.0, 6) == -16

    def test_nearest_pow2_rounds_to_closest(self):
        assert pow2_value(3.0, 6) in (2, 4)
        assert abs(pow2_value(100.0, 6)) == 64  # saturates at 2^6

    def test_nearest_pow2_array_matches_brute_force(self):
        """Every projection is the grid value closest in linear distance,
        the smaller exponent on a tie."""
        values = np.array([0.7, -3.0, 40.0, -0.1, 1.5, 6.0, 96.0, 0.0])
        signs, exps = nearest_pow2_array(values, max_exponent=6)
        grid = [1 << k for k in range(7)]
        for value, s, k in zip(values, signs, exps):
            best = min(grid, key=lambda g: (abs(abs(value) - g), g))
            assert s * (1 << k) == (-best if value < 0 else best)

    @given(st.floats(min_value=-200, max_value=200, allow_nan=False))
    def test_property_projection_within_grid(self, value):
        signs, exps = nearest_pow2_array(np.array([value]), max_exponent=6)
        assert signs[0] in (-1, 1)
        assert 0 <= exps[0] <= 6

    def test_projection_keeps_the_array_shape(self):
        values = np.array([[0.7, -3.0, 40.0], [-0.1, 1.5, 6.0]])
        signs, exps = nearest_pow2_array(values, max_exponent=6)
        assert signs.shape == exps.shape == values.shape
        flat_signs, flat_exps = nearest_pow2_array(values.ravel(), max_exponent=6)
        assert np.array_equal(signs.ravel(), flat_signs)
        assert np.array_equal(exps.ravel(), flat_exps)

    def test_zero_projects_to_plus_one(self):
        assert pow2_value(0.0, 6) == 1
        assert pow2_value(-0.0, 6) == 1


class TestMasks:
    def test_full_mask(self):
        assert full_mask(4) == 0b1111
        assert full_mask(8) == 255

    def test_full_mask_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            full_mask(0)

    def test_mask_popcount(self):
        assert np.array_equal(
            mask_popcount(np.array([0, 1, 0b1011, 255])), np.array([0, 1, 3, 8])
        )

    @given(st.integers(min_value=0, max_value=255))
    def test_property_popcount_matches_python(self, mask):
        assert mask_popcount(np.array([mask]))[0] == bin(mask).count("1")

    @given(
        st.lists(st.integers(min_value=1, max_value=4), min_size=0, max_size=3).flatmap(
            lambda shape: st.lists(
                st.integers(min_value=0, max_value=2**63 - 1),
                min_size=int(np.prod(shape)),
                max_size=int(np.prod(shape)),
            ).map(lambda values: np.array(values, dtype=np.int64).reshape(shape))
        )
    )
    def test_popcount_matches_bin_count(self, masks):
        """Any non-negative int64 array, at every bit width and shape
        (0-d to 3-d), gets its per-element ``bin().count("1")``."""
        counts = mask_popcount(masks)
        assert np.shape(counts) == masks.shape
        expected = [bin(int(value)).count("1") for value in masks.ravel()]
        assert np.ravel(counts).tolist() == expected

    def test_popcount_keeps_the_array_shape(self):
        masks = np.array([[0b1010, 0], [0b1, 0b1111]])
        assert mask_popcount(masks).tolist() == [[2, 0], [1, 4]]

    def test_zero_mask_removes_the_summand(self):
        assert one_connection(0, 1, 3).accumulate(np.array([[13]]))[0, 0] == 0

    @pytest.mark.parametrize("mask", [-1, 16])
    def test_mask_outside_the_input_width_rejected(self, mask):
        with pytest.raises(ValueError):
            one_connection(mask, 1, 0)

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0))
    def test_property_mask_keeps_exactly_its_bits(self, bits, seed):
        """The summand of an unshifted connection is ``x & mask``, whose
        retained bits are the mask's bits that ``x`` also has set."""
        mask = seed % (1 << bits)
        x = (seed // 7) % (1 << bits)
        summand = one_connection(mask, 1, 0, input_bits=bits).accumulate(np.array([[x]]))[0, 0]
        assert summand == x & mask
        assert mask_popcount(np.array([summand]))[0] == bin(x & mask).count("1")
