"""Power-of-two weight representation.

Following equation (1) of the paper, every connection weight of the
approximate MLP is

    ``w = s * 2**k``   with ``s in {-1, +1}`` and ``k in [0, n - 1)``,

where ``n`` is the weight bit budget.  Because the weight magnitude is a
power of two, multiplying a (positive, unsigned) activation by it is a
constant left shift — pure rewiring in a bespoke circuit — and the sign
only decides whether the shifted summand enters the adder tree directly
or in (NOT-gated) two's complement form.
"""

from __future__ import annotations

import numpy as np

__all__ = ["nearest_pow2_array"]


def nearest_pow2_array(
    values: np.ndarray, max_exponent: int
) -> tuple[np.ndarray, np.ndarray]:
    """Project an array of real weights onto the pow2 grid.

    Returns
    -------
    (signs, exponents):
        Integer arrays of the same shape as ``values``.
    """
    values = np.asarray(values, dtype=np.float64)
    signs = np.where(values < 0, -1, 1).astype(np.int64)
    magnitudes = np.abs(values)
    # Exponent of the closest power of two in linear distance.
    safe = np.where(magnitudes <= 0, 1e-30, magnitudes)
    low = np.floor(np.log2(safe))
    low = np.clip(low, 0, max_exponent)
    high = np.clip(low + 1, 0, max_exponent)
    low_err = np.abs(magnitudes - 2.0**low)
    high_err = np.abs(magnitudes - 2.0**high)
    exponents = np.where(high_err < low_err, high, low).astype(np.int64)
    return signs, exponents
