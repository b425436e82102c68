"""Bit-mask utilities for fine-grained unstructured pruning.

Instead of removing a whole connection (coarse unstructured pruning),
the paper removes individual *bits* of the summand: for connection
``(i, j)`` a mask ``m`` is learned, and the activation entering the
adder tree is ``x & m``.  Every masked-off bit is a constant '0' in the
bespoke adder tree, which directly removes full adders.  A zero mask
removes the entire summand, so a dedicated "zero weight" is unnecessary.
"""

from __future__ import annotations

import numpy as np

__all__ = ["full_mask", "mask_popcount"]


def full_mask(bits: int) -> int:
    """The all-ones mask for a ``bits``-wide activation (no pruning)."""
    if bits <= 0:
        raise ValueError(f"bits must be positive, got {bits}")
    return (1 << bits) - 1


#: Set bits of every byte value.
_BYTE_POPCOUNT = np.array([bin(byte).count("1") for byte in range(256)], dtype=np.int64)


def mask_popcount(mask: np.ndarray) -> np.ndarray:
    """Number of retained (one) bits per mask.

    Works on arbitrary-shaped integer arrays: one table lookup per byte
    of the ``uint64`` view, at any mask width.
    """
    mask = np.asarray(mask, dtype=np.uint64)
    octets = np.ascontiguousarray(mask).view(np.uint8).reshape(mask.shape + (8,))
    return _BYTE_POPCOUNT[octets].sum(axis=-1)
