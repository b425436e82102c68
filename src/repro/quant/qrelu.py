"""QReLU — the bounded, quantized ReLU activation of printed MLPs.

Unlike ReLU, whose output is unbounded (and therefore forces wide
datapaths downstream), QReLU clamps its output to the range of an
``out_bits``-bit unsigned integer after an arithmetic right shift that
realigns the accumulator scale with the activation scale.  The paper
uses 8-bit QReLU outputs throughout (Section III-B).

In bespoke hardware the shift is free (wiring) and the clamp is a small
comparator/mux structure, so QReLU adds negligible area compared to the
adder trees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QReLU", "qrelu"]


def qrelu(acc: np.ndarray, shift: int = 0, out_bits: int = 8) -> np.ndarray:
    """Apply the QReLU activation to integer accumulator values.

    ``QReLU(v) = clip(v >> shift, 0, 2**out_bits - 1)``

    Parameters
    ----------
    acc:
        Integer accumulator values (any integer dtype).
    shift:
        Arithmetic right shift applied before clamping.  Negative
        accumulators map to 0 (the ReLU part), so the sign of the shift
        result does not matter for them.
    out_bits:
        Output bit-width; the result lies in ``[0, 2**out_bits - 1]``.
    """
    if shift < 0:
        raise ValueError(f"shift must be non-negative, got {shift}")
    if out_bits <= 0:
        raise ValueError(f"out_bits must be positive, got {out_bits}")
    acc = np.asarray(acc)
    if not np.issubdtype(acc.dtype, np.integer):
        raise TypeError(f"qrelu expects integer accumulators, got dtype {acc.dtype}")
    shifted = acc >> shift
    max_val = (1 << out_bits) - 1
    clipped = np.clip(shifted, 0, max_val)
    return clipped if clipped.dtype == np.int64 else clipped.astype(np.int64)


@dataclass(frozen=True)
class QReLU:
    """Callable QReLU activation with a fixed shift and output width."""

    shift: int = 0
    out_bits: int = 8

    def __post_init__(self) -> None:
        if self.shift < 0:
            raise ValueError(f"shift must be non-negative, got {self.shift}")
        if self.out_bits <= 0:
            raise ValueError(f"out_bits must be positive, got {self.out_bits}")

    def __call__(self, acc: np.ndarray) -> np.ndarray:
        return qrelu(acc, shift=self.shift, out_bits=self.out_bits)
