"""Uniform input quantizers and the default bit widths.

The printed-MLP design flow quantizes the normalized ``[0, 1]`` input
features to 4-bit unsigned integers and the trained floating-point
weights to 8-bit signed fixed point (the bespoke baseline, see
:func:`repro.baselines.exact_bespoke.quantize_float_mlp`) or to
power-of-two values (our approximate MLPs, see :mod:`repro.approx.pow2`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "UniformQuantizer",
    "InputQuantizer",
    "quantize_inputs",
    "DEFAULT_INPUT_BITS",
    "DEFAULT_WEIGHT_BITS",
    "DEFAULT_ACTIVATION_BITS",
]

#: Bit-width of the primary MLP inputs (paper Section III-B: "4 bits for
#: the inputs").
DEFAULT_INPUT_BITS = 4

#: Bit-width of the bespoke-baseline fixed-point weights (paper Section
#: V-A: "8-bit fixed point weights").
DEFAULT_WEIGHT_BITS = 8

#: Bit-width of the QReLU outputs / hidden activations (paper Section
#: III-B: "8 bits for the QReLU output").
DEFAULT_ACTIVATION_BITS = 8


@dataclass(frozen=True)
class UniformQuantizer:
    """Affine uniform quantizer mapping ``[lo, hi]`` to ``[0, 2**bits - 1]``.

    Parameters
    ----------
    bits:
        Number of bits of the integer code.
    lo, hi:
        Real range mapped onto the code range.  Values outside the range
        saturate.
    """

    bits: int
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self) -> None:
        if self.bits <= 0:
            raise ValueError(f"bits must be positive, got {self.bits}")
        if not self.hi > self.lo:
            raise ValueError(f"hi ({self.hi}) must be greater than lo ({self.lo})")

    @property
    def levels(self) -> int:
        """Number of quantization levels."""
        return 1 << self.bits

    @property
    def max_code(self) -> int:
        """Largest integer code."""
        return self.levels - 1

    @property
    def step(self) -> float:
        """Real-valued width of one quantization step."""
        return (self.hi - self.lo) / self.max_code

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Map real values to integer codes (rounded, saturated)."""
        values = np.asarray(values, dtype=np.float64)
        codes = np.round((values - self.lo) / self.step)
        codes = np.clip(codes, 0, self.max_code)
        return codes.astype(np.int64)


class InputQuantizer(UniformQuantizer):
    """Quantizer for the normalized ``[0, 1]`` input features.

    This is simply a :class:`UniformQuantizer` with ``lo=0`` and ``hi=1``
    but kept as a distinct type so that APIs can express "this expects an
    input quantizer" explicitly.
    """

    def __init__(self, bits: int = DEFAULT_INPUT_BITS) -> None:
        super().__init__(bits=bits, lo=0.0, hi=1.0)


def quantize_inputs(x: np.ndarray, bits: int = DEFAULT_INPUT_BITS) -> np.ndarray:
    """Quantize normalized inputs ``x`` in ``[0, 1]`` to ``bits``-bit integers.

    Parameters
    ----------
    x:
        Array of real-valued features, expected (but not required) to lie
        in ``[0, 1]``.  Out-of-range values saturate.
    bits:
        Bit-width of the integer codes (default 4, as in the paper).
    """
    return InputQuantizer(bits).quantize(x)
