"""Quantization substrate.

This subpackage provides the numeric formats used throughout the
reproduction:

* :class:`~repro.quant.quantizers.UniformQuantizer` and
  :class:`~repro.quant.quantizers.InputQuantizer` — uniform affine
  quantizers for the 4-bit inputs of the printed MLPs.
* :func:`~repro.quant.qrelu.qrelu` — the bounded QReLU activation used
  by both the baseline and the approximate MLPs (8-bit outputs).
"""

from repro.quant.quantizers import InputQuantizer, UniformQuantizer, quantize_inputs
from repro.quant.qrelu import QReLU, qrelu

__all__ = [
    "UniformQuantizer",
    "InputQuantizer",
    "quantize_inputs",
    "QReLU",
    "qrelu",
]
