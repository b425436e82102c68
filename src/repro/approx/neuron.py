"""Single approximate neuron (equation (4) of the paper).

A neuron accumulates, per input ``i``:

    ``s_i * ((x_i & m_i) << k_i)``

adds the integer bias ``b`` and (for hidden layers) applies the QReLU
activation.  All quantities are integers; the only hardware needed is a
multi-operand adder tree plus (for negative signs) a few NOT gates whose
two's-complement '+1' corrections are folded into the bias before the
circuit is generated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.quant.qrelu import QReLU
from repro.approx.masks import apply_mask

__all__ = ["ApproximateNeuron"]


@dataclass
class ApproximateNeuron:
    """Parameters and forward model of one approximate neuron.

    Attributes
    ----------
    masks:
        Integer array of shape ``(fan_in,)``; mask ``m_i`` applied to
        input activation ``i``.
    signs:
        Integer array of shape ``(fan_in,)`` with entries in ``{-1, +1}``.
    exponents:
        Integer array of shape ``(fan_in,)``; the power-of-two exponents.
    bias:
        Signed integer bias added to the accumulation.
    input_bits:
        Bit-width of the incoming activations (4 for the first layer,
        8 for subsequent layers by default).
    activation:
        Optional :class:`~repro.quant.qrelu.QReLU`; ``None`` means the
        neuron outputs its raw accumulator (output layer).
    """

    masks: np.ndarray
    signs: np.ndarray
    exponents: np.ndarray
    bias: int
    input_bits: int
    activation: Optional[QReLU] = field(default=None)

    def __post_init__(self) -> None:
        self.masks = np.asarray(self.masks, dtype=np.int64)
        self.signs = np.asarray(self.signs, dtype=np.int64)
        self.exponents = np.asarray(self.exponents, dtype=np.int64)
        self.bias = int(self.bias)
        if self.masks.ndim != 1:
            raise ValueError("masks must be one-dimensional")
        if not (self.masks.shape == self.signs.shape == self.exponents.shape):
            raise ValueError(
                "masks, signs and exponents must have identical shapes, got "
                f"{self.masks.shape}, {self.signs.shape}, {self.exponents.shape}"
            )
        if self.input_bits <= 0:
            raise ValueError(f"input_bits must be positive, got {self.input_bits}")
        max_mask = (1 << self.input_bits) - 1
        if np.any((self.masks < 0) | (self.masks > max_mask)):
            raise ValueError(f"masks must lie in [0, {max_mask}]")
        if np.any((self.signs != 1) & (self.signs != -1)):
            raise ValueError("signs must be -1 or +1")
        if np.any(self.exponents < 0):
            raise ValueError("exponents must be non-negative")

    @property
    def fan_in(self) -> int:
        """Number of inputs of this neuron."""
        return int(self.masks.shape[0])

    @property
    def active_connections(self) -> int:
        """Number of connections whose mask is non-zero."""
        return int(np.count_nonzero(self.masks))

    def summands(self, x: np.ndarray) -> np.ndarray:
        """Signed integer summands (one per input) before accumulation.

        Parameters
        ----------
        x:
            Integer activations of shape ``(n_samples, fan_in)`` or
            ``(fan_in,)``.
        """
        x = np.asarray(x, dtype=np.int64)
        masked = apply_mask(x, self.masks)
        shifted = masked << self.exponents
        return self.signs * shifted

    def accumulate(self, x: np.ndarray) -> np.ndarray:
        """Accumulator value (summands plus bias), before activation."""
        return self.summands(x).sum(axis=-1) + self.bias

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Neuron output: QReLU of the accumulator, or the raw accumulator."""
        acc = self.accumulate(x)
        if self.activation is None:
            return acc
        return self.activation(acc)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)
