"""A fully connected layer of approximate neurons.

The layer stores its parameters as dense ``(fan_in, fan_out)`` arrays
and computes the paper's neuron sum (eq. 4), ``sum_i s_i * ((x_i & m_i)
<< k_i) + b``, as written: one ``(n, fan_in, fan_out)`` broadcast of
the masked, shifted and signed inputs, summed over the inputs.  Neuron
``j`` is column ``j`` of every parameter array; the hardware cost models
read those columns directly.

This per-model path is the plain scalar reference of the one vectorized
inference kernel in :mod:`repro.approx.mlp`, which scores whole
populations through bit-plane matmuls (``forward_stacked`` returns
their scores, ``accuracy_population`` their accuracies).  It shares
none of that kernel's helpers (the bit-plane format and the exact-matmul
dtype live in :mod:`repro.approx.mlp` only), so the ``slow=True`` oracles
built on it — per-chromosome fitness, per-member front evaluation and
the model leg of RTL verification — check the kernel independently.
The broadcast costs ``n * fan_in * fan_out`` integers, which suits
sign-off's few vectors per design; populations go through the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.quant.qrelu import QReLU

__all__ = [
    "ApproximateLayer",
    "worst_case_shift",
    "accumulator_bounds",
]


def accumulator_bounds(
    masks: np.ndarray, signs: np.ndarray, exponents: np.ndarray, biases: np.ndarray
) -> tuple:
    """Per-neuron ``(min, max)`` reachable accumulators, ``(..., fan_out)`` each."""
    magnitudes = masks << exponents
    positive = (magnitudes * (signs > 0)).sum(axis=-2)
    negative = (magnitudes * (signs < 0)).sum(axis=-2)
    return -negative + np.minimum(biases, 0), positive + np.maximum(biases, 0)


def worst_case_shift(
    fan_in: int, input_bits: int, max_exponent: int, out_bits: int, bias_max: int = 0
) -> int:
    """Right shift that maps the worst-case accumulator into ``out_bits`` bits.

    The worst case assumes all masks fully open, all signs positive and
    all exponents at their maximum — the widest accumulator any neuron of
    the layer could produce.  Using a topology-level worst case (rather
    than a per-chromosome one) keeps the activation scaling identical for
    every candidate the GA evaluates, which makes fitness values
    comparable across the population.
    """
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    max_acc = fan_in * (((1 << input_bits) - 1) << max_exponent) + max(bias_max, 0)
    acc_bits = int(np.ceil(np.log2(max_acc + 1))) if max_acc > 0 else 1
    return max(0, acc_bits - out_bits)


@dataclass
class ApproximateLayer:
    """Dense layer of approximate neurons.

    Attributes
    ----------
    masks, signs, exponents:
        Integer arrays of shape ``(fan_in, fan_out)``.
    biases:
        Integer array of shape ``(fan_out,)``.
    input_bits:
        Bit-width of the incoming activations.
    activation:
        :class:`QReLU` for hidden layers, ``None`` for the output layer.
    """

    masks: np.ndarray
    signs: np.ndarray
    exponents: np.ndarray
    biases: np.ndarray
    input_bits: int
    activation: Optional[QReLU] = field(default=None)
    #: Skip the value-range checks; only for trusted producers (e.g. the
    #: chromosome decoder, whose genes are already clipped to bounds).
    validate: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.masks = np.asarray(self.masks, dtype=np.int64)
        self.signs = np.asarray(self.signs, dtype=np.int64)
        self.exponents = np.asarray(self.exponents, dtype=np.int64)
        self.biases = np.asarray(self.biases, dtype=np.int64)
        if self.masks.ndim != 2:
            raise ValueError("masks must be a (fan_in, fan_out) matrix")
        if not (self.masks.shape == self.signs.shape == self.exponents.shape):
            raise ValueError("masks, signs and exponents must share the same shape")
        if self.biases.shape != (self.masks.shape[1],):
            raise ValueError(
                f"biases must have shape ({self.masks.shape[1]},), got {self.biases.shape}"
            )
        if self.input_bits <= 0:
            raise ValueError(f"input_bits must be positive, got {self.input_bits}")
        if self.validate:
            max_mask = (1 << self.input_bits) - 1
            if np.any((self.masks < 0) | (self.masks > max_mask)):
                raise ValueError(f"masks must lie in [0, {max_mask}]")
            if np.any((self.signs != 1) & (self.signs != -1)):
                raise ValueError("signs must be -1 or +1")
            if np.any(self.exponents < 0):
                raise ValueError("exponents must be non-negative")

    @property
    def fan_in(self) -> int:
        """Number of layer inputs."""
        return int(self.masks.shape[0])

    @property
    def fan_out(self) -> int:
        """Number of neurons in the layer."""
        return int(self.masks.shape[1])

    @property
    def output_bits(self) -> int:
        """Bit-width of the layer outputs (activation width, or accumulator width)."""
        if self.activation is not None:
            return self.activation.out_bits
        # Raw accumulator: conservative signed width estimate.
        low, high = self._accumulator_bounds()
        span = max(abs(low.min(initial=0)), abs(high.max(initial=0)), 1)
        return int(np.ceil(np.log2(span + 1))) + 1

    def accumulate(self, x: np.ndarray) -> np.ndarray:
        """Accumulator values for every neuron (eq. 4 before the activation).

        Parameters
        ----------
        x:
            Integer activations of shape ``(n_samples, fan_in)``.  Bits
            above ``input_bits`` are dropped by the masks.

        Returns
        -------
        Accumulators of shape ``(n_samples, fan_out)``.
        """
        x = np.asarray(x, dtype=np.int64)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[1] != self.fan_in:
            raise ValueError(
                f"expected inputs with {self.fan_in} features, got shape {x.shape}"
            )
        # (n, fan_in, 1) & (fan_in, fan_out) -> (n, fan_in, fan_out)
        masked = x[:, :, None] & self.masks
        summands = (masked << self.exponents) * self.signs
        return summands.sum(axis=1) + self.biases

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Layer output: QReLU of the accumulators, or raw accumulators."""
        acc = self.accumulate(x)
        if self.activation is None:
            return acc
        return self.activation(acc)

    def _accumulator_bounds(self) -> tuple:
        """Per-neuron ``(min, max)`` reachable accumulator values."""
        return accumulator_bounds(self.masks, self.signs, self.exponents, self.biases)

    def max_accumulators(self) -> np.ndarray:
        """Per-neuron largest reachable accumulator values."""
        return self._accumulator_bounds()[1]

    def min_accumulators(self) -> np.ndarray:
        """Per-neuron smallest (most negative) reachable accumulator values."""
        return self._accumulator_bounds()[0]
