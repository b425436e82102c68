"""A fully connected layer of approximate neurons.

The layer stores its parameters as dense ``(fan_in, fan_out)`` arrays so
that inference over a whole dataset is a handful of vectorized numpy
operations — this is what keeps genetic training (hundreds of thousands
of candidate evaluations) tractable.

The hot path is a *bit-plane decomposition* of the masked multiplier:
because ``x & m == sum_b ((x >> b) & 1) * ((m >> b) & 1) << b`` for
masks confined to the low ``input_bits`` bits, the whole layer reduces
to one integer matmul against a precomputed ``(input_bits * fan_in,
fan_out)`` weight matrix whose rows carry ``sign * 2**(b + exponent)``
wherever mask bit ``b`` is retained.  This avoids the 3-D
``(n, fan_in, fan_out)`` intermediate of the naive formulation; the
naive path is kept as ``accumulate(x, slow=True)`` and serves as the
reference oracle in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from repro.quant.qrelu import QReLU
from repro.approx.neuron import ApproximateNeuron

__all__ = [
    "ApproximateLayer",
    "worst_case_shift",
    "expand_activation_bits",
    "plane_width",
    "build_bit_planes",
    "accumulator_bounds",
    "exact_matmul_dtype",
]


def expand_activation_bits(x: np.ndarray, width: int) -> np.ndarray:
    """Expand integer activations into their bit planes.

    Maps ``(..., fan_in)`` integers to ``(..., fan_in * width)`` 0/1
    values, feature-major then bit-minor (the row order of
    :attr:`ApproximateLayer.bit_planes`).  For byte-wide planes this is
    a single flat ``np.unpackbits``; the uint8 truncation is exact
    because mask bits above ``input_bits`` are always zero.
    """
    if width == 8:
        flat = np.unpackbits(
            np.ascontiguousarray(x.astype(np.uint8)), axis=None, bitorder="little"
        )
        return flat.reshape(*x.shape[:-1], x.shape[-1] * 8)
    bits = np.arange(width, dtype=np.int64)
    return ((x[..., None] >> bits) & 1).reshape(*x.shape[:-1], x.shape[-1] * width)


def plane_width(input_bits: int) -> int:
    """Bits-per-feature stride of the bit planes (byte-padded for narrow inputs)."""
    return 8 if input_bits <= 8 else input_bits


def build_bit_planes(
    masks: np.ndarray, signs: np.ndarray, exponents: np.ndarray, width: int
) -> np.ndarray:
    """Bit-plane weight matrices of one layer or a stack of layers.

    Maps ``(..., fan_in, fan_out)`` parameters to ``(..., fan_in * width,
    fan_out)`` planes whose row ``i * width + b`` holds ``((masks[i, j] >>
    b) & 1) * signs[i, j] << (b + exponents[i, j])`` (see
    :attr:`ApproximateLayer.bit_planes`).
    """
    bits = np.arange(width, dtype=np.int64)[:, None]
    retained = (masks[..., None, :] >> bits) & 1  # (..., fan_in, width, fan_out)
    planes = (retained * signs[..., None, :]) << (bits + exponents[..., None, :])
    *lead, fan_in, fan_out = masks.shape
    return planes.reshape(*lead, fan_in * width, fan_out)


def accumulator_bounds(
    masks: np.ndarray, signs: np.ndarray, exponents: np.ndarray, biases: np.ndarray
) -> tuple:
    """Per-neuron ``(min, max)`` reachable accumulators, ``(..., fan_out)`` each."""
    magnitudes = masks << exponents
    positive = (magnitudes * (signs > 0)).sum(axis=-2)
    negative = (magnitudes * (signs < 0)).sum(axis=-2)
    return -negative + np.minimum(biases, 0), positive + np.maximum(biases, 0)


def exact_matmul_dtype(low: np.ndarray, high: np.ndarray) -> Optional[type]:
    """Weakest float dtype whose matmul stays exact for these accumulators.

    A BLAS matmul is exact as long as every partial sum stays an exactly
    representable integer (2**24 for float32, 2**53 for float64); the
    accumulator bounds give a hard cap.  ``None`` means neither float
    type is safe and the matmul must run in int64.
    """
    bound = max(abs(int(low.min(initial=0))), abs(int(high.max(initial=0))))
    if bound < 2**22:
        return np.float32
    if bound < 2**52:
        return np.float64
    return None


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
        # Lazily built caches; layers are decoded on demand (front
        # members, reports) and never mutated in place by the library, so
        # plain memoization is safe.  Call invalidate_caches() after any
        # in-place edit.
        self._bit_planes: Optional[np.ndarray] = None
        self._float_planes: Optional[np.ndarray] = None
        self._acc_bounds: Optional[tuple] = None
        self._output_bits: Optional[int] = None

    def invalidate_caches(self) -> None:
        """Drop memoized bit-planes/accumulator bounds after in-place edits."""
        self._bit_planes = None
        self._float_planes = None
        self._acc_bounds = None
        self._output_bits = None

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
        if self._output_bits is None:
            # Raw accumulator: conservative signed width estimate.
            span = max(abs(self.min_accumulators().min(initial=0)),
                       abs(self.max_accumulators().max(initial=0)), 1)
            self._output_bits = int(np.ceil(np.log2(span + 1))) + 1
        return self._output_bits

    @property
    def plane_bits(self) -> int:
        """Bits-per-feature stride of :attr:`bit_planes` (byte-padded for narrow inputs)."""
        return plane_width(self.input_bits)

    @property
    def bit_planes(self) -> np.ndarray:
        """Precomputed bit-plane weight matrix of shape ``(fan_in * plane_bits, fan_out)``.

        Row ``i * plane_bits + b`` holds the contribution of input bit
        ``b`` of feature ``i``: ``((masks[i, j] >> b) & 1) * signs[i, j]
        << (b + exponents[i, j])``.  When ``input_bits <= 8`` the planes
        are padded to one byte per feature (the pad rows are zero because
        masks carry no bits above ``input_bits``), so the activations can
        be expanded with one flat ``np.unpackbits`` call.  Built once per
        layer and reused by every forward pass.
        """
        if self._bit_planes is None:
            planes = build_bit_planes(
                self.masks, self.signs, self.exponents, self.plane_bits
            )
            planes.setflags(write=False)
            self._bit_planes = planes
            dtype = exact_matmul_dtype(*self._accumulator_bounds())
            self._float_planes = planes.astype(dtype) if dtype is not None else None
        return self._bit_planes

    def accumulate(self, x: np.ndarray, slow: bool = False) -> np.ndarray:
        """Accumulator values for every neuron.

        Parameters
        ----------
        x:
            Integer activations of shape ``(n_samples, fan_in)``.
        slow:
            Use the naive 3-D formulation (materializes an
            ``(n, fan_in, fan_out)`` intermediate).  Kept as the
            reference oracle; the default bit-plane path is bitwise
            identical and allocation-lean.

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
        if slow:
            # (n, fan_in, 1) & (1, fan_in, fan_out) -> (n, fan_in, fan_out)
            masked = x[:, :, None] & self.masks[None, :, :]
            shifted = masked << self.exponents[None, :, :]
            signed = shifted * self.signs[None, :, :]
            return signed.sum(axis=1) + self.biases[None, :]
        planes = self.bit_planes
        x_bits = expand_activation_bits(x, self.plane_bits)
        if self._float_planes is not None:
            fplanes = self._float_planes
            acc = (x_bits.astype(fplanes.dtype) @ fplanes).astype(np.int64)
        else:
            acc = x_bits.astype(np.int64) @ planes
        acc += self.biases[None, :]
        return acc

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Layer output: QReLU of the accumulators, or raw accumulators."""
        acc = self.accumulate(x)
        if self.activation is None:
            return acc
        return self.activation(acc)

    def neurons(self) -> Iterator[ApproximateNeuron]:
        """Iterate over per-neuron views (used by the hardware cost models)."""
        for j in range(self.fan_out):
            yield self.neuron(j)

    def neuron(self, index: int) -> ApproximateNeuron:
        """Materialize neuron ``index`` as an :class:`ApproximateNeuron`."""
        if not 0 <= index < self.fan_out:
            raise IndexError(f"neuron index {index} out of range (fan_out={self.fan_out})")
        return ApproximateNeuron(
            masks=self.masks[:, index].copy(),
            signs=self.signs[:, index].copy(),
            exponents=self.exponents[:, index].copy(),
            bias=int(self.biases[index]),
            input_bits=self.input_bits,
            activation=self.activation,
        )

    def _accumulator_bounds(self) -> tuple:
        """Cached per-neuron (min, max) reachable accumulator values."""
        if self._acc_bounds is None:
            low, high = accumulator_bounds(
                self.masks, self.signs, self.exponents, self.biases
            )
            low.setflags(write=False)
            high.setflags(write=False)
            self._acc_bounds = (low, high)
        return self._acc_bounds

    def max_accumulators(self) -> np.ndarray:
        """Per-neuron largest reachable accumulator values."""
        return self._accumulator_bounds()[1]

    def min_accumulators(self) -> np.ndarray:
        """Per-neuron smallest (most negative) reachable accumulator values."""
        return self._accumulator_bounds()[0]

    @property
    def active_connections(self) -> int:
        """Number of connections with a non-zero mask."""
        return int(np.count_nonzero(self.masks))

    @property
    def retained_bits(self) -> int:
        """Total number of retained summand bits across the layer."""
        from repro.approx.masks import mask_popcount

        return int(mask_popcount(self.masks).sum())

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)
