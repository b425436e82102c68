"""The hardware-approximated multilayer perceptron.

An :class:`ApproximateMLP` is a stack of :class:`ApproximateLayer`
objects whose parameters (masks, signs, power-of-two exponents, biases
and per-layer QReLU shifts) are exactly the learnable parameters
``theta`` of the paper.  Inference is integer-only and classification
is the argmax over the raw output-layer accumulators.

The one vectorized inference kernel runs a whole stacked population
(:class:`PopulationParameters`) through bit-plane matmuls in per-thread,
resident scratch, and this module alone knows the bit-plane format
(:func:`build_bit_planes`, :func:`exact_matmul_dtype`).  It has two
entries: :func:`accuracy_population`, which the GA and front evaluation
score with, and :func:`forward_stacked`, which returns the raw scores.
:meth:`ApproximateMLP.forward` runs one model through the layers'
plain eq. (4) sums and is the kernel's scalar oracle.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.approx.config import ApproxConfig
from repro.approx.layer import ApproximateLayer, accumulator_bounds, worst_case_shift
from repro.approx.topology import Topology
from repro.quant.qrelu import QReLU

__all__ = [
    "ApproximateMLP",
    "PopulationParameters",
    "default_shifts",
    "stack_parameters",
    "build_bit_planes",
    "exact_matmul_dtype",
    "forward_stacked",
    "accuracy_population",
]


def default_shifts(topology: Topology, config: ApproxConfig) -> List[int]:
    """Worst-case QReLU shifts for every hidden layer of ``topology``.

    The output layer has no activation and therefore no shift; the
    returned list still has one entry per weight layer (the last one is
    unused but kept for a uniform chromosome layout).
    """
    shifts: List[int] = []
    for layer_index, (fan_in, _) in enumerate(topology.layer_shapes()):
        in_bits = config.layer_input_bits(layer_index)
        shifts.append(
            worst_case_shift(
                fan_in=fan_in,
                input_bits=in_bits,
                max_exponent=config.max_exponent,
                out_bits=config.activation_bits,
                bias_max=config.bias_max,
            )
        )
    return shifts


@dataclass
class ApproximateMLP:
    """Integer-only approximate MLP (the ``theta`` of the paper)."""

    topology: Topology
    config: ApproxConfig
    layers: List[ApproximateLayer]

    def __post_init__(self) -> None:
        if len(self.layers) != self.topology.num_layers:
            raise ValueError(
                f"expected {self.topology.num_layers} layers, got {len(self.layers)}"
            )
        for index, (layer, (fan_in, fan_out)) in enumerate(
            zip(self.layers, self.topology.layer_shapes())
        ):
            if (layer.fan_in, layer.fan_out) != (fan_in, fan_out):
                raise ValueError(
                    f"layer {index} has shape ({layer.fan_in}, {layer.fan_out}), "
                    f"expected ({fan_in}, {fan_out})"
                )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        topology: Topology,
        config: ApproxConfig | None = None,
        rng: np.random.Generator | None = None,
        mask_density: float = 0.5,
        shifts: Optional[Sequence[int]] = None,
    ) -> "ApproximateMLP":
        """Draw a random approximate MLP (used to seed GA populations).

        Parameters
        ----------
        mask_density:
            Expected fraction of retained bits in each mask; 1.0 yields a
            nearly non-approximate network (only pow2 quantization).
        shifts:
            Per-layer QReLU shifts; defaults to the worst-case shifts of
            :func:`default_shifts`.
        """
        config = config or ApproxConfig()
        # Seeded fallback: library defaults must be reproducible (RP03);
        # pass an explicit Generator to draw different networks.
        rng = rng or np.random.default_rng(0)
        shifts = list(shifts) if shifts is not None else default_shifts(topology, config)
        layers: List[ApproximateLayer] = []
        for layer_index, (fan_in, fan_out) in enumerate(topology.layer_shapes()):
            in_bits = config.layer_input_bits(layer_index)
            max_mask = (1 << in_bits) - 1
            bit_draws = rng.random(size=(fan_in, fan_out, in_bits)) < mask_density
            weights = 1 << np.arange(in_bits, dtype=np.int64)
            masks = (bit_draws * weights).sum(axis=-1).astype(np.int64)
            masks = np.clip(masks, 0, max_mask)
            signs = rng.choice(np.array([-1, 1], dtype=np.int64), size=(fan_in, fan_out))
            exponents = rng.integers(0, config.max_exponent + 1, size=(fan_in, fan_out))
            biases = rng.integers(config.bias_min, config.bias_max + 1, size=fan_out)
            is_output = layer_index == topology.num_layers - 1
            activation = None if is_output else QReLU(
                shift=int(shifts[layer_index]), out_bits=config.activation_bits
            )
            layers.append(
                ApproximateLayer(
                    masks=masks,
                    signs=signs,
                    exponents=exponents,
                    biases=biases,
                    input_bits=in_bits,
                    activation=activation,
                )
            )
        return cls(topology=topology, config=config, layers=layers)

    @classmethod
    def from_parameters(
        cls,
        topology: Topology,
        config: ApproxConfig,
        masks: Sequence[np.ndarray],
        signs: Sequence[np.ndarray],
        exponents: Sequence[np.ndarray],
        biases: Sequence[np.ndarray],
        shifts: Optional[Sequence[int]] = None,
        validate: bool = True,
    ) -> "ApproximateMLP":
        """Assemble an MLP from per-layer parameter arrays.

        ``validate=False`` skips the per-layer value-range checks; only
        for producers whose parameters are in-bounds by construction.
        """
        shifts = list(shifts) if shifts is not None else default_shifts(topology, config)
        layers: List[ApproximateLayer] = []
        for layer_index in range(topology.num_layers):
            is_output = layer_index == topology.num_layers - 1
            activation = None if is_output else QReLU(
                shift=int(shifts[layer_index]), out_bits=config.activation_bits
            )
            layers.append(
                ApproximateLayer(
                    masks=np.asarray(masks[layer_index]),
                    signs=np.asarray(signs[layer_index]),
                    exponents=np.asarray(exponents[layer_index]),
                    biases=np.asarray(biases[layer_index]),
                    input_bits=config.layer_input_bits(layer_index),
                    activation=activation,
                    validate=validate,
                )
            )
        return cls(topology=topology, config=config, layers=layers)

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Raw output-layer accumulators (class scores).

        Parameters
        ----------
        x:
            Integer-quantized inputs of shape ``(n_samples, num_inputs)``.
        """
        activations = np.asarray(x, dtype=np.int64)
        if activations.ndim == 1:
            activations = activations[None, :]
        for layer in self.layers:
            activations = layer.forward(activations)
        return activations

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predicted class indices (argmax over the output accumulators)."""
        return np.argmax(self.forward(x), axis=1)

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        """Classification accuracy on integer-quantized inputs ``x``."""
        y = np.asarray(y)
        predictions = self.predict(x)
        return float(np.mean(predictions == y))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shifts(self) -> List[int]:
        """Per-layer QReLU shifts (0 for the activation-less output layer)."""
        return [
            layer.activation.shift if layer.activation is not None else 0
            for layer in self.layers
        ]


class PopulationParameters(NamedTuple):
    """Stacked parameters of ``P`` candidates sharing one topology.

    ``masks``, ``signs`` (±1) and ``exponents`` hold one ``(P, fan_in,
    fan_out)`` tensor per layer, ``biases`` one ``(P, fan_out)`` matrix
    per layer, and ``shifts`` is the ``(P, hidden)`` matrix of QReLU
    shifts.  ``input_bits`` is the per-layer input width and
    ``activation_bits`` the QReLU output width of the hidden layers.
    """

    masks: List[np.ndarray]
    signs: List[np.ndarray]
    exponents: List[np.ndarray]
    biases: List[np.ndarray]
    shifts: np.ndarray
    input_bits: Tuple[int, ...]
    activation_bits: int


Population = Union[Sequence[ApproximateMLP], PopulationParameters]


def stack_parameters(models: Sequence[ApproximateMLP]) -> PopulationParameters:
    """Stack a homogeneous model population into :class:`PopulationParameters`."""
    if not models:
        raise ValueError("a population needs at least one model")
    sizes = models[0].topology.sizes
    config = models[0].config
    if any(m.topology.sizes != sizes or m.config != config for m in models):
        raise ValueError("a stacked population must be homogeneous")
    activations = {
        None if layer.activation is None else layer.activation.out_bits
        for m in models
        for layer in m.layers[:-1]
    }
    if None in activations or len(activations) > 1 or any(
        m.layers[-1].activation is not None for m in models
    ):
        raise ValueError("stacked populations need one QReLU width and a raw output layer")
    positions = [[m.layers[i] for m in models] for i in range(len(sizes) - 1)]

    def stacked(name: str) -> List[np.ndarray]:
        return [np.stack([getattr(layer, name) for layer in p]) for p in positions]

    return PopulationParameters(
        masks=stacked("masks"),
        signs=stacked("signs"),
        exponents=stacked("exponents"),
        biases=stacked("biases"),
        shifts=np.array([m.shifts[:-1] for m in models], dtype=np.int64).reshape(
            len(models), len(sizes) - 2
        ),
        input_bits=tuple(layer.input_bits for layer in models[0].layers),
        activation_bits=activations.pop() if activations else config.activation_bits,
    )


#: Bytes one block of candidates may spend on its largest buffer (the
#: bias-folded input bits, or the accumulators) in :func:`forward_stacked`.
_BLOCK_BYTES = 1 << 20


class _Scratch(threading.local):
    """Per-thread, grow-only buffers of the forward kernel, one per slot name.

    The kernel's block buffers are ~1 MB and it runs once per GA
    generation.  Allocated afresh, they come and go at the top of the
    heap, which glibc trims and the next call faults back in (thousands
    to tens of thousands of minor faults per ci ``search`` op); kept
    here, they stay resident.  Only kernel temporaries live in scratch:
    no array handed to a caller aliases it.  Per thread, so concurrent
    dataset stages never share a buffer.
    """

    def __init__(self) -> None:
        self.buffers: Dict[str, np.ndarray] = {}

    def array(self, slot: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """``slot``'s buffer as an uninitialized array; valid until the
        slot is requested again."""
        dtype = np.dtype(dtype)
        nbytes = dtype.itemsize * math.prod(shape)
        buffer = self.buffers.get(slot)
        if buffer is None or buffer.size < nbytes:
            buffer = self.buffers[slot] = np.empty(nbytes, dtype=np.uint8)
        return buffer[:nbytes].view(dtype).reshape(shape)


_SCRATCH = _Scratch()


def _input_rows(values: np.ndarray, width: int, out: np.ndarray) -> np.ndarray:
    """Write the bias-folded input bits of integer-valued ``(..., F, n)`` values.

    ``out`` has shape ``(..., F * width + 1, n)``: the ``width`` low bits
    of every feature, feature-major then bit-minor (the row order of
    :func:`build_bit_planes`), then a constant-one row for the bias.
    Bits above ``width`` are dropped, which is exact because masks carry
    none.
    """
    *lead, features, n = values.shape
    rows = features * width
    # Bytes suffice up to 8 bits (the cast keeps the low bits); wider
    # inputs shift in int64.
    itype = np.uint8 if width <= 8 else np.int64
    shifts = np.arange(width, dtype=itype)[:, None]
    narrow = _SCRATCH.array("narrow", values.shape, itype)
    np.copyto(narrow, values, casting="unsafe")
    bits = _SCRATCH.array("bits", (*lead, features, width, n), itype)
    np.right_shift(narrow[..., None, :], shifts, out=bits)
    np.bitwise_and(bits, itype(1), out=bits)
    out[..., :rows, :] = bits.reshape(*lead, rows, n)
    out[..., rows, :] = 1
    return out


def build_bit_planes(
    masks: np.ndarray, signs: np.ndarray, exponents: np.ndarray, width: int
) -> np.ndarray:
    """Bit-plane weight matrices of one layer or a stack of layers.

    Because ``x & m == sum_b ((x >> b) & 1) * ((m >> b) & 1) << b`` for
    masks confined to the low ``width`` bits, a layer's masked sum is one
    matmul of the input bits against these planes.  Maps ``(...,
    fan_in, fan_out)`` parameters to ``(..., fan_in * width, fan_out)``
    planes whose row ``i * width + b`` holds ``((masks[i, j] >> b) & 1)
    * signs[i, j] << (b + exponents[i, j])``.
    """
    bits = np.arange(width, dtype=np.int64)[:, None]
    retained = (masks[..., None, :] >> bits) & 1  # (..., fan_in, width, fan_out)
    planes = (retained * signs[..., None, :]) << (bits + exponents[..., None, :])
    *lead, fan_in, fan_out = masks.shape
    return planes.reshape(*lead, fan_in * width, fan_out)


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


def _layer_weights(params: PopulationParameters, index: int) -> np.ndarray:
    """Bias-folded ``(P, fan_out, K + 1)`` planes of one layer position.

    They come in the weakest dtype that keeps every candidate's matmul
    exact (:func:`exact_matmul_dtype`; int64 when no float is).  The
    bias rides along as plane column ``K`` against the constant-one
    input row; every partial sum of the matmul still lies inside the
    accumulator bounds, so the fold keeps it exact.
    """
    masks, signs = params.masks[index], params.signs[index]
    exponents, biases = params.exponents[index], params.biases[index]
    dtype = exact_matmul_dtype(*accumulator_bounds(masks, signs, exponents, biases)) or np.int64
    planes = build_bit_planes(masks, signs, exponents, params.input_bits[index])
    count, rows, fan_out = planes.shape
    weights = np.empty((count, fan_out, rows + 1), dtype=dtype)
    weights[..., :rows] = planes.transpose(0, 2, 1)
    weights[..., rows] = biases
    return weights


def _qrelu_(acc: np.ndarray, shifts: np.ndarray, max_value: int) -> np.ndarray:
    """In-place QReLU ``clip(acc >> shift, 0, max_value)`` in ``acc``'s dtype.

    For the exact float dtypes the shift is ``floor(acc * 2**-shift)``:
    scaling by a power of two is exact and ``floor`` rounds toward minus
    infinity like the arithmetic right shift.
    """
    if acc.dtype.kind == "f":
        acc *= np.exp2(-shifts).astype(acc.dtype)
        np.floor(acc, out=acc)
    else:
        acc >>= shifts
    return np.clip(acc, 0, max_value, out=acc)


def _forward_blocks(
    params: PopulationParameters, x: np.ndarray
) -> Iterator[Tuple[slice, np.ndarray]]:
    """Run the candidates in blocks; yield ``(rows, scores)`` per block.

    ``scores`` are the output accumulators of candidates ``rows`` as a
    ``(block, num_outputs, n_samples)`` scratch array, overwritten when
    the next block is drawn.  Every buffer is per-thread scratch and the
    block is sized so that its largest buffer stays under
    ``_BLOCK_BYTES``.
    """
    x = np.asarray(x, dtype=np.int64)
    if x.ndim == 1:
        x = x[None, :]
    n = x.shape[0]
    max_value = (1 << params.activation_bits) - 1
    weights = [_layer_weights(params, index) for index in range(len(params.masks))]
    first = weights[0]
    shared = _input_rows(
        x.T, params.input_bits[0], _SCRATCH.array("shared", (first.shape[2], n), first.dtype)
    )
    count = first.shape[0]
    # A block's buffers: every layer's accumulators and the input bits of
    # the layers after the first (layer 0's input bits are shared).
    per_candidate = n * max(
        [w.itemsize * w.shape[1] for w in weights] + [w.itemsize * w.shape[2] for w in weights[1:]]
    )
    block = max(1, min(count, _BLOCK_BYTES // max(per_candidate, 1)))
    accumulators = [
        _SCRATCH.array(f"acc{index}", (block, w.shape[1], n), w.dtype)
        for index, w in enumerate(weights)
    ]
    inputs = [
        _SCRATCH.array(f"inputs{index}", (block, w.shape[2], n), w.dtype)
        for index, w in enumerate(weights[1:], start=1)
    ]
    for start in range(0, count, block):
        rows = slice(start, start + block)
        planes = first[rows]
        size = len(planes)
        acc = accumulators[0][:size]
        np.matmul(planes.reshape(-1, planes.shape[2]), shared, out=acc.reshape(-1, n))
        for index, layer_weights in enumerate(weights[1:]):
            _qrelu_(acc, params.shifts[rows, index, None, None], max_value)
            layer_inputs = _input_rows(acc, params.input_bits[index + 1], inputs[index][:size])
            acc = np.matmul(layer_weights[rows], layer_inputs, out=accumulators[index + 1][:size])
        yield rows, acc


def forward_stacked(
    params: PopulationParameters, x: np.ndarray
) -> np.ndarray:  # lint: oracle-pair(accumulate)
    """Forward a shared input batch through every stacked candidate at once.

    Activations live sample-minor, as ``(P, features, n)``, and each
    layer is one matmul ``(P, fan_out, K + 1) @ (P, K + 1, n)`` with the
    bias folded into the planes; layer 0 is a single GEMM of all
    candidates' planes against the shared input bits.  Each layer stays
    in the weakest dtype that keeps the whole batch exact (float32 below
    2**22, float64 below 2**52, int64 otherwise) through bias, QReLU and
    the output, so the result is bitwise identical to
    :meth:`ApproximateMLP.forward` per candidate, whose scalar
    :meth:`ApproximateLayer.accumulate` is this kernel's oracle.  Candidates run in
    blocks whose largest buffer stays under ``_BLOCK_BYTES``, in
    per-thread scratch that stays resident between calls.

    Returns
    -------
    Output accumulators as a ``(P, n_samples, num_outputs)`` view of a
    fresh array, in the last layer's exact dtype.
    """
    scores = None
    for rows, block in _forward_blocks(params, x):
        if scores is None:
            scores = np.empty((len(params.masks[0]), *block.shape[1:]), dtype=block.dtype)
        scores[rows] = block
    if scores is None:  # an empty stack: no block ran
        scores = np.empty((0, params.biases[-1].shape[1], np.atleast_2d(x).shape[0]))
    return scores.transpose(0, 2, 1)


def accuracy_population(population: Population, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Classification accuracy of every candidate of a population at once.

    Scored block by block from the kernel's scratch, so no
    ``(P, n_samples, num_outputs)`` score tensor is built.
    """
    if not isinstance(population, PopulationParameters):
        population = stack_parameters(population)
    y = np.asarray(y)
    accuracies = np.empty(len(population.masks[0]))
    # argmax's first-maximum rule as two reductions over the class axis:
    # they run along the scores' memory order, where np.argmax would make
    # one call per (candidate, sample) row.
    num_outputs = population.biases[-1].shape[1]
    rank_from_last = np.arange(num_outputs - 1, -1, -1, dtype=np.min_scalar_type(num_outputs))
    for rows, scores in _forward_blocks(population, x):
        best = np.maximum.reduce(scores, axis=1, keepdims=True)
        ties = np.equal(scores, best, out=_SCRATCH.array("ties", scores.shape, bool))
        ranks = np.multiply(
            ties,
            rank_from_last[:, None],
            out=_SCRATCH.array("ranks", scores.shape, rank_from_last.dtype),
        )
        predictions = (num_outputs - 1) - np.maximum.reduce(ranks, axis=1)
        accuracies[rows] = (predictions == y[None, :]).mean(axis=1)
    return accuracies
