"""Vectorized Full-Adder counting for use inside the GA fitness loop.

The reference implementation in :mod:`repro.hardware.adder_tree` walks
the bits of every mask in Python, which is convenient for inspection and
unit testing but too slow when the genetic algorithm evaluates tens of
thousands of candidate MLPs.  This module provides numerically identical
results (property-tested against the reference) using vectorized numpy
operations over whole layers.
"""

from __future__ import annotations

import numpy as np

from repro.approx.mlp import ApproximateMLP, Population, PopulationParameters, stack_parameters

__all__ = [
    "layer_column_counts",
    "population_layer_column_counts",
    "reduce_columns_fa_count",
    "reduce_columns_fa_count_reference",
    "layer_fa_count",
    "fast_mlp_fa_count",
    "fast_population_fa_count",
]


def layer_column_counts(
    masks: np.ndarray,
    exponents: np.ndarray,
    biases: np.ndarray,
    input_bits: int,
    bias_bits: int = 16,
) -> np.ndarray:
    """Column population counts for every neuron of a layer at once.

    Parameters
    ----------
    masks, exponents:
        Integer arrays of shape ``(fan_in, fan_out)``.
    biases:
        Integer array of shape ``(fan_out,)``.
    input_bits:
        Width of the incoming activations (mask width).
    bias_bits:
        Upper bound on the number of bias magnitude bits to scan.

    Returns
    -------
    Array of shape ``(width, fan_out)`` where entry ``[c, j]`` is the
    number of bits feeding column ``c`` of neuron ``j``.
    """
    masks = np.asarray(masks, dtype=np.int64)
    exponents = np.asarray(exponents, dtype=np.int64)
    biases = np.asarray(biases, dtype=np.int64)
    if masks.shape != exponents.shape:
        raise ValueError("masks and exponents must have the same shape")
    fan_in, fan_out = masks.shape
    if biases.shape != (fan_out,):
        raise ValueError(f"biases must have shape ({fan_out},), got {biases.shape}")

    max_exp = int(exponents.max(initial=0))
    width = input_bits + max_exp + max(bias_bits, 1) + 1

    # One flat bincount over (bit, input, neuron) replaces the Python
    # bit loop: summand bit b of weight (i, j) lands in column
    # ``b + exponents[i, j]`` of neuron ``j``.
    bits = np.arange(input_bits, dtype=np.int64)[:, None, None]
    bit_set = (masks[None, :, :] >> bits) & 1  # (input_bits, fan_in, fan_out)
    columns = bits + exponents[None, :, :]
    flat = columns * fan_out + np.arange(fan_out, dtype=np.int64)[None, None, :]
    counts = np.bincount(
        flat.ravel(), weights=bit_set.ravel(), minlength=width * fan_out
    ).astype(np.int64).reshape(width, fan_out)

    bias_bit_range = np.arange(bias_bits, dtype=np.int64)[:, None]
    counts[:bias_bits, :] += (np.abs(biases)[None, :] >> bias_bit_range) & 1
    return counts


def reduce_columns_fa_count(counts: np.ndarray) -> np.ndarray:
    """Full-Adder count of the 3:2 reduction, vectorized per neuron.

    Parameters
    ----------
    counts:
        Column population counts of shape ``(width, fan_out)``.

    Returns
    -------
    Array of shape ``(fan_out,)`` with the FA count of each neuron's
    adder tree (no half adders, no final carry-propagate adder — the same
    convention as :func:`repro.hardware.adder_tree.mlp_fa_count`).
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 2:
        raise ValueError("counts must be a (width, fan_out) matrix")
    width, fan_out = counts.shape
    total_fa = np.zeros(fan_out, dtype=np.int64)
    if width == 0 or fan_out == 0:
        return total_fa

    # Each 3:2 round turns `c // 3` triples per column into one sum bit
    # (same column) and one carry (next column).  A column of height c
    # shrinks to `c - 2*(c//3)` plus an incoming carry of at most
    # `peak // 3`, so the peak drops by at least a third per round and
    # the top nonzero row rises by at most one row per round — one
    # buffer row of headroom per possible round is enough.
    peak = int(counts.max())
    rounds_bound = 1
    while peak > 2:
        peak -= peak // 3
        rounds_bound += 1
    buffer = np.zeros((width + rounds_bound, fan_out), dtype=np.int64)
    buffer[:width] = counts

    while buffer.max() > 2:
        if buffer[-1].any():
            # Safety net: keep an all-zero top row so no carry can
            # ever fall off the buffer.
            buffer = np.concatenate(
                [buffer, np.zeros((4, fan_out), dtype=np.int64)], axis=0
            )
        fas = buffer // 3
        total_fa += fas.sum(axis=0)
        buffer -= 2 * fas  # remainder plus the sum bits
        buffer[1:] += fas[:-1]  # carries
    return total_fa


def reduce_columns_fa_count_reference(counts: np.ndarray) -> np.ndarray:
    """Grow-the-array 3:2 reduction, retained as the oracle for
    :func:`reduce_columns_fa_count`."""
    counts = np.array(counts, dtype=np.int64, copy=True)
    if counts.ndim != 2:
        raise ValueError("counts must be a (width, fan_out) matrix")
    width, fan_out = counts.shape
    total_fa = np.zeros(fan_out, dtype=np.int64)

    while np.any(counts > 2):
        fas = counts // 3
        total_fa += fas.sum(axis=0)
        remainder = counts - 3 * fas
        next_counts = np.zeros((counts.shape[0] + 1, fan_out), dtype=np.int64)
        next_counts[:-1, :] = remainder + fas
        next_counts[1:, :] += fas
        counts = next_counts
    return total_fa


def layer_fa_count(
    masks: np.ndarray,
    exponents: np.ndarray,
    biases: np.ndarray,
    input_bits: int,
) -> int:
    """Total FA count of a layer (sum over its neurons)."""
    counts = layer_column_counts(masks, exponents, biases, input_bits)
    return int(reduce_columns_fa_count(counts).sum())


def fast_mlp_fa_count(mlp: ApproximateMLP) -> int:
    """Total FA count of the MLP; fast equivalent of ``mlp_fa_count``."""
    total = 0
    for layer in mlp.layers:
        total += layer_fa_count(
            masks=layer.masks,
            exponents=layer.exponents,
            biases=layer.biases,
            input_bits=layer.input_bits,
        )
    return total


def population_layer_column_counts(
    masks: np.ndarray,
    exponents: np.ndarray,
    biases: np.ndarray,
    input_bits: int,
    bias_bits: int = 16,
) -> np.ndarray:
    """Column histograms of every neuron of a stacked population layer.

    ``masks``/``exponents`` have shape ``(P, fan_in, fan_out)`` and
    ``biases`` ``(P, fan_out)``; the column histogram of the whole stack
    is built with one flat bincount.  Returns an array of shape
    ``(width, P * fan_out)`` where column ``p * fan_out + j`` is the
    histogram of neuron ``j`` of candidate ``p``.

    ``bias_bits`` bounds the bias magnitude bits that are scanned; pass
    ``int(np.abs(biases).max()).bit_length()`` for exact coverage of
    arbitrary biases.
    """
    masks = np.asarray(masks, dtype=np.int64)
    exponents = np.asarray(exponents, dtype=np.int64)
    biases = np.asarray(biases, dtype=np.int64)
    population, fan_in, fan_out = masks.shape
    columns_per_slice = population * fan_out
    max_exp = int(exponents.max(initial=0))
    width = input_bits + max_exp + max(bias_bits, 1) + 1

    bits = np.arange(input_bits, dtype=np.int64)[:, None, None, None]
    bit_set = (masks[None, :, :, :] >> bits) & 1  # (B, P, fan_in, fan_out)
    columns = bits + exponents[None, :, :, :]
    neuron = (
        np.arange(population, dtype=np.int64)[:, None] * fan_out
        + np.arange(fan_out, dtype=np.int64)[None, :]
    )  # (P, fan_out)
    flat = columns * columns_per_slice + neuron[None, :, None, :]
    counts = np.bincount(
        flat.ravel(), weights=bit_set.ravel(), minlength=width * columns_per_slice
    ).astype(np.int64).reshape(width, columns_per_slice)

    bias_bit_range = np.arange(bias_bits, dtype=np.int64)[:, None]
    counts[:bias_bits, :] += (
        np.abs(biases).reshape(columns_per_slice)[None, :] >> bias_bit_range
    ) & 1
    return counts


def _population_layer_fa_counts(
    masks: np.ndarray,
    exponents: np.ndarray,
    biases: np.ndarray,
    input_bits: int,
    bias_bits: int = 16,
) -> np.ndarray:
    """Per-candidate FA counts of one layer position, stacked.

    The column histogram of the whole stack is built with one flat
    bincount and reduced with one shared 3:2 sweep, so the cost per
    candidate is a few vectorized operations.
    """
    population, fan_in, fan_out = masks.shape
    counts = population_layer_column_counts(
        masks, exponents, biases, input_bits, bias_bits=bias_bits
    )
    per_neuron = reduce_columns_fa_count(counts)
    return per_neuron.reshape(population, fan_out).sum(axis=1)


def fast_population_fa_count(population: Population) -> np.ndarray:
    """Total FA count of every candidate of a homogeneous population.

    ``population`` is a model list or stacked :class:`PopulationParameters`.
    Identical to calling :func:`fast_mlp_fa_count` per model — each
    neuron's column histogram and greedy 3:2 reduction are unchanged —
    but the whole population is counted with one bincount and one
    reduction sweep per layer position.
    """
    if not isinstance(population, PopulationParameters):
        if not population:
            return np.zeros(0, dtype=np.int64)
        population = stack_parameters(population)
    totals = np.zeros(len(population.shifts), dtype=np.int64)
    for masks, exponents, biases, input_bits in zip(
        population.masks, population.exponents, population.biases, population.input_bits
    ):
        totals += _population_layer_fa_counts(masks, exponents, biases, input_bits)
    return totals
