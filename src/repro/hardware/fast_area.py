"""Vectorized twin of :mod:`repro.hardware.adder_tree`.

The scalar reference in :mod:`repro.hardware.adder_tree` walks the bits
of every mask and the columns of every adder tree in Python, which is
convenient for inspection but too slow when the genetic algorithm counts
tens of thousands of candidates and synthesis re-costs whole fronts.
This module holds the one vectorized adder-tree kernel both use:

* :func:`population_layer_column_counts` builds the column histogram of
  every neuron of a stacked population layer with one bincount (for the
  GA's FA count, front synthesis and the exact baselines), and
* :func:`reduce_columns_adder_costs` runs one shared 3:2 reduction sweep
  over many histograms at once, returning the same FA / HA / CPA / stage
  counts as :func:`~repro.hardware.adder_tree.count_adders_from_columns`
  (the scalar oracle) run on each column.

:func:`fast_population_fa_count` is the GA's area objective (eq. (2)):
the FA count of that sweep with half adders and the final CPA off.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.approx.mlp import Population, PopulationParameters, stack_parameters

__all__ = [
    "population_layer_column_counts",
    "reduce_columns_adder_costs",
    "fast_population_fa_count",
]


def population_layer_column_counts(
    masks: np.ndarray,
    exponents: np.ndarray,
    biases: np.ndarray,
    input_bits: int,
) -> np.ndarray:
    """Column histograms of every neuron of a stacked population layer.

    ``masks``/``exponents`` have shape ``(P, fan_in, fan_out)`` and
    ``biases`` ``(P, fan_out)``; the column histogram of the whole stack
    is built with one flat bincount.  Returns an array of shape
    ``(width, P * fan_out)`` where column ``p * fan_out + j`` is the
    histogram of neuron ``j`` of candidate ``p``.  Every bias magnitude
    bit is scanned: the bias width is taken from the data.
    """
    masks = np.asarray(masks, dtype=np.int64)
    exponents = np.asarray(exponents, dtype=np.int64)
    biases = np.asarray(biases, dtype=np.int64)
    population, fan_in, fan_out = masks.shape
    columns_per_slice = population * fan_out
    bias_magnitudes = np.abs(biases).reshape(columns_per_slice)
    bias_bits = max(int(bias_magnitudes.max(initial=0)).bit_length(), 1)
    max_exp = int(exponents.max(initial=0))
    width = input_bits + max_exp + bias_bits + 1

    bits = np.arange(input_bits, dtype=np.int64)[:, None, None, None]
    bit_set = (masks[None, :, :, :] & (1 << bits)) != 0  # (B, P, fan_in, fan_out)
    neuron = (
        np.arange(population, dtype=np.int64)[:, None] * fan_out
        + np.arange(fan_out, dtype=np.int64)[None, :]
    )  # (P, fan_out)
    # Flat (column, neuron) bin of every summand bit, built in place;
    # gathering the set bits' bins keeps the bincount integer and small.
    flat = bits + exponents[None, :, :, :]
    flat *= columns_per_slice
    flat += neuron[None, :, None, :]
    counts = np.bincount(
        flat[bit_set], minlength=width * columns_per_slice
    ).reshape(width, columns_per_slice)

    bias_bit_range = np.arange(bias_bits, dtype=np.int64)[:, None]
    counts[:bias_bits, :] += (bias_magnitudes[None, :] >> bias_bit_range) & 1
    return counts


def reduce_columns_adder_costs(
    counts: np.ndarray,
    use_half_adders: bool = True,
    include_final_cpa: bool = True,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Adder costs of many independent adder trees in one shared sweep.

    The input is a ``(width, n)`` matrix whose column ``j`` is the column
    histogram of tree ``j``.  Returns four ``(n,)`` int64 arrays
    ``(full_adders, half_adders, cpa_full_adders, reduction_stages)``,
    each exactly equal to the fields of
    :func:`repro.hardware.adder_tree.count_adders_from_columns` run on
    that column alone with the same flags.

    Trees that are already reduced (every column holds at most two bits)
    are a fixed point of the update — ``fas`` and ``has`` are zero for
    them — so a single loop over the global worst case cannot disturb
    finished trees, and each tree's stage counter only advances while
    that tree is still active.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 2:
        raise ValueError("counts must be a (width, n) matrix")
    if np.any(counts < 0):
        raise ValueError("column counts must be non-negative")
    width, n = counts.shape
    full_adders = np.zeros(n, dtype=np.int64)
    half_adders = np.zeros(n, dtype=np.int64)
    stages = np.zeros(n, dtype=np.int64)
    if width == 0 or n == 0:
        return full_adders, half_adders, np.zeros(n, dtype=np.int64), stages

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
    buffer = np.zeros((width + rounds_bound, n), dtype=np.int64)
    buffer[:width] = counts

    while True:
        if buffer[-1].any():
            # Safety net: keep an all-zero top row so no carry can fall off.
            buffer = np.concatenate(
                [buffer, np.zeros((4, n), dtype=np.int64)], axis=0
            )
        fas = buffer // 3
        round_fas = fas.sum(axis=0)
        # A tree is still active while some column holds three bits,
        # i.e. while it places at least one FA this round.
        active = round_fas > 0
        if not active.any():
            break
        stages += active
        full_adders += round_fas
        carries = fas
        if use_half_adders:
            # A leftover pair next to FA-reduced bits is squeezed with a
            # half adder (same rule as the scalar reducer).
            has = ((buffer - 3 * fas == 2) & (fas > 0)).astype(np.int64)
            half_adders += has.sum(axis=0)
            carries = fas + has
        # A column of height 3f+r keeps f sum bits plus its leftovers —
        # the HA swap is count-neutral in place — and sends one carry per
        # FA and per HA into the next column.
        buffer -= 2 * fas
        buffer[1:] += carries[:-1]

    if include_final_cpa:
        cpa = (buffer == 2).sum(axis=0).astype(np.int64)
    else:
        cpa = np.zeros(n, dtype=np.int64)
    return full_adders, half_adders, cpa, stages


def fast_population_fa_count(population: Population) -> np.ndarray:
    """Total FA count of every candidate of a homogeneous population.

    ``population`` is a model list or stacked :class:`PopulationParameters`.
    Equal to :func:`repro.hardware.adder_tree.mlp_fa_count` per model —
    no half adders, no final CPA — but the whole population is counted
    with one bincount and one reduction sweep per layer position.
    """
    if not isinstance(population, PopulationParameters):
        if not population:
            return np.zeros(0, dtype=np.int64)
        population = stack_parameters(population)
    totals = np.zeros(len(population.shifts), dtype=np.int64)
    for masks, exponents, biases, input_bits in zip(
        population.masks, population.exponents, population.biases, population.input_bits
    ):
        counts = population_layer_column_counts(masks, exponents, biases, input_bits)
        per_neuron = reduce_columns_adder_costs(
            counts, use_half_adders=False, include_final_cpa=False
        )[0]
        totals += per_neuron.reshape(len(totals), masks.shape[2]).sum(axis=1)
    return totals
