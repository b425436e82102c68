"""Full-Adder counting area model for multi-operand adder trees.

This module implements the paper's "high-level Python function"
(Section III-C): given the parameters of an approximate neuron (masks,
signs, power-of-two exponents, bias) it

1. counts the non-zero bits that land in each column of the neuron's
   multi-operand addition, and
2. recursively performs 3-to-2 reductions (each consuming one Full Adder
   per three bits in a column and pushing one carry to the next, more
   significant, column) until every column holds at most two bits.

The number of Full Adders consumed is the area proxy used as the second
objective of the genetic training (equation (2)).  Optionally, Half
Adders for leftover pairs and the final two-operand carry-propagate
adder can be included for a closer match to a synthesized design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

import numpy as np

from repro.approx.layer import ApproximateLayer
from repro.approx.mlp import ApproximateMLP

__all__ = [
    "AdderTreeCost",
    "bit_positions",
    "approximate_neuron_columns",
    "count_adders_from_columns",
    "layer_adder_cost",
    "mlp_adder_cost",
    "mlp_fa_count",
]


@dataclass(frozen=True)
class AdderTreeCost:
    """Adder-resource cost of one (or several summed) adder trees.

    Attributes
    ----------
    full_adders:
        Number of Full Adders consumed by the 3:2 reduction stages.
    half_adders:
        Number of Half Adders used to merge leftover bit pairs during
        reduction (only populated when ``use_half_adders`` is enabled).
    cpa_full_adders:
        Full Adders of the final two-operand carry-propagate adder.
    reduction_stages:
        Number of reduction iterations until every column held at most
        two bits (a proxy for tree depth / critical path).
    """

    full_adders: int = 0
    half_adders: int = 0
    cpa_full_adders: int = 0
    reduction_stages: int = 0

    @property
    def total_full_adders(self) -> int:
        """Full Adders including the final carry-propagate adder."""
        return self.full_adders + self.cpa_full_adders

    def __add__(self, other: "AdderTreeCost") -> "AdderTreeCost":
        return AdderTreeCost(
            full_adders=self.full_adders + other.full_adders,
            half_adders=self.half_adders + other.half_adders,
            cpa_full_adders=self.cpa_full_adders + other.cpa_full_adders,
            reduction_stages=max(self.reduction_stages, other.reduction_stages),
        )

    def __radd__(self, other):  # allows sum() over costs
        if other == 0:
            return self
        return NotImplemented


def bit_positions(value: int) -> List[int]:
    """Positions of the '1' bits of a non-negative integer (LSB first)."""
    if value < 0:
        raise ValueError(f"value must be non-negative, got {value}")
    positions = []
    bit = 0
    while value:
        if value & 1:
            positions.append(bit)
        value >>= 1
        bit += 1
    return positions


def approximate_neuron_columns(
    masks: np.ndarray,
    exponents: np.ndarray,
    bias: int,
    input_bits: int,
) -> np.ndarray:
    """Column population counts of an approximate neuron's adder tree.

    Every retained mask bit ``p`` of connection ``i`` contributes one bit
    to column ``p + k_i``.  Negative-sign summands contribute the same
    columns (their bits are merely inverted by NOT gates; the
    two's-complement '+1' corrections are constants folded into the bias
    before hardware generation, as described in Section III-A).  The
    bias itself is a hard-wired constant whose '1' bits occupy columns as
    well.

    Returns
    -------
    Array ``counts`` where ``counts[c]`` is the number of non-constant
    bits feeding column ``c``.
    """
    masks = np.asarray(masks, dtype=np.int64)
    exponents = np.asarray(exponents, dtype=np.int64)
    if masks.shape != exponents.shape:
        raise ValueError("masks and exponents must have the same shape")
    if input_bits <= 0:
        raise ValueError(f"input_bits must be positive, got {input_bits}")

    max_exp = int(exponents.max(initial=0))
    bias_bits = bit_positions(abs(int(bias)))
    max_bias_col = max(bias_bits, default=0)
    width = input_bits + max_exp + max(0, max_bias_col - (input_bits + max_exp) + 1) + 1
    counts = np.zeros(width, dtype=np.int64)

    flat_masks = masks.ravel()
    flat_exps = exponents.ravel()
    for mask, exp in zip(flat_masks.tolist(), flat_exps.tolist()):
        if mask == 0:
            continue
        for p in bit_positions(mask):
            counts[p + exp] += 1
    for p in bias_bits:
        counts[p] += 1
    return counts


def count_adders_from_columns(
    column_counts: Iterable[int],
    use_half_adders: bool = False,
    include_final_cpa: bool = False,
) -> AdderTreeCost:
    """Count the adders needed to reduce ``column_counts`` to two rows.

    The reduction follows the paper's simple model: in every iteration,
    each group of three bits in a column is replaced by one Full Adder
    producing one sum bit in the same column and one carry bit in the
    next column.  When ``use_half_adders`` is set, leftover pairs in a
    column (beyond the two-bit target) are merged with Half Adders.  The
    loop repeats until every column holds at most two bits.

    Parameters
    ----------
    include_final_cpa:
        Also count the Full Adders of the final two-operand
        carry-propagate adder (one per column that still holds two bits).
    """
    counts = np.array(list(column_counts), dtype=np.int64)
    if np.any(counts < 0):
        raise ValueError("column counts must be non-negative")
    cost_fa = 0
    cost_ha = 0
    stages = 0

    while np.any(counts > 2):
        stages += 1
        next_counts = np.zeros(len(counts) + 1, dtype=np.int64)
        for col, count in enumerate(counts.tolist()):
            fas = count // 3
            remainder = count - 3 * fas
            ha = 0
            if use_half_adders and remainder == 2 and fas > 0:
                # A leftover pair next to FA-reduced bits can be squeezed
                # with a half adder to speed convergence.
                ha = 1
                remainder = 1
            cost_fa += fas
            cost_ha += ha
            next_counts[col] += fas + ha + remainder
            next_counts[col + 1] += fas + ha
        counts = next_counts

    cpa_fa = 0
    if include_final_cpa:
        cpa_fa = int(np.count_nonzero(counts == 2))

    return AdderTreeCost(
        full_adders=cost_fa,
        half_adders=cost_ha,
        cpa_full_adders=cpa_fa,
        reduction_stages=stages,
    )


def layer_adder_cost(
    layer: ApproximateLayer,
    use_half_adders: bool = False,
    include_final_cpa: bool = False,
) -> AdderTreeCost:
    """Summed adder cost of all neurons (columns) in a layer."""
    total = AdderTreeCost()
    for j in range(layer.fan_out):
        columns = approximate_neuron_columns(
            layer.masks[:, j], layer.exponents[:, j], int(layer.biases[j]), layer.input_bits
        )
        total = total + count_adders_from_columns(
            columns, use_half_adders=use_half_adders, include_final_cpa=include_final_cpa
        )
    return total


def mlp_adder_cost(
    mlp: ApproximateMLP,
    use_half_adders: bool = False,
    include_final_cpa: bool = False,
) -> AdderTreeCost:
    """Summed adder cost of every adder tree in the MLP (equation (2))."""
    total = AdderTreeCost()
    for layer in mlp.layers:
        total = total + layer_adder_cost(
            layer, use_half_adders=use_half_adders, include_final_cpa=include_final_cpa
        )
    return total


def mlp_fa_count(mlp: ApproximateMLP) -> int:
    """The scalar area objective used during genetic training.

    This is the plain Full-Adder count of the 3:2 reduction (no half
    adders, no final CPA) — the simplest estimator described in the
    paper, which is also the cheapest to evaluate inside the GA loop.
    """
    return mlp_adder_cost(mlp).full_adders
