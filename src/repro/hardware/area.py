"""Area building blocks for bespoke printed MLP circuits.

Two kinds of neurons have to be costed:

* the **exact bespoke** neuron of the baseline (Mubarik et al.,
  MICRO'20): every input is multiplied by a hard-wired 8-bit fixed-point
  constant.  A bespoke constant multiplier is a set of shifted copies of
  the input — one per non-zero digit of the weight's canonical
  signed-digit (CSD) representation — merged in the neuron's
  multi-operand adder tree;
* the **approximate** neuron of this paper: multipliers are gone (pow2
  weights) and the adder tree only sees the mask-retained bits.

Both reduce to "count the bits that land in each adder-tree column and
run the 3:2 reduction", so the same Full-Adder counter
(:mod:`repro.hardware.adder_tree`) is used for both, which keeps the
baseline/approximate comparison fair by construction.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.hardware.adder_tree import AdderTreeCost, count_adders_from_columns

__all__ = [
    "csd_encode",
    "csd_nonzero_digits",
    "constant_multiplier_columns",
    "exact_neuron_columns",
    "exact_neuron_adder_cost",
    "qrelu_cell_counts",
    "argmax_cell_counts",
    "merge_cell_counts",
]


def csd_encode(value: int) -> List[Tuple[int, int]]:
    """Canonical signed-digit representation of an integer.

    Returns a list of ``(bit_position, digit)`` pairs with
    ``digit in {-1, +1}`` such that ``value == sum(digit * 2**pos)`` and
    no two consecutive positions are non-zero — the classic minimal-adder
    encoding used when hardwiring constant multipliers.
    """
    value = int(value)
    sign = 1
    if value < 0:
        sign = -1
        value = -value
    digits: List[Tuple[int, int]] = []
    position = 0
    while value:
        if value & 1:
            # Look at the two least-significant bits to decide between a
            # '+1' digit or a '-1' digit with carry (replaces runs of 1s).
            if (value & 3) == 3:
                digits.append((position, -1 * sign))
                value += 1
            else:
                digits.append((position, +1 * sign))
                value -= 1
        value >>= 1
        position += 1
    return digits


def csd_nonzero_digits(value: int) -> int:
    """Number of non-zero CSD digits of ``value`` (adder count proxy)."""
    return len(csd_encode(value))


def constant_multiplier_columns(
    weight_code: int, input_bits: int, width: int
) -> np.ndarray:
    """Adder-tree column contributions of one bespoke constant multiplier.

    Each non-zero CSD digit of the hard-wired weight produces a shifted
    copy of the ``input_bits``-wide input: ``input_bits`` bits starting
    at the digit's position.  Negative digits are added in (NOT-gated)
    two's-complement form; like in the approximate neuron, the '+1'
    corrections are constants folded into the bias, so the column
    occupancy is identical to a positive digit.
    """
    if input_bits <= 0:
        raise ValueError(f"input_bits must be positive, got {input_bits}")
    columns = np.zeros(width, dtype=np.int64)
    for position, _digit in csd_encode(weight_code):
        hi = position + input_bits
        if hi > width:
            raise ValueError(
                f"column width {width} too small for weight {weight_code} "
                f"with {input_bits}-bit inputs"
            )
        columns[position:hi] += 1
    return columns


def exact_neuron_columns(
    weight_codes: Sequence[int], input_bits: int, bias_code: int = 0
) -> np.ndarray:
    """Column population counts of an exact bespoke neuron.

    The neuron computes ``sum_i W_i * X_i + B`` with hard-wired integer
    weight codes ``W_i``; every multiplier's partial products and the
    bias constant all feed a single merged multi-operand adder tree.
    """
    weight_codes = [int(w) for w in weight_codes]
    bias_code = int(bias_code)
    max_weight_bits = max(
        (int(abs(w)).bit_length() for w in weight_codes), default=1
    )
    width = input_bits + max_weight_bits + max(abs(bias_code).bit_length(), 1) + 2
    columns = np.zeros(width, dtype=np.int64)
    for code in weight_codes:
        if code == 0:
            continue
        columns += constant_multiplier_columns(code, input_bits, width)
    magnitude = abs(bias_code)
    position = 0
    while magnitude:
        if magnitude & 1:
            columns[position] += 1
        magnitude >>= 1
        position += 1
    return columns


def exact_neuron_adder_cost(
    weight_codes: Sequence[int],
    input_bits: int,
    bias_code: int = 0,
    use_half_adders: bool = True,
    include_final_cpa: bool = True,
) -> AdderTreeCost:
    """Adder cost of an exact bespoke neuron (multipliers merged in)."""
    columns = exact_neuron_columns(weight_codes, input_bits, bias_code)
    return count_adders_from_columns(
        columns, use_half_adders=use_half_adders, include_final_cpa=include_final_cpa
    )


# ----------------------------------------------------------------------
# Peripheral logic (identical for exact and approximate designs)
# ----------------------------------------------------------------------
def qrelu_cell_counts(acc_bits: int, shift: int, out_bits: int) -> Dict[str, float]:
    """Cell counts of one QReLU activation block.

    The block drops ``shift`` LSBs (free), detects overflow of the
    remaining high bits with an OR tree, detects a negative accumulator
    from the sign bit (free), and saturates the ``out_bits`` output with
    one AND (zeroing on negative) and one OR (forcing ones on overflow)
    per output bit.
    """
    if out_bits <= 0:
        raise ValueError(f"out_bits must be positive, got {out_bits}")
    excess_bits = max(acc_bits - shift - out_bits, 0)
    or_tree = max(excess_bits - 1, 0) + (1 if excess_bits else 0)
    return {
        "OR2": float(or_tree + out_bits),
        "AND2": float(out_bits),
        "INV": 1.0,
    }


def argmax_cell_counts(num_classes: int, score_bits: int) -> Dict[str, float]:
    """Cell counts of the output argmax (class index selection) stage.

    A linear chain of ``num_classes - 1`` magnitude comparators, each
    followed by a mux that forwards the winning score and the winning
    index.  A ``score_bits``-wide comparator costs roughly one XOR, one
    AND and one OR per bit; the muxes cost ``score_bits`` plus
    ``ceil(log2(num_classes))`` MUX2 cells.
    """
    if num_classes <= 0:
        raise ValueError(f"num_classes must be positive, got {num_classes}")
    if num_classes == 1:
        return {}
    stages = num_classes - 1
    index_bits = int(np.ceil(np.log2(num_classes)))
    return {
        "XOR2": float(stages * score_bits),
        "AND2": float(stages * score_bits),
        "OR2": float(stages * score_bits),
        "MUX2": float(stages * (score_bits + index_bits)),
    }


def merge_cell_counts(*counts: Dict[str, float]) -> Dict[str, float]:
    """Sum several cell-count dictionaries."""
    merged: Dict[str, float] = {}
    for counter in counts:
        for cell, count in counter.items():
            merged[cell] = merged.get(cell, 0.0) + count
    return merged
