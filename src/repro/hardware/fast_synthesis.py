"""Population-batched hardware synthesis engine.

The scalar analyzers in :mod:`repro.hardware.synthesis` walk one MLP at
a time: every neuron's adder tree is reduced with a Python column loop,
which is fine for a single report but dominates end-to-end runtime once
the estimated Pareto front (hundreds of members) and the baseline design
sweeps (TC'23 / VOS grids) have to be synthesized.  This module computes
the same :class:`~repro.hardware.synthesis.HardwareReport` values for a
whole population in one pass:

* every neuron of every candidate (and, for the approximate path, every
  layer position) contributes one column of a single histogram matrix,
  built by :func:`~repro.hardware.fast_area.population_layer_column_counts`
  (an exact weight enters it as one summand per CSD digit),
* one shared Half-Adder-aware 3:2 reduction sweep
  (:func:`~repro.hardware.fast_area.reduce_columns_adder_costs`, the
  same kernel that counts the GA's FAs) yields per-neuron FA / HA /
  CPA / stage counts, and
* cell counting, EGFET pricing and critical-path accumulation are numpy
  reductions that replicate the scalar code's float operation order, so
  the reports are **bit-identical** to the scalar oracle
  (``synthesize_approximate_mlp(..., slow=True)`` /
  ``synthesize_exact_mlp(..., slow=True)``), which the randomized suite
  in ``tests/test_fast_synthesis.py`` asserts.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.approx.layer import accumulator_bounds
from repro.approx.masks import mask_popcount
from repro.approx.mlp import Population, PopulationParameters, stack_parameters
from repro.hardware.area import (
    argmax_cell_counts,
    merge_cell_counts,
    qrelu_cell_counts,
)
from repro.hardware.egfet import EGFETLibrary, default_egfet_library
from repro.hardware.fast_area import (
    population_layer_column_counts,
    reduce_columns_adder_costs,
)
from repro.hardware.synthesis import (
    DEFAULT_CLOCK_PERIOD_MS,
    HardwareReport,
    _breakdown_area,
    _price,
)

__all__ = [
    "synthesize_approximate_population",
    "synthesize_exact_population",
]


def _pad_and_concat(blocks: Sequence[np.ndarray]) -> Tuple[np.ndarray, List[int]]:
    """Stack count matrices of different widths into one reduction batch."""
    max_width = max(block.shape[0] for block in blocks)
    merged = np.concatenate(
        [
            np.pad(block, ((0, max_width - block.shape[0]), (0, 0)))
            for block in blocks
        ],
        axis=1,
    )
    offsets = np.cumsum([0] + [block.shape[1] for block in blocks]).tolist()
    return merged, offsets


# ----------------------------------------------------------------------
# Vectorized cell-count / pricing helpers
# ----------------------------------------------------------------------
# Cell counting reuses merge_cell_counts verbatim: its scalar
# ``merged.get(cell, 0.0) + count`` accumulation is exact for
# integer-valued float64 arrays as well, and using the same function
# guarantees the same key insertion order as the scalar analyzers.


def _breakdown_area_vec(
    counts: Mapping[str, np.ndarray], library: EGFETLibrary, population: int
) -> np.ndarray:
    total: Union[float, np.ndarray] = np.zeros(population, dtype=np.float64)
    for cell, count in counts.items():
        total = total + library.cell(cell).area_cm2 * count
    return np.asarray(total, dtype=np.float64)


def _price_vec(
    counts: Mapping[str, np.ndarray],
    library: EGFETLibrary,
    voltage: float,
    population: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`repro.hardware.synthesis._price` (same op order)."""
    area = np.zeros(population, dtype=np.float64)
    power = np.zeros(population, dtype=np.float64)
    factor = library.voltage_power_factor(voltage)
    for cell, count in counts.items():
        spec = library.cell(cell)
        area = area + spec.area_cm2 * count
        power = power + (spec.power_mw * count) * factor
    return area, power


# ----------------------------------------------------------------------
# Approximate MLPs (population-batched)
# ----------------------------------------------------------------------
def synthesize_approximate_population(
    population: Population,
    voltage: float = 1.0,
    clock_period_ms: Optional[float] = None,
) -> List[HardwareReport]:
    """Hardware analysis of a homogeneous population in one pass.

    ``population`` is a model list or stacked :class:`PopulationParameters`
    (as :meth:`~repro.core.chromosome.ChromosomeLayout.population_parameters`
    returns).  Returns one report per candidate, bit-identical to calling
    ``synthesize_approximate_mlp(mlp, ..., slow=True)`` on each model.
    """
    if clock_period_ms is None:
        clock_period_ms = DEFAULT_CLOCK_PERIOD_MS
    if not isinstance(population, PopulationParameters):
        if not population:
            return []
        population = stack_parameters(population)
    library = default_egfet_library()
    size = len(population.shifts)
    num_layers = len(population.masks)

    # One column-histogram block per layer position, one shared reduction
    # sweep for every adder tree of every candidate.
    merged, offsets = _pad_and_concat(
        [
            population_layer_column_counts(masks, exponents, biases, input_bits)
            for masks, exponents, biases, input_bits in zip(
                population.masks,
                population.exponents,
                population.biases,
                population.input_bits,
            )
        ]
    )
    fa_all, ha_all, cpa_all, stages_all = reduce_columns_adder_costs(
        merged, use_half_adders=True, include_final_cpa=True
    )

    delay_fa = library.delay("FA", voltage=voltage)
    delay_or2 = library.delay("OR2", voltage=voltage)
    totals: Dict[str, np.ndarray] = {}
    breakdown: Dict[str, np.ndarray] = {}
    critical = np.zeros(size, dtype=np.float64)

    for layer_index, (masks, signs, exponents, biases) in enumerate(
        zip(population.masks, population.signs, population.exponents, population.biases)
    ):
        fan_out = masks.shape[2]
        is_output = layer_index == num_layers - 1
        lo, hi = offsets[layer_index], offsets[layer_index + 1]
        layer_fa = fa_all[lo:hi].reshape(size, fan_out)
        layer_ha = ha_all[lo:hi].reshape(size, fan_out)
        layer_cpa = cpa_all[lo:hi].reshape(size, fan_out)
        layer_stages = stages_all[lo:hi].reshape(size, fan_out)

        adder_counts = {
            "FA": (layer_fa + layer_cpa).sum(axis=1).astype(np.float64),
            "HA": layer_ha.sum(axis=1).astype(np.float64),
        }
        inverted = (
            mask_popcount(np.where(signs < 0, masks, 0))
            .reshape(size, -1)
            .sum(axis=1)
        )
        sign_counts = {"INV": inverted.astype(np.float64)}

        # Per-candidate accumulator width (same formula as the scalar
        # path via the layer's accumulator bounds).
        low, high = accumulator_bounds(masks, signs, exponents, biases)
        span = np.maximum(
            np.maximum(np.abs(low), np.abs(high)).max(axis=1), 1
        )
        acc_bits = (np.ceil(np.log2(span + 1)) + 1).astype(np.int64)

        activation_counts: Dict[str, np.ndarray]
        if not is_output:
            shifts = population.shifts[:, layer_index]
            out_bits = np.full(size, population.activation_bits, dtype=np.int64)
            excess = np.maximum(acc_bits - shifts - out_bits, 0)
            or_tree = np.maximum(excess - 1, 0) + (excess > 0)
            activation_counts = {
                "OR2": (or_tree + out_bits).astype(np.float64) * fan_out,
                "AND2": out_bits.astype(np.float64) * fan_out,
                "INV": np.full(size, float(fan_out)),
            }
        elif fan_out == 1:
            activation_counts = {}
        else:
            comparator_stages = fan_out - 1
            index_bits = int(np.ceil(np.log2(fan_out)))
            score = comparator_stages * acc_bits
            activation_counts = {
                "XOR2": score.astype(np.float64),
                "AND2": score.astype(np.float64),
                "OR2": score.astype(np.float64),
                "MUX2": (comparator_stages * (acc_bits + index_bits)).astype(
                    np.float64
                ),
            }

        layer_counts = merge_cell_counts(adder_counts, sign_counts, activation_counts)
        totals = merge_cell_counts(totals, layer_counts)
        breakdown[f"layer{layer_index}_adders"] = _breakdown_area_vec(
            adder_counts, library, size
        )
        breakdown[f"layer{layer_index}_signs"] = _breakdown_area_vec(
            sign_counts, library, size
        )
        breakdown[f"layer{layer_index}_activation"] = _breakdown_area_vec(
            activation_counts, library, size
        )

        cpa_length = np.maximum(layer_cpa.sum(axis=1) // max(fan_out, 1), 1)
        critical += (
            layer_stages.max(axis=1) * delay_fa
            + cpa_length * delay_fa
            + 2 * delay_or2
        )

    area, power = _price_vec(totals, library, voltage, size)
    reports: List[HardwareReport] = []
    for index in range(size):
        reports.append(
            HardwareReport(
                area_cm2=float(area[index]),
                power_mw=float(power[index]),
                delay_ms=float(critical[index]),
                voltage=voltage,
                clock_period_ms=clock_period_ms,
                cell_counts={
                    cell: float(count[index]) for cell, count in totals.items()
                },
                area_breakdown={
                    component: float(values[index])
                    for component, values in breakdown.items()
                },
            )
        )
    return reports


# ----------------------------------------------------------------------
# Exact bespoke MLPs (population-batched, heterogeneous jobs)
# ----------------------------------------------------------------------
def _exact_layer_columns(
    codes: np.ndarray, biases: np.ndarray, in_bits: int
) -> Tuple[np.ndarray, int]:
    """Column histograms of every neuron of one exact layer.

    Returns ``(columns, inverter_bits)`` where ``columns`` has shape
    ``(width, fan_out)`` and ``inverter_bits`` is the layer's NOT-gate
    bit total (``in_bits`` per negative CSD digit, summed over weights).
    Every weight's CSD digits come at once from the non-adjacent-form
    identity (NAF is unique, so they sit where
    :func:`~repro.hardware.area.csd_encode` puts them): with
    ``h = |c| >> 1`` and ``t = |c| + h``, ``t & (h ^ t)`` holds the
    digits of the sign of ``c`` and ``h & (h ^ t)`` the opposite ones.
    A digit at position ``p`` is one full-mask summand of exponent ``p``
    for :func:`~repro.hardware.fast_area.population_layer_column_counts`.
    """
    fan_out = codes.shape[1]
    half = np.abs(codes) >> 1
    total = np.abs(codes) + half
    carry = half ^ total
    plus, minus = total & carry, half & carry
    negative = np.where(codes < 0, plus, minus)
    inverter_bits = in_bits * int(mask_popcount(negative).sum())

    digits = plus | minus
    slots = np.arange(int(digits.max(initial=0)).bit_length(), dtype=np.int64)
    # One summand per (digit slot, weight); an absent digit adds no bit.
    present = (digits[None, :, :] >> slots[:, None, None]) & 1
    masks = (present * ((1 << in_bits) - 1)).reshape(1, -1, fan_out)
    exponents = np.repeat(slots, codes.size).reshape(1, -1, fan_out)
    columns = population_layer_column_counts(
        masks, exponents, biases[None, :], in_bits
    )
    return columns, inverter_bits


def synthesize_exact_population(
    jobs: Sequence[Mapping[str, object]],
    voltage: Union[float, Sequence[float]] = 1.0,
    clock_period_ms: Optional[float] = None,
) -> List[HardwareReport]:
    """Hardware analysis of many exact bespoke MLPs in one pass.

    Each job is a mapping with the per-model arguments of
    :func:`repro.hardware.synthesis.synthesize_exact_mlp`:
    ``weight_codes``, ``bias_codes``, ``input_bits_per_layer`` and
    optionally ``activation_bits`` (default 8) and ``activation_shifts``.
    Jobs may be heterogeneous (different topologies / bit-widths — the
    TC'23 and VOS design-space sweeps), and ``voltage`` may be a single
    supply or one value per job (the VOS over-scaling grid).  All adder
    trees of all jobs share one 3:2 reduction sweep.
    """
    if clock_period_ms is None:
        clock_period_ms = DEFAULT_CLOCK_PERIOD_MS
    jobs = list(jobs)
    if not jobs:
        return []
    library = default_egfet_library()
    if np.isscalar(voltage):
        voltages = [float(voltage)] * len(jobs)
    else:
        voltages = [float(v) for v in voltage]
        if len(voltages) != len(jobs):
            raise ValueError("one voltage per job is required")

    # Phase 1: column histograms of every neuron of every layer of every
    # job, gathered into one reduction batch.
    prepared = []
    blocks: List[np.ndarray] = []
    for job in jobs:
        weight_codes = [np.asarray(w, dtype=np.int64) for w in job["weight_codes"]]
        bias_codes = [np.asarray(b, dtype=np.int64) for b in job["bias_codes"]]
        input_bits_per_layer = [int(b) for b in job["input_bits_per_layer"]]
        if not (
            len(bias_codes) == len(input_bits_per_layer) == len(weight_codes)
        ):
            raise ValueError(
                "weight_codes, bias_codes and input_bits_per_layer must align"
            )
        layer_meta = []
        for codes, biases, in_bits in zip(
            weight_codes, bias_codes, input_bits_per_layer
        ):
            columns, inverter_bits = _exact_layer_columns(codes, biases, in_bits)
            blocks.append(columns)
            layer_meta.append((codes, biases, in_bits, inverter_bits))
        prepared.append(
            (
                layer_meta,
                int(job.get("activation_bits", 8)),
                job.get("activation_shifts"),
            )
        )
    merged, offsets = _pad_and_concat(blocks)
    fa_all, ha_all, cpa_all, stages_all = reduce_columns_adder_costs(
        merged, use_half_adders=True, include_final_cpa=True
    )

    # Phase 2: per-job cell counting, pricing and critical path — the
    # same (cheap) scalar assembly as the reference implementation, fed
    # with the batched per-neuron adder costs.
    reports: List[HardwareReport] = []
    block_index = 0
    for (layer_meta, activation_bits, activation_shifts), job_voltage in zip(
        prepared, voltages
    ):
        num_layers = len(layer_meta)
        total_counts: Dict[str, float] = {}
        area_breakdown: Dict[str, float] = {}
        critical_path_ms = 0.0
        for layer_index, (codes, biases, in_bits, inverter_bits) in enumerate(
            layer_meta
        ):
            fan_in, fan_out = codes.shape
            is_output = layer_index == num_layers - 1
            lo, hi = offsets[block_index], offsets[block_index + 1]
            block_index += 1
            neuron_fa = fa_all[lo:hi]
            neuron_ha = ha_all[lo:hi]
            neuron_cpa = cpa_all[lo:hi]
            neuron_stages = stages_all[lo:hi]

            adder_counts = {
                "FA": float((neuron_fa + neuron_cpa).sum()),
                "HA": float(neuron_ha.sum()),
            }
            sign_counts = {"INV": float(inverter_bits)}
            max_stage = int(neuron_stages.max(initial=0))
            max_cpa = max(int(neuron_cpa.max(initial=1)), 1)
            worst_acc = (
                np.abs(codes) * ((1 << in_bits) - 1)
            ).sum(axis=0) + np.abs(biases)
            acc_bits_layer = int(
                max(
                    (np.ceil(np.log2(worst_acc + 1)).astype(np.int64) + 1).max(
                        initial=1
                    ),
                    1,
                )
            )

            if not is_output:
                shift = (
                    int(activation_shifts[layer_index])
                    if activation_shifts is not None
                    else max(acc_bits_layer - activation_bits, 0)
                )
                per_neuron = qrelu_cell_counts(acc_bits_layer, shift, activation_bits)
                activation_counts = {
                    cell: count * fan_out for cell, count in per_neuron.items()
                }
            else:
                activation_counts = argmax_cell_counts(fan_out, acc_bits_layer)

            layer_counts = merge_cell_counts(
                adder_counts, sign_counts, activation_counts
            )
            total_counts = merge_cell_counts(total_counts, layer_counts)
            area_breakdown[f"layer{layer_index}_mac_adders"] = _breakdown_area(
                adder_counts, library
            )
            area_breakdown[f"layer{layer_index}_signs"] = _breakdown_area(
                sign_counts, library
            )
            area_breakdown[f"layer{layer_index}_activation"] = _breakdown_area(
                activation_counts, library
            )
            critical_path_ms += (
                max_stage * library.delay("FA", voltage=job_voltage)
                + max(max_cpa // max(fan_out, 1), 1)
                * library.delay("FA", voltage=job_voltage)
                + 2 * library.delay("OR2", voltage=job_voltage)
            )

        area, power = _price(total_counts, library, job_voltage)
        reports.append(
            HardwareReport(
                area_cm2=area,
                power_mw=power,
                delay_ms=critical_path_ms,
                voltage=job_voltage,
                clock_period_ms=clock_period_ms,
                cell_counts=total_counts,
                area_breakdown=area_breakdown,
            )
        )
    return reports
