"""Hardware analysis: turn an MLP into area / power / delay numbers.

This is the reproduction's stand-in for the paper's "Synthesis & Power
Evaluation" box (Fig. 2): Synopsys Design Compiler + PrimeTime mapped to
the printed EGFET library.  The model is gate-level analytical —

* adder trees are costed with the Full/Half-Adder counter
  (:mod:`repro.hardware.adder_tree` / :mod:`repro.hardware.area`),
* sign handling, QReLU saturation and the output argmax are costed
  with small per-cell count formulas,
* cell counts are priced with the EGFET library
  (:mod:`repro.hardware.egfet`), which also provides the supply-voltage
  scaling used in the Fig. 5 feasibility study.

Both the exact bespoke baseline and the approximate MLPs go through the
same flow, so reduction factors depend only on circuit structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.approx.mlp import ApproximateMLP
from repro.approx.masks import mask_popcount
from repro.hardware.adder_tree import layer_adder_cost
from repro.hardware.area import (
    argmax_cell_counts,
    exact_neuron_adder_cost,
    merge_cell_counts,
    qrelu_cell_counts,
)
from repro.hardware.egfet import EGFETLibrary, default_egfet_library

__all__ = [
    "HardwareReport",
    "synthesize_approximate_mlp",
    "synthesize_exact_mlp",
]

#: Default clock period used for all MLPs except Pendigits (ms), Section V-A.
DEFAULT_CLOCK_PERIOD_MS = 200.0


@dataclass(frozen=True)
class HardwareReport:
    """Result of the hardware analysis of one MLP circuit.

    Attributes
    ----------
    area_cm2:
        Total printed area in cm².
    power_mw:
        Total power draw in mW at ``voltage``.
    delay_ms:
        Estimated critical-path delay in ms at ``voltage``.
    voltage:
        Supply voltage used for the power/delay numbers (V).
    clock_period_ms:
        Target clock period (one inference per cycle in the bespoke
        combinational design).
    cell_counts:
        Number of instances per standard cell.
    area_breakdown:
        Area per structural component (adder trees, multipliers folded
        into the trees, QReLU, argmax, sign inverters).
    """

    area_cm2: float
    power_mw: float
    delay_ms: float
    voltage: float
    clock_period_ms: float
    cell_counts: Dict[str, float] = field(default_factory=dict)
    area_breakdown: Dict[str, float] = field(default_factory=dict)


def _price(
    cell_counts: Dict[str, float],
    library: EGFETLibrary,
    voltage: float,
) -> tuple[float, float]:
    """Total (area_cm2, power_mw) of a bag of cells."""
    area = 0.0
    power = 0.0
    for cell, count in cell_counts.items():
        area += library.area(cell, count)
        power += library.power(cell, count, voltage=voltage)
    return area, power


def _breakdown_area(counts: Dict[str, float], library: EGFETLibrary) -> float:
    return sum(library.area(cell, count) for cell, count in counts.items())


def synthesize_approximate_mlp(
    mlp: ApproximateMLP,
    voltage: float = 1.0,
    clock_period_ms: Optional[float] = None,
    slow: bool = False,
) -> HardwareReport:
    """Hardware analysis of a hardware-approximated MLP circuit.

    ``clock_period_ms=None`` falls back to :data:`DEFAULT_CLOCK_PERIOD_MS`;
    dataset-aware callers should pass the registry's per-dataset period
    (``get_spec(name).clock_period_ms`` — Pendigits is clocked at 250 ms,
    not the 200 ms default).

    By default this delegates to the vectorized engine in
    :mod:`repro.hardware.fast_synthesis`; ``slow=True`` runs the original
    scalar walk below, which is retained as the reference oracle for the
    equivalence tests.
    """
    if clock_period_ms is None:
        clock_period_ms = DEFAULT_CLOCK_PERIOD_MS
    if not slow:
        from repro.hardware.fast_synthesis import synthesize_approximate_population

        return synthesize_approximate_population(
            [mlp], voltage=voltage, clock_period_ms=clock_period_ms
        )[0]
    library = default_egfet_library()
    total_counts: Dict[str, float] = {}
    breakdown: Dict[str, float] = {}
    critical_path_ms = 0.0

    num_layers = len(mlp.layers)
    for layer_index, layer in enumerate(mlp.layers):
        is_output = layer_index == num_layers - 1

        # Multi-operand adder trees (the dominant structure).
        adder_cost = layer_adder_cost(layer, use_half_adders=True, include_final_cpa=True)
        adder_counts = {
            "FA": float(adder_cost.total_full_adders),
            "HA": float(adder_cost.half_adders),
        }

        # NOT gates for negative-sign summands: one inverter per retained
        # bit of every negative-sign connection.
        negative = layer.signs < 0
        inverted_bits = int(mask_popcount(np.where(negative, layer.masks, 0)).sum())
        sign_counts = {"INV": float(inverted_bits)}

        # Activation logic.
        activation_counts: Dict[str, float] = {}
        max_acc = int(np.max(np.abs(np.concatenate([
            layer.max_accumulators(), layer.min_accumulators()
        ]))) or 1)
        acc_bits = int(np.ceil(np.log2(max_acc + 1))) + 1
        if not is_output:
            shift = layer.activation.shift if layer.activation is not None else 0
            out_bits = layer.activation.out_bits if layer.activation is not None else 8
            per_neuron = qrelu_cell_counts(acc_bits, shift, out_bits)
            activation_counts = {
                cell: count * layer.fan_out for cell, count in per_neuron.items()
            }
        else:
            activation_counts = argmax_cell_counts(layer.fan_out, acc_bits)

        layer_counts = merge_cell_counts(adder_counts, sign_counts, activation_counts)
        total_counts = merge_cell_counts(total_counts, layer_counts)
        breakdown[f"layer{layer_index}_adders"] = _breakdown_area(adder_counts, library)
        breakdown[f"layer{layer_index}_signs"] = _breakdown_area(sign_counts, library)
        breakdown[f"layer{layer_index}_activation"] = _breakdown_area(
            activation_counts, library
        )

        # Critical path: reduction stages + final CPA ripple + activation.
        cpa_length = max(adder_cost.cpa_full_adders // max(layer.fan_out, 1), 1)
        critical_path_ms += (
            adder_cost.reduction_stages * library.delay("FA", voltage=voltage)
            + cpa_length * library.delay("FA", voltage=voltage)
            + 2 * library.delay("OR2", voltage=voltage)
        )

    area, power = _price(total_counts, library, voltage)
    return HardwareReport(
        area_cm2=area,
        power_mw=power,
        delay_ms=critical_path_ms,
        voltage=voltage,
        clock_period_ms=clock_period_ms,
        cell_counts=total_counts,
        area_breakdown=breakdown,
    )


def synthesize_exact_mlp(
    weight_codes: Sequence[np.ndarray],
    bias_codes: Sequence[np.ndarray],
    input_bits_per_layer: Sequence[int],
    activation_bits: int = 8,
    activation_shifts: Optional[Sequence[int]] = None,
    voltage: float = 1.0,
    clock_period_ms: Optional[float] = None,
    slow: bool = False,
) -> HardwareReport:
    """Hardware analysis of an exact bespoke baseline MLP circuit.

    Like :func:`synthesize_approximate_mlp`, the default path delegates
    to the vectorized engine (``slow=True`` keeps the scalar oracle) and
    ``clock_period_ms=None`` falls back to :data:`DEFAULT_CLOCK_PERIOD_MS`.

    Parameters
    ----------
    weight_codes:
        One integer array of shape ``(fan_in, fan_out)`` per layer; the
        hard-wired fixed-point weight codes.
    bias_codes:
        One integer array of shape ``(fan_out,)`` per layer, in the
        accumulator scale.
    input_bits_per_layer:
        Bit-width of the activations feeding each layer (4 for the first,
        8 for the rest in the paper's setup).
    activation_shifts:
        Right shift of each hidden layer's QReLU (defaults to a
        worst-case-derived value when omitted).
    """
    if clock_period_ms is None:
        clock_period_ms = DEFAULT_CLOCK_PERIOD_MS
    if not slow:
        from repro.hardware.fast_synthesis import synthesize_exact_population

        job = {
            "weight_codes": weight_codes,
            "bias_codes": bias_codes,
            "input_bits_per_layer": input_bits_per_layer,
            "activation_bits": activation_bits,
            "activation_shifts": activation_shifts,
        }
        return synthesize_exact_population(
            [job], voltage=voltage, clock_period_ms=clock_period_ms
        )[0]
    library = default_egfet_library()
    num_layers = len(weight_codes)
    if not (len(bias_codes) == len(input_bits_per_layer) == num_layers):
        raise ValueError("weight_codes, bias_codes and input_bits_per_layer must align")

    total_counts: Dict[str, float] = {}
    breakdown: Dict[str, float] = {}
    critical_path_ms = 0.0

    for layer_index in range(num_layers):
        codes = np.asarray(weight_codes[layer_index], dtype=np.int64)
        biases = np.asarray(bias_codes[layer_index], dtype=np.int64)
        in_bits = int(input_bits_per_layer[layer_index])
        fan_in, fan_out = codes.shape
        is_output = layer_index == num_layers - 1

        adder_counts = {"FA": 0.0, "HA": 0.0}
        inverter_bits = 0
        max_stage = 0
        max_cpa = 1
        acc_bits_layer = 1
        for j in range(fan_out):
            cost = exact_neuron_adder_cost(
                weight_codes=codes[:, j].tolist(),
                input_bits=in_bits,
                bias_code=int(biases[j]),
                use_half_adders=True,
                include_final_cpa=True,
            )
            adder_counts["FA"] += cost.total_full_adders
            adder_counts["HA"] += cost.half_adders
            max_stage = max(max_stage, cost.reduction_stages)
            max_cpa = max(max_cpa, cost.cpa_full_adders)
            # Negative CSD digits need NOT-gated partial products.
            from repro.hardware.area import csd_encode  # local to avoid cycle at import

            for code in codes[:, j].tolist():
                inverter_bits += in_bits * sum(1 for _, d in csd_encode(code) if d < 0)
            worst_acc = int((np.abs(codes[:, j]) * ((1 << in_bits) - 1)).sum() + abs(int(biases[j])))
            acc_bits_layer = max(acc_bits_layer, int(np.ceil(np.log2(worst_acc + 1))) + 1)

        sign_counts = {"INV": float(inverter_bits)}

        if not is_output:
            shift = (
                int(activation_shifts[layer_index])
                if activation_shifts is not None
                else max(acc_bits_layer - activation_bits, 0)
            )
            per_neuron = qrelu_cell_counts(acc_bits_layer, shift, activation_bits)
            activation_counts = {cell: count * fan_out for cell, count in per_neuron.items()}
        else:
            activation_counts = argmax_cell_counts(fan_out, acc_bits_layer)

        layer_counts = merge_cell_counts(adder_counts, sign_counts, activation_counts)
        total_counts = merge_cell_counts(total_counts, layer_counts)
        breakdown[f"layer{layer_index}_mac_adders"] = _breakdown_area(adder_counts, library)
        breakdown[f"layer{layer_index}_signs"] = _breakdown_area(sign_counts, library)
        breakdown[f"layer{layer_index}_activation"] = _breakdown_area(
            activation_counts, library
        )
        critical_path_ms += (
            max_stage * library.delay("FA", voltage=voltage)
            + max(max_cpa // max(fan_out, 1), 1) * library.delay("FA", voltage=voltage)
            + 2 * library.delay("OR2", voltage=voltage)
        )

    area, power = _price(total_counts, library, voltage)
    return HardwareReport(
        area_cm2=area,
        power_mw=power,
        delay_ms=critical_path_ms,
        voltage=voltage,
        clock_period_ms=clock_period_ms,
        cell_counts=total_counts,
        area_breakdown=breakdown,
    )
