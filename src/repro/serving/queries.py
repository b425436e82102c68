"""Pure query-time logic over :class:`~repro.serving.store.DesignStore` records.

Everything here is a total function of plain-data records: operating-point
selection, true-Pareto-front extraction, printed-power-source feasibility
classification (including the voltage re-scaling of the Fig. 5 study) and
the plot-ready point sets of Fig. 4/Fig. 5.  The experiment builders
(:mod:`repro.experiments.table2` …) and the
:class:`~repro.serving.service.ParetoService` both call into this module,
so a figure regenerated from a warm store is cell-for-cell identical to
one produced by a full search run.

Import discipline — the point of the serving split — is strict: this
module (and everything under :mod:`repro.serving`) must never import a
trainer, a genetic operator or a synthesis engine.  The permitted
dependencies are the stdlib-only first-front sweep (:mod:`repro.core.pure`),
the printed-technology parameter tables (:mod:`repro.hardware.egfet`,
:mod:`repro.hardware.power_sources`) and the reporting/artifact helpers.
None of them imports numpy, so serving a store never loads it.
``tests/test_serving.py`` pins this with a subprocess import-graph guard.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.pure import first_front_mask
from repro.evaluation.report import reduction_factor
from repro.hardware.egfet import MIN_VOLTAGE, rescale_power_delay
from repro.hardware.power_sources import classify_power_source
from repro.serving.store import (
    DatasetRecord,
    DesignRecord,
    FrontRecord,
    ReportRecord,
    StoreError,
)

__all__ = [
    "DEFAULT_ACCURACY_LOSS",
    "nondominated_mask",
    "true_front",
    "selection_key",
    "select_design",
    "select",
    "selection_row",
    "front_rows",
    "scale_report",
    "assess_report",
    "fig5_rows",
    "fig4_rows",
    "fig4_point_rows",
    "fig5_point_rows",
    "FIG4_POINTS_DISPLAY",
    "FIG5_POINTS_DISPLAY",
    "resolve_rtl_design",
]

#: The paper's Table II accuracy-loss budget, the default for every query.
DEFAULT_ACCURACY_LOSS = 0.05


# ---------------------------------------------------------------------------
# Pareto geometry
# ---------------------------------------------------------------------------


def nondominated_mask(
    accuracies: Sequence[float], areas: Sequence[float]
) -> List[bool]:
    """Per-design flags: is the design on the true (accuracy, area) front?

    A design dominates another when it is no less accurate *and* no
    larger, and strictly better in at least one of the two — i.e. Pareto
    dominance over the minimization objectives ``(-accuracy, area)``,
    which is exactly what the first-front sweep computes.
    Ties (identical accuracy and area) never dominate each other, so
    duplicated operating points all survive, matching the scalar oracle.
    """
    if len(accuracies) != len(areas):
        raise ValueError("accuracies and areas must be equal-length sequences")
    return first_front_mask((-float(acc), area) for acc, area in zip(accuracies, areas))


def true_front(designs: Sequence) -> List:
    """Non-dominated designs, sorted by ascending area.

    Generic over anything with ``test_accuracy``/``area_cm2`` attributes
    (:class:`~repro.serving.store.DesignRecord`, the evaluation layer's
    ``EvaluatedDesign``, …).  The sort is stable, so equal-area designs
    keep their input order — bit-identical to the scalar reference
    implementation in :mod:`repro.evaluation.pareto_analysis`.
    """
    designs = list(designs)
    mask = nondominated_mask(
        [design.test_accuracy for design in designs],
        [design.area_cm2 for design in designs],
    )
    return sorted(
        (design for design, keep in zip(designs, mask) if keep),
        key=lambda design: design.area_cm2,
    )


# ---------------------------------------------------------------------------
# Operating-point selection
# ---------------------------------------------------------------------------


def selection_key(design, name: Optional[str] = None) -> Tuple[float, float, str]:
    """Deterministic preference order for the eligible-design choice.

    Smallest area first; among equal areas the more accurate design;
    among exact metric ties the lexicographically smallest stable design
    name — so selection is reproducible across runs, platforms and
    iteration orders.
    """
    if name is None:
        name = getattr(design, "name", "")
    return (design.area_cm2, -design.test_accuracy, name)


def select_design(
    designs: Sequence,
    baseline_accuracy: float,
    max_accuracy_loss: float = DEFAULT_ACCURACY_LOSS,
    names: Optional[Sequence[str]] = None,
):
    """The paper's operating point: smallest design within the budget.

    Among designs whose test accuracy stays within ``max_accuracy_loss``
    of the baseline, returns the minimum under :func:`selection_key`.
    When nothing is eligible, falls back to the most accurate design
    (ties broken by smaller area, then name); returns ``None`` only for
    an empty front.
    """
    designs = list(designs)
    if names is None:
        names = [getattr(design, "name", "") for design in designs]
    pairs = list(zip(designs, names))
    threshold = baseline_accuracy - max_accuracy_loss
    eligible = [
        (design, name) for design, name in pairs if design.test_accuracy >= threshold
    ]
    if eligible:
        return min(eligible, key=lambda pair: selection_key(pair[0], pair[1]))[0]
    if not pairs:
        return None
    return min(
        pairs,
        key=lambda pair: (-pair[0].test_accuracy, pair[0].area_cm2, pair[1]),
    )[0]


def select(
    record: Union[DatasetRecord, FrontRecord],
    max_accuracy_loss: Optional[float] = None,
) -> DesignRecord:
    """Operating point of a stored front at an accuracy-loss budget."""
    front = record.front if isinstance(record, DatasetRecord) else record
    if max_accuracy_loss is None:
        max_accuracy_loss = front.default_accuracy_loss
    selected = select_design(
        front.designs,
        baseline_accuracy=front.baseline_test_accuracy,
        max_accuracy_loss=max_accuracy_loss,
    )
    if selected is None:
        raise StoreError(f"dataset {front.dataset!r} has an empty stored front")
    return selected


def selection_row(
    record: Union[DatasetRecord, FrontRecord],
    max_accuracy_loss: Optional[float] = None,
) -> Dict:
    """The Table II style summary of one dataset's operating point.

    ``within_budget`` is ``False`` when no design meets the budget and
    the row reports :func:`select_design`'s most-accurate fallback; it
    applies the selection rule's own threshold, so it never disagrees
    with that choice.
    """
    front = record.front if isinstance(record, DatasetRecord) else record
    if max_accuracy_loss is None:
        max_accuracy_loss = front.default_accuracy_loss
    selected = select(front, max_accuracy_loss=max_accuracy_loss)
    baseline = front.baseline
    threshold = front.baseline_test_accuracy - max_accuracy_loss
    return {
        "dataset": front.dataset,
        "design": selected.name,
        "max_accuracy_loss": max_accuracy_loss,
        "accuracy": selected.test_accuracy,
        "baseline_accuracy": front.baseline_test_accuracy,
        "accuracy_loss": front.baseline_test_accuracy - selected.test_accuracy,
        "within_budget": selected.test_accuracy >= threshold,
        "area_cm2": selected.area_cm2,
        "power_mw": selected.power_mw,
        "baseline_area_cm2": baseline.area_cm2,
        "baseline_power_mw": baseline.power_mw,
        "area_reduction": reduction_factor(baseline.area_cm2, selected.area_cm2),
        "power_reduction": reduction_factor(baseline.power_mw, selected.power_mw),
        "fa_count": selected.fa_count,
    }


def front_rows(record: Union[DatasetRecord, FrontRecord]) -> List[Dict]:
    """One row per true-Pareto-front member of a stored front."""
    front = record.front if isinstance(record, DatasetRecord) else record
    rows = []
    for design in front.true_front:
        rows.append(
            {
                "dataset": front.dataset,
                "design": design.name,
                "index": design.index,
                "test_accuracy": design.test_accuracy,
                "train_accuracy": design.train_accuracy,
                "error": design.error,
                "fa_count": design.fa_count,
                "area_cm2": design.area_cm2,
                "power_mw": design.power_mw,
                "delay_ms": design.delay_ms,
                "voltage": design.voltage,
                "clock_period_ms": design.clock_period_ms,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Feasibility (Fig. 5) — voltage scaling over plain report records
# ---------------------------------------------------------------------------


def scale_report(report: ReportRecord, voltage: float) -> ReportRecord:
    """Re-evaluate a stored report at a different supply voltage.

    Area is voltage-independent; power and delay follow the EGFET
    scaling laws (:func:`~repro.hardware.egfet.rescale_power_delay`).
    This mirrors the paper's "re-synthesize at 0.6 V" step for Fig. 5:
    the circuit structure is identical, only the operating point moves.
    """
    power, delay = rescale_power_delay(
        report.power_mw, report.delay_ms, report.voltage, voltage
    )
    return ReportRecord(
        area_cm2=report.area_cm2,
        power_mw=power,
        delay_ms=delay,
        voltage=voltage,
        clock_period_ms=report.clock_period_ms,
    )


def assess_report(
    report: ReportRecord,
    design_name: str,
    voltage: Optional[float] = None,
) -> Dict:
    """Printed-power-source feasibility of one operating point, as a row dict.

    When ``voltage`` differs from the report's, the report is re-scaled
    first (:func:`scale_report`; Fig. 5 runs our designs at the minimum
    0.6 V supply), then :func:`~repro.hardware.power_sources.classify_power_source`
    picks the smallest adequate source.  Search-time callers wrap a
    synthesized :class:`~repro.hardware.synthesis.HardwareReport` with
    :meth:`ReportRecord.from_report <repro.serving.store.ReportRecord.from_report>`.
    """
    if voltage is not None and abs(voltage - report.voltage) > 1e-9:
        report = scale_report(report, voltage)
    zone = classify_power_source(power_mw=report.power_mw, area_cm2=report.area_cm2)
    return {
        "design": design_name,
        "voltage": report.voltage,
        "area_cm2": report.area_cm2,
        "power_mw": report.power_mw,
        "zone": zone.label,
        "feasible": zone.feasible,
        "self_powered": zone.self_powered,
    }


def fig5_rows(
    record: DatasetRecord,
    max_accuracy_loss: float = DEFAULT_ACCURACY_LOSS,
    approximate_voltage: float = MIN_VOLTAGE,
) -> List[Dict]:
    """Fig. 5 rows for one dataset, from its stored records alone.

    Baseline and TC'23 are assessed at the nominal 1 V (they cannot
    absorb the voltage-scaling slowdown), our selected design at both
    1 V and ``approximate_voltage`` — mirroring
    :func:`repro.experiments.fig5.build_fig5` entry for entry.
    """
    front = record.front
    entries: List[Tuple[str, ReportRecord, float]] = [
        ("baseline_micro20", front.baseline, 1.0)
    ]
    if record.tc23 is not None and record.tc23.report is not None:
        entries.append(("tc23", record.tc23.report, 1.0))
    selected = select(front, max_accuracy_loss=max_accuracy_loss)
    entries.append(("ours", selected.report, 1.0))
    entries.append(("ours_0v6", selected.report, approximate_voltage))

    rows = []
    for design_name, report, voltage in entries:
        feasibility = assess_report(report, design_name=design_name, voltage=voltage)
        rows.append({"dataset": front.dataset, **feasibility})
    return rows


# ---------------------------------------------------------------------------
# Fig. 4 — normalized comparison against the stored comparator methods
# ---------------------------------------------------------------------------


def fig4_rows(
    record: DatasetRecord, max_accuracy_loss: float = DEFAULT_ACCURACY_LOSS
) -> List[Dict]:
    """Fig. 4 rows for one dataset (ours + the stored comparators)."""
    front = record.front
    if record.methods is None:
        raise StoreError(
            f"dataset {front.dataset!r} has no published methods section "
            "(required for fig4 queries)"
        )
    base_area = front.baseline.area_cm2
    base_power = front.baseline.power_mw

    rows: List[Dict] = []

    def add_row(method: str, accuracy: float, area: float, power: float) -> None:
        rows.append(
            {
                "dataset": front.dataset,
                "method": method,
                "accuracy": accuracy,
                "area_cm2": area,
                "power_mw": power,
                "norm_area": area / base_area if base_area else float("nan"),
                "norm_power": power / base_power if base_power else float("nan"),
                "area_reduction": reduction_factor(base_area, area),
                "power_reduction": reduction_factor(base_power, power),
            }
        )

    selected = select(front, max_accuracy_loss=max_accuracy_loss)
    add_row("ours", selected.test_accuracy, selected.area_cm2, selected.power_mw)
    for method in record.methods.methods:
        add_row(method.method, method.accuracy, method.area_cm2, method.power_mw)
    return rows


# ---------------------------------------------------------------------------
# Plot-ready point sets
# ---------------------------------------------------------------------------

#: (header, row key) pairs of the fig4 point-set artifact.
FIG4_POINTS_DISPLAY = (
    ("MLP", "dataset"),
    ("Method", "method"),
    ("Acc", "accuracy"),
    ("Norm. Area", "norm_area"),
    ("Norm. Power", "norm_power"),
)

#: (header, row key) pairs of the fig5 point-set artifact.
FIG5_POINTS_DISPLAY = (
    ("MLP", "dataset"),
    ("Design", "design"),
    ("V", "voltage"),
    ("Area(cm2)", "area_cm2"),
    ("Power(mW)", "power_mw"),
    ("Zone", "zone"),
)

_FIG4_POINT_KEYS = ("dataset", "method", "accuracy", "norm_area", "norm_power")
_FIG5_POINT_KEYS = (
    "dataset",
    "design",
    "voltage",
    "area_cm2",
    "power_mw",
    "zone",
    "feasible",
)


def fig4_point_rows(rows: Sequence[Dict]) -> List[Dict]:
    """Plot-ready projection of fig4 rows (the log-axis scatter points)."""
    return [{key: row[key] for key in _FIG4_POINT_KEYS} for row in rows]


def fig5_point_rows(rows: Sequence[Dict]) -> List[Dict]:
    """Plot-ready projection of fig5 rows (the feasibility-plane points)."""
    return [{key: row[key] for key in _FIG5_POINT_KEYS} for row in rows]


# ---------------------------------------------------------------------------
# RTL retrieval
# ---------------------------------------------------------------------------


def resolve_rtl_design(
    record: DatasetRecord,
    design: Optional[str] = None,
    max_accuracy_loss: Optional[float] = None,
) -> str:
    """Which design's RTL a query refers to.

    ``design=None`` means "the selected operating point" (at the given
    or default budget); otherwise the name must belong to the stored
    front.  Raises :class:`StoreError` when no RTL was published for it.
    """
    if design is None:
        design = select(record, max_accuracy_loss=max_accuracy_loss).name
    else:
        record.front.design(design)  # validates the name
    if design not in record.rtl_designs:
        raise StoreError(
            f"dataset {record.dataset!r} has no published RTL for design "
            f"{design!r} (published: {list(record.rtl_designs)})"
        )
    return design
