"""Hardware analysis of the estimated Pareto front (Fig. 2, right half).

The GA returns an *estimated* Pareto front whose area objective is the
Full-Adder count.  The paper then synthesizes every member, measures the
true area/power with EDA tools, and extracts the *true* Pareto-optimal
circuits.  This module performs the equivalent step with the analytical
synthesis model: it evaluates every front member's test accuracy and
hardware report, then returns the non-dominated (accuracy vs area) set.

The front is processed population-batched, straight from its genomes:
the members' ``(n, genes)`` matrix maps to stacked parameters through
:meth:`~repro.core.chromosome.ChromosomeLayout.population_parameters`
(the GA's fitness path), and those parameters feed one batched forward
pass (:func:`repro.approx.mlp.accuracy_population`) for every member's
test accuracy and one
:func:`~repro.hardware.fast_synthesis.synthesize_approximate_population`
call for every member's hardware report; no model is decoded.  When the
GA's shared :class:`~repro.core.cache.EvaluationCache` is passed along,
test accuracies and reports are reused across pipeline stages, so a
report is synthesized at most once per operating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.approx.mlp import accuracy_population
from repro.core.cache import EvaluationCache
from repro.core.pareto import ParetoPoint
from repro.core.trainer import GAResult
from repro.hardware.synthesis import (
    DEFAULT_CLOCK_PERIOD_MS,
    HardwareReport,
    synthesize_approximate_mlp,
)
from repro.serving import queries

__all__ = [
    "EvaluatedDesign",
    "evaluate_front",
    "true_pareto_front",
    "select_design",
    "design_sort_name",
]


@dataclass(frozen=True)
class EvaluatedDesign:
    """A Pareto-front member after hardware analysis."""

    point: ParetoPoint
    test_accuracy: float
    report: HardwareReport

    @property
    def area_cm2(self) -> float:
        """Synthesized area."""
        return self.report.area_cm2

    @property
    def power_mw(self) -> float:
        """Synthesized power."""
        return self.report.power_mw


def evaluate_front(
    result: GAResult,
    test_inputs: np.ndarray,
    test_labels: np.ndarray,
    clock_period_ms: Optional[float] = None,
    max_designs: Optional[int] = None,
    cache: Optional[EvaluationCache] = None,
    slow: bool = False,
) -> List[EvaluatedDesign]:
    """Synthesize and test every member of the estimated Pareto front.

    Every report is priced at the nominal 1 V supply.

    Parameters
    ----------
    clock_period_ms:
        Target clock period; pass the dataset's registry value
        (``get_spec(name).clock_period_ms``).  ``None`` falls back to
        the 200 ms default.
    max_designs:
        Optional cap on how many front members to synthesize (front
        members are taken in ascending-area order), useful in CI runs.
    cache:
        Optional shared evaluation cache (typically the one the GA stage
        populated); test accuracies and hardware reports are read from
        and written back to it.
    slow:
        Use the scalar per-model reference path (decode + forward +
        synthesize one member at a time); retained as the oracle for the
        batching equivalence tests.
    """
    if clock_period_ms is None:
        clock_period_ms = DEFAULT_CLOCK_PERIOD_MS
    front = result.estimated_front
    if max_designs is not None:
        front = front[:max_designs]
    if not front:
        return []

    if slow:
        designs: List[EvaluatedDesign] = []
        for point in front:
            mlp = result.decode(point)
            accuracy = mlp.accuracy(test_inputs, test_labels)
            report = synthesize_approximate_mlp(
                mlp, clock_period_ms=clock_period_ms, slow=True
            )
            designs.append(
                EvaluatedDesign(point=point, test_accuracy=accuracy, report=report)
            )
        return designs

    from repro.hardware.fast_synthesis import synthesize_approximate_population

    # One (n, genes) genome matrix for the capped front; its rows are the
    # cache keys (with the layout identity, as the fitness evaluator
    # stores them) and map to stacked parameters without decoding models.
    if any(point.payload is None for point in front):
        raise ValueError("Pareto point carries no chromosome payload")
    genomes = np.stack([np.asarray(point.payload, dtype=np.int64) for point in front])
    keys: List[Optional[tuple]] = [None] * len(front)
    if cache is not None:
        layout_key = EvaluationCache.layout_key(result.layout)
        keys = [(layout_key, EvaluationCache.genome_key(row)) for row in genomes]
    stacked_rows: Optional[List[int]] = None
    params = None

    # Test accuracy: one batched forward pass over the members whose
    # accuracy is not already cached for this split.
    accuracies: List[Optional[float]] = [None] * len(front)
    if cache is not None:
        split = EvaluationCache.split_fingerprint(test_inputs, test_labels)
        accuracies = [cache.accuracy.get((key, split)) for key in keys]
    missing = [index for index, value in enumerate(accuracies) if value is None]
    if missing:
        stacked_rows, params = missing, result.layout.population_parameters(genomes[missing])
        fresh = accuracy_population(params, test_inputs, test_labels)
        for index, accuracy in zip(missing, fresh.tolist()):
            accuracies[index] = float(accuracy)
            if cache is not None:
                cache.accuracy.put((keys[index], split), float(accuracy))

    # Hardware reports: one batched synthesis pass over the members
    # without a cached report at this clock period, from the same
    # parameter stack when the same members missed.
    reports: List[Optional[HardwareReport]] = [None] * len(front)
    if cache is not None:
        reports = [
            cache.reports.get(EvaluationCache.report_key(key, clock_period_ms))
            for key in keys
        ]
    missing = [index for index, report in enumerate(reports) if report is None]
    if missing:
        if missing != stacked_rows:
            params = result.layout.population_parameters(genomes[missing])
        fresh_reports = synthesize_approximate_population(
            params, clock_period_ms=clock_period_ms
        )
        for index, report in zip(missing, fresh_reports):
            reports[index] = report
            if cache is not None:
                cache.reports.put(
                    EvaluationCache.report_key(keys[index], clock_period_ms), report
                )

    return [
        EvaluatedDesign(point=point, test_accuracy=accuracy, report=report)
        for point, accuracy, report in zip(front, accuracies, reports)
    ]


def true_pareto_front(
    designs: Sequence[EvaluatedDesign], slow: bool = False
) -> List[EvaluatedDesign]:
    """Non-dominated designs in the (accuracy, synthesized area) plane.

    The fast path is the sort-and-sweep shared with the serving layer
    (:func:`repro.serving.queries.true_front` — dominance in this plane
    is Pareto dominance over the minimization objectives
    ``(-accuracy, area)``, computed by
    :func:`repro.core.pure.first_front_mask`).  ``slow=True``
    keeps the scalar O(n²) reference walk as the bit-identical oracle
    for the equivalence tests.
    """
    if not slow:
        return queries.true_front(designs)
    kept: List[EvaluatedDesign] = []
    for candidate in designs:
        dominated = False
        for other in designs:
            if other is candidate:
                continue
            better_or_equal = (
                other.test_accuracy >= candidate.test_accuracy
                and other.area_cm2 <= candidate.area_cm2
            )
            strictly_better = (
                other.test_accuracy > candidate.test_accuracy
                or other.area_cm2 < candidate.area_cm2
            )
            if better_or_equal and strictly_better:
                dominated = True
                break
        if not dominated:
            kept.append(candidate)
    return sorted(kept, key=lambda d: d.area_cm2)


def design_sort_name(design: EvaluatedDesign) -> str:
    """Stable tie-break identity of one evaluated design.

    Derived from the raw genome bytes when the Pareto point still
    carries its chromosome (the same name the store publisher assigns,
    so search-time and query-time selection agree); points without a
    payload fall back to their objective values.
    """
    from repro.serving.store import design_name

    payload = design.point.payload
    if payload is None:
        return design_name(
            None,
            repr(design.point.error),
            repr(design.point.area),
            repr(design.point.accuracy),
        )
    return design_name(EvaluationCache.genome_key(np.asarray(payload)))


def select_design(
    designs: Sequence[EvaluatedDesign],
    baseline_accuracy: float,
    max_accuracy_loss: float = queries.DEFAULT_ACCURACY_LOSS,
) -> Optional[EvaluatedDesign]:
    """Smallest-area design within the accuracy-loss budget (Table II pick).

    Falls back to the most accurate design when nothing satisfies the
    budget (mirroring the paper's practice of always reporting a
    circuit per dataset).  Ties are broken deterministically — equal
    areas prefer the more accurate design, exact metric ties the
    lexicographically smallest :func:`design_sort_name` — so the choice
    is independent of front ordering, platform and iteration order
    (delegating to the shared rule in
    :func:`repro.serving.queries.select_design`).
    """
    designs = list(designs)
    return queries.select_design(
        designs,
        baseline_accuracy,
        max_accuracy_loss=max_accuracy_loss,
        names=[design_sort_name(design) for design in designs],
    )
