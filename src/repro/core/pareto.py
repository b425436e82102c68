"""Pareto-front utilities and quality indicators.

The output of the genetic training is an *estimated* area/accuracy
Pareto front (Fig. 2); the hardware-analysis step then evaluates the
front's members with the synthesis model to obtain the *true* front.
This module provides the front bookkeeping shared by both steps plus the
two-objective hypervolume indicator used in the convergence ablations.

Both hot entry points exploit the two-objective structure: with points
sorted by ``(error, area)`` a single prefix-minimum sweep identifies
every dominated point, so :func:`pareto_front` runs in O(n log n)
instead of the all-pairs O(n²), and :class:`ParetoArchive` keeps its
points sorted by area (hence strictly decreasing error) so one bisect
plus a contiguous-run deletion implements ``add``.  The original
all-pairs routines are retained (:func:`pareto_front_reference`,
``ParetoArchive(reference=True)``) as oracles for the equivalence
tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.core.nsga2 import dominates
from repro.core.pure import first_front_mask

__all__ = [
    "ParetoPoint",
    "pareto_front",
    "pareto_front_reference",
    "hypervolume",
    "ParetoArchive",
]


@dataclass(frozen=True)
class ParetoPoint:
    """One candidate solution with its two objectives.

    ``error`` and ``area`` are the minimization objectives; ``accuracy``
    is kept alongside for reporting, and ``payload`` carries whatever the
    producer wants to attach (typically the chromosome).
    """

    error: float
    area: float
    accuracy: float
    payload: Optional[object] = field(default=None, compare=False)

    @property
    def objectives(self) -> np.ndarray:
        """The minimization objectives ``[error, area]``."""
        return np.array([self.error, self.area], dtype=np.float64)


def pareto_front(points: Iterable[ParetoPoint]) -> List[ParetoPoint]:
    """Non-dominated subset of ``points``, sorted by ascending area.

    Duplicate objective vectors are collapsed to a single representative
    (the first in input order).  The non-dominated candidates come from
    the sort-and-sweep :func:`~repro.core.pure.first_front_mask`.
    """
    points = list(points)
    n = len(points)
    if n <= 1:
        return list(points)
    keep = first_front_mask((p.error, p.area) for p in points)
    candidates = [point for point, kept in zip(points, keep) if kept]
    if len(candidates) > 1:
        objs = np.array([[p.error, p.area] for p in candidates])
        close = np.isclose(objs[:, None, :], objs[None, :, :]).all(axis=2)
        kept_mask = np.zeros(len(candidates), dtype=bool)
        front: List[ParetoPoint] = []
        for i, candidate in enumerate(candidates):
            if np.any(close[i] & kept_mask):
                continue
            kept_mask[i] = True
            front.append(candidate)
    else:
        front = candidates
    return sorted(front, key=lambda p: (p.area, p.error))


def pareto_front_reference(points: Iterable[ParetoPoint]) -> List[ParetoPoint]:
    """All-pairs reference implementation of :func:`pareto_front` (oracle)."""
    points = list(points)
    front: List[ParetoPoint] = []
    for candidate in points:
        candidate_dominated = False
        for other in points:
            if other is candidate:
                continue
            if dominates(other.objectives, candidate.objectives):
                candidate_dominated = True
                break
        if candidate_dominated:
            continue
        if any(
            np.allclose(candidate.objectives, kept.objectives) for kept in front
        ):
            continue
        front.append(candidate)
    return sorted(front, key=lambda p: (p.area, p.error))


def hypervolume(
    points: Sequence[ParetoPoint], reference: tuple[float, float]
) -> float:
    """Two-objective hypervolume dominated by ``points`` w.r.t. ``reference``.

    Both objectives are minimized; points outside the reference box are
    clipped out.  Larger is better.
    """
    return _swept_volume(sorted(pareto_front(points), key=lambda p: p.error), reference)


def _swept_volume(front: Iterable[ParetoPoint], reference: tuple[float, float]) -> float:
    """Hypervolume of a clean front given in ascending-error order."""
    ref_error, ref_area = float(reference[0]), float(reference[1])
    volume = 0.0
    previous_area = ref_area
    for point in front:
        if not (point.error < ref_error and point.area < ref_area):
            continue
        width = ref_error - point.error
        height = previous_area - point.area
        if height > 0:
            volume += width * height
            previous_area = point.area
    return volume


def _isclose(a: float, b: float) -> bool:
    """``np.isclose(a, b)`` on two floats, with numpy's formula and order."""
    return a == b or (abs(a - b) <= 1e-08 + 1e-05 * abs(b) and math.isfinite(b))


class ParetoArchive:
    """Bounded archive of the non-dominated points seen so far.

    The GA trainer feeds every evaluated individual into the archive;
    keeping the archive (rather than just the final population) mirrors
    the paper's practice of synthesizing the whole estimated Pareto set.

    The points are maintained sorted by ``(area, error)``; for a clean
    two-objective non-dominated set this means areas strictly increase
    and errors strictly decrease, so ``add`` reduces to one bisect, a
    predecessor dominance check, a near-duplicate scan of the immediate
    neighbours, and the deletion of one contiguous run of newly
    dominated points.  ``reference=True`` restores the original
    all-pairs scan (the oracle used by the equivalence tests).
    """

    def __init__(self, max_size: int = 256, reference: bool = False) -> None:
        if max_size <= 0:
            raise ValueError(f"max_size must be positive, got {max_size}")
        self.max_size = max_size
        self.reference = reference
        self._points: List[ParetoPoint] = []

    def __len__(self) -> int:
        return len(self._points)

    @property
    def points(self) -> List[ParetoPoint]:
        """Current archive contents (non-dominated, sorted by area)."""
        return list(self._points)

    def add(self, point: ParetoPoint) -> bool:
        """Insert ``point`` if it is not dominated; returns True if kept."""
        if self.reference:
            return self._add_reference(point)
        return self._add_sweep(point)

    def _add_sweep(self, point: ParetoPoint) -> bool:
        points = self._points
        error, area = float(point.error), float(point.area)
        # Manual bisect on the (area, error) key; bisect_left's `key`
        # parameter needs Python 3.10+ while this package supports 3.9.
        lo, hi = 0, len(points)
        while lo < hi:
            mid = (lo + hi) // 2
            candidate = points[mid]
            if (candidate.area, candidate.error) < (area, error):
                lo = mid + 1
            else:
                hi = mid
        pos = lo

        # Any kept point with area <= ours and error <= ours dominates us
        # (or duplicates us); with errors strictly decreasing the only
        # candidate is the immediate predecessor.
        if pos > 0 and points[pos - 1].error <= error:
            return False
        # Near-duplicate rejection, mirroring the reference's
        # ``np.allclose(existing, point)``: only points whose area is
        # within tolerance can match, and those are contiguous around pos.
        for k in range(pos - 1, -1, -1):
            if not _isclose(points[k].area, area):
                break
            if _isclose(points[k].error, error):
                return False
        for k in range(pos, len(points)):
            if not _isclose(points[k].area, area):
                break
            if _isclose(points[k].error, error):
                return False

        # Points we dominate sit in one contiguous run: area >= ours
        # (by sort position) and error >= ours (until errors drop below).
        end = pos
        while end < len(points) and points[end].error >= error:
            end += 1
        points[pos:end] = [point]
        if len(points) > self.max_size:
            self._thin()
        return True

    def _add_reference(self, point: ParetoPoint) -> bool:
        """Original all-pairs ``add`` (oracle for the equivalence tests)."""
        for existing in self._points:
            if dominates(existing.objectives, point.objectives) or np.allclose(
                existing.objectives, point.objectives
            ):
                return False
        self._points = [
            existing
            for existing in self._points
            if not dominates(point.objectives, existing.objectives)
        ]
        self._points.append(point)
        self._points.sort(key=lambda p: (p.area, p.error))
        if len(self._points) > self.max_size:
            self._thin()
        return True

    def hypervolume(self, reference: tuple[float, float]) -> float:
        """``hypervolume(self.points, reference)`` without re-deriving the
        front: the points already are one, and reversed they are in
        ascending-error order."""
        return _swept_volume(reversed(self._points), reference)

    def extend(self, points: Iterable[ParetoPoint]) -> int:
        """Add many points; returns how many were kept."""
        return sum(1 for point in points if self.add(point))

    def _thin(self) -> None:
        """Drop the most crowded interior points until the archive fits."""
        while len(self._points) > self.max_size:
            if len(self._points) <= 2:
                # No interior points to thin; drop the largest-area end.
                del self._points[-1]
                continue
            # Keep extremes; remove the point whose neighbours are closest.
            areas = np.array([p.area for p in self._points])
            gaps = np.diff(areas)
            # Crowding of interior point i is gap[i-1] + gap[i].
            crowding = gaps[:-1] + gaps[1:]
            drop = int(np.argmin(crowding)) + 1
            del self._points[drop]
