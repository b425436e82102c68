"""NSGA-II machinery: non-dominated sorting, crowding, constrained dominance.

The paper trains with the Non-dominated Sorting Genetic Algorithm II
(Deb et al., 2002) because of its simplicity, low computational
complexity and good convergence on two-objective problems.  This module
implements the algorithm's selection machinery; the evolutionary loop
lives in :mod:`repro.core.trainer`.

The production sort (:func:`fast_non_dominated_sort`) exploits the two
objectives of equation (3): after one lexicographic sort every point
finds its front by a bisection over the last member of each front, so
sorting costs O(n log n) instead of the all-pairs O(n²).  The original
scalar implementation is retained as
:func:`fast_non_dominated_sort_reference` and serves as the oracle in
the randomized equivalence tests; both return fronts whose indices are
in ascending order so the outputs are directly comparable.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Sequence

import numpy as np

__all__ = [
    "dominates",
    "constrained_dominates",
    "fast_non_dominated_sort",
    "fast_non_dominated_sort_reference",
    "crowding_distance",
    "front_crowding_distances",
    "nsga2_sort_key",
    "binary_tournament_winners",
]


def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """Pareto dominance for minimization: ``a`` no worse everywhere, better somewhere."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return bool(np.all(a <= b) and np.any(a < b))


def constrained_dominates(
    a: np.ndarray, b: np.ndarray, violation_a: float = 0.0, violation_b: float = 0.0
) -> bool:
    """Deb's constrained-dominance relation.

    A feasible solution dominates any infeasible one; among two
    infeasible solutions the one with the smaller violation dominates;
    among two feasible solutions ordinary Pareto dominance applies.
    """
    feasible_a = violation_a <= 0.0
    feasible_b = violation_b <= 0.0
    if feasible_a and not feasible_b:
        return True
    if not feasible_a and feasible_b:
        return False
    if not feasible_a and not feasible_b:
        return violation_a < violation_b
    return dominates(a, b)


def _non_domination_ranks(
    objectives: np.ndarray, violations: Sequence[float] | None = None
) -> np.ndarray:
    """Front index of every point under constrained dominance (0 is best).

    Feasible points (violation ≤ 0) are swept in ``(first, second)``
    order.  Within a front the second objective falls along that order,
    so a front dominates the next point iff its last member does: the
    last members' second objectives never decrease from front to front,
    and one bisection finds the first front that does not dominate the
    point.  A point equal to its predecessor joins the predecessor's
    front.  Infeasible points follow the feasible fronts, one front per
    distinct violation value in ascending order.
    """
    objectives = np.asarray(objectives, dtype=np.float64)
    if objectives.ndim != 2 or objectives.shape[1] != 2:
        raise ValueError(f"objectives must have shape (n, 2), got {objectives.shape}")
    n = objectives.shape[0]
    if violations is None:
        violation = np.zeros(n, dtype=np.float64)
    else:
        violation = np.asarray(violations, dtype=np.float64)
        if violation.shape != (n,):
            raise ValueError("violations must have one entry per individual")
    ranks = np.empty(n, dtype=np.int64)
    feasible = np.flatnonzero(violation <= 0.0)
    order = feasible[np.lexsort((objectives[feasible, 1], objectives[feasible, 0]))]
    last_second: List[float] = []  # second objective of each front's last member
    swept: List[int] = []
    previous = None
    rank = 0
    for point in objectives[order].tolist():
        if point != previous:
            rank = bisect_right(last_second, point[1])
            if rank == len(last_second):
                last_second.append(point[1])
            else:
                last_second[rank] = point[1]
            previous = point
        swept.append(rank)
    ranks[order] = swept
    infeasible = np.flatnonzero(violation > 0.0)
    if infeasible.size:
        _, level = np.unique(violation[infeasible], return_inverse=True)
        ranks[infeasible] = len(last_second) + level
    return ranks


def fast_non_dominated_sort(
    objectives: np.ndarray, violations: Sequence[float] | None = None
) -> List[List[int]]:
    """Sort a population into non-domination fronts.

    Groups the :func:`_non_domination_ranks` sweep by front; equivalent
    to the retained :func:`fast_non_dominated_sort_reference`.

    Parameters
    ----------
    objectives:
        Array of shape ``(n, 2)`` (minimization).
    violations:
        Optional per-individual constraint violations; when given the
        constrained-dominance relation is used.

    Returns
    -------
    List of fronts, each an ascending list of population indices;
    front 0 is the non-dominated (best) front.
    """
    ranks = _non_domination_ranks(objectives, violations)
    fronts: List[List[int]] = [[] for _ in range(int(ranks.max(initial=-1)) + 1)]
    for index, rank in enumerate(ranks.tolist()):
        fronts[rank].append(index)
    return fronts


def fast_non_dominated_sort_reference(
    objectives: np.ndarray, violations: Sequence[float] | None = None
) -> List[List[int]]:
    """Scalar (pairwise-loop) non-dominated sort, retained as the oracle.

    Semantically identical to :func:`fast_non_dominated_sort` (for any
    number of objectives); kept for
    the randomized equivalence tests and as executable documentation of
    Deb's original bookkeeping.
    """
    objectives = np.asarray(objectives, dtype=np.float64)
    n = objectives.shape[0]
    if violations is None:
        violations = [0.0] * n
    if len(violations) != n:
        raise ValueError("violations must have one entry per individual")

    dominated_by: List[List[int]] = [[] for _ in range(n)]
    domination_count = np.zeros(n, dtype=np.int64)

    for p in range(n):
        for q in range(p + 1, n):
            p_dom_q = constrained_dominates(
                objectives[p], objectives[q], violations[p], violations[q]
            )
            q_dom_p = constrained_dominates(
                objectives[q], objectives[p], violations[q], violations[p]
            )
            if p_dom_q:
                dominated_by[p].append(q)
                domination_count[q] += 1
            elif q_dom_p:
                dominated_by[q].append(p)
                domination_count[p] += 1

    fronts: List[List[int]] = []
    current = [int(i) for i in np.flatnonzero(domination_count == 0)]
    while current:
        fronts.append(current)
        next_front: List[int] = []
        for p in current:
            for q in dominated_by[p]:
                domination_count[q] -= 1
                if domination_count[q] == 0:
                    next_front.append(q)
        next_front.sort()
        current = next_front
    return fronts


def crowding_distance(objectives: np.ndarray) -> np.ndarray:
    """Crowding distance of each individual within one front.

    Boundary individuals of every objective receive an infinite distance
    so that the extremes of the front are always preserved.
    """
    objectives = np.asarray(objectives, dtype=np.float64)
    n, m = objectives.shape
    if n == 0:
        return np.zeros(0)
    distance = np.zeros(n, dtype=np.float64)
    if n <= 2:
        return np.full(n, np.inf)
    for obj in range(m):
        order = np.argsort(objectives[:, obj], kind="stable")
        spread = objectives[order[-1], obj] - objectives[order[0], obj]
        distance[order[0]] = np.inf
        distance[order[-1]] = np.inf
        if spread <= 0:
            continue
        gaps = (objectives[order[2:], obj] - objectives[order[:-2], obj]) / spread
        distance[order[1:-1]] += gaps
    return distance


def front_crowding_distances(
    objectives: np.ndarray, ranks: np.ndarray
) -> np.ndarray:  # lint: oracle-pair(crowding_distance)
    """Crowding distance of every individual within its front (``ranks``, ≥ 0).

    Bitwise equal to :func:`crowding_distance` on each front in turn (its
    members in ascending index order), for all fronts at once: one stable
    ``lexsort`` by ``(rank, objective)`` per objective lines every front up
    in the per-front sort order, so gaps, spreads and extremes are read
    off neighbouring sorted positions.
    """
    objectives = np.asarray(objectives, dtype=np.float64)
    ranks = np.asarray(ranks, dtype=np.int64)
    counts = np.bincount(ranks)
    sorted_ranks = np.repeat(np.arange(counts.size), counts)
    last = np.cumsum(counts)[sorted_ranks] - 1
    first = last - counts[sorted_ranks] + 1
    positions = np.arange(ranks.size)
    extreme = (positions == first) | (positions == last)
    distance = np.zeros(ranks.size, dtype=np.float64)
    for obj in range(objectives.shape[1]):
        order = np.lexsort((objectives[:, obj], ranks))
        values = objectives[order, obj]
        spread = values[last] - values[first]
        # Not `spread > 0`: a NaN spread adds its gaps, as in crowding_distance.
        inner = np.flatnonzero(~extreme & ~(spread <= 0))
        distance[order[inner]] += (values[inner + 1] - values[inner - 1]) / spread[inner]
        distance[order[extreme]] = np.inf
    return distance


def binary_tournament_winners(
    ranks: np.ndarray,
    crowding: np.ndarray,
    contestants: np.ndarray,
    tie_coins: np.ndarray,
) -> np.ndarray:
    """Winners of a batch of binary tournaments, as one vectorized compare.

    The NSGA-II mating criterion — lower rank wins, ties broken by larger
    crowding distance, full ties by a coin flip — evaluated for a whole
    batch at once.

    Parameters
    ----------
    ranks / crowding:
        Per-individual front index and crowding distance (as returned by
        :func:`nsga2_sort_key`).
    contestants:
        ``(t, 2)`` population indices of each tournament's contestants.
    tie_coins:
        ``(t,)`` uniforms in ``[0, 1)``; a full tie picks the first
        contestant iff its coin is below 0.5.

    Returns
    -------
    ``(t,)`` array of winning population indices.
    """
    contestants = np.asarray(contestants, dtype=np.int64)
    if contestants.ndim != 2 or contestants.shape[1] != 2:
        raise ValueError(f"contestants must have shape (t, 2), got {contestants.shape}")
    a = contestants[:, 0]
    b = contestants[:, 1]
    ranks = np.asarray(ranks)
    crowding = np.asarray(crowding)
    a_wins = np.where(
        ranks[a] != ranks[b],
        ranks[a] < ranks[b],
        np.where(
            crowding[a] != crowding[b],
            crowding[a] > crowding[b],
            np.asarray(tie_coins) < 0.5,
        ),
    )
    return np.where(a_wins, a, b)


def nsga2_sort_key(
    objectives: np.ndarray, violations: Sequence[float] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Rank and crowding distance of every individual in a population.

    Returns
    -------
    (ranks, crowding):
        ``ranks[i]`` is the front index of individual ``i`` (0 is best),
        ``crowding[i]`` its crowding distance within that front.
    """
    objectives = np.asarray(objectives, dtype=np.float64)
    ranks = _non_domination_ranks(objectives, violations)
    return ranks, front_crowding_distances(objectives, ranks)
