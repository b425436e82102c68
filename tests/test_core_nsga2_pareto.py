"""Tests for the NSGA-II machinery and Pareto utilities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.nsga2 import (
    constrained_dominates,
    crowding_distance,
    dominates,
    fast_non_dominated_sort,
    front_crowding_distances,
    nsga2_sort_key,
)
from repro.core.pareto import ParetoArchive, ParetoPoint, hypervolume, pareto_front
from repro.core.trainer import GATrainer


class TestDominance:
    def test_strict_dominance(self):
        assert dominates(np.array([1.0, 1.0]), np.array([2.0, 2.0]))
        assert not dominates(np.array([2.0, 2.0]), np.array([1.0, 1.0]))

    def test_equal_points_do_not_dominate(self):
        assert not dominates(np.array([1.0, 1.0]), np.array([1.0, 1.0]))

    def test_trade_off_points_do_not_dominate(self):
        assert not dominates(np.array([1.0, 3.0]), np.array([2.0, 2.0]))
        assert not dominates(np.array([2.0, 2.0]), np.array([1.0, 3.0]))

    def test_constrained_dominance_feasibility_first(self):
        good = np.array([10.0, 10.0])
        bad = np.array([0.0, 0.0])
        assert constrained_dominates(good, bad, violation_a=0.0, violation_b=1.0)
        assert not constrained_dominates(bad, good, violation_a=1.0, violation_b=0.0)

    def test_constrained_dominance_among_infeasible(self):
        a = np.array([5.0, 5.0])
        b = np.array([1.0, 1.0])
        assert constrained_dominates(a, b, violation_a=0.1, violation_b=0.5)

    def test_constrained_dominance_among_feasible_is_pareto(self):
        assert constrained_dominates(np.array([1.0, 1.0]), np.array([2.0, 2.0]))


class TestNonDominatedSort:
    def test_simple_fronts(self):
        objectives = np.array([[1.0, 1.0], [2.0, 2.0], [0.5, 3.0], [3.0, 3.0]])
        fronts = fast_non_dominated_sort(objectives)
        assert set(fronts[0]) == {0, 2}
        assert set(fronts[1]) == {1}
        assert set(fronts[2]) == {3}

    def test_all_points_assigned_once(self):
        rng = np.random.default_rng(0)
        objectives = rng.random((30, 2))
        fronts = fast_non_dominated_sort(objectives)
        flattened = [i for front in fronts for i in front]
        assert sorted(flattened) == list(range(30))

    def test_infeasible_points_pushed_back(self):
        objectives = np.array([[1.0, 1.0], [5.0, 5.0]])
        fronts = fast_non_dominated_sort(objectives, violations=[1.0, 0.0])
        assert fronts[0] == [1]

    def test_violation_length_mismatch(self):
        with pytest.raises(ValueError):
            fast_non_dominated_sort(np.zeros((3, 2)), violations=[0.0])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_property_front0_is_non_dominated(self, seed):
        rng = np.random.default_rng(seed)
        objectives = rng.random((20, 2))
        front0 = fast_non_dominated_sort(objectives)[0]
        for i in front0:
            assert not any(dominates(objectives[j], objectives[i]) for j in range(20) if j != i)


class TestCrowding:
    def test_boundary_points_infinite(self):
        objectives = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
        distance = crowding_distance(objectives)
        assert np.isinf(distance[0]) and np.isinf(distance[3])
        assert np.isfinite(distance[1]) and np.isfinite(distance[2])

    def test_small_front_all_infinite(self):
        assert np.all(np.isinf(crowding_distance(np.array([[1.0, 2.0], [2.0, 1.0]]))))

    def test_empty_front(self):
        assert crowding_distance(np.zeros((0, 2))).shape == (0,)

    def test_sort_key_shapes(self):
        objectives = np.random.default_rng(0).random((12, 2))
        ranks, crowding = nsga2_sort_key(objectives)
        assert ranks.shape == (12,) and crowding.shape == (12,)
        assert ranks.min() == 0


def per_front_crowding(objectives, ranks):
    """The oracle: :func:`crowding_distance` on each front in turn."""
    distance = np.zeros(len(ranks))
    for rank in np.unique(ranks):
        front = np.flatnonzero(ranks == rank)
        distance[front] = crowding_distance(objectives[front])
    return distance


def assert_crowding_matches_oracle(objectives, ranks):
    fast = front_crowding_distances(objectives, ranks)
    # Bit for bit: the byte images also pin -0.0 and the infinities.
    assert fast.tobytes() == per_front_crowding(objectives, ranks).tobytes()


class TestAllFrontsCrowding:
    """``front_crowding_distances`` equals per-front ``crowding_distance``."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**9),
        n=st.integers(min_value=0, max_value=250),
        constrained=st.booleans(),
        levels=st.sampled_from([2, 5, 40, None]),
    )
    def test_matches_per_front_oracle(self, seed, n, constrained, levels):
        rng = np.random.default_rng(seed)
        if levels is None:
            objectives = rng.random((n, 2))
        else:
            # Few distinct values: tied objectives and zero-spread fronts.
            objectives = rng.integers(0, levels, (n, 2)) / float(levels)
        violations = (
            np.maximum(0.0, rng.integers(0, 6, n) / 10.0 - 0.3) if constrained else None
        )
        ranks, crowding = nsga2_sort_key(objectives, violations)  # the kernel's caller
        assert crowding.tobytes() == per_front_crowding(objectives, ranks).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_arbitrary_front_labels(self, seed):
        """Any grouping, not only dominance fronts: many fronts of size 1
        and 2 next to larger ones, in shuffled index order."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 60))
        objectives = np.round(rng.normal(size=(n, 2)), 1)
        ranks = rng.integers(0, max(1, n // 2), n)
        assert_crowding_matches_oracle(objectives, ranks)

    @pytest.mark.parametrize(
        "objectives, ranks",
        [
            (np.zeros((0, 2)), np.zeros(0, dtype=np.int64)),
            (np.array([[0.3, 4.0]]), np.array([0])),
            (np.array([[0.3, 4.0], [0.1, 9.0]]), np.array([0, 0])),
            (np.array([[0.3, 4.0], [0.1, 9.0], [0.2, 5.0]]), np.array([1, 0, 1])),
            (np.full((5, 2), 0.25), np.zeros(5, dtype=np.int64)),
            (np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 2.0], [-0.0, 0.0]]), np.zeros(4, dtype=np.int64)),
            (np.array([[0.5, 1.0], [0.5, 2.0], [0.5, 3.0], [0.5, 3.0]]), np.zeros(4, dtype=np.int64)),
        ],
        ids=["empty", "size-1", "size-2", "size-1-and-2", "zero-spread", "signed-zeros", "one-tied-objective"],
    )
    def test_edge_fronts(self, objectives, ranks):
        assert_crowding_matches_oracle(objectives, ranks)


class TestCarriedSortKey:
    """Environmental selection hands the next generation its survivors'
    ranks and crowding; they must equal a fresh ``nsga2_sort_key``."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**9),
        with_violations=st.booleans(),
        area_objective=st.booleans(),
    )
    def test_carried_key_equals_fresh_sort(self, seed, with_violations, area_objective):
        rng = np.random.default_rng(seed)
        target = int(rng.integers(4, 41))
        n = 2 * target
        # Tie-heavy objectives, as the GA produces (1/n_samples error steps,
        # integer FA counts).
        errors = rng.integers(0, 12, n) / 50.0
        areas = rng.integers(0, 15, n).astype(float)
        violations = (
            np.maximum(0.0, rng.integers(0, 6, n) / 10.0 - 0.3) if with_violations else np.zeros(n)
        )
        fitness = np.column_stack([errors, areas, 1.0 - errors, violations])
        population = np.arange(n)[:, None]
        trainer = GATrainer((2, 2, 2))
        survivors, kept, (ranks, crowding) = trainer._environmental_selection(
            population, fitness, target, area_objective
        )
        assert len(kept) == target == len(survivors)
        assert np.array_equal(fitness[survivors[:, 0]], kept)
        objectives, kept_violations = trainer._objective_matrix(kept, area_objective)
        fresh_ranks, fresh_crowding = nsga2_sort_key(objectives, kept_violations)
        assert np.array_equal(ranks, fresh_ranks)
        assert np.array_equal(crowding, fresh_crowding)


class TestParetoFrontUtilities:
    def make_points(self):
        return [
            ParetoPoint(error=0.1, area=100, accuracy=0.9),
            ParetoPoint(error=0.2, area=50, accuracy=0.8),
            ParetoPoint(error=0.3, area=20, accuracy=0.7),
            ParetoPoint(error=0.25, area=80, accuracy=0.75),  # dominated
        ]

    def test_pareto_front_filters_dominated(self):
        front = pareto_front(self.make_points())
        assert len(front) == 3
        assert all(p.area != 80 for p in front)

    def test_pareto_front_sorted_by_area(self):
        areas = [p.area for p in pareto_front(self.make_points())]
        assert areas == sorted(areas)

    def test_duplicates_collapsed(self):
        points = [ParetoPoint(0.1, 10, 0.9), ParetoPoint(0.1, 10, 0.9)]
        assert len(pareto_front(points)) == 1

    def test_hypervolume_positive_and_monotonic(self):
        points = self.make_points()
        reference = (1.0, 200.0)
        hv_all = hypervolume(points, reference)
        hv_one = hypervolume(points[:1], reference)
        assert hv_all > hv_one > 0

    def test_hypervolume_empty_outside_reference(self):
        assert hypervolume([ParetoPoint(2.0, 300, 0.0)], (1.0, 200.0)) == 0.0

    def test_archive_keeps_non_dominated_only(self):
        archive = ParetoArchive(max_size=10)
        assert archive.add(ParetoPoint(0.5, 50, 0.5))
        assert not archive.add(ParetoPoint(0.6, 60, 0.4))  # dominated
        assert archive.add(ParetoPoint(0.4, 60, 0.6))
        assert len(archive) == 2

    def test_archive_removes_newly_dominated(self):
        archive = ParetoArchive()
        archive.add(ParetoPoint(0.5, 50, 0.5))
        archive.add(ParetoPoint(0.3, 30, 0.7))  # dominates the first
        assert len(archive) == 1
        assert archive.points[0].area == 30

    def test_archive_thinning_respects_max_size(self):
        archive = ParetoArchive(max_size=5)
        for i in range(30):
            archive.add(ParetoPoint(error=1.0 - i * 0.01, area=float(i), accuracy=i * 0.01))
        assert len(archive) <= 5

    def test_archive_extend_counts_kept(self):
        archive = ParetoArchive()
        kept = archive.extend([ParetoPoint(0.5, 50, 0.5), ParetoPoint(0.6, 60, 0.4)])
        assert kept == 1

    def test_archive_rejects_bad_size(self):
        with pytest.raises(ValueError):
            ParetoArchive(max_size=0)


class TestArchiveHypervolume:
    """``ParetoArchive.hypervolume`` sweeps the archive's own sorted points;
    it must equal the module-level ``hypervolume`` of those points."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**9),
        max_size=st.sampled_from([2, 3, 8, 256]),
    )
    def test_matches_module_hypervolume(self, seed, max_size):
        rng = np.random.default_rng(seed)
        magnitude = 10.0 ** float(rng.integers(-9, 10))
        archive = ParetoArchive(max_size=max_size)
        for _ in range(int(rng.integers(0, 120))):
            error, area = float(rng.random()), float(rng.random()) * magnitude
            if len(archive) and rng.random() < 0.2:
                # Near-duplicates of a kept point.
                kept = archive.points[int(rng.integers(0, len(archive)))]
                error = kept.error * (1.0 + float(rng.normal()) * 1e-6)
                area = kept.area * (1.0 + float(rng.normal()) * 1e-6)
            archive.add(ParetoPoint(error, area, 1.0 - error))
        assert pareto_front(archive.points) == archive.points
        for reference in [(1.0, 1.1 * magnitude), (0.5, 0.5 * magnitude), (0.0, 0.0)]:
            assert archive.hypervolume(reference) == hypervolume(archive.points, reference)

    def test_empty_archive(self):
        assert ParetoArchive().hypervolume((1.0, 1.0)) == 0.0
