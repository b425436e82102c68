"""Equivalence tests for the vectorized fitness engine.

Every fast path introduced by the vectorized engine keeps its original
scalar implementation around as a reference oracle; these tests assert
exact agreement over randomized models, batches and populations:

* stacked bit-plane kernel == per-model scalar accumulate (bitwise),
* two-objective sweep non-dominated sort == Deb's pairwise-loop sort,
* sweep-based ``pareto_front`` / ``ParetoArchive`` == all-pairs scans,
* deduplicating ``evaluate_population`` == one-row ``compute_population``
  (the genome-native batch kernels are covered in ``test_batched_kernels.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.approx.config import ApproxConfig
from repro.approx.mlp import ApproximateMLP, forward_stacked, stack_parameters
from repro.approx.topology import Topology
from repro.core.chromosome import ChromosomeLayout
from repro.core.fitness import AREA, ERROR, VIOLATION, FitnessEvaluator
from repro.core.nsga2 import fast_non_dominated_sort, fast_non_dominated_sort_reference
from repro.core.pareto import (
    ParetoArchive,
    ParetoPoint,
    pareto_front,
    pareto_front_reference,
)
from repro.hardware.adder_tree import mlp_fa_count
from repro.hardware.fast_area import fast_population_fa_count


class TestBitPlaneForward:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_forward_matches_naive_accumulate(self, seed):
        rng = np.random.default_rng(seed)
        num_layers = int(rng.integers(2, 5))
        sizes = tuple(int(s) for s in rng.integers(2, 24, size=num_layers))
        mlp = ApproximateMLP.random(
            Topology(sizes), ApproxConfig(), rng, mask_density=float(rng.random())
        )
        batch = rng.integers(0, 16, size=(int(rng.integers(1, 64)), sizes[0]))
        assert np.array_equal(forward_stacked(stack_parameters([mlp]), batch)[0], mlp.forward(batch))

    def test_in_place_edits_take_effect(self):
        # The layer memoizes nothing, so an edited layer needs no refresh.
        rng = np.random.default_rng(3)
        mlp = ApproximateMLP.random(Topology((4, 3, 2)), ApproxConfig(), rng)
        x = rng.integers(0, 16, size=(10, 4))
        out_layer = mlp.layers[-1]
        before = (mlp.forward(x), out_layer.output_bits)
        out_layer.masks[:] = 0
        out_layer.biases[:] = 0
        assert np.array_equal(mlp.forward(x), np.zeros((10, 2), dtype=np.int64))
        assert out_layer.output_bits == 2 != before[1]
        assert not np.array_equal(before[0], mlp.forward(x))

    def test_decode_rejects_out_of_bounds_genes(self):
        rng = np.random.default_rng(7)
        layout = ChromosomeLayout(Topology((4, 3, 2)), ApproxConfig())
        chromosome = layout.random(rng)
        chromosome[2] = -3  # exponent gene below its lower bound
        with pytest.raises(ValueError):
            layout.decode(chromosome)

    def test_decoded_network_owns_its_arrays(self):
        """Each decode is an independent deep copy: editing one network
        changes neither the chromosome nor another decode of it."""
        rng = np.random.default_rng(6)
        layout = ChromosomeLayout(Topology((6, 5, 3)), ApproxConfig())
        chromosome = layout.random(rng)
        saved = chromosome.copy()
        first, second = layout.decode(chromosome), layout.decode(chromosome)
        x = rng.integers(0, 16, size=(32, 6))
        assert np.array_equal(first.forward(x), second.forward(x))
        first.layers[0].masks[:] = 0
        assert not np.array_equal(first.layers[0].masks, second.layers[0].masks)
        assert np.array_equal(chromosome, saved)
        assert np.array_equal(layout.decode(chromosome).forward(x), second.forward(x))


class TestFaCountReduction:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_population_fa_matches_per_model(self, seed):
        rng = np.random.default_rng(seed)
        sizes = tuple(int(v) for v in rng.integers(2, 16, size=3))
        models = [
            ApproximateMLP.random(
                Topology(sizes), ApproxConfig(), rng, mask_density=float(rng.random())
            )
            for _ in range(int(rng.integers(1, 7)))
        ]
        areas = fast_population_fa_count(models)
        assert [int(a) for a in areas] == [mlp_fa_count(m) for m in models]


def random_objectives(rng, n):
    # Rounding produces plenty of exact ties, the hard case for sweeps.
    decimals = int(rng.integers(0, 4))
    scale = float(rng.choice([1.0, 10.0, 1000.0]))
    return np.round(rng.random((n, 2)) * scale, decimals)


def assert_sort_matches_reference(objectives, violations=None):
    objectives = np.asarray(objectives, dtype=np.float64)
    fast = fast_non_dominated_sort(objectives, violations)
    reference = fast_non_dominated_sort_reference(
        objectives, None if violations is None else list(violations)
    )
    assert fast == reference
    return fast


class TestNonDominatedSortEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        # Up to the full-scale union (2 × population 120 + slack).
        n = int(rng.integers(1, 251))
        objectives = random_objectives(rng, n)
        violations = None
        if rng.random() < 0.5:
            violations = np.maximum(0.0, rng.random(n) - 0.6)
        assert_sort_matches_reference(objectives, violations)

    def test_duplicate_points_share_a_front(self):
        objectives = [[0.2, 3.0], [0.1, 5.0], [0.2, 3.0], [0.3, 4.0], [0.2, 3.0], [0.1, 5.0]]
        fronts = assert_sort_matches_reference(objectives)
        assert fronts == [[0, 1, 2, 4, 5], [3]]

    def test_equal_error_different_area(self):
        objectives = [[0.5, 4.0], [0.5, 2.0], [0.5, 3.0], [0.4, 9.0], [0.5, 2.0]]
        fronts = assert_sort_matches_reference(objectives)
        assert fronts == [[1, 3, 4], [2], [0]]

    def test_all_infeasible_with_tied_violations(self):
        objectives = [[0.1, 1.0], [0.9, 9.0], [0.5, 5.0], [0.2, 2.0], [0.7, 0.5]]
        violations = [0.3, 0.1, 0.3, 0.1, 0.2]
        fronts = assert_sort_matches_reference(objectives, violations)
        # One front per distinct violation, objectives ignored.
        assert fronts == [[1, 3], [4], [0, 2]]

    def test_single_point(self):
        assert assert_sort_matches_reference([[0.25, 7.0]]) == [[0]]
        assert assert_sort_matches_reference([[0.25, 7.0]], [0.5]) == [[0]]

    def test_empty_population(self):
        assert fast_non_dominated_sort(np.zeros((0, 2))) == []

    def test_violation_length_mismatch(self):
        with pytest.raises(ValueError):
            fast_non_dominated_sort(np.zeros((3, 2)), violations=[0.0])


class TestParetoSweepEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_pareto_front_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 60))
        objectives = random_objectives(rng, max(n, 1))[:n]
        points = [
            ParetoPoint(float(e), float(a), 1.0 - float(e), payload=i)
            for i, (e, a) in enumerate(objectives)
        ]
        fast = pareto_front(points)
        reference = pareto_front_reference(points)
        # Same points, same order, same representatives for duplicates.
        assert [p.payload for p in fast] == [p.payload for p in reference]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_archive_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        max_size = int(rng.integers(1, 20))
        sweep = ParetoArchive(max_size=max_size)
        reference = ParetoArchive(max_size=max_size, reference=True)
        for e, a in random_objectives(rng, int(rng.integers(1, 60))):
            point = ParetoPoint(float(e), float(a), 1.0 - float(e))
            assert sweep.add(point) == reference.add(point)
            assert [(q.error, q.area) for q in sweep.points] == [
                (q.error, q.area) for q in reference.points
            ]

    @staticmethod
    def tolerance_edge(b, direction):
        """``(last, past)``: the float farthest from ``b`` towards
        ``direction`` with ``np.isclose(last, b)``, and the next one on."""
        a = b + direction * (1e-08 + 1e-05 * abs(b))
        while not np.isclose(a, b):
            a = np.nextafter(a, b)
        while np.isclose(np.nextafter(a, direction * np.inf), b):
            a = np.nextafter(a, direction * np.inf)
        return float(a), float(np.nextafter(a, direction * np.inf))

    @staticmethod
    def assert_inserts_match(points):
        """Insert ``points`` in order into a sweep and a reference archive."""
        sweep = ParetoArchive()
        reference = ParetoArchive(reference=True)
        for point in points:
            assert sweep.add(point) == reference.add(point)
        assert [(p.error, p.area) for p in sweep.points] == [
            (p.error, p.area) for p in reference.points
        ]

    def edge_pairs(self, objective, base):
        """Trade-off pairs whose ``objective`` sits at the tolerance edge of
        ``base`` (inside and one ulp past it) while the other objective is
        well within tolerance."""
        other = 0.5 if objective == 1 else 1000.0
        for direction in (1.0, -1.0):
            for value in self.tolerance_edge(base, direction):
                # Moving one objective up must move the other down, or one
                # point would dominate the other instead of nearly matching it.
                nudged = other - direction * 1e-09 * max(1.0, other)
                pair = [[base, other], [value, nudged]]
                if objective == 1:
                    pair = [pair[0][::-1], pair[1][::-1]]
                yield [ParetoPoint(e, a, 1.0 - e) for e, a in pair]

    @pytest.mark.parametrize("objective", [0, 1], ids=["error", "area"])
    @pytest.mark.parametrize("base", [0.0, 1e-09, 0.5, 1e06])
    def test_tolerance_edge_matches_reference(self, objective, base):
        last, past = self.tolerance_edge(base, 1.0)
        assert np.isclose(last, base) and not np.isclose(past, base)
        if base == 0.0:
            assert abs(last - base) == 1e-08 + 1e-05 * abs(base)
        for pair in self.edge_pairs(objective, base):
            # Both insertion orders: isclose(existing, new) is asymmetric.
            self.assert_inserts_match(pair)
            self.assert_inserts_match(pair[::-1])

    def test_asymmetric_isclose_pair_matches_reference(self):
        base = 1e06
        _, past = self.tolerance_edge(base, 1.0)
        assert not np.isclose(past, base) and np.isclose(base, past)
        for area_first in (True, False):
            pair = [ParetoPoint(0.5, base, 0.5), ParetoPoint(0.5 - 1e-09, past, 0.5)]
            if not area_first:
                pair = [ParetoPoint(base, 0.5, 0.5), ParetoPoint(past, 0.5 - 1e-09, 0.5)]
            self.assert_inserts_match(pair)
            self.assert_inserts_match(pair[::-1])

    @pytest.mark.parametrize(
        "first, second",
        [((0.0, 7.0), (-0.0, 7.0)), ((0.25, 0.0), (0.25, -0.0)), ((-0.0, -0.0), (0.0, 0.0))],
        ids=["error", "area", "both"],
    )
    def test_signed_zero_is_a_duplicate(self, first, second):
        pair = [ParetoPoint(e, a, 1.0 - e) for e, a in (first, second)]
        self.assert_inserts_match(pair)
        self.assert_inserts_match(pair[::-1])
        archive = ParetoArchive()
        assert archive.add(pair[0]) and not archive.add(pair[1])

    def test_near_duplicates_collapse(self):
        base = ParetoPoint(0.5, 100.0, 0.5, payload="first")
        close = ParetoPoint(0.5 + 1e-12, 100.0 - 1e-9, 0.5, payload="second")
        front = pareto_front([base, close])
        assert [p.payload for p in front] == ["first"]
        archive = ParetoArchive()
        assert archive.add(base)
        assert not archive.add(close)


@pytest.fixture(scope="module")
def tiny_fitness_setup():
    layout = ChromosomeLayout(Topology((4, 3, 2)), ApproxConfig())
    rng = np.random.default_rng(11)
    inputs = rng.integers(0, 16, size=(40, 4))
    labels = rng.integers(0, 2, size=40)
    return layout, inputs, labels


class TestFitnessBatch:
    def test_population_matches_individual_compute(self, tiny_fitness_setup):
        layout, inputs, labels = tiny_fitness_setup
        rng = np.random.default_rng(0)
        population = [layout.random(rng) for _ in range(12)]
        population += [population[0].copy(), population[3].copy()]
        evaluator = FitnessEvaluator(layout, inputs, labels, baseline_accuracy=0.9)
        batch = evaluator.evaluate_population(np.stack(population))
        for chromosome, values in zip(population, batch):
            assert np.array_equal(values, evaluator.compute_population(chromosome[None])[0])

    def test_counters_fold_in_batch_duplicates(self, tiny_fitness_setup):
        layout, inputs, labels = tiny_fitness_setup
        rng = np.random.default_rng(1)
        population = np.stack([layout.random(rng) for _ in range(6)])
        duplicated = np.concatenate([population, population])
        evaluator = FitnessEvaluator(layout, inputs, labels)
        evaluator.evaluate_population(duplicated)
        # Counters reflect unique lookups: the 6 in-batch duplicates are
        # folded onto their first occurrence.
        assert evaluator.evaluations == 6
        assert evaluator.fitness_computations == 6
        # Nothing is memoized across batches: a second pass scores again.
        evaluator.evaluate_population(duplicated)
        assert evaluator.evaluations == evaluator.fitness_computations == 12

    def test_out_of_range_genome_raises(self, tiny_fitness_setup):
        """A gene pushed out of range (here by a multiple of 2**16) is
        refused, not scored, even next to an in-range duplicate."""
        layout, inputs, labels = tiny_fitness_setup
        genome = layout.random(np.random.default_rng(6))
        evaluator = FitnessEvaluator(layout, inputs, labels)
        scored = evaluator.evaluate_population(genome[None])
        wrapped = genome.copy()
        wrapped[0] += 1 << 16
        with pytest.raises(ValueError, match="out of bounds"):
            evaluator.evaluate_population(np.stack([genome, wrapped]))
        assert np.array_equal(evaluator.evaluate_population(genome[None]), scored)

    def test_rejects_bad_parameters(self, tiny_fitness_setup):
        layout, inputs, labels = tiny_fitness_setup
        with pytest.raises(ValueError):
            FitnessEvaluator(layout, inputs, labels, max_accuracy_loss=-0.1)

    @pytest.mark.parametrize(
        "pattern, unique",
        [
            ([0, 1, 2, 3], 4),
            ([0, 0, 0, 0], 1),
            ([0, 1, 0, 1, 0, 1], 2),
            ([0, 1, 2, 2, 1, 0], 3),
            ([3], 1),
        ],
        ids=["all-unique", "all-same", "interleaved", "mirrored", "single"],
    )
    def test_duplicates_fold_onto_one_scored_row(self, tiny_fitness_setup, pattern, unique):
        """Every position gets its own row's fitness, whatever the
        duplicate pattern, and each distinct genome is scored once."""
        layout, inputs, labels = tiny_fitness_setup
        rng = np.random.default_rng(21)
        genomes = [layout.random(rng) for _ in range(4)]
        population = np.stack([genomes[index] for index in pattern])
        evaluator = FitnessEvaluator(layout, inputs, labels, baseline_accuracy=0.9)
        scored = []
        original = evaluator.compute_population

        def spy(rows, slow=False):
            scored.append(rows.copy())
            return original(rows, slow=slow)

        evaluator.compute_population = spy
        batch = evaluator.evaluate_population(population)
        (rows,) = scored
        del evaluator.compute_population
        assert np.array_equal(
            batch, np.concatenate([evaluator.compute_population(row[None]) for row in population])
        )
        assert evaluator.evaluations == evaluator.fitness_computations == unique
        assert len({row.tobytes() for row in rows}) == len(rows) == unique

    def test_empty_population_scores_nothing(self, tiny_fitness_setup):
        layout, inputs, labels = tiny_fitness_setup
        evaluator = FitnessEvaluator(layout, inputs, labels)
        table = evaluator.evaluate_population(np.zeros((0, layout.num_genes), dtype=np.int64))
        assert table.shape == (0, 4)
        assert evaluator.evaluations == evaluator.fitness_computations == 0

    def test_single_row_batches_score_every_call(self, tiny_fitness_setup):
        """One-row batches of equal genomes give equal values, and each
        call is scored and counted afresh."""
        layout, inputs, labels = tiny_fitness_setup
        chromosome = layout.random(np.random.default_rng(2))
        evaluator = FitnessEvaluator(layout, inputs, labels)
        first = evaluator.evaluate_population(chromosome[None])
        second = evaluator.evaluate_population(chromosome.copy()[None])
        assert np.array_equal(first, second)
        assert np.array_equal(first, evaluator.compute_population(chromosome[None]))
        assert evaluator.evaluations == evaluator.fitness_computations == 2

    def test_evaluators_with_other_constraints_stay_independent(self, tiny_fitness_setup):
        """Fitness values embed the feasibility constraint: an impossible
        baseline makes every candidate infeasible for one evaluator and
        leaves another, unconstrained one untouched."""
        layout, inputs, labels = tiny_fitness_setup
        chromosome = layout.random(np.random.default_rng(32))
        constrained = FitnessEvaluator(layout, inputs, labels, baseline_accuracy=1.5)
        unconstrained = FitnessEvaluator(layout, inputs, labels)
        (first,) = constrained.evaluate_population(chromosome[None])
        (second,) = unconstrained.evaluate_population(chromosome[None])
        assert first[VIOLATION] > 0.0
        assert second[VIOLATION] == 0.0
        assert np.array_equal(first[[ERROR, AREA]], second[[ERROR, AREA]])

    @pytest.mark.parametrize("bias_bits", [20, 24])
    def test_genomes_equal_in_their_low_16_bits_are_scored_apart(self, bias_bits):
        """Wide bias genes keep two in-range genomes whose bias differs by
        2**16 distinct: the int64 dedupe key never aliases them."""
        layout = ChromosomeLayout(Topology((4, 3, 2)), ApproxConfig(bias_bits=bias_bits))
        rng = np.random.default_rng(23)
        inputs = rng.integers(0, 16, size=(40, 4))
        labels = rng.integers(0, 2, size=40)
        bias_gene = int(np.flatnonzero(layout.upper_bounds >= 1 << 17)[0])
        low = layout.random(rng)
        low[bias_gene] = 5
        high = low.copy()
        high[bias_gene] = 5 + (1 << 16)
        evaluator = FitnessEvaluator(layout, inputs, labels)
        batch = evaluator.evaluate_population(np.stack([low, high, low]))
        assert evaluator.evaluations == evaluator.fitness_computations == 2
        assert np.array_equal(
            batch, np.concatenate([evaluator.compute_population(row[None]) for row in (low, high, low)])
        )
