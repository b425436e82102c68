"""Tests for the genetic operators, population initialization and fitness."""

import numpy as np
import pytest

from repro.approx.config import ApproxConfig
from repro.approx.mlp import accuracy_population, forward_stacked
from repro.baselines.gradient import FloatMLP
from repro.core.chromosome import ChromosomeLayout
from repro.core.fitness import ACCURACY, AREA, ERROR, VIOLATION, FitnessEvaluator
from repro.core.operators import CREEP_FRACTION, GeneticOperators, VariationDraws
from repro.core.population import PopulationInitializer
from repro.hardware.adder_tree import mlp_fa_count


@pytest.fixture
def layout(small_topology, approx_config):
    return ChromosomeLayout(small_topology, approx_config)


@pytest.fixture
def operators(layout):
    return GeneticOperators(layout=layout, crossover_probability=1.0, mutation_probability=0.1)


def _draws(
    num_genes, crossover_coins=(), crossover_mask=None, mutation_coins=None, branch=(), value=()
):
    """Hand-built :class:`VariationDraws` for the crossover or the mutation
    step alone: no tournaments, and by default no crossover and no gene
    selected for mutation."""
    return VariationDraws(
        contestants=np.zeros((0, 2), dtype=np.int64),
        tie_coins=np.zeros(0),
        crossover_coins=np.asarray(crossover_coins, dtype=np.float64),
        crossover_mask=np.zeros((0, num_genes)) if crossover_mask is None else crossover_mask,
        mutation_coins=np.ones((0, num_genes)) if mutation_coins is None else mutation_coins,
        branch_coins=np.asarray(branch, dtype=np.float64),
        value_coins=np.asarray(value, dtype=np.float64),
    )


def _mutate_all(ops, chromosomes, branch, value):
    """Mutate every gene of every row (every mutation coin is 0) with the
    given branch and value coins: a scalar, one coin per gene or one per
    entry of ``chromosomes``, in row-major order."""
    chromosomes = np.atleast_2d(np.asarray(chromosomes, dtype=np.int64))
    coins = [np.broadcast_to(c, chromosomes.shape).reshape(-1) for c in (branch, value)]
    draws = _draws(
        chromosomes.shape[1], mutation_coins=np.zeros(chromosomes.shape), branch=coins[0], value=coins[1]
    )
    return ops.mutate_population(chromosomes, draws)


class TestOperators:
    def test_crossover_children_within_bounds(self, layout, operators, rng):
        a, b = layout.random(rng), layout.random(rng)
        draws = _draws(layout.num_genes, [0.0], rng.random((1, layout.num_genes)))
        children_a, children_b = operators.crossover_population(a[None], b[None], draws)
        layout.validate(children_a[0])
        layout.validate(children_b[0])

    def test_uniform_crossover_mixes_genes(self, layout, operators, rng):
        a = layout.lower_bounds.copy()
        b = layout.upper_bounds.copy()
        mask = rng.random((1, layout.num_genes))
        children_a, children_b = operators.crossover_population(
            a[None], b[None], _draws(layout.num_genes, [0.0], mask)
        )
        child_a, child_b = children_a[0], children_b[0]
        # Every gene of each child comes from one of the parents.
        assert np.all((child_a == a) | (child_a == b))
        assert np.all((child_b == a) | (child_b == b))
        # And the two children are complementary.
        assert np.all((child_a == a) ^ (child_b == a) | (a == b))
        # A mask entry below 0.5 takes the gene from the first parent.
        assert np.array_equal(child_a, np.where(mask[0] < 0.5, a, b))

    def test_no_crossover_when_probability_zero(self, layout, rng):
        ops = GeneticOperators(layout, crossover_probability=0.0)
        a, b = layout.random(rng), layout.random(rng)
        draws = ops.draw_variation(2, 2, rng)
        assert draws.crossover_mask.shape == (0, layout.num_genes)
        children_a, children_b = ops.crossover_population(a[None], b[None], draws)
        assert np.array_equal(children_a[0], a) and np.array_equal(children_b[0], b)

    def test_mutation_respects_bounds(self, layout, rng):
        ops = GeneticOperators(layout, mutation_probability=1.0)
        population = np.stack([layout.random(rng) for _ in range(6)])
        for child in ops.mutate_population(population, ops.draw_variation(6, 6, rng)):
            layout.validate(child)

    def test_mutation_zero_probability_is_identity(self, layout, rng):
        ops = GeneticOperators(layout, mutation_probability=0.0)
        population = np.stack([layout.random(rng) for _ in range(2)])
        draws = ops.draw_variation(2, 2, rng)
        assert np.array_equal(ops.mutate_population(population, draws), population)

    def test_mutation_changes_some_genes(self, layout, rng):
        ops = GeneticOperators(layout, mutation_probability=1.0)
        population = np.stack([layout.random(rng) for _ in range(2)])
        mutated = ops.mutate_population(population, ops.draw_variation(2, 2, rng))
        assert np.all(np.any(mutated != population, axis=1))

    def test_tournament_prefers_lower_rank(self, layout, rng):
        ops = GeneticOperators(layout)
        ranks = np.array([0, 5])
        crowding = np.array([0.0, 0.0])
        draws = ops.draw_variation(2, 30, rng)
        winners = ops.select_parents(ranks, crowding, draws)
        assert winners.shape == (30,)
        assert np.all(winners == 0)  # with distinct contestants the lower rank always wins

    def test_make_offspring_count_and_validity(self, layout, operators, rng):
        population = np.stack([layout.random(rng) for _ in range(6)])
        ranks = np.zeros(6, dtype=int)
        crowding = np.zeros(6)
        children = operators.make_offspring(population, ranks, crowding, 9, rng)
        assert len(children) == 9
        for child in children:
            layout.validate(child)

    def test_invalid_configuration(self, layout):
        with pytest.raises(ValueError):
            GeneticOperators(layout, crossover_probability=2.0)
        with pytest.raises(ValueError):
            GeneticOperators(layout, mutation_probability=-0.1)

    def test_make_offspring_returns_matrix(self, layout, operators, rng):
        population = np.stack([layout.random(rng) for _ in range(6)])
        children = operators.make_offspring(
            population, np.zeros(6, dtype=int), np.zeros(6), 7, rng
        )
        assert isinstance(children, np.ndarray)
        assert children.shape == (7, layout.num_genes)
        assert children.dtype == np.int64

    def test_make_offspring_rejects_empty_inputs(self, layout, operators, rng):
        population = np.stack([layout.random(rng) for _ in range(4)])
        with pytest.raises(ValueError):
            operators.make_offspring(np.zeros((2, 3, 4)), None, None, 4, rng)
        with pytest.raises(ValueError):
            operators.make_offspring(population, np.zeros(4), np.zeros(4), 0, rng)


class TestVectorizedScalarEquivalence:
    """The matrix engine and the ``slow=True`` oracle share their random
    draws, so for identical generator states the offspring matrices must
    be bit-identical — the strongest form of identity of distribution."""

    @pytest.mark.parametrize("seed", range(16))
    def test_offspring_bit_identical(self, layout, seed):
        rng = np.random.default_rng(seed)
        ops = GeneticOperators(
            layout,
            crossover_probability=float(rng.random()),
            mutation_probability=float(rng.random() * 0.5),
        )
        size = int(rng.integers(2, 12))
        count = int(rng.integers(1, 12))
        population = np.stack([layout.random(rng) for _ in range(size)])
        ranks = rng.integers(0, 4, size)
        crowding = rng.random(size)
        crowding[rng.random(size) < 0.3] = np.inf  # boundary individuals
        fast = ops.make_offspring(
            population, ranks, crowding, count, np.random.default_rng(seed + 999)
        )
        slow = ops.make_offspring(
            population,
            ranks,
            crowding,
            count,
            np.random.default_rng(seed + 999),
            slow=True,
        )
        assert np.array_equal(fast, slow)
        for child in fast:
            layout.validate(child)


class TestMutationGuarantees:
    """A selected mutable gene must always change value (the effective
    mutation rate equals ``mutation_probability``)."""

    @pytest.mark.parametrize("seed", range(5))
    def test_every_selected_gene_changes(self, layout, seed):
        """Every gene selected, with random branch and value coins: each
        mutable gene moves, also from either bound."""
        ops = GeneticOperators(layout, mutation_probability=1.0)
        rng = np.random.default_rng(seed)
        mutable = layout.upper_bounds > layout.lower_bounds
        chromosomes = np.stack(
            [
                layout.lower_bounds,  # creep at the lower bound
                layout.upper_bounds,  # creep at the upper bound
                layout.random(rng),
            ]
        )
        coins = rng.random((2,) + chromosomes.shape)
        mutated = _mutate_all(ops, chromosomes, coins[0], coins[1])
        for row, chromosome in zip(mutated, chromosomes):
            layout.validate(row)
            assert np.all(row[mutable] != chromosome[mutable])

    def test_batched_mutation_always_changes_selected_genes(self, layout):
        """Per-gene: exactly the selected mutable genes change value."""
        ops = GeneticOperators(
            layout, crossover_probability=0.0, mutation_probability=0.5
        )
        rng = np.random.default_rng(0)
        original = np.stack(
            [layout.lower_bounds, layout.upper_bounds]
            + [layout.random(rng) for _ in range(6)]
        )
        draws = ops.draw_variation(len(original), len(original), rng)
        mutated = ops.mutate_population(original, draws)
        mutable = layout.upper_bounds > layout.lower_bounds
        selected = draws.mutation_coins < ops.mutation_probability
        changed = mutated != original
        assert np.array_equal(changed[:, mutable], selected[:, mutable])
        assert not np.any(changed[:, ~mutable])
        for child in mutated:
            layout.validate(child)

    def test_mutation_rate_matches_probability(self, layout):
        """Distribution check: the per-gene change frequency matches
        ``mutation_probability`` now that no-op mutations are impossible."""
        probability = 0.25
        ops = GeneticOperators(layout, mutation_probability=probability)
        rng = np.random.default_rng(42)
        rows = 400
        population = np.stack([layout.random(rng) for _ in range(rows)])
        draws = ops.draw_variation(rows, rows, rng)
        mutated = ops.mutate_population(population, draws)
        mutable = layout.upper_bounds > layout.lower_bounds
        rate = np.mean(mutated[:, mutable] != population[:, mutable])
        # 400 rows x ~40 mutable genes: the sample frequency lies within
        # a few standard errors of the true rate.
        assert abs(rate - probability) < 0.02

    @pytest.mark.parametrize(
        "branch", [0.0, np.nextafter(CREEP_FRACTION, 0.0)], ids=["branch_zero", "branch_below_fraction"]
    )
    @pytest.mark.parametrize("value", [0.0, 0.99], ids=["down", "up"])
    def test_creep_reflects_at_bounds(self, layout, branch, value):
        """A branch coin below ``CREEP_FRACTION`` creeps, and creep steps
        reflect off the bounds instead of clipping onto the same value,
        whichever direction the value coin asks for."""
        ops = GeneticOperators(layout, mutation_probability=1.0)
        non_mask = ~layout.mask_gene_flags
        span = layout.upper_bounds - layout.lower_bounds
        creeping = non_mask & (span >= 2)
        assert np.any(creeping)
        lower, upper = _mutate_all(
            ops, np.stack([layout.lower_bounds, layout.upper_bounds]), branch, value
        )
        assert np.all(lower[creeping] == layout.lower_bounds[creeping] + 1)
        assert np.all(upper[creeping] == layout.upper_bounds[creeping] - 1)
        # Between the bounds the value coin picks the direction.
        middle = np.where(creeping, layout.lower_bounds + span // 2, layout.lower_bounds)
        (stepped,) = _mutate_all(ops, middle, branch, value)
        step = -1 if value < 0.5 else 1
        assert np.all(stepped[creeping] == middle[creeping] + step)

    @pytest.mark.parametrize("branch", [CREEP_FRACTION, 0.99], ids=["branch_at_fraction", "branch_high"])
    def test_random_reset_never_redraws_current_value(self, layout, branch):
        """A branch coin at or above ``CREEP_FRACTION`` resets: the value
        coin picks uniformly among the ``span`` values other than the
        current one, so the gene always moves."""
        ops = GeneticOperators(layout, mutation_probability=1.0)
        lower, upper = layout.lower_bounds, layout.upper_bounds
        span = upper - lower
        resetting = ~layout.mask_gene_flags & (span >= 2)
        assert np.any(resetting)
        rng = np.random.default_rng(11)
        for trial in range(50):
            chromosome = layout.random(rng)
            coins = rng.random(chromosome.size)
            mutated = _mutate_all(ops, chromosome, branch, coins)[0]
            assert np.all(mutated[resetting] != chromosome[resetting])
            draw = lower + np.minimum((coins * span).astype(np.int64), span - 1)
            expected = draw + (draw >= chromosome)
            assert np.array_equal(mutated[resetting], expected[resetting])
            layout.validate(mutated)


class _FrozenMaskLayout:
    """Minimal layout stub with a zero-bit mask gene (regression case)."""

    def __init__(self):
        self.lower_bounds = np.array([0, 0, 0], dtype=np.int64)
        self.upper_bounds = np.array([0, 15, 1], dtype=np.int64)
        self.mask_gene_flags = np.array([True, True, False])
        self.mask_bits_per_gene = np.array([0, 4, 0], dtype=np.int64)
        self.num_genes = 3

    def clip(self, chromosome):  # pragma: no cover - must never be needed
        raise AssertionError("mutation must stay in bounds without clipping")


class TestZeroBitMaskGenes:
    """A mask gene with zero mask bits must be skipped, not phantom-flipped."""

    def test_mutation_skips_zero_bit_mask_gene(self):
        layout = _FrozenMaskLayout()
        ops = GeneticOperators(layout, mutation_probability=1.0)
        rng = np.random.default_rng(0)
        chromosomes = np.tile(np.array([0, 5, 1], dtype=np.int64), (20, 1))
        coins = rng.random((2, 20, 3))
        mutated = _mutate_all(ops, chromosomes, coins[0], coins[1])
        assert np.all(mutated[:, 0] == 0)  # unchanged, and clip was never called
        assert np.all((mutated[:, 1] >= 0) & (mutated[:, 1] <= 15) & (mutated[:, 1] != 5))
        assert np.all(mutated[:, 2] == 0)

    @pytest.mark.parametrize("slow", [False, True])
    def test_batched_mutation_skips_zero_bit_mask_gene(self, slow):
        layout = _FrozenMaskLayout()
        ops = GeneticOperators(
            layout, crossover_probability=0.0, mutation_probability=1.0
        )
        rng = np.random.default_rng(1)
        population = np.array([[0, 5, 1], [0, 9, 0]], dtype=np.int64)
        children = ops.make_offspring(
            population, np.zeros(2, dtype=int), np.zeros(2), 8, rng, slow=slow
        )
        assert np.all(children[:, 0] == 0)
        assert np.all((children[:, 1] >= 0) & (children[:, 1] <= 15))
        assert np.all((children[:, 2] == 0) | (children[:, 2] == 1))

    def test_frozen_mask_bounds_are_skipped(self, rng):
        """Ablation-style frozen mask genes (lower == upper) never mutate."""
        from repro.approx.topology import Topology
        from repro.core.chromosome import ChromosomeLayout as _Layout

        layout = _Layout(Topology((4, 3, 2)), ApproxConfig())
        mask_flags = layout.mask_gene_flags
        bits = layout.mask_bits_per_gene
        layout.lower_bounds = layout.lower_bounds.copy()
        layout.lower_bounds[mask_flags] = (1 << bits[mask_flags]) - 1
        ops = GeneticOperators(layout, mutation_probability=1.0)
        chromosome = layout.clip(layout.random(rng))
        coins = rng.random((2, chromosome.size))
        mutated = _mutate_all(ops, chromosome, coins[0], coins[1])[0]
        assert np.all(mutated[mask_flags] == chromosome[mask_flags])
        layout.validate(mutated)


class TestPopulationInitializer:
    def test_population_size_and_validity(self, layout, rng):
        init = PopulationInitializer(layout, doping_fraction=0.1)
        population = init.build(20, rng)
        assert isinstance(population, np.ndarray)
        assert population.shape == (20, layout.num_genes)
        assert population.dtype == np.int64
        for individual in population:
            layout.validate(individual)

    def test_doped_individuals_have_open_masks(self, layout, rng):
        init = PopulationInitializer(layout, doping_fraction=1.0)
        population = init.build(5, rng)
        mask_flags = layout.mask_gene_flags
        widths = layout.mask_bits_per_gene
        for individual in population:
            assert np.all(individual[mask_flags] == (1 << widths[mask_flags]) - 1)

    def test_seed_model_projects_pow2(self, layout, rng, small_topology):
        seed_model = FloatMLP.random(small_topology, rng)
        init = PopulationInitializer(layout, doping_fraction=1.0, seed_model=seed_model)
        individual = init.build(1, rng)[0]
        decoded = layout.decode(individual)
        # Seeded signs should follow the float model's weight signs.
        float_signs = np.where(seed_model.weights[0] < 0, -1, 1)
        agreement = np.mean(decoded.layers[0].signs == float_signs)
        assert agreement > 0.9

    def test_mask_density_zero_gives_empty_masks(self, layout, rng):
        init = PopulationInitializer(layout, doping_fraction=0.0, mask_density=0.0)
        individual = init.build(1, rng)[0]
        assert np.all(individual[layout.mask_gene_flags] == 0)

    def test_seed_model_topology_mismatch(self, layout, rng):
        from repro.approx.topology import Topology

        wrong = FloatMLP.random(Topology((7, 3, 2)), rng)
        with pytest.raises(ValueError):
            PopulationInitializer(layout, seed_model=wrong)

    def test_invalid_fractions(self, layout):
        with pytest.raises(ValueError):
            PopulationInitializer(layout, doping_fraction=1.5)
        with pytest.raises(ValueError):
            PopulationInitializer(layout, mask_density=-0.1)
        with pytest.raises(ValueError):
            PopulationInitializer(layout).build(0, np.random.default_rng(0))


class TestFitnessEvaluator:
    def test_objectives_and_ranges(self, layout, tiny_dataset):
        x_train, y_train, _, _ = tiny_dataset
        evaluator = FitnessEvaluator(layout, x_train, y_train)
        fitness = evaluator.evaluate_population(layout.random(np.random.default_rng(0))[None])
        assert fitness.shape == (1, 4) and fitness.dtype == np.float64
        (row,) = fitness
        assert 0.0 <= row[ACCURACY] <= 1.0
        assert row[ERROR] == pytest.approx(1.0 - row[ACCURACY])
        assert row[AREA] >= 0
        assert row[VIOLATION] <= 0.0  # no baseline -> no constraint

    def test_constraint_violation(self, layout, tiny_dataset):
        x_train, y_train, _, _ = tiny_dataset
        evaluator = FitnessEvaluator(
            layout, x_train, y_train, baseline_accuracy=1.0, max_accuracy_loss=0.0
        )
        (row,) = evaluator.evaluate_population(layout.random(np.random.default_rng(0))[None])
        if row[ACCURACY] < 1.0:
            assert row[VIOLATION] > 0

    def test_evaluation_counter(self, layout, tiny_dataset):
        x_train, y_train, _, _ = tiny_dataset
        evaluator = FitnessEvaluator(layout, x_train, y_train)
        rng = np.random.default_rng(0)
        evaluator.evaluate_population(np.stack([layout.random(rng) for _ in range(7)]))
        assert evaluator.evaluations == 7

    def test_input_validation(self, layout, tiny_dataset):
        x_train, y_train, _, _ = tiny_dataset
        with pytest.raises(ValueError):
            FitnessEvaluator(layout, x_train, y_train[:-1])
        with pytest.raises(ValueError):
            FitnessEvaluator(layout, x_train[:, :2], y_train)
        with pytest.raises(ValueError):
            FitnessEvaluator(layout, x_train, y_train, max_accuracy_loss=-1.0)


class TestFitnessTable:
    """``evaluate_population`` returns one ``(n, 4)`` float64 table whose
    columns the module constants name, objectives first."""

    def test_columns_are_named_objectives_first(self):
        assert (ERROR, AREA, ACCURACY, VIOLATION) == (0, 1, 2, 3)

    @pytest.mark.parametrize("baseline", [None, 0.2, 0.55, 0.9])
    def test_columns_follow_from_accuracy_and_area(self, layout, tiny_dataset, baseline):
        x_train, y_train, _, _ = tiny_dataset
        rng = np.random.default_rng(5)
        population = np.stack([layout.random(rng) for _ in range(12)])
        evaluator = FitnessEvaluator(
            layout, x_train, y_train, baseline_accuracy=baseline, max_accuracy_loss=0.05
        )
        table = evaluator.evaluate_population(population)
        assert table.shape == (12, 4) and table.dtype == np.float64
        for row, chromosome in zip(table.tolist(), population):
            model = layout.decode(chromosome)
            accuracy = model.accuracy(evaluator.train_inputs, evaluator.train_labels)
            assert row[ACCURACY] == accuracy
            assert row[ERROR] == 1.0 - accuracy
            assert row[AREA] == float(mlp_fa_count(model))
            expected = 0.0 if baseline is None else max(0.0, baseline - accuracy - 0.05)
            assert row[VIOLATION] == expected

    def test_duplicate_rows_are_scored_once_and_share_their_row(self, layout, tiny_dataset):
        x_train, y_train, _, _ = tiny_dataset
        rng = np.random.default_rng(6)
        genomes = np.stack([layout.random(rng) for _ in range(3)])
        population = genomes[[2, 0, 2, 1, 0, 2]]
        evaluator = FitnessEvaluator(layout, x_train, y_train, baseline_accuracy=0.8)
        scored = []
        compute = evaluator.compute_population
        evaluator.compute_population = lambda rows: scored.append(rows.copy()) or compute(rows)
        table = evaluator.evaluate_population(population)
        del evaluator.compute_population
        assert [rows.tolist() for rows in scored] == [genomes[[2, 0, 1]].tolist()]
        assert evaluator.evaluations == evaluator.fitness_computations == 3
        assert np.array_equal(table, evaluator.compute_population(genomes)[[2, 0, 2, 1, 0, 2]])
        assert np.array_equal(table[0], table[2]) and np.array_equal(table[0], table[5])

    def test_empty_batch_is_an_empty_table(self, layout, tiny_dataset):
        x_train, y_train, _, _ = tiny_dataset
        evaluator = FitnessEvaluator(layout, x_train, y_train)
        table = evaluator.evaluate_population(np.zeros((0, layout.num_genes), dtype=np.int64))
        assert table.shape == (0, 4) and table.dtype == np.float64
        assert evaluator.evaluations == evaluator.fitness_computations == 0

    def test_empty_matrix_through_the_stacked_kernel(self, layout, tiny_dataset):
        """An empty matrix runs the fast path, which agrees with the
        ``slow=True`` oracle, and the stacked kernels return empty arrays."""
        x_train, y_train, _, _ = tiny_dataset
        evaluator = FitnessEvaluator(layout, x_train, y_train)
        empty = np.zeros((0, layout.num_genes), dtype=np.int64)
        fast = evaluator.compute_population(empty)
        assert fast.shape == (0, 4)
        assert np.array_equal(fast, evaluator.compute_population(empty, slow=True))
        params = layout.population_parameters(empty)
        accuracies = accuracy_population(params, evaluator.train_inputs, evaluator.train_labels)
        assert accuracies.shape == (0,)
        scores = forward_stacked(params, evaluator.train_inputs)
        assert scores.shape == (0, len(evaluator.train_inputs), layout.topology.num_outputs)
