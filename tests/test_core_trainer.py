"""Tests for the NSGA-II trainer (integration of the core package)."""

from functools import partialmethod

import numpy as np
import pytest

from repro.core.operators import GeneticOperators
from repro.core.trainer import GAConfig, GATrainer
from repro.hardware.adder_tree import mlp_fa_count
from repro.hardware.fast_area import fast_population_fa_count


def _archive_key(result):
    return [
        (p.error, p.area, p.accuracy, tuple(np.asarray(p.payload).tolist()))
        for p in result.pareto_points
    ]


@pytest.fixture(scope="module")
def trained(tiny_dataset_module):
    x_train, y_train, _, _ = tiny_dataset_module
    config = GAConfig(population_size=16, generations=8, seed=0)
    trainer = GATrainer((4, 3, 2), ga_config=config)
    result = trainer.train(x_train, y_train)
    return trainer, result


@pytest.fixture(scope="module")
def tiny_dataset_module():
    from repro.datasets.preprocessing import normalize_01, stratified_split
    from repro.datasets.synthetic import SyntheticSpec, generate_synthetic_classification
    from repro.quant.quantizers import quantize_inputs

    rng = np.random.default_rng(7)
    spec = SyntheticSpec(num_features=4, num_classes=2, num_samples=160, class_sep=3.0, noise=0.15)
    features, labels = generate_synthetic_classification(spec, rng)
    features = normalize_01(features)
    x_train, y_train, x_test, y_test = stratified_split(features, labels, 0.7, rng)
    return quantize_inputs(x_train), y_train, quantize_inputs(x_test), y_test


class TestGAConfig:
    def test_defaults_follow_paper(self, tiny_dataset_module):
        """The paper's settings live as the defaults of the components the
        trainer builds: crossover 0.7, ~10 % doping, a 10 % accuracy-loss
        constraint during training."""
        import inspect

        from repro.core.fitness import FitnessEvaluator
        from repro.core.pareto import ParetoArchive
        from repro.core.population import PopulationInitializer

        x_train, y_train, _, _ = tiny_dataset_module
        layout = GATrainer((4, 3, 2)).layout
        assert GAConfig().doping_fraction == pytest.approx(0.10)
        operators = GeneticOperators(layout)
        assert operators.crossover_probability == pytest.approx(0.7)
        assert operators.mutation_probability == pytest.approx(0.02)
        initializer = PopulationInitializer(layout)
        assert initializer.doping_fraction == pytest.approx(0.10)
        assert initializer.mask_density == pytest.approx(0.5)
        evaluator = FitnessEvaluator(layout, x_train, y_train, baseline_accuracy=0.9)
        assert evaluator.max_accuracy_loss == pytest.approx(0.10)
        assert ParetoArchive().max_size == 256
        # The one doping default: the trainer's field and the initializer's.
        default = inspect.signature(PopulationInitializer).parameters["doping_fraction"].default
        assert GAConfig().doping_fraction == default

    def test_validation(self):
        with pytest.raises(ValueError):
            GAConfig(population_size=2)
        with pytest.raises(ValueError):
            GAConfig(generations=0)

    @pytest.mark.parametrize(
        "field",
        [
            "n_workers",
            "n_islands",
            "migration_interval",
            "migration_size",
            "crossover_probability",
            "mutation_probability",
            "initial_mask_density",
            "max_accuracy_loss",
            "learn_shifts",
            "archive_size",
        ],
    )
    def test_engine_options_are_gone(self, field):
        """The GA has one in-process engine (no pool or island settings),
        and the settings whose one value is a component's own default
        live only at that component."""
        with pytest.raises(TypeError, match=field):
            GAConfig(**{field: 2})


class TestOneEngine:
    @pytest.mark.parametrize(
        "name",
        ["CachePool", "IslandConfig", "IslandGAResult", "IslandGATrainer", "make_trainer"],
    )
    def test_island_exports_are_gone(self, name):
        import repro.core

        assert name not in repro.core.__all__
        with pytest.raises(AttributeError):
            getattr(repro.core, name)

    def test_island_module_is_gone(self):
        import importlib

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.islands")


class TestGATrainer:
    def test_result_structure(self, trained):
        trainer, result = trained
        # Unique-lookup counting: genomes duplicated within a batch are
        # folded, so the count is at most one lookup per requested slot.
        assert 16 < result.evaluations <= 16 * (8 + 1)
        last = result.history[-1]
        assert last.evaluations == result.evaluations
        assert last.fitness_computations == last.evaluations
        assert len(result.history) == 8
        assert len(result.estimated_front) >= 1
        assert result.wall_clock_seconds > 0

    def test_front_points_carry_chromosomes(self, trained):
        trainer, result = trained
        for point in result.estimated_front:
            mlp = result.decode(point)
            assert fast_population_fa_count([mlp])[0] == mlp_fa_count(mlp) == int(point.area)

    def test_front_is_non_dominated(self, trained):
        _, result = trained
        front = result.estimated_front
        for a in front:
            for b in front:
                if a is b:
                    continue
                assert not (b.error <= a.error and b.area < a.area) or b.error > a.error

    def test_training_improves_over_random(self, trained, tiny_dataset_module):
        _, result = trained
        x_train, y_train, _, _ = tiny_dataset_module
        best = result.best_accuracy_point()
        majority = max(np.mean(y_train == 0), np.mean(y_train == 1))
        assert best.accuracy >= majority

    def test_hypervolume_non_decreasing(self, trained):
        _, result = trained
        hypervolumes = [stats.hypervolume for stats in result.history]
        assert all(b >= a - 1e-9 for a, b in zip(hypervolumes, hypervolumes[1:]))

    def test_select_within_accuracy_loss(self, trained):
        _, result = trained
        best = result.best_accuracy_point()
        selected = result.select_within_accuracy_loss(0.05, baseline_accuracy=best.accuracy)
        assert selected is not None
        assert selected.accuracy >= best.accuracy - 0.05
        assert selected.area <= best.area

    def test_select_requires_baseline(self, trained):
        _, result = trained
        with pytest.raises(ValueError):
            result.select_within_accuracy_loss(0.05)

    def test_deterministic_given_seed(self, tiny_dataset_module):
        x_train, y_train, _, _ = tiny_dataset_module
        config = GAConfig(population_size=12, generations=4, seed=3)
        result_a = GATrainer((4, 3, 2), ga_config=config).train(x_train, y_train)
        result_b = GATrainer((4, 3, 2), ga_config=config).train(x_train, y_train)
        front_a = [(p.error, p.area) for p in result_a.estimated_front]
        front_b = [(p.error, p.area) for p in result_b.estimated_front]
        assert front_a == front_b

    def test_deterministic_across_operator_paths(self, tiny_dataset_module, monkeypatch):
        """A whole GA run through the scalar ``make_offspring(slow=True)``
        oracle shares every random draw with the vectorized run, so the
        same seed must produce identical fronts and histories."""
        x_train, y_train, _, _ = tiny_dataset_module
        config = GAConfig(population_size=12, generations=4, seed=3)
        fast = GATrainer((4, 3, 2), ga_config=config).train(x_train, y_train)
        scalar_calls = []
        scalar = GeneticOperators._offspring_scalar

        def counted_scalar(self, *args):
            scalar_calls.append(len(args[0]))
            return scalar(self, *args)

        monkeypatch.setattr(
            GeneticOperators, "make_offspring", partialmethod(GeneticOperators.make_offspring, slow=True)
        )
        monkeypatch.setattr(GeneticOperators, "_offspring_scalar", counted_scalar)
        slow = GATrainer((4, 3, 2), ga_config=config).train(x_train, y_train)
        assert scalar_calls == [12] * config.generations
        assert [(p.error, p.area) for p in fast.estimated_front] == [
            (p.error, p.area) for p in slow.estimated_front
        ]
        assert [
            (s.best_error, s.best_area, s.mean_error, s.mean_area)
            for s in fast.history
        ] == [
            (s.best_error, s.best_area, s.mean_error, s.mean_area)
            for s in slow.history
        ]

    def test_same_seed_gives_identical_archive_and_history(self, tiny_dataset_module):
        x_train, y_train, _, _ = tiny_dataset_module
        config = GAConfig(population_size=16, generations=4, seed=3)
        first, second = (
            GATrainer((4, 3, 2), ga_config=config).train(x_train, y_train) for _ in range(2)
        )
        assert _archive_key(first) == _archive_key(second)
        assert len(first.history) == config.generations
        assert first.history == second.history

    def test_area_objective_disabled(self, tiny_dataset_module):
        x_train, y_train, _, _ = tiny_dataset_module
        config = GAConfig(population_size=12, generations=4, seed=0)
        result = GATrainer((4, 3, 2), ga_config=config).train(
            x_train, y_train, area_objective=False
        )
        assert len(result.estimated_front) >= 1

    @pytest.mark.parametrize("area_objective", [True, False])
    def test_every_generation_scores_each_unique_lookup(self, tiny_dataset_module, area_objective):
        """Nothing is memoized across generations: every history row has
        scored exactly its unique lookups, which grow by at most one
        offspring population per generation."""
        x_train, y_train, _, _ = tiny_dataset_module
        config = GAConfig(population_size=12, generations=5, seed=4)
        result = GATrainer((4, 3, 2), ga_config=config).train(
            x_train, y_train, baseline_accuracy=0.9, area_objective=area_objective
        )
        counts = [(row.evaluations, row.fitness_computations) for row in result.history]
        assert all(evaluations == computations for evaluations, computations in counts)
        steps = np.diff([12] + [evaluations for evaluations, _ in counts])
        assert np.all((steps >= 0) & (steps <= 12))
        assert result.evaluations == counts[-1][0]

    def test_constraint_fallback_when_infeasible(self, tiny_dataset_module):
        # An impossible baseline accuracy makes every candidate infeasible;
        # the trainer must still return a usable front.
        x_train, y_train, _, _ = tiny_dataset_module
        config = GAConfig(population_size=8, generations=2, seed=0)
        result = GATrainer((4, 3, 2), ga_config=config).train(
            x_train, y_train, baseline_accuracy=2.0
        )
        assert len(result.estimated_front) >= 1
