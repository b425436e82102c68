"""Benchmarks of the GA inner loop: full generations and selection.

These track the vectorized fitness engine's headline claim (≥5× faster
GA generations at the default benchmark sizes) plus micro-benchmarks
of the non-dominated sort at a Table-III-like population size (with the
retained scalar sort as the reference) and at the union sizes the GA
sorts every generation, and of the per-generation bookkeeping around
fitness scoring: selection, the archive update and the generation stats.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.fitness import ACCURACY, AREA, MAX_ACCURACY_LOSS, FitnessEvaluator
from repro.core.nsga2 import (
    fast_non_dominated_sort,
    fast_non_dominated_sort_reference,
)
from repro.core.pareto import ParetoArchive
from repro.core.trainer import GAConfig, GATrainer
from repro.datasets.preprocessing import normalize_01, stratified_split
from repro.datasets.synthetic import SyntheticSpec, generate_synthetic_classification
from repro.quant.quantizers import quantize_inputs

#: Default benchmark sizes: the paper-default population on a small MLP.
POPULATION = 60
TOPOLOGY = (16, 5, 10)


@pytest.fixture(scope="module")
def ga_training_data():
    rng = np.random.default_rng(0)
    spec = SyntheticSpec(
        num_features=TOPOLOGY[0],
        num_classes=TOPOLOGY[-1],
        num_samples=700,
        class_sep=2.0,
        noise=0.2,
    )
    features, labels = generate_synthetic_classification(spec, rng)
    x_train, y_train, _, _ = stratified_split(normalize_01(features), labels, 0.7, rng)
    return quantize_inputs(x_train), y_train


def run_generations(x_train, y_train, generations: int):
    config = GAConfig(population_size=POPULATION, generations=generations, seed=0)
    trainer = GATrainer(TOPOLOGY, ga_config=config)
    return trainer.train(x_train, y_train)


def test_bench_full_ga_generation(benchmark, ga_training_data, record_bench):
    """One full NSGA-II generation at population 60 (evaluation + selection)."""
    x_train, y_train = ga_training_data
    result = benchmark(lambda: run_generations(x_train, y_train, 1))
    # Unique-lookup counting: in-batch duplicates are folded.
    assert POPULATION <= result.evaluations <= POPULATION * 2
    assert len(result.history) == 1
    record_bench(
        "ga_generation",
        "full_generation_pop60",
        seconds=result.wall_clock_seconds,
        population=POPULATION,
        evaluations=result.evaluations,
    )


def test_bench_nondominated_sort_n200(benchmark):
    """Sweep non-dominated sort of a 200-individual mixed-feasibility pool."""
    rng = np.random.default_rng(0)
    objectives = rng.random((200, 2))
    violations = np.maximum(0.0, rng.random(200) - 0.7)
    fronts = benchmark(lambda: fast_non_dominated_sort(objectives, violations))
    assert sorted(i for front in fronts for i in front) == list(range(200))


def test_bench_nondominated_sort_n200_reference(benchmark):
    """Scalar pairwise-loop sort at n=200, kept for speedup tracking."""
    rng = np.random.default_rng(0)
    objectives = rng.random((200, 2))
    violations = np.maximum(0.0, rng.random(200) - 0.7)
    fronts = benchmark(lambda: fast_non_dominated_sort_reference(objectives, violations))
    assert fronts == fast_non_dominated_sort(objectives, violations)


@pytest.mark.parametrize("n", [80, 240])
def test_bench_nondominated_sort_union(benchmark, n):
    """The sort of one environmental selection: the parent+offspring union
    at ci scale (2 × population 40) and at full scale (2 × 120).  GA
    objectives are tie-heavy (the error moves in 1/n_samples steps, the
    FA-count area is an integer), so many fronts form."""
    rng = np.random.default_rng(n)
    objectives = np.column_stack(
        [rng.integers(0, 40, n) / 560.0, rng.integers(0, 60, n).astype(np.float64)]
    )
    violations = np.maximum(0.0, rng.random(n) - 0.8)
    fronts = benchmark(lambda: fast_non_dominated_sort(objectives, violations))
    assert fronts == fast_non_dominated_sort_reference(objectives, violations)


#: The ``ci`` experiment scale's GA population (its union is twice that).
CI_POPULATION = 40


def test_bench_selection_and_archive(benchmark, ga_training_data, record_bench):
    """One generation's bookkeeping on a ci-sized 80-row parent+offspring
    union, scored once outside the timed loop: the archive update,
    environmental selection and the generation stats."""
    x_train, y_train = ga_training_data
    config = GAConfig(population_size=CI_POPULATION, seed=0)
    trainer = GATrainer(TOPOLOGY, ga_config=config)
    rng = np.random.default_rng(0)
    union = np.stack([trainer.layout.random(rng) for _ in range(2 * CI_POPULATION)])
    # A baseline at the median accuracy plus the loss bound leaves about
    # half of the union infeasible, as early generations see it.
    accuracies = FitnessEvaluator(trainer.layout, x_train, y_train).evaluate_population(union)[:, ACCURACY]
    evaluator = FitnessEvaluator(
        trainer.layout,
        x_train,
        y_train,
        baseline_accuracy=float(np.median(accuracies)) + MAX_ACCURACY_LOSS,
    )
    fitness = evaluator.evaluate_population(union)
    reference = (1.0, 1.1 * float(fitness[:, AREA].max()) + 1.0)

    def bookkeeping():
        archive = ParetoArchive()
        trainer._update_archive(archive, union, fitness)
        survivors, kept, _ = trainer._environmental_selection(union, fitness, CI_POPULATION, True)
        return survivors, trainer._stats(0, kept, archive, evaluator, reference)

    survivors, stats = benchmark(bookkeeping)
    start = time.perf_counter()
    bookkeeping()
    seconds = time.perf_counter() - start
    assert len(survivors) == CI_POPULATION
    assert stats.archive_size >= 1 and stats.hypervolume > 0.0
    record_bench(
        "ga_generation",
        "selection_and_archive_union80",
        seconds=seconds,
        union=2 * CI_POPULATION,
        archive_size=stats.archive_size,
    )
