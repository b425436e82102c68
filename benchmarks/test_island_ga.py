"""Benchmarks of the island-model parallel GA engine.

Headline claim: at 4 islands on a ≥4-core machine, the island engine
reaches the same generation budget in less than half the wall-clock of
the single-process :class:`~repro.core.trainer.GATrainer` (≥2× speedup)
while the merged 4-island front's hypervolume matches or beats the
single-island front's under a common reference point.

The scaling measurement needs real cores, so it is skipped on boxes
with fewer than 4 usable CPUs; the quality (hypervolume) and warm-pool
(zero recomputation) checks run everywhere on the serial executor,
which performs the identical epoch/migration schedule in one process.
Recorded timings land in ``BENCH_island_ga.json``.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.cache import EvaluationCache
from repro.core.islands import IslandGATrainer
from repro.core.pareto import pareto_front
from repro.core.trainer import GAConfig
from repro.datasets.preprocessing import normalize_01, stratified_split
from repro.datasets.synthetic import SyntheticSpec, generate_synthetic_classification
from repro.quant.quantizers import quantize_inputs

#: Benchmark sizes: a Table-III-like population that gives each of the
#: 4 islands a meaningful sub-population (240 / 4 = 60, the paper
#: default for one population).
POPULATION = 240
GENERATIONS = 6
N_ISLANDS = 4
TOPOLOGY = (16, 5, 10)


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


@pytest.fixture(scope="module")
def island_training_data():
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


def island_config(n_islands: int, population: int = POPULATION, generations: int = GENERATIONS):
    return GAConfig(
        population_size=population,
        generations=generations,
        seed=0,
        n_islands=n_islands,
        migration_interval=2,
        migration_size=4 if n_islands > 1 else 0,
    )


def common_hypervolume(*results):
    """Hypervolume of each result's front under one shared reference point.

    The per-run ``GenerationStats.hypervolume`` values use per-island
    reference points, so cross-engine quality comparisons re-measure the
    final fronts against a reference spanning the union of all points.
    """
    from repro.core.pareto import hypervolume

    all_points = [point for result in results for point in result.pareto_points]
    max_area = max((point.area for point in all_points), default=1.0)
    reference = (1.0, float(max_area) * 1.1 + 1.0)
    return [hypervolume(pareto_front(result.pareto_points), reference) for result in results]


#: The scaling measurement needs one real core per island.
needs_island_cores = pytest.mark.skipif(
    usable_cpus() < N_ISLANDS,
    reason=f"island scaling needs >= {N_ISLANDS} usable CPUs",
)


@pytest.fixture(scope="module")
def island_scaling(island_training_data, record_bench):
    """1 island vs. 4 parallel islands: ``(single_s, quad_s, hv_single, hv_quad)``."""
    x_train, y_train = island_training_data

    start = time.perf_counter()
    single = IslandGATrainer(TOPOLOGY, ga_config=island_config(1)).train(x_train, y_train)
    single_seconds = time.perf_counter() - start

    start = time.perf_counter()
    quad = IslandGATrainer(
        TOPOLOGY, ga_config=island_config(N_ISLANDS), parallel=True
    ).train(x_train, y_train)
    quad_seconds = time.perf_counter() - start

    hv_single, hv_quad = common_hypervolume(single, quad)
    record_bench(
        "island_ga",
        "single_island_pop240",
        seconds=single_seconds,
        population=POPULATION,
        generations=GENERATIONS,
        hypervolume=hv_single,
    )
    record_bench(
        "island_ga",
        "four_islands_pop240",
        seconds=quad_seconds,
        population=POPULATION,
        generations=GENERATIONS,
        islands=N_ISLANDS,
        speedup=single_seconds / quad_seconds,
        hypervolume=hv_quad,
        cpus=usable_cpus(),
    )
    return single_seconds, quad_seconds, hv_single, hv_quad


@needs_island_cores
def test_bench_island_scaling_4x(island_scaling):
    """4 parallel islands vs 1: no hypervolume regression."""
    _, _, hv_single, hv_quad = island_scaling
    assert hv_quad >= hv_single - 1e-9, (
        f"merged 4-island hypervolume {hv_quad:.6f} regressed below "
        f"single-island {hv_single:.6f}"
    )


@needs_island_cores
@pytest.mark.perf_ratio
def test_bench_island_scaling_4x_wall_clock(island_scaling):
    """≥2× wall-clock at 4 islands vs 1."""
    single_seconds, quad_seconds, _, _ = island_scaling
    speedup = single_seconds / quad_seconds
    assert speedup >= 2.0, (
        f"4-island run took {quad_seconds:.2f}s vs {single_seconds:.2f}s "
        f"single-process ({speedup:.2f}x, expected >= 2x)"
    )


def test_bench_island_front_quality(island_training_data, record_bench):
    """Merged multi-island front matches the single run's hypervolume.

    Runs on the serial executor (identical schedule, single core), so
    the quality claim is checked even where the scaling test is skipped.
    """
    x_train, y_train = island_training_data
    config_kwargs = dict(population=96, generations=5)

    start = time.perf_counter()
    single = IslandGATrainer(
        TOPOLOGY, ga_config=island_config(1, **config_kwargs)
    ).train(x_train, y_train)
    single_seconds = time.perf_counter() - start

    start = time.perf_counter()
    merged = IslandGATrainer(
        TOPOLOGY, ga_config=island_config(N_ISLANDS, **config_kwargs), parallel=False
    ).train(x_train, y_train)
    merged_seconds = time.perf_counter() - start

    hv_single, hv_merged = common_hypervolume(single, merged)
    record_bench(
        "island_ga",
        "front_quality_serial_pop96",
        seconds=merged_seconds,
        single_seconds=single_seconds,
        islands=N_ISLANDS,
        hypervolume=hv_merged,
        single_hypervolume=hv_single,
    )
    assert hv_merged >= hv_single - 1e-9


def test_bench_island_warm_pool(island_training_data, record_bench, tmp_path):
    """Second run against a warm shared pool recomputes zero fitnesses."""
    x_train, y_train = island_training_data
    config = island_config(2, population=48, generations=4)
    pool_dir = tmp_path / "pool"

    start = time.perf_counter()
    IslandGATrainer(TOPOLOGY, ga_config=config, parallel=False).train(
        x_train, y_train, cache=EvaluationCache(), pool_dir=pool_dir
    )
    cold_seconds = time.perf_counter() - start

    start = time.perf_counter()
    warm = IslandGATrainer(TOPOLOGY, ga_config=config, parallel=False).train(
        x_train, y_train, cache=EvaluationCache(), pool_dir=pool_dir
    )
    warm_seconds = time.perf_counter() - start

    last = warm.history[-1]
    record_bench(
        "island_ga",
        "warm_pool_second_run",
        seconds=warm_seconds,
        cold_seconds=cold_seconds,
        evaluations=last.evaluations,
        cache_hits=last.cache_hits,
    )
    assert last.fitness_computations == 0
    assert last.cache_hits == last.evaluations
