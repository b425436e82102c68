"""Benchmarks of the matrix-native GA variation engine.

Tracks the PR's headline claim: producing a 200-child offspring batch
with the vectorized tournament/crossover/mutation pipeline is at least
5× faster than the retained scalar per-individual walk (``slow=True``),
with bit-identical offspring.  Timings are recorded into
``BENCH_operators.json`` (see ``conftest.record_bench``) so the CI
smoke pass leaves a per-commit perf trajectory even with
``--benchmark-disable``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.approx.config import ApproxConfig
from repro.approx.topology import Topology
from repro.core.chromosome import ChromosomeLayout
from repro.core.nsga2 import nsga2_sort_key
from repro.core.operators import GeneticOperators

#: Population size of the headline claim and the Pendigits-like topology.
POPULATION = 200
TOPOLOGY = (16, 5, 10)


@pytest.fixture(scope="module")
def variation_inputs():
    rng = np.random.default_rng(0)
    layout = ChromosomeLayout(Topology(TOPOLOGY), ApproxConfig())
    operators = GeneticOperators(layout)
    population = np.stack([layout.random(rng) for _ in range(POPULATION)])
    objectives = rng.random((POPULATION, 2))
    ranks, crowding = nsga2_sort_key(objectives)
    return operators, population, ranks, crowding


@pytest.fixture(scope="module")
def offspring_timings(variation_inputs, record_bench):
    """Scalar vs. vectorized 200-child batch: ``(scalar_s, vectorized_s, outputs)``."""
    operators, population, ranks, crowding = variation_inputs

    # Warm-up outside the measured regions.
    operators.make_offspring(
        population, ranks, crowding, POPULATION, np.random.default_rng(1)
    )

    start = time.perf_counter()
    scalar = operators.make_offspring(
        population, ranks, crowding, POPULATION, np.random.default_rng(2), slow=True
    )
    scalar_seconds = time.perf_counter() - start

    # Best of three: the vectorized path runs in ~2 ms, where single-shot
    # wall clocks are dominated by scheduler noise on shared runners.
    vectorized_seconds = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        vectorized = operators.make_offspring(
            population, ranks, crowding, POPULATION, np.random.default_rng(2)
        )
        vectorized_seconds = min(vectorized_seconds, time.perf_counter() - start)

    record_bench(
        "operators",
        "make_offspring_pop200_scalar",
        seconds=scalar_seconds,
        population=POPULATION,
        topology=list(TOPOLOGY),
    )
    record_bench(
        "operators",
        "make_offspring_pop200_vectorized",
        seconds=vectorized_seconds,
        population=POPULATION,
        topology=list(TOPOLOGY),
        speedup=scalar_seconds / vectorized_seconds
        if vectorized_seconds
        else float("inf"),
    )
    return scalar_seconds, vectorized_seconds, (scalar, vectorized)


def test_bench_make_offspring_pop200(benchmark, variation_inputs, offspring_timings):
    """200 offspring at population 200: bit-identical to the scalar walk."""
    operators, population, ranks, crowding = variation_inputs
    _, _, (scalar, vectorized) = offspring_timings

    # Bit-identical offspring: both paths consume the same draws.
    assert np.array_equal(vectorized, scalar)

    benchmark(
        lambda: operators.make_offspring(
            population, ranks, crowding, POPULATION, np.random.default_rng(3)
        )
    )


@pytest.mark.perf_ratio
def test_bench_make_offspring_pop200_wall_clock(offspring_timings):
    """200 offspring at population 200: ≥5× over the scalar walk."""
    scalar_seconds, vectorized_seconds, _ = offspring_timings
    # Acceptance bound of the matrix-native engine: it is ≥5×
    # faster than the scalar walk at population 200 (measured margin is
    # far larger — the scalar path loops over every gene in Python).
    assert scalar_seconds >= 5.0 * vectorized_seconds


def test_bench_mutation_kernel_pop200(benchmark, variation_inputs, record_bench):
    """The mutation kernel alone (all branches) at a 200-child batch."""
    operators, population, _, _ = variation_inputs
    rng = np.random.default_rng(4)
    draws = operators.draw_variation(POPULATION, POPULATION, rng)
    children = population[: 2 * draws.num_pairs]

    start = time.perf_counter()
    mutated = operators.mutate_population(children, draws)
    seconds = time.perf_counter() - start
    assert mutated.shape == children.shape

    record_bench(
        "operators",
        "mutate_population_pop200",
        seconds=seconds,
        population=POPULATION,
    )
    benchmark(lambda: operators.mutate_population(children, draws))
