"""Micro-benchmarks of the framework's hot primitives.

These are not tied to a specific table/figure; they track the cost of
the operations the GA loop executes millions of times (stacked
population inference and its scalar per-model oracle, FA counting,
chromosome decode).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.approx.config import ApproxConfig
from repro.approx.mlp import ApproximateMLP, forward_stacked, stack_parameters
from repro.approx.topology import Topology
from repro.core.chromosome import ChromosomeLayout
from repro.hardware.adder_tree import mlp_fa_count
from repro.hardware.fast_area import fast_population_fa_count


@pytest.fixture(scope="module")
def mlp():
    rng = np.random.default_rng(0)
    return ApproximateMLP.random(Topology((16, 5, 10)), ApproxConfig(), rng, mask_density=0.6)


@pytest.fixture(scope="module")
def batch():
    return np.random.default_rng(1).integers(0, 16, size=(1024, 16))


def test_bench_candidate_inference(benchmark, mlp, batch):
    """Stacked-kernel forward pass of one candidate over 1024 samples."""
    scores = benchmark(lambda: forward_stacked(stack_parameters([mlp]), batch))
    assert scores.shape == (1, 1024, 10)


def test_bench_candidate_inference_reference(benchmark, mlp, batch):
    """Scalar per-model forward pass (``ApproximateLayer.accumulate`` per
    layer), the kernel's oracle, kept for speedup tracking."""
    scores = benchmark(lambda: mlp.forward(batch))
    assert np.array_equal(scores, forward_stacked(stack_parameters([mlp]), batch)[0])


def test_bench_stacked_forward_ci_pendigits(benchmark):
    """One stacked forward at the ci pendigits fitness shape: 40 candidates
    of a 16-5-10 MLP over 560 training samples, equal to the per-model
    forward of every candidate."""
    rng = np.random.default_rng(2)
    layout = ChromosomeLayout(Topology((16, 5, 10)), ApproxConfig())
    population = np.stack([layout.random(rng) for _ in range(40)])
    params = layout.population_parameters(population)
    x = rng.integers(0, 16, size=(560, 16))
    scores = benchmark(lambda: forward_stacked(params, x))
    assert scores.shape == (40, 560, 10)
    for row, candidate_scores in zip(population, scores):
        assert np.array_equal(candidate_scores, layout.decode(row).forward(x))


def test_bench_fast_fa_count(benchmark, mlp):
    """Vectorized FA counting (the GA area objective)."""
    (count,) = benchmark(lambda: fast_population_fa_count([mlp]))
    assert count == mlp_fa_count(mlp)


def test_bench_reference_fa_count(benchmark, mlp):
    """Reference (per-bit Python) FA counting, for comparison."""
    count = benchmark(lambda: mlp_fa_count(mlp))
    assert count > 0


def test_bench_chromosome_decode(benchmark, mlp):
    """Chromosome decode (runs once per fitness evaluation)."""
    layout = ChromosomeLayout(mlp.topology, mlp.config)
    chromosome = layout.encode(mlp)
    decoded = benchmark(lambda: layout.decode(chromosome))
    assert decoded.topology.sizes == mlp.topology.sizes

