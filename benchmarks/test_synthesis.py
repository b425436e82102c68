"""Benchmarks of the population-batched hardware synthesis engine.

Tracks the PR's headline claim: synthesizing a 200-member Pareto front
with :func:`~repro.hardware.fast_synthesis.synthesize_approximate_population`
is at least 5× faster than the scalar per-model walk, with bit-identical
``HardwareReport`` values.  The measured timings are recorded into
``BENCH_synthesis.json`` (see ``conftest.record_bench``), so the CI
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
from repro.hardware.fast_synthesis import synthesize_approximate_population
from repro.hardware.synthesis import synthesize_approximate_mlp

#: Front size of the headline claim and the Pendigits-like topology.
FRONT_SIZE = 200
TOPOLOGY = (16, 5, 10)


@pytest.fixture(scope="module")
def front_models():
    rng = np.random.default_rng(0)
    layout = ChromosomeLayout(Topology(TOPOLOGY), ApproxConfig())
    return [layout.decode(layout.random(rng)) for _ in range(FRONT_SIZE)]


@pytest.fixture(scope="module")
def front_synthesis_timings(front_models, record_bench):
    """Scalar vs. batched front synthesis: ``(scalar_s, batched_s, reports)``."""
    # Warm-up outside the measured regions (EGFET library construction).
    synthesize_approximate_population(front_models[:2])

    start = time.perf_counter()
    scalar = [synthesize_approximate_mlp(m, slow=True) for m in front_models]
    scalar_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batched = synthesize_approximate_population(front_models)
    batched_seconds = time.perf_counter() - start

    record_bench(
        "synthesis",
        "front_200_scalar",
        seconds=scalar_seconds,
        front_size=FRONT_SIZE,
        topology=list(TOPOLOGY),
    )
    record_bench(
        "synthesis",
        "front_200_batched",
        seconds=batched_seconds,
        front_size=FRONT_SIZE,
        topology=list(TOPOLOGY),
        speedup=scalar_seconds / batched_seconds if batched_seconds else float("inf"),
    )
    return scalar_seconds, batched_seconds, (scalar, batched)


def test_bench_front_synthesis_batched(benchmark, front_models, front_synthesis_timings):
    """Batched synthesis of a 200-member front: bit-identical to the scalar walk."""
    _, _, (scalar, batched) = front_synthesis_timings

    # Bit-identical reports, full dataclass equality.
    assert batched == scalar

    # The timed fixture already covers the scalar path; let
    # pytest-benchmark calibrate only the batched engine.
    benchmark(lambda: synthesize_approximate_population(front_models[:50]))


@pytest.mark.perf_ratio
def test_bench_front_synthesis_batched_wall_clock(front_synthesis_timings):
    """Batched synthesis of a 200-member front: ≥5× over the scalar walk."""
    scalar_seconds, batched_seconds, _ = front_synthesis_timings
    # Acceptance bound of the batched engine (measured margin ~19–26×).
    assert scalar_seconds >= 5.0 * batched_seconds


def test_bench_exact_sweep_batched(benchmark, record_bench):
    """Batched exact synthesis of a TC'23-style 12-point design sweep."""
    from repro.hardware.fast_synthesis import synthesize_exact_population

    rng = np.random.default_rng(1)
    jobs = []
    for _ in range(12):
        sizes = (16, 5, 10)
        jobs.append(
            {
                "weight_codes": [
                    rng.integers(-127, 128, size=(sizes[i], sizes[i + 1]))
                    for i in range(2)
                ],
                "bias_codes": [
                    rng.integers(-5000, 5001, size=(sizes[i + 1],)) for i in range(2)
                ],
                "input_bits_per_layer": [4, 8],
            }
        )
    start = time.perf_counter()
    reports = synthesize_exact_population(jobs)
    batched_seconds = time.perf_counter() - start
    assert len(reports) == 12
    record_bench("synthesis", "exact_sweep_12", seconds=batched_seconds, jobs=12)
    benchmark(lambda: synthesize_exact_population(jobs[:4]))
