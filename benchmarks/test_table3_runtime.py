"""Benchmark: regenerate Table III (training execution times).

Times gradient training, hardware-unaware GA training and the proposed
hardware-aware GA-AxC training at a common evaluation budget.  The
evaluation budgets are checked on every run; the paper's wall-clock
orderings (the hardware-aware GA costs barely more than the
hardware-unaware GA, and both are slower than gradient descent) are a
``perf_ratio`` check, skipped unless ``REPRO_PERF_RATIO=1``: at these
scales the timings are tens of milliseconds and their order depends on
machine load.
"""

from __future__ import annotations

import pytest



def test_table3_training_execution_time(benchmark, session):
    """Time the Table III regeneration and check the evaluation budgets."""
    artifact = benchmark.pedantic(
        lambda: session.artifact("table3"), rounds=1, iterations=1
    )
    print("\n" + artifact.format())

    for row in artifact.rows:
        # Both GA flows request the same evaluation budget; the unique
        # lookup counts stay within it (in-batch duplicates are folded).
        budget = session.scale.ga_population * (session.scale.ga_generations + 1)
        assert 0 < row["ga_evaluations"] <= budget
        assert 0 < row["ga_axc_evaluations"] <= budget


@pytest.mark.perf_ratio
def test_table3_training_execution_time_wall_clock(session):
    """The Table III runtime ordering (wall clock)."""
    for row in session.artifact("table3").rows:
        # Gradient training is the fastest flow (paper: minutes vs hours).
        assert row["grad_seconds"] < row["ga_seconds"]
        assert row["grad_seconds"] < row["ga_axc_seconds"]
        # Hardware awareness adds only moderate overhead to the GA
        # (paper: 100 min vs 89 min on average).
        assert row["ga_axc_seconds"] < 3.0 * row["ga_seconds"] + 1.0
