"""Benchmark: ablation of the GA convergence aids (E7).

Compares the doped initial population and the 10 % accuracy-loss
constraint of Section IV-A against a purely random initialization and an
unconstrained run, using the final hypervolume and the best reached
accuracy as quality indicators.
"""

from __future__ import annotations


def test_ablation_ga_settings(benchmark, session):
    """Time the GA-settings ablation and check its shape."""
    artifact = benchmark.pedantic(
        lambda: session.artifact("ablation_ga"), rounds=1, iterations=1
    )
    print("\n" + artifact.format())

    rows = artifact.rows
    by_setting = {row["setting"]: row for row in rows}
    assert set(by_setting) == {"doped+constraint", "random_init", "no_constraint"}
    # The doped + constrained configuration (the paper's choice) must reach
    # an accuracy at least as good as the purely random initialization.
    assert (
        by_setting["doped+constraint"]["best_accuracy"]
        >= by_setting["random_init"]["best_accuracy"] - 0.05
    )
    for row in rows:
        assert row["front_size"] >= 1
        assert row["hypervolume"] >= 0.0
