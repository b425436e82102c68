"""Benchmark: regenerate Table I (exact bespoke baseline MLPs).

Reports, per dataset, the baseline accuracy and synthesized area/power
and times the Table I flow (gradient training + post-training
quantization + hardware analysis).
"""

from __future__ import annotations


def test_table1_baseline(benchmark, session):
    """Time the Table I regeneration and check its qualitative shape."""
    artifact = benchmark.pedantic(
        lambda: session.artifact("table1"), rounds=1, iterations=1
    )
    print("\n" + artifact.format())

    rows = artifact.rows
    assert len(rows) == len(session.scale.datasets)
    for row in rows:
        # Baseline bespoke MLPs are large and power hungry: beyond any
        # printed battery (paper Table I: >=12 cm2 and >=40 mW).
        assert row["area_cm2"] > 2.0
        assert row["power_mw"] > 5.0
        # And reach reasonable accuracy (the paper value minus a generous
        # margin for the reduced sample counts of the benchmark scale).
        assert row["accuracy"] > row["paper_accuracy"] - 0.25
