"""Benchmark: ablation of the embedded hardware approximations (E6).

Trains the GA in three modes — pow2 quantization only (masks forced
open), masks only (exponents forced to zero), and the full combination —
and compares the reachable area at the accuracy-loss budget.  This backs
the paper's design decision of embedding *both* approximations in
training.
"""

from __future__ import annotations


def test_ablation_approximation_modes(benchmark, session):
    """Time the approximation-mode ablation and check its shape."""
    artifact = benchmark.pedantic(
        lambda: session.artifact("ablation_approx"), rounds=1, iterations=1
    )
    print("\n" + artifact.format())

    rows = artifact.rows
    by_mode = {row["mode"]: row for row in rows}
    assert set(by_mode) == {"pow2_only", "masks_only", "pow2_and_masks"}
    combined = by_mode["pow2_and_masks"]
    pow2_only = by_mode["pow2_only"]
    # The combined search space always contains the pow2-only space, so
    # with the same budget the selected design can only be as small or
    # smaller (allowing a little stochastic slack).
    if combined["selected_fa_count"] is not None and pow2_only["selected_fa_count"] is not None:
        assert combined["selected_fa_count"] <= pow2_only["selected_fa_count"] * 1.5
    # Every mode must reach a usable accuracy on its best point.
    for row in rows:
        assert row["best_accuracy"] > 0.5
