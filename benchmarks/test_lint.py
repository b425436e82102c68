"""Benchmark: the full invariant battery over src/ (BENCH_lint.json).

The lint battery runs in CI before tier-1 and locally as a pre-commit
habit, so its wall-clock is a developer-facing latency: one full pass —
scan, import graph, all five rules — must stay under ten seconds.
"""

from __future__ import annotations

import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Hard ceiling for one full-tree pass (seconds).
FULL_PASS_BUDGET_S = 10.0


def test_lint_full_tree_battery(record_bench):
    from repro.lint.config import default_config
    from repro.lint.engine import Project, run_rules

    start = time.perf_counter()
    config = default_config(ROOT)
    project = Project([ROOT / "src"], config)
    findings, stats = run_rules(project)
    seconds = time.perf_counter() - start

    record_bench(
        "lint",
        "full_src_battery",
        seconds,
        files=stats.files,
        rules=len(stats.rules),
        findings=len(findings),
    )

    assert findings == [], [f.format_text() for f in findings]
    assert stats.files > 80
    assert seconds < FULL_PASS_BUDGET_S, (
        f"lint battery took {seconds:.2f}s over {stats.files} files "
        f"(budget {FULL_PASS_BUDGET_S:.0f}s)"
    )
