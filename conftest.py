"""Repository-wide pytest hooks, shared by ``tests/`` and ``benchmarks/``.

Wall-clock ratio checks (a fast path at least N× faster than its oracle,
Table III's training-time ordering) carry the ``perf_ratio`` marker.
Their verdict depends on machine load, so every run skips them unless
``REPRO_PERF_RATIO=1``::

    REPRO_PERF_RATIO=1 PYTHONPATH=src python -m pytest -m perf_ratio -q
"""

from __future__ import annotations

import os

import pytest

#: Environment switch that enables the wall-clock ``perf_ratio`` checks.
PERF_RATIO_ENV = "REPRO_PERF_RATIO"


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        f"perf_ratio: wall-clock ordering check; skipped unless {PERF_RATIO_ENV}=1",
    )


def pytest_collection_modifyitems(config, items):
    """Skip ``perf_ratio`` checks: their verdict depends on machine load."""
    if os.environ.get(PERF_RATIO_ENV) == "1":
        return
    skip = pytest.mark.skip(reason=f"wall-clock ratio check; set {PERF_RATIO_ENV}=1 to run")
    for item in items:
        if "perf_ratio" in item.keywords:
            item.add_marker(skip)
