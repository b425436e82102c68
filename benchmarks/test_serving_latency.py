"""Benchmark: cold-load and warm query latency of the Pareto serving service.

Publishes a design store from the shared benchmark session once, then
times, with ``time.perf_counter`` around each call:

* the **cold load** — the first query per dataset on a fresh
  :class:`~repro.serving.service.ParetoService`, which reads the
  dataset's record from the store;
* the **warm service time** per operation (select / front /
  feasibility / rtl / points) once every record is in memory.

Both are recorded into ``BENCH_serving.json`` (see
``conftest.record_bench``), and the warm p50 of every operation is
bounded: a served query must never fall back onto a search stage, so it
has to answer in milliseconds, not the seconds a GA run takes.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.serving.service import ParetoService
from repro.serving.store import DesignStore

#: Generous warm-path p50 bound (seconds).  In-memory record reads answer
#: in tens of microseconds; anything near this bound means a query leaked
#: onto a slow path (store re-read, or worse, a search stage).
WARM_P50_BOUND_SECONDS = 0.05

#: Queries per operation and dataset in the timed warm battery.
BATTERY_SIZE = 32


@pytest.fixture(scope="module")
def store(session, tmp_path_factory) -> DesignStore:
    """A design store published from the shared benchmark session."""
    root = tmp_path_factory.mktemp("bench_store") / "store"
    session.publish(DesignStore(root))
    return DesignStore(root)


def _timed(call, *args) -> float:
    start = time.perf_counter()
    call(*args)
    return time.perf_counter() - start


def test_serving_query_battery(benchmark, store, record_bench):
    """Time the cold load and the warm per-op battery; bound the warm p50."""
    datasets = store.datasets()
    assert datasets
    service = ParetoService(store)
    for dataset in datasets:
        record_bench(
            "serving", f"cold_load_{dataset}", _timed(service.select, dataset), op="select"
        )

    operations = {
        "select": service.select,
        "front": service.front,
        "feasibility": service.feasibility,
        "rtl": service.rtl,
    }
    samples = {op: [] for op in (*operations, "points")}

    def battery() -> None:
        for dataset in datasets:
            for _ in range(BATTERY_SIZE):
                for op, call in operations.items():
                    samples[op].append(_timed(call, dataset))
        for _ in range(BATTERY_SIZE):
            for experiment in ("fig4", "fig5"):
                samples["points"].append(_timed(service.points, experiment))

    benchmark.pedantic(battery, rounds=1, iterations=1)
    for op, seconds in samples.items():
        p50 = statistics.median(seconds)
        record_bench(
            "serving",
            f"warm_{op}_p50",
            p50,
            p95_seconds=statistics.quantiles(seconds, n=20)[-1],
            requests=len(seconds),
        )
        assert p50 < WARM_P50_BOUND_SECONDS, (
            f"warm {op} p50 {p50:.4f}s exceeds "
            f"{WARM_P50_BOUND_SECONDS}s - a query left the warm path"
        )
