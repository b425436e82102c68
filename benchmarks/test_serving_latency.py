"""Benchmark: warm-store query latency of the Pareto serving service.

Publishes a design store from the shared benchmark session once, then
times the full query battery (select / front / feasibility / rtl /
points) against the warm :class:`~repro.serving.service.ParetoService`.
The per-operation p50 latencies are recorded into ``BENCH_serving.json``
(see ``conftest.record_bench``), and the warm-path p50 is bounded: a
served query must never fall back onto a search stage, so it has to
answer in milliseconds, not the seconds a GA run takes.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.serving.service import ParetoService
from repro.serving.store import DesignStore

#: Generous warm-path p50 bound (seconds).  In-memory record reads answer
#: in tens of microseconds; anything near this bound means a query leaked
#: onto a slow path (store re-read, or worse, a search stage).
WARM_P50_BOUND_SECONDS = 0.05

#: Queries per operation in the timed battery.
BATTERY_SIZE = 32


@pytest.fixture(scope="module")
def store(session, tmp_path_factory) -> DesignStore:
    """A design store published from the shared benchmark session."""
    root = tmp_path_factory.mktemp("bench_store") / "store"
    session.publish(DesignStore(root))
    return DesignStore(root)


def test_serving_query_battery(benchmark, store, record_bench):
    """Time the cold load and the warm query battery; bound the warm p50."""
    datasets = store.datasets()
    assert datasets

    async def battery(service: ParetoService):
        for dataset in datasets:
            coros = []
            for _ in range(BATTERY_SIZE):
                coros.extend(
                    (
                        service.select(dataset),
                        service.front(dataset),
                        service.feasibility(dataset),
                        service.rtl(dataset),
                    )
                )
            await asyncio.gather(*coros)
        await service.points("fig4")
        await service.points("fig5")
        return service

    def run() -> ParetoService:
        return asyncio.run(battery(ParetoService(store)))

    start = time.perf_counter()
    service = run()
    cold_seconds = time.perf_counter() - start
    record_bench(
        "serving",
        "cold_battery",
        cold_seconds,
        datasets=len(datasets),
        queries=4 * BATTERY_SIZE * len(datasets) + 2,
        store_loads=service.store_loads,
    )
    # Every dataset is loaded from disk exactly once, however many
    # concurrent queries raced for it.
    assert service.store_loads == len(datasets)

    service = benchmark.pedantic(run, rounds=1, iterations=1)
    operations = service.metrics()["operations"]
    for op in ("select", "front", "feasibility", "rtl"):
        summary = operations[op]
        assert summary["errors"] == 0
        record_bench(
            "serving",
            f"warm_{op}_p50",
            summary["p50_seconds"],
            p95_seconds=summary["p95_seconds"],
            requests=summary["requests"],
            coalesced=summary["coalesced"],
        )
        assert summary["p50_seconds"] < WARM_P50_BOUND_SECONDS, (
            f"warm {op} p50 {summary['p50_seconds']:.4f}s exceeds "
            f"{WARM_P50_BOUND_SECONDS}s - a query left the warm path"
        )
