"""Benchmark of front-wide RTL sign-off.

``verify_front`` over a synthesized front reports zero mismatches
between the Python model, the testbench golden responses and the
emitted module text executed as Verilog, end to end; a repeated pass is
served from the shared cache.  Timings are recorded into
``BENCH_rtl_verification.json`` (see ``conftest.record_bench``) so the
CI smoke pass leaves a per-commit perf trajectory even with
``--benchmark-disable``.
"""

from __future__ import annotations

import time

from repro.core.cache import EvaluationCache
from repro.evaluation.verification import verify_front


def test_bench_verify_front_end_to_end(session, record_bench):
    """Front-wide differential verification: zero mismatches, timed."""
    result = session.front("breast_cancer")
    approx = result.approximate
    assert approx is not None

    cache = EvaluationCache()
    start = time.perf_counter()
    verification = verify_front(
        approx.ga_result,
        num_vectors=64,
        max_designs=session.scale.max_front_designs,
        cache=cache,
    )
    seconds = time.perf_counter() - start

    # The synthesized front verifies clean on every leg: Python model ==
    # RTL testbench golden vectors == module text executed as Verilog.
    assert verification.num_designs > 0
    assert verification.model_mismatches == 0
    assert verification.expression_mismatches == 0
    assert verification.eda_mismatches == 0
    assert verification.passed

    record_bench(
        "rtl_verification",
        "verify_front_breast_cancer",
        seconds=seconds,
        num_designs=verification.num_designs,
        num_vectors=verification.num_vectors,
        neuron_checks=verification.num_neuron_checks,
    )

    # A repeated verification is served from the shared cache.
    start = time.perf_counter()
    cached = verify_front(
        approx.ga_result,
        num_vectors=64,
        max_designs=session.scale.max_front_designs,
        cache=cache,
    )
    cached_seconds = time.perf_counter() - start
    assert cached.cache_hits == verification.num_designs
    record_bench(
        "rtl_verification",
        "verify_front_breast_cancer_cached",
        seconds=cached_seconds,
        num_designs=cached.num_designs,
    )
