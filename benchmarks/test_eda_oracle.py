"""Benchmarks of the microverilog module-text oracle.

Tracks what the pure-Python Verilog-subset simulator costs: scan-only,
parse, evaluate-only and parse+simulate throughput on a front-sized
batch of generated modules, a testbench emit + read-back round trip per
module, one ``verify_front`` run, of which the simulator
is one oracle, and one verify + publish sign-off of a front, which
parses each design's module text once.  Timings land in
``BENCH_eda_oracle.json`` (see ``conftest.record_bench``) so the CI
smoke pass leaves a per-commit trajectory; the *external* iverilog/yosys
flow is benchmarked separately by the ``eda-cross-check`` CI job via
``python -m repro.eda --out BENCH_eda.json``.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from repro.core.cache import EvaluationCache
from repro.eda.microverilog import _tokenize, parse_module, simulate_mlp_module
from repro.evaluation.verification import verify_front
from repro.rtl.testbench import extract_testbench_vectors, generate_testbench
from repro.rtl.verilog import generate_mlp_verilog

#: Parse/simulate sweep shape: 12 modules × 256 stimulus vectors.
NUM_MODULES = 12
NUM_VECTORS = 256
SIZES = (6, 5, 3)
INPUT_BITS = 4


def _random_modules():
    """``(models, module texts, stimulus)`` of the parse/simulate sweep."""
    from repro.approx.config import ApproxConfig
    from repro.approx.mlp import ApproximateMLP
    from repro.approx.topology import Topology

    rng = np.random.default_rng(0)
    config = ApproxConfig(input_bits=INPUT_BITS)
    models = [
        ApproximateMLP.random(Topology(SIZES), config, rng, mask_density=0.5)
        for _ in range(NUM_MODULES)
    ]
    vectors = rng.integers(0, (1 << INPUT_BITS), size=(NUM_VECTORS, SIZES[0]))
    return models, [generate_mlp_verilog(mlp) for mlp in models], vectors.astype(np.int64)


def test_bench_parse_and_simulate_sweep(record_bench):
    """12 modules × 256 vectors: parse alone, evaluation of the parsed
    modules alone, and parse + evaluation together."""
    _, texts, vectors = _random_modules()

    start = time.perf_counter()
    modules = [parse_module(text) for text in texts]
    parse_seconds = time.perf_counter() - start
    assert len(modules) == NUM_MODULES

    stimulus = {f"in{i}": vectors[:, i] for i in range(SIZES[0])}
    start = time.perf_counter()
    outputs = [module.evaluate(stimulus)["class_index"] for module in modules]
    evaluate_seconds = time.perf_counter() - start

    start = time.perf_counter()
    predictions = [simulate_mlp_module(text, vectors)[0] for text in texts]
    simulate_seconds = time.perf_counter() - start
    assert all(p.shape == (NUM_VECTORS,) for p in predictions)
    assert all(np.array_equal(o, p) for o, p in zip(outputs, predictions))

    record_bench(
        "eda_oracle",
        "parse_sweep_12_modules",
        seconds=parse_seconds,
        num_modules=NUM_MODULES,
    )
    record_bench(
        "eda_oracle",
        "evaluate_sweep_12x256",
        seconds=evaluate_seconds,
        num_modules=NUM_MODULES,
        num_vectors=NUM_VECTORS,
        vectors_per_second=(NUM_MODULES * NUM_VECTORS) / evaluate_seconds
        if evaluate_seconds
        else float("inf"),
    )
    record_bench(
        "eda_oracle",
        "simulate_sweep_12x256",
        seconds=simulate_seconds,
        num_modules=NUM_MODULES,
        num_vectors=NUM_VECTORS,
        vectors_per_second=(NUM_MODULES * NUM_VECTORS) / simulate_seconds
        if simulate_seconds
        else float("inf"),
    )


def test_bench_scan_and_testbench_roundtrip(record_bench):
    """The sign-off's text handling alone: scanning the 12 module texts,
    and emitting then reading back a 256-vector testbench per model."""
    models, texts, vectors = _random_modules()

    start = time.perf_counter()
    token_counts = [len(_tokenize(text)) for text in texts]
    scan_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parsed = [extract_testbench_vectors(generate_testbench(mlp, vectors=vectors)) for mlp in models]
    roundtrip_seconds = time.perf_counter() - start
    assert all(np.array_equal(p.vectors, vectors) for p in parsed)
    assert all(np.array_equal(p.golden, mlp.predict(vectors)) for p, mlp in zip(parsed, models))

    record_bench(
        "eda_oracle",
        "scan_sweep_12_modules",
        seconds=scan_seconds,
        num_modules=NUM_MODULES,
        num_tokens=sum(token_counts),
    )
    record_bench(
        "eda_oracle",
        "testbench_roundtrip_12x256",
        seconds=roundtrip_seconds,
        num_modules=NUM_MODULES,
        num_vectors=NUM_VECTORS,
    )


def test_bench_verify_front(session, record_bench):
    """One verify_front run on a synthesized front: every oracle,
    including the module text executed as Verilog."""
    result = session.front("breast_cancer")
    approx = result.approximate
    assert approx is not None

    start = time.perf_counter()
    verification = verify_front(
        approx.ga_result,
        num_vectors=64,
        max_designs=session.scale.max_front_designs,
        cache=EvaluationCache(),
    )
    seconds = time.perf_counter() - start

    assert verification.num_designs > 0
    assert verification.expression_mismatches == 0
    assert verification.eda_mismatches == 0
    assert verification.passed

    record_bench(
        "eda_oracle",
        "verify_front_breast_cancer",
        seconds=seconds,
        num_designs=verification.num_designs,
    )


def test_bench_signoff_one_front(session, record_bench, monkeypatch):
    """verify_front + rtl_records of one front on a fresh cache, as the
    sign-off does: one ``parse_module`` per design, shared by both."""
    from repro.eda import microverilog
    from repro.evaluation.pareto_analysis import evaluate_front
    from repro.experiments.publish import rtl_records

    result = session.front("breast_cancer")
    approx = result.approximate
    assert approx is not None
    x_test, y_test = result.dataset.quantized_test()
    parses = []
    parse = microverilog.parse_module
    monkeypatch.setattr(
        microverilog, "parse_module", lambda text: parses.append(1) or parse(text)
    )

    start = time.perf_counter()
    cache = EvaluationCache()
    designs = evaluate_front(
        approx.ga_result, x_test, y_test,
        max_designs=session.scale.max_front_designs, cache=cache,
    )
    verification = verify_front(
        approx.ga_result, num_vectors=64,
        max_designs=session.scale.max_front_designs, cache=cache,
    )
    fresh = dataclasses.replace(
        result, approximate=dataclasses.replace(approx, designs=designs, cache=cache)
    )
    records = rtl_records(fresh)
    seconds = time.perf_counter() - start

    assert verification.passed
    assert len(records) == verification.num_designs == len(designs) > 0
    assert len(parses) == len(designs)
    assert len(cache.modules) == 0

    record_bench(
        "eda_oracle",
        "signoff_breast_cancer",
        seconds=seconds,
        num_designs=len(designs),
        parses=len(parses),
    )
