"""Cross-layer differential verification: model ↔ RTL testbench ↔ RTL module.

The paper's flow ends in functional simulation of every generated
circuit (its VCS step).  This module is the reproduction's equivalent,
run front-wide in one pass over the Verilog the flow actually emits:

* **model vs. RTL testbench** — the self-checking Verilog testbench is
  generated for the stimulus vectors, its embedded golden responses are
  parsed back *out of the emitted text*
  (:func:`~repro.rtl.testbench.extract_testbench_vectors`), and checked
  against the model's own class decisions (the argmax of its output
  accumulators);
* **model vs. RTL module text** — the *whole emitted module text* is
  parsed and executed as Verilog by the :mod:`repro.eda.microverilog`
  simulator, with the language's width/signedness rules rather than
  Python's.  Every ``acc_lL_nJ`` accumulator net must equal the model's
  accumulator, so a wrong mask/shift/bias literal produced by the
  Verilog *generator* is caught even though the testbench golden
  responses originate from the model;
* **RTL module vs. RTL testbench** — the module text's ``class_index``
  output must match the testbench golden responses, which also covers
  the QReLU saturation ternaries, the behavioural argmax block and the
  declared wire widths.  Module text that is not legal within the
  emitted subset raises.

The same text pair also runs under a real Verilog simulator in the
``eda-cross-check`` CI job (:mod:`repro.eda`).

:func:`verify_front` applies this to every member of an estimated
Pareto front and memoizes per-design verification results in the
``reports`` section of the shared
:class:`~repro.core.cache.EvaluationCache`, so reporting stages and
repeated runs never re-simulate a design already verified on the same
vectors.  The parsed module text goes into the cache's in-memory
``modules`` section (:func:`compiled_module`), where
:func:`~repro.experiments.publish.rtl_records` finds it: parsing is
nearly all of the module-text oracle's cost, and sign-off pays it once
per design.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, List, Optional, Tuple, Union

import numpy as np

from repro.approx.mlp import ApproximateMLP
from repro.core.cache import EvaluationCache
from repro.core.trainer import GAResult
from repro.rtl.testbench import extract_testbench_vectors, generate_testbench
from repro.rtl.verilog import generate_mlp_verilog

if TYPE_CHECKING:
    from repro.eda.microverilog import MicroVerilogModule

__all__ = [
    "DesignVerification",
    "FrontVerification",
    "compiled_module",
    "verify_design",
    "verify_front",
]


@dataclass(frozen=True)
class DesignVerification:
    """Differential verification outcome of one design."""

    num_vectors: int
    #: Accumulator nets compared with the model (every neuron of every layer).
    num_neurons: int
    #: Per-vector class disagreements: Python model vs. testbench golden.
    model_mismatches: int
    #: (neuron, vector) accumulator disagreements between the emitted
    #: Verilog module text (its ``acc_lL_nJ`` nets, executed as Verilog
    #: by :func:`repro.eda.microverilog.simulate_mlp_module`) and the
    #: Python model — this is the leg that catches bugs in the Verilog
    #: *generator* itself.
    expression_mismatches: int = 0
    #: Per-vector class disagreements between the same module text's
    #: ``class_index`` output and the testbench golden responses.
    eda_mismatches: int = 0

    @property
    def total_mismatches(self) -> int:
        """All disagreements across the executed comparisons."""
        return self.model_mismatches + self.expression_mismatches + self.eda_mismatches

    @property
    def passed(self) -> bool:
        """True when the model and the emitted RTL agree on every vector."""
        return self.total_mismatches == 0


@dataclass(frozen=True)
class FrontVerification:
    """Front-wide verification summary."""

    results: List[DesignVerification]
    seconds: float
    #: Designs whose verification was served from the evaluation cache.
    cache_hits: int = 0

    @property
    def num_designs(self) -> int:
        """Number of front members verified."""
        return len(self.results)

    @property
    def num_vectors(self) -> int:
        """Vectors applied per design (0 for an empty front)."""
        return self.results[0].num_vectors if self.results else 0

    @property
    def num_neuron_checks(self) -> int:
        """Accumulator nets compared with the model across the front."""
        return sum(result.num_neurons for result in self.results)

    @property
    def model_mismatches(self) -> int:
        """Total model-vs-testbench class disagreements."""
        return sum(result.model_mismatches for result in self.results)

    @property
    def expression_mismatches(self) -> int:
        """Total module-text-vs-model accumulator disagreements (the
        ``acc_lL_nJ`` nets of each design's executed module text)."""
        return sum(result.expression_mismatches for result in self.results)

    @property
    def eda_mismatches(self) -> int:
        """Total microverilog-simulation-vs-golden class disagreements."""
        return sum(result.eda_mismatches for result in self.results)

    @property
    def eda_checked(self) -> int:
        """Designs whose module text was executed as Verilog: all of them.

        Read by perfbench until the next benchmark change.
        """
        return self.num_designs

    @property
    def plans_compiled(self) -> int:
        """Always 0.  Read by perfbench until the next benchmark change."""
        return 0

    @property
    def plan_reuses(self) -> int:
        """Always 0.  Read by perfbench until the next benchmark change."""
        return 0

    @property
    def total_mismatches(self) -> int:
        """All disagreements across all designs."""
        return sum(result.total_mismatches for result in self.results)

    @property
    def passed(self) -> bool:
        """True when every design verified clean."""
        return all(result.passed for result in self.results)


def _draw_vectors(
    num_inputs: int, max_value: int, num_vectors: int, seed: int
) -> np.ndarray:
    """Random in-range stimulus with the two's-complement boundary
    assignments (all-zero, then all-max) pinned into the first slots —
    as many as the batch size allows."""
    rng = np.random.default_rng(seed)
    vectors = rng.integers(0, max_value + 1, size=(num_vectors, num_inputs))
    if num_vectors >= 1:
        vectors[0, :] = 0
    if num_vectors >= 2:
        vectors[1, :] = max_value
    return vectors.astype(np.int64)


def compiled_module(
    mlp: ApproximateMLP,
    cache: Optional[EvaluationCache] = None,
    key: Optional[Hashable] = None,
    *,
    release: bool = False,
) -> Tuple[str, "MicroVerilogModule"]:
    """``(text, module)``: ``generate_mlp_verilog(mlp)`` and its parse.

    Memoized in ``cache.modules`` under ``key``, the design's
    ``(layout key, genome key)`` pair, so :func:`verify_front` and
    :func:`~repro.experiments.publish.rtl_records` parse each design
    once.  ``release=True`` is for the last user: it takes the entry out
    of the memo (or builds one without storing it), so compiled modules
    do not outlive publishing.  Without a cache or key nothing is
    memoized.
    """
    section = cache.modules if cache is not None and key is not None else None
    entry = None
    if section is not None:
        entry = section.pop(key) if release else section.get(key)
    if entry is None:
        # Imported on first use: sessions that never verify (every GA
        # search) would otherwise pay its import time and memory.
        from repro.eda.microverilog import parse_module

        text = generate_mlp_verilog(mlp)
        entry = (text, parse_module(text))
        if section is not None and not release:
            section.put(key, entry)
    return entry


def verify_design(
    mlp: ApproximateMLP,
    vectors: np.ndarray,
    testbench_text: Optional[str] = None,
    verilog_text: Union[str, "MicroVerilogModule", None] = None,
) -> DesignVerification:
    """Differentially verify one design on a batch of input vectors.

    Parameters
    ----------
    vectors:
        ``(n, num_inputs)`` integer stimulus in the primary-input range.
    testbench_text:
        Pre-generated testbench Verilog to check against; generated for
        ``vectors`` when omitted.  Passing tampered text is how the
        tests prove the harness actually detects disagreements.
    verilog_text:
        Pre-generated module Verilog, or its already parsed
        :class:`~repro.eda.microverilog.MicroVerilogModule` (what
        :func:`verify_front` passes, from :func:`compiled_module`),
        executed as Verilog with :mod:`repro.eda.microverilog`;
        generated from ``mlp`` when omitted.  Tampering with a
        mask/shift/bias literal in this text is likewise detected.
        Module text outside the emitted subset (or outright illegal
        Verilog) raises
        :class:`~repro.eda.microverilog.MicroVerilogError`, and text
        whose accumulator nets do not match the model's layers raises
        ``ValueError`` — a generator that emits such text must fail
        loudly, not count as zero mismatches.
    """
    vectors = np.asarray(vectors, dtype=np.int64)
    if vectors.ndim != 2 or vectors.shape[1] != mlp.topology.num_inputs:
        raise ValueError(
            f"vectors must have shape (n, {mlp.topology.num_inputs}), "
            f"got {vectors.shape}"
        )
    n = vectors.shape[0]

    # Imported on first use, like in compiled_module.
    from repro.eda.microverilog import simulate_mlp_module

    if verilog_text is None:
        verilog_text = generate_mlp_verilog(mlp)
    text_classes, text_accumulators = simulate_mlp_module(verilog_text, vectors)
    text_fan_outs = [acc.shape[1] for acc in text_accumulators]
    fan_outs = [layer.fan_out for layer in mlp.layers]
    if text_fan_outs != fan_outs:
        raise ValueError(
            f"module text carries accumulator nets for fan-outs {text_fan_outs}, "
            f"expected {fan_outs}"
        )

    # Each layer is checked on the model's own activations, so one wrong
    # net upstream does not hide or multiply disagreements downstream.
    # The last ``acc`` is the output layer's: the model's class scores.
    expression_mismatches = 0
    activations = vectors
    for layer, text_acc in zip(mlp.layers, text_accumulators):
        acc = layer.accumulate(activations)
        expression_mismatches += int(np.count_nonzero(text_acc != acc))
        if layer.activation is not None:
            activations = layer.activation(acc)

    # ---- RTL testbench golden vectors ----
    if testbench_text is None:
        testbench_text = generate_testbench(mlp, vectors=vectors)
    tb_vectors, golden = extract_testbench_vectors(testbench_text)
    if tb_vectors.shape != vectors.shape or not np.array_equal(tb_vectors, vectors):
        raise ValueError("testbench stimulus does not match the applied vectors")

    return DesignVerification(
        num_vectors=n,
        num_neurons=sum(fan_outs),
        model_mismatches=int(np.count_nonzero(np.argmax(acc, axis=1) != golden)),
        expression_mismatches=expression_mismatches,
        eda_mismatches=int(np.count_nonzero(text_classes != golden)),
    )


def verify_front(
    result: GAResult,
    vectors: Optional[np.ndarray] = None,
    num_vectors: int = 32,
    seed: int = 0,
    max_designs: Optional[int] = None,
    cache: Optional[EvaluationCache] = None,
    eda: bool = True,
) -> FrontVerification:
    """Differentially verify every member of an estimated Pareto front.

    Parameters
    ----------
    vectors:
        Shared stimulus for every design; ``num_vectors`` random
        in-range vectors (with the all-zero and all-max boundary
        assignments pinned into the first slots) are drawn with
        ``seed`` when omitted.
    max_designs:
        Optional cap on how many front members to verify (taken in
        ascending-area order, like
        :func:`~repro.evaluation.pareto_analysis.evaluate_front`).
    cache:
        Optional shared evaluation cache: per-design verification
        results are memoized in its ``reports`` section, keyed by genome
        and stimulus fingerprint, and each verified design's parsed module
        text is left in its ``modules`` section for
        :func:`~repro.experiments.publish.rtl_records` (a ``reports``
        hit parses nothing).
    eda:
        Must be true: the module text of every design is always executed
        as Verilog.  Read by perfbench until the next benchmark change.
    """
    if not eda:
        raise ValueError("verify_front always executes the module text; eda must be True")
    start = time.perf_counter()
    front = result.estimated_front
    if max_designs is not None:
        front = front[:max_designs]
    if not front:
        return FrontVerification(results=[], seconds=time.perf_counter() - start)

    config = result.layout.config
    if vectors is None:
        vectors = _draw_vectors(
            result.layout.topology.num_inputs,
            config.max_input_value,
            num_vectors,
            seed,
        )
    vectors = np.asarray(vectors, dtype=np.int64)
    stimulus = (
        EvaluationCache.split_fingerprint(vectors, np.empty(0, dtype=np.int64))
        if cache is not None
        else None
    )
    layout_key = EvaluationCache.layout_key(result.layout) if cache is not None else None

    results: List[DesignVerification] = []
    cache_hits = 0
    for point in front:
        model_key = key = None
        if cache is not None and point.payload is not None:
            model_key = (layout_key, EvaluationCache.genome_key(np.asarray(point.payload)))
            key = ("rtl-verify", *model_key, stimulus)
        verification = cache.reports.get(key) if key is not None else None
        if verification is not None:
            cache_hits += 1
            results.append(verification)
            continue
        model = result.decode(point)
        _, module = compiled_module(model, cache, model_key)
        verification = verify_design(model, vectors, verilog_text=module)
        if key is not None:
            cache.reports.put(key, verification)
        results.append(verification)

    return FrontVerification(
        results=results,
        seconds=time.perf_counter() - start,
        cache_hits=cache_hits,
    )
