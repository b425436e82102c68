"""Cross-layer differential verification: model ↔ netlist ↔ RTL.

The paper's flow ends in functional simulation of every generated
circuit (its VCS step).  This module is the reproduction's equivalent,
run front-wide in one pass:

* **model vs. gate-level netlist** — every neuron of every layer is
  lowered to its adder-tree netlist
  (:func:`~repro.hardware.netlist.build_neuron_netlist`) and evaluated
  over the whole vector batch with the compiled batched simulator
  (:func:`~repro.hardware.simulator.simulate_batch`); the accumulators
  must equal the integer Python model's bit for bit;
* **netlist vs. RTL testbench** — the self-checking Verilog testbench
  is generated for the same vectors, its embedded golden responses are
  parsed back *out of the emitted text*
  (:func:`~repro.rtl.testbench.extract_testbench_vectors`), and checked
  against the gate-level predictions (netlist accumulators chained
  through the Python QReLU/argmax stages);
* **model vs. RTL testbench** — the same parsed golden responses are
  checked against :meth:`ApproximateMLP.predict`, closing the triangle;
* **model vs. RTL module text** — the *whole emitted module text* is
  parsed and executed as Verilog by the :mod:`repro.eda.microverilog`
  simulator, with the language's width/signedness rules rather than
  Python's.  Every ``acc_lL_nJ`` accumulator net must equal the model's
  accumulator, so a wrong mask/shift/bias literal produced by the
  Verilog *generator* is caught even though the testbench golden
  responses originate from the model; the ``class_index`` output must
  match those golden responses, which also covers the QReLU saturation
  ternaries, the behavioural argmax block and the declared wire widths.
  Module text that is not legal within the emitted subset raises.

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

Front verification is additionally **batched across designs**: the
members of one front are closely related elites, so many of their
neurons carry identical (mask, sign, exponent, bias) parameters — and
two parameter-identical neurons lower to the same netlist.  A
:class:`NetlistPlanCache` shared across the whole front builds and
compiles each distinct neuron structure once; every later design that
contains the same neuron reuses the level-scheduled evaluation plan
instead of rebuilding and recompiling it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.approx.mlp import ApproximateMLP
from repro.core.cache import EvaluationCache
from repro.core.trainer import GAResult
from repro.hardware.netlist import build_neuron_netlist
from repro.hardware.simulator import simulate_batch
from repro.rtl.testbench import extract_testbench_vectors, generate_testbench
from repro.rtl.verilog import generate_mlp_verilog

if TYPE_CHECKING:
    from repro.eda.microverilog import MicroVerilogModule

__all__ = [
    "DesignVerification",
    "FrontVerification",
    "NetlistPlanCache",
    "compiled_module",
    "verify_design",
    "verify_front",
]


class NetlistPlanCache:
    """Compiled neuron netlists keyed by the neuron's parameters.

    Two neurons with identical ``(input_bits, masks, signs, exponents,
    bias)`` lower to the same adder-tree netlist, so one built-and-
    compiled :class:`~repro.hardware.netlist.Netlist` (whose evaluation
    plan is memoized on it) can serve both — across layers, and across
    every design of a front.  ``hits`` / ``misses`` count lookups, so
    callers can report how much compile work the sharing saved.
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._plans: Dict[Tuple, object] = {}

    @staticmethod
    def structure_key(neuron) -> Tuple:
        """The parameter fingerprint that fully determines the netlist."""
        return (
            int(neuron.input_bits),
            neuron.masks.tobytes(),
            neuron.signs.tobytes(),
            neuron.exponents.tobytes(),
            int(neuron.bias),
        )

    def netlist(self, neuron):
        """The (shared) netlist of ``neuron``, built on first request."""
        key = self.structure_key(neuron)
        netlist = self._plans.get(key)
        if netlist is None:
            self.misses += 1
            netlist = build_neuron_netlist(neuron)
            netlist.compiled()  # compile eagerly so reuse skips it too
            self._plans[key] = netlist
        else:
            self.hits += 1
        return netlist

    def __len__(self) -> int:
        return len(self._plans)


@dataclass(frozen=True)
class DesignVerification:
    """Differential verification outcome of one design."""

    num_vectors: int
    #: Neuron netlists simulated (every neuron of every layer).
    num_neurons: int
    #: (neuron, vector) accumulator disagreements: model vs. netlist.
    netlist_mismatches: int
    #: Per-vector class disagreements: netlist-level predictions vs. the
    #: golden responses parsed back out of the generated testbench.
    rtl_mismatches: int
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
        return (
            self.netlist_mismatches
            + self.rtl_mismatches
            + self.model_mismatches
            + self.expression_mismatches
            + self.eda_mismatches
        )

    @property
    def passed(self) -> bool:
        """True when model, netlist and RTL agree on every vector."""
        return self.total_mismatches == 0


@dataclass(frozen=True)
class FrontVerification:
    """Front-wide verification summary."""

    results: List[DesignVerification]
    seconds: float
    #: Designs whose verification was served from the evaluation cache.
    cache_hits: int = 0
    #: Distinct neuron netlists built + compiled across the front.
    plans_compiled: int = 0
    #: Neuron simulations that reused an already compiled plan (same
    #: neuron parameters seen earlier in this front).
    plan_reuses: int = 0

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
        """Total neuron-netlist simulations across the front."""
        return sum(result.num_neurons for result in self.results)

    @property
    def netlist_mismatches(self) -> int:
        """Total model-vs-netlist accumulator disagreements."""
        return sum(result.netlist_mismatches for result in self.results)

    @property
    def rtl_mismatches(self) -> int:
        """Total netlist-vs-testbench class disagreements."""
        return sum(result.rtl_mismatches for result in self.results)

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
    plan_cache: Optional[NetlistPlanCache] = None,
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
    plan_cache:
        Optional shared :class:`NetlistPlanCache`;
        :func:`verify_front` passes one cache for the whole front so
        parameter-identical neurons are built and compiled once.
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

    # ---- model vs. gate-level netlist, layer by layer ----
    # Each layer is checked on the *model's* activations (golden per-layer
    # inputs), so a hypothetical upstream disagreement cannot mask or
    # amplify downstream ones; the gate-level accumulators still chain
    # through the Python QReLU into the next layer's netlist stimulus.
    netlist_mismatches = 0
    expression_mismatches = 0
    num_neurons = 0
    diverged = False
    activations = vectors
    gate_activations = vectors
    gate_scores: Optional[np.ndarray] = None
    for layer_index, layer in enumerate(mlp.layers):
        acc_model = layer.accumulate(activations)
        expected_gate = layer.accumulate(gate_activations) if diverged else acc_model
        acc_gate = np.empty((n, layer.fan_out), dtype=np.int64)
        buses = {f"x{i}": gate_activations[:, i] for i in range(layer.fan_in)}
        for j in range(layer.fan_out):
            neuron = layer.neuron(j)
            if plan_cache is not None:
                netlist = plan_cache.netlist(neuron)
            else:
                netlist = build_neuron_netlist(neuron)
            acc_gate[:, j] = simulate_batch(netlist, buses)
            num_neurons += 1
        expression_mismatches += int(
            np.count_nonzero(text_accumulators[layer_index] != acc_model)
        )
        layer_mismatches = int(np.count_nonzero(acc_gate != expected_gate))
        netlist_mismatches += layer_mismatches
        diverged = diverged or layer_mismatches > 0
        if layer.activation is None:
            gate_scores = acc_gate
        else:
            activations = layer.activation(acc_model)
            gate_activations = (
                layer.activation(acc_gate) if diverged else activations
            )
    assert gate_scores is not None  # the output layer has no activation

    # ---- RTL testbench golden vectors ----
    if testbench_text is None:
        testbench_text = generate_testbench(mlp, vectors=vectors)
    tb_vectors, golden = extract_testbench_vectors(testbench_text)
    if tb_vectors.shape != vectors.shape or not np.array_equal(tb_vectors, vectors):
        raise ValueError("testbench stimulus does not match the applied vectors")

    gate_predictions = np.argmax(gate_scores, axis=1)
    model_predictions = mlp.predict(vectors)

    return DesignVerification(
        num_vectors=n,
        num_neurons=num_neurons,
        netlist_mismatches=netlist_mismatches,
        rtl_mismatches=int(np.count_nonzero(gate_predictions != golden)),
        model_mismatches=int(np.count_nonzero(model_predictions != golden)),
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
    # One plan cache for the whole front: parameter-identical neurons
    # (ubiquitous among related elites) share one compiled netlist
    # schedule instead of being rebuilt and recompiled per design.
    plan_cache = NetlistPlanCache()
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
        verification = verify_design(
            model, vectors, verilog_text=module, plan_cache=plan_cache
        )
        if key is not None:
            cache.reports.put(key, verification)
        results.append(verification)

    return FrontVerification(
        results=results,
        seconds=time.perf_counter() - start,
        cache_hits=cache_hits,
        plans_compiled=plan_cache.misses,
        plan_reuses=plan_cache.hits,
    )
