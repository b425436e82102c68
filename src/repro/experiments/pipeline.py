"""Shared per-dataset pipeline used by every experiment.

For one dataset the pipeline runs (and caches) the stages of Fig. 2:

1. dataset generation, normalization, stratified split, quantization;
2. exact baseline: gradient training + post-training quantization +
   hardware analysis (Table I);
3. genetic hardware-aware training (the framework) + hardware analysis
   of the estimated Pareto front + Table II operating-point selection.

Experiments compose these cached stages so that, e.g., Fig. 4 and
Fig. 5 do not re-train what Table II already trained.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.approx_tc23 import Tc23ApproximateMLP, explore_tc23
from repro.baselines.exact_bespoke import BespokeMLP, train_exact_baseline
from repro.baselines.gradient import FloatMLP, GradientTrainer
from repro.core.cache import EvaluationCache, SnapshotPolicy
from repro.core.islands import IslandGATrainer, make_trainer
from repro.core.trainer import GAConfig, GAResult, GATrainer
from repro.datasets.dataset import Dataset
from repro.datasets.registry import DatasetSpec, get_spec, load_dataset
from repro.evaluation.pareto_analysis import (
    EvaluatedDesign,
    evaluate_front,
    select_design,
    true_pareto_front,
)
from repro.evaluation.verification import FrontVerification, verify_front
from repro.experiments.config import ExperimentScale, get_scale
from repro.hardware.synthesis import HardwareReport

__all__ = ["BaselineResult", "ApproximateResult", "PipelineResult", "DatasetPipeline"]


@dataclass
class BaselineResult:
    """Exact bespoke baseline for one dataset."""

    bespoke: BespokeMLP
    float_model: FloatMLP
    test_accuracy: float
    train_accuracy: float
    report: HardwareReport
    training_seconds: float


@dataclass
class ApproximateResult:
    """Our genetically trained approximate MLP for one dataset."""

    ga_result: GAResult
    designs: List[EvaluatedDesign]
    selected: Optional[EvaluatedDesign]
    training_seconds: float
    #: Evaluation cache shared between the GA, front-synthesis and
    #: reporting stages (decoded models, accuracies, hardware reports).
    cache: Optional[EvaluationCache] = None
    #: Front-wide model/netlist/RTL differential verification; only
    #: populated when the scale (or ``runner.py --verify-rtl``) asks
    #: for it.
    verification: Optional[FrontVerification] = None

    @property
    def true_front(self) -> List[EvaluatedDesign]:
        """Non-dominated designs after hardware analysis."""
        return true_pareto_front(self.designs)


@dataclass
class PipelineResult:
    """Everything the experiments need for one dataset."""

    spec: DatasetSpec
    dataset: Dataset
    baseline: BaselineResult
    approximate: Optional[ApproximateResult] = None


class DatasetPipeline:
    """Runs and caches the per-dataset stages at a given experiment scale.

    Parameters
    ----------
    scale:
        Experiment scale (or its name).
    cache_dir:
        Optional directory for disk-backed
        :class:`~repro.core.cache.EvaluationCache` snapshots (one file
        per dataset); overrides ``scale.cache_dir``.  When set, the
        genetic stage starts from the previous run's fitness/accuracy/
        report entries and saves the merged cache back afterwards, so a
        repeated invocation of an identical experiment is served almost
        entirely from cache.
    """

    def __init__(
        self,
        scale: ExperimentScale | str = "ci",
        cache_dir: Optional[str | Path] = None,
    ) -> None:
        self.scale = get_scale(scale) if isinstance(scale, str) else scale
        if cache_dir is None:
            cache_dir = self.scale.cache_dir
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._cache: Dict[str, PipelineResult] = {}
        #: Per-dataset disk-cache traffic: entries loaded/saved per run.
        self._cache_io: Dict[str, Dict[str, int]] = {}
        self._tc23_cache: Dict[
            Tuple[str, float],
            Tuple[Optional[Tc23ApproximateMLP], Optional[HardwareReport], List[dict]],
        ] = {}

    # ------------------------------------------------------------------
    def dataset(self, name: str) -> PipelineResult:
        """Dataset + exact baseline (cached)."""
        if name not in self._cache:
            self._cache[name] = self._build_baseline(name)
        return self._cache[name]

    def approximate(self, name: str, max_accuracy_loss: float = 0.05) -> PipelineResult:
        """Dataset + baseline + genetic training result (cached)."""
        result = self.dataset(name)
        if result.approximate is None:
            result.approximate = self._train_approximate(result, max_accuracy_loss)
        return result

    def tc23(
        self, name: str, max_accuracy_loss: float = 0.05
    ) -> Tuple[Optional[Tc23ApproximateMLP], Optional[HardwareReport], List[dict]]:
        """TC'23 design-space sweep for one dataset (cached).

        Both Fig. 4 and Fig. 5 need the TC'23 baseline; sharing the sweep
        here means its circuits are synthesized exactly once per run.
        """
        key = (name, max_accuracy_loss)
        if key not in self._tc23_cache:
            result = self.dataset(name)
            x_test, y_test = result.dataset.quantized_test()
            self._tc23_cache[key] = explore_tc23(
                result.baseline.bespoke,
                x_test,
                y_test,
                baseline_accuracy=result.baseline.test_accuracy,
                max_accuracy_loss=max_accuracy_loss,
                clock_period_ms=result.spec.clock_period_ms,
            )
        return self._tc23_cache[key]

    def results(self, approximate: bool = False) -> List[PipelineResult]:
        """Run the pipeline on every dataset of the scale."""
        names = list(self.scale.datasets)
        if approximate:
            return [self.approximate(name) for name in names]
        return [self.dataset(name) for name in names]

    # ------------------------------------------------------------------
    def _snapshot_path(self, name: str) -> Optional[Path]:
        """Disk location of one dataset's evaluation-cache snapshot."""
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{name}.cache.pkl"

    @property
    def snapshot_policy(self) -> Optional[SnapshotPolicy]:
        """Compaction policy applied whenever a snapshot is saved."""
        scale = self.scale
        if scale.cache_max_age_days is None and scale.cache_max_snapshot_bytes is None:
            return None
        return SnapshotPolicy(
            max_age_seconds=(
                None
                if scale.cache_max_age_days is None
                else scale.cache_max_age_days * 86400.0
            ),
            max_total_bytes=scale.cache_max_snapshot_bytes,
        )

    def persist_cache(self, spec_name: str, cache: Optional[EvaluationCache]) -> int:
        """Save (compacted) a dataset's evaluation cache to its snapshot.

        Later pipeline stages that add entries to an already persisted
        cache (e.g. the session's hardware-unaware Table III GA) call
        this to fold their work into the same per-dataset snapshot.
        Returns the number of entries written (0 without a cache dir).
        """
        snapshot = self._snapshot_path(spec_name)
        if snapshot is None or cache is None:
            return 0
        saved = cache.save(snapshot, policy=self.snapshot_policy)
        io = self._cache_io.setdefault(spec_name, {"loaded": 0, "saved": 0})
        io["saved"] = saved
        return saved

    def cache_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-dataset fitness-cache hit rates and disk-snapshot traffic.

        ``hit_rate`` is the GA stage's unique-lookup hit rate (hits /
        evaluations); on a second identical run against the same
        ``cache_dir`` it approaches 1.0 because every genome's fitness
        was restored from disk.  ``loaded``/``saved`` count snapshot
        entries read before and written after the genetic stage.
        """
        summary: Dict[str, Dict[str, float]] = {}
        for name, result in self._cache.items():
            approx = result.approximate
            if approx is None or not approx.ga_result.history:
                continue
            last = approx.ga_result.history[-1]
            # _cache_io is keyed by the canonical spec name, which may
            # differ from the caller-supplied alias keying _cache.
            io = self._cache_io.get(result.spec.name, {})
            summary[name] = {
                "evaluations": last.evaluations,
                "cache_hits": last.cache_hits,
                "hit_rate": last.cache_hit_rate,
                "loaded": io.get("loaded", 0),
                "saved": io.get("saved", 0),
            }
        return summary

    def verification_summary(self) -> Dict[str, FrontVerification]:
        """Per-dataset front verification results (``verify_rtl`` runs only)."""
        summary: Dict[str, FrontVerification] = {}
        for name, result in self._cache.items():
            approx = result.approximate
            if approx is not None and approx.verification is not None:
                summary[name] = approx.verification
        return summary

    # ------------------------------------------------------------------
    def _build_baseline(self, name: str) -> PipelineResult:
        spec = get_spec(name)
        dataset = load_dataset(name, seed=self.scale.seed, num_samples=self.scale.max_samples)
        trainer = GradientTrainer(
            epochs=self.scale.gradient_epochs,
            restarts=self.scale.gradient_restarts,
            seed=self.scale.seed,
        )
        start = time.perf_counter()
        bespoke, float_model = train_exact_baseline(
            dataset.train.features, dataset.train.labels, spec.mlp_topology, trainer=trainer
        )
        elapsed = time.perf_counter() - start
        x_train, y_train = dataset.quantized_train()
        x_test, y_test = dataset.quantized_test()
        report = bespoke.synthesize(clock_period_ms=spec.clock_period_ms)
        baseline = BaselineResult(
            bespoke=bespoke,
            float_model=float_model,
            test_accuracy=bespoke.accuracy(x_test, y_test),
            train_accuracy=bespoke.accuracy(x_train, y_train),
            report=report,
            training_seconds=elapsed,
        )
        return PipelineResult(spec=spec, dataset=dataset, baseline=baseline)

    def _train_approximate(
        self, result: PipelineResult, max_accuracy_loss: float
    ) -> ApproximateResult:
        spec = result.spec
        dataset = result.dataset
        x_train, y_train = dataset.quantized_train()
        x_test, y_test = dataset.quantized_test()

        ga_config = GAConfig(
            population_size=self.scale.ga_population,
            generations=self.scale.ga_generations,
            seed=self.scale.seed,
            n_workers=self.scale.ga_workers,
            n_islands=self.scale.ga_islands,
            migration_interval=self.scale.ga_migration_interval,
            migration_size=self.scale.ga_migration_size,
        )
        trainer = make_trainer(spec.mlp_topology, ga_config=ga_config)
        # One evaluation cache spans the GA, front-synthesis and
        # reporting stages: the front members the GA decoded are never
        # decoded again downstream, and every hardware report is
        # synthesized at most once per operating point.  With a cache
        # directory it also spans *runs*: the previous invocation's
        # fitness/accuracy/report entries are restored before the GA
        # starts, and the merged cache is snapshotted afterwards.
        cache = EvaluationCache()
        snapshot = self._snapshot_path(spec.name)
        loaded = cache.load(snapshot) if snapshot is not None else 0
        train_kwargs = dict(
            baseline_accuracy=result.baseline.train_accuracy,
            seed_model=result.baseline.float_model,
            cache=cache,
        )
        if isinstance(trainer, IslandGATrainer) and self.cache_dir is not None:
            # Island workers pool fitness values through a shared
            # segment directory next to the snapshot; the coordinator
            # seeds it from the loaded snapshot and merges it back into
            # `cache` before the snapshot is saved below.
            train_kwargs["pool_dir"] = self.cache_dir / f"{spec.name}.pool"
        start = time.perf_counter()
        ga_result = trainer.train(x_train, y_train, **train_kwargs)
        elapsed = time.perf_counter() - start

        designs = evaluate_front(
            ga_result,
            x_test,
            y_test,
            clock_period_ms=spec.clock_period_ms,
            max_designs=self.scale.max_front_designs,
            cache=cache,
        )
        selected = select_design(
            designs,
            baseline_accuracy=result.baseline.test_accuracy,
            max_accuracy_loss=max_accuracy_loss,
        )
        verification = None
        if self.scale.verify_rtl or self.scale.verify_eda:
            # Differential sign-off of the synthesized front: Python
            # model vs. gate-level netlist vs. RTL testbench golden
            # vectors (plus, with verify_eda, the module text executed
            # as Verilog), one batched pass per design.  Shares the same
            # cache, so a second run (or a disk snapshot) serves the
            # verification results without re-simulating.
            verify_seed = (
                self.scale.verify_seed
                if self.scale.verify_seed is not None
                else self.scale.seed
            )
            verification = verify_front(
                ga_result,
                num_vectors=self.scale.verify_vectors,
                seed=verify_seed,
                max_designs=self.scale.max_front_designs,
                cache=cache,
                eda=self.scale.verify_eda,
            )
        if snapshot is not None:
            self._cache_io[spec.name] = {"loaded": loaded, "saved": 0}
            self.persist_cache(spec.name, cache)
        return ApproximateResult(
            ga_result=ga_result,
            designs=designs,
            selected=selected,
            training_seconds=elapsed,
            cache=cache,
            verification=verification,
        )
