"""Result records of the per-dataset stages of Fig. 2.

:class:`~repro.experiments.session.ExperimentSession` builds them: its
``baseline`` stage returns a :class:`PipelineResult` holding the dataset
and the exact :class:`BaselineResult`; its ``front`` stage returns the
a copy of that record with the genetic :class:`ApproximateResult` filled in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.baselines.exact_bespoke import BespokeMLP
from repro.baselines.gradient import FloatMLP
from repro.core.cache import EvaluationCache
from repro.core.trainer import GAResult
from repro.datasets.dataset import Dataset
from repro.datasets.registry import DatasetSpec
from repro.evaluation.pareto_analysis import EvaluatedDesign, true_pareto_front
from repro.evaluation.verification import FrontVerification
from repro.hardware.synthesis import HardwareReport

__all__ = ["BaselineResult", "ApproximateResult", "PipelineResult"]


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
    #: reporting stages (fitness values, accuracies, hardware reports).
    cache: Optional[EvaluationCache] = None
    #: Front-wide model/RTL differential verification; only
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
