"""Fitness evaluation: the two objectives of equation (3) plus feasibility.

For every chromosome the evaluator computes

* ``error = 1 - Accuracy(theta, D_train)`` using the integer forward
  model of equation (4), and
* ``area = FA-count(theta)``, the high-level area estimate of
  equation (2): the Full Adders of every neuron's 3:2 reduction, with no
  half adders and no final carry-propagate adder, counted by the shared
  adder-tree kernel :mod:`repro.hardware.fast_area`;

and, when a baseline accuracy is supplied, a constraint violation equal
to how far the candidate's accuracy loss exceeds the admissible bound
(10 % during training, per Section IV-A).  The violation is used for
constrained dominance in the NSGA-II selection.

The evaluator is population-batched and genome-native: the unique rows
of an ``(n, genes)`` population matrix are sliced into stacked parameter
tensors
(:meth:`~repro.core.chromosome.ChromosomeLayout.population_parameters`,
which bounds-checks every row), forwarded through one stacked integer
forward pass and FA-counted from the same tensors — no per-candidate
model object is built.  :meth:`FitnessEvaluator.evaluate_population`
folds the duplicates within one batch (elites, clones produced by
crossover) and scores every unique row.  There is no memo across
batches: on the ``ci`` and full experiment scales a cross-generation
memo served only about 1.5 % of the unique lookups, and an exact integer
recompute returns the same values.  The per-chromosome decode +
:meth:`~repro.approx.mlp.ApproximateMLP.accuracy` + scalar
:func:`~repro.hardware.adder_tree.mlp_fa_count` path is kept as the
``slow=True`` oracle of :meth:`FitnessEvaluator.compute_population`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.approx.mlp import accuracy_population
from repro.core.cache import EvaluationCache
from repro.core.chromosome import ChromosomeLayout
from repro.core.pure import stable_fingerprint
from repro.hardware.adder_tree import mlp_fa_count
from repro.hardware.fast_area import fast_population_fa_count

__all__ = ["FitnessValues", "FitnessEvaluator"]


@dataclass(frozen=True)
class FitnessValues:
    """Objectives and feasibility of one evaluated chromosome."""

    error: float
    area: float
    accuracy: float
    constraint_violation: float = 0.0

    @property
    def objectives(self) -> np.ndarray:
        """The minimization objectives ``[error, area]``."""
        return np.array([self.error, self.area], dtype=np.float64)

    @property
    def feasible(self) -> bool:
        """Whether the accuracy-loss constraint is satisfied."""
        return self.constraint_violation <= 0.0


class FitnessEvaluator:
    """Evaluates chromosomes on accuracy and hardware area.

    Parameters
    ----------
    layout:
        Chromosome layout used to decode gene vectors.
    train_inputs:
        Integer-quantized training inputs (``(n_samples, num_inputs)``).
    train_labels:
        Training labels.
    baseline_accuracy:
        Accuracy of the exact baseline MLP; when given, candidates whose
        accuracy drops more than ``max_accuracy_loss`` below it are
        marked infeasible (constrained NSGA-II).
    max_accuracy_loss:
        Admissible accuracy loss during training (paper: 10 %).

    Attributes
    ----------
    evaluations:
        Number of *unique* fitness lookups requested.  Genomes that are
        duplicated within one :meth:`evaluate_population` batch count
        once.
    fitness_computations:
        Number of chromosomes scored by :meth:`evaluate_population`.
        Every unique row of a batch is scored, so it equals
        ``evaluations``.
    """

    def __init__(
        self,
        layout: ChromosomeLayout,
        train_inputs: np.ndarray,
        train_labels: np.ndarray,
        baseline_accuracy: Optional[float] = None,
        max_accuracy_loss: float = 0.10,
    ) -> None:
        self.layout = layout
        self.train_inputs = np.asarray(train_inputs, dtype=np.int64)
        self.train_labels = np.asarray(train_labels, dtype=np.int64)
        if self.train_inputs.ndim != 2:
            raise ValueError("train_inputs must be a 2-D integer array")
        if self.train_inputs.shape[0] != self.train_labels.shape[0]:
            raise ValueError("train_inputs and train_labels must have the same length")
        if self.train_inputs.shape[1] != layout.topology.num_inputs:
            raise ValueError(
                f"train_inputs has {self.train_inputs.shape[1]} features, "
                f"topology expects {layout.topology.num_inputs}"
            )
        if max_accuracy_loss < 0:
            raise ValueError(f"max_accuracy_loss must be non-negative, got {max_accuracy_loss}")
        self.baseline_accuracy = baseline_accuracy
        self.max_accuracy_loss = max_accuracy_loss
        self.evaluations = 0
        self.fitness_computations = 0

    @staticmethod
    def context_key(
        layout: ChromosomeLayout,
        train_inputs: np.ndarray,
        train_labels: np.ndarray,
        baseline_accuracy: Optional[float],
        max_accuracy_loss: float,
    ) -> str:
        """One digest string of everything a fitness value depends on
        besides the genome.

        :class:`FitnessValues` embed the decode semantics, the training
        split and the feasibility constraint, so the GA's stage key
        (:meth:`~repro.core.trainer.GATrainer.result_key`) includes this
        digest.
        """
        split = EvaluationCache.split_fingerprint(
            np.asarray(train_inputs, dtype=np.int64), np.asarray(train_labels, dtype=np.int64)
        )
        return stable_fingerprint(
            EvaluationCache.layout_key(layout),
            repr(None if baseline_accuracy is None else float(baseline_accuracy)),
            repr(float(max_accuracy_loss)),
            repr(split),
        )

    # ------------------------------------------------------------------
    def compute(self, chromosome: np.ndarray) -> FitnessValues:
        """Evaluate one chromosome (not counted)."""
        return self.compute_population(np.asarray(chromosome, dtype=np.int64)[None, :])[0]

    def compute_population(
        self, population: np.ndarray, slow: bool = False
    ) -> List[FitnessValues]:
        """Score every row of an ``(n, genes)`` matrix (not counted).

        The rows are sliced into stacked parameters, forwarded in one
        stacked pass and FA-counted from the same tensors.  ``slow=True``
        decodes each row into an :class:`~repro.approx.mlp.ApproximateMLP`
        and scores it alone with the scalar FA counter — the reference
        oracle, bitwise identical.
        """
        if slow:
            models = [self.layout.decode(row) for row in population]
            return [
                self._make_values(
                    model.accuracy(self.train_inputs, self.train_labels),
                    float(mlp_fa_count(model)),
                )
                for model in models
            ]
        params = self.layout.population_parameters(population)
        accuracies = accuracy_population(params, self.train_inputs, self.train_labels)
        areas = fast_population_fa_count(params)
        return [
            self._make_values(accuracy, float(area))
            for accuracy, area in zip(accuracies.tolist(), areas.tolist())
        ]

    def _make_values(self, accuracy: float, area: float) -> FitnessValues:
        violation = 0.0
        if self.baseline_accuracy is not None:
            loss = self.baseline_accuracy - accuracy
            violation = max(0.0, loss - self.max_accuracy_loss)
        return FitnessValues(
            error=1.0 - accuracy,
            area=area,
            accuracy=accuracy,
            constraint_violation=violation,
        )

    def evaluate(self, chromosome: np.ndarray) -> FitnessValues:
        """Evaluate one chromosome (counted)."""
        return self.evaluate_population(np.asarray(chromosome, dtype=np.int64)[None, :])[0]

    def evaluate_population(
        self, population: Union[np.ndarray, Sequence[np.ndarray]]
    ) -> List[FitnessValues]:
        """Evaluate every chromosome of a population.

        ``population`` may be an ``(n, genes)`` int64 matrix (the
        trainer's native representation) or a sequence of gene vectors.
        The batch is deduplicated first — in-batch duplicates (elites,
        crossover clones) are folded onto one row and counted once — and
        the unique rows are scored as one matrix.  A row with a gene out
        of its layout bounds raises ``ValueError``.
        """
        if len(population) == 0:
            return []
        population = np.ascontiguousarray(population, dtype=np.int64)
        keys = [row.tobytes() for row in population]
        first: Dict[bytes, int] = {}
        for index, key in enumerate(keys):
            first.setdefault(key, index)
        computed = self.compute_population(population[list(first.values())])
        self.evaluations += len(first)
        self.fitness_computations += len(first)
        resolved = dict(zip(first, computed))
        return [resolved[key] for key in keys]
