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
constrained dominance in the NSGA-II selection.  A population's fitness
is one ``(n, 4)`` float64 table, a row per chromosome, whose columns are
named by the module constants :data:`ERROR`, :data:`AREA`,
:data:`ACCURACY` and :data:`VIOLATION` (a row is feasible when its
violation is ``<= 0``).

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

from typing import Dict, Optional

import numpy as np

from repro.approx.mlp import accuracy_population
from repro.core.cache import EvaluationCache
from repro.core.chromosome import ChromosomeLayout
from repro.core.pure import stable_fingerprint
from repro.hardware.adder_tree import mlp_fa_count
from repro.hardware.fast_area import fast_population_fa_count

__all__ = ["ERROR", "AREA", "ACCURACY", "VIOLATION", "FitnessEvaluator"]

#: Columns of the ``(n, 4)`` float64 fitness table: the two minimization
#: objectives first, so ``table[:, :2]`` is the NSGA-II objective matrix.
ERROR, AREA, ACCURACY, VIOLATION = range(4)

#: Admissible accuracy loss during training (paper: 10 %).
MAX_ACCURACY_LOSS = 0.10


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
        max_accuracy_loss: float = MAX_ACCURACY_LOSS,
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

        A fitness row embeds the decode semantics, the training split and
        the feasibility constraint, so the GA's stage key
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
    def compute_population(self, population: np.ndarray, slow: bool = False) -> np.ndarray:
        """Fitness table of every row of an ``(n, genes)`` matrix (not counted).

        The rows are sliced into stacked parameters, forwarded in one
        stacked pass and FA-counted from the same tensors.  ``slow=True``
        decodes each row into an :class:`~repro.approx.mlp.ApproximateMLP`
        and scores it alone with the scalar FA counter — the reference
        oracle, bitwise identical.
        """
        if slow:
            models = [self.layout.decode(row) for row in population]
            accuracies = [model.accuracy(self.train_inputs, self.train_labels) for model in models]
            areas = [mlp_fa_count(model) for model in models]
        else:
            params = self.layout.population_parameters(population)
            accuracies = accuracy_population(params, self.train_inputs, self.train_labels)
            areas = fast_population_fa_count(params)
        table = np.zeros((len(accuracies), 4), dtype=np.float64)
        table[:, ACCURACY] = accuracies
        table[:, ERROR] = 1.0 - table[:, ACCURACY]
        table[:, AREA] = areas
        if self.baseline_accuracy is not None:
            loss = self.baseline_accuracy - table[:, ACCURACY]
            table[:, VIOLATION] = np.maximum(0.0, loss - self.max_accuracy_loss)
        return table

    def evaluate_population(self, population: np.ndarray) -> np.ndarray:
        """Fitness table of an ``(n, genes)`` int64 population (counted).

        The batch is deduplicated first — in-batch duplicates (elites,
        crossover clones) are folded onto one row and counted once — and
        the unique rows are scored as one matrix.  A row with a gene out
        of its layout bounds raises ``ValueError``.
        """
        if len(population) == 0:
            return np.zeros((0, 4), dtype=np.float64)
        population = np.ascontiguousarray(population, dtype=np.int64)
        # A row's id is the rank of its genome's first appearance, so the
        # first index of each id, in id order, picks the unique rows.
        first: Dict[bytes, int] = {}
        inverse = np.array(
            [first.setdefault(row.tobytes(), len(first)) for row in population], dtype=np.int64
        )
        unique = population[np.unique(inverse, return_index=True)[1]]
        self.evaluations += len(unique)
        self.fitness_computations += len(unique)
        return self.compute_population(unique)[inverse]
