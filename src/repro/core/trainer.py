"""The hardware-approximation-aware genetic trainer (NSGA-II loop).

This is the "Training & Approximation Framework" box of the paper's
Fig. 2: given a dataset and an MLP topology it evolves masks, signs,
power-of-two exponents and biases (and, as an extension, per-layer
QReLU shifts) against the two objectives of
equation (3), and returns the estimated area/accuracy Pareto front.

The subsequent "Hardware analysis" step — synthesizing the front's
members to obtain true area and power — lives in
:mod:`repro.evaluation.pareto_analysis`.
"""

from __future__ import annotations

import logging
import time
from dataclasses import astuple, dataclass, fields
from typing import Any, Hashable, List, Optional, Sequence

import numpy as np

from repro.approx.config import ApproxConfig
from repro.approx.mlp import ApproximateMLP
from repro.approx.topology import Topology
from repro.baselines.gradient import FloatMLP
from repro.core.cache import EvaluationCache, pack_arrays
from repro.core.chromosome import ChromosomeLayout
from repro.core.fitness import AREA, ERROR, MAX_ACCURACY_LOSS, VIOLATION, FitnessEvaluator
from repro.core.nsga2 import crowding_distance, nsga2_sort_key
from repro.core.operators import GeneticOperators
from repro.core.pareto import ParetoArchive, ParetoPoint, pareto_front
from repro.core.population import PopulationInitializer
from repro.core.pure import stable_fingerprint

__all__ = ["GAConfig", "GenerationStats", "GAResult", "GATrainer"]

_LOGGER = logging.getLogger(__name__)


@dataclass(frozen=True)
class GAConfig:
    """Hyper-parameters of the genetic training.

    Only the budgets, the doping fraction (which the GA ablation varies)
    and the seed are set here.  The paper's other settings live as the
    defaults of the component that uses them: crossover 0.7 and the
    per-gene mutation rate in :class:`GeneticOperators`, the 10 %
    admissible accuracy loss during training in :class:`FitnessEvaluator`,
    the unbiased initial mask draw in :class:`PopulationInitializer` and
    the archive bound in :class:`ParetoArchive`.  The defaults here are
    CI-friendly budgets; the DATE'24 experiments use far larger
    populations/generations, which the experiment harness requests
    explicitly.
    """

    population_size: int = 60
    generations: int = 40
    doping_fraction: float = 0.10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 4:
            raise ValueError("population_size must be at least 4")
        if self.generations < 1:
            raise ValueError("generations must be at least 1")


@dataclass(frozen=True)
class GenerationStats:
    """Progress record of one generation.

    ``evaluations`` counts *unique* fitness lookups requested so far
    (genomes duplicated within one population batch are folded onto a
    single lookup) and ``fitness_computations`` how many chromosomes
    were scored.  The evaluator scores every unique row of a batch, so
    the two are equal.
    """

    generation: int
    best_error: float
    best_area: float
    mean_error: float
    mean_area: float
    hypervolume: float
    archive_size: int
    evaluations: int
    fitness_computations: int = 0


@dataclass
class GAResult:
    """Outcome of a genetic training run."""

    layout: ChromosomeLayout
    pareto_points: List[ParetoPoint]
    history: List[GenerationStats]
    evaluations: int
    wall_clock_seconds: float
    baseline_accuracy: Optional[float] = None

    @property
    def estimated_front(self) -> List[ParetoPoint]:
        """The estimated area/accuracy Pareto front (sorted by area)."""
        return pareto_front(self.pareto_points)

    def decode(self, point: ParetoPoint) -> ApproximateMLP:
        """Decode a Pareto point's chromosome into an approximate MLP."""
        if point.payload is None:
            raise ValueError("Pareto point carries no chromosome payload")
        return self.layout.decode(np.asarray(point.payload))

    def select_within_accuracy_loss(
        self, max_loss: float, baseline_accuracy: Optional[float] = None
    ) -> Optional[ParetoPoint]:
        """Smallest-area point whose accuracy loss stays within ``max_loss``.

        This is how the paper picks the Table II operating points: the
        most hardware-efficient circuit that loses at most 5 % accuracy
        against the exact baseline.
        """
        reference = baseline_accuracy if baseline_accuracy is not None else self.baseline_accuracy
        if reference is None:
            raise ValueError("a baseline accuracy is required to apply an accuracy-loss bound")
        eligible = [
            point for point in self.estimated_front if point.accuracy >= reference - max_loss
        ]
        if not eligible:
            return None
        return min(eligible, key=lambda p: (p.area, p.error))

    def best_accuracy_point(self) -> ParetoPoint:
        """The point with the highest accuracy on the estimated front."""
        return max(self.estimated_front, key=lambda p: p.accuracy)

    def pack(self) -> tuple:
        """Plain-builtin form for the evaluation cache's ``stages`` section.

        ``(evaluations, points, history)``: each archive point as
        ``(error, area, accuracy, int64 genome bytes)`` and each
        :class:`GenerationStats` as a tuple of its fields.  Builtins only,
        so the snapshot allowlist needs no numpy or trainer globals.
        """
        points = tuple(
            (
                float(point.error),
                float(point.area),
                float(point.accuracy),
                np.ascontiguousarray(point.payload, dtype="<i8").tobytes(),
            )
            for point in self.pareto_points
        )
        history = tuple(
            tuple(kind(value) for kind, value in zip(_STATS_TYPES, astuple(stats)))
            for stats in self.history
        )
        return (int(self.evaluations), points, history)

    @classmethod
    def unpack(
        cls, value: Any, layout: ChromosomeLayout, baseline_accuracy: Optional[float] = None
    ) -> Optional["GAResult"]:
        """Inverse of :meth:`pack` on ``layout``, or ``None`` if malformed.

        Every genome must have the layout's length and lie within its
        bounds.  ``wall_clock_seconds`` is the time this restore took.
        """
        start = time.perf_counter()
        try:
            evaluations, packed_points, packed_history = value
            points = []
            for error, area, accuracy, genome in packed_points:
                if not all(type(v) is float for v in (error, area, accuracy)):
                    return None
                if not isinstance(genome, bytes) or len(genome) != 8 * layout.num_genes:
                    return None
                chromosome = np.frombuffer(genome, dtype="<i8").astype(np.int64)
                layout.validate(chromosome)
                points.append(ParetoPoint(error, area, accuracy, payload=chromosome))
            history = []
            for row in packed_history:
                if len(row) != len(_STATS_TYPES) or any(
                    type(v) is not kind for kind, v in zip(_STATS_TYPES, row)
                ):
                    return None
                history.append(GenerationStats(*row))
        except (TypeError, ValueError):
            return None
        if type(evaluations) is not int or not points or not history:
            return None
        return cls(
            layout=layout,
            pareto_points=points,
            history=history,
            evaluations=evaluations,
            wall_clock_seconds=time.perf_counter() - start,
            baseline_accuracy=baseline_accuracy,
        )


#: Builtin type of each :class:`GenerationStats` field, in field order.
_STATS_TYPES = tuple(
    int if field.type == "int" else float for field in fields(GenerationStats)
)


class GATrainer:
    """NSGA-II driver for approximate, hardware-aware MLP training."""

    def __init__(
        self,
        topology: Topology | Sequence[int],
        approx_config: Optional[ApproxConfig] = None,
        ga_config: Optional[GAConfig] = None,
    ) -> None:
        if not isinstance(topology, Topology):
            topology = Topology(topology)
        self.topology = topology
        self.approx_config = approx_config or ApproxConfig()
        self.ga_config = ga_config or GAConfig()
        self.layout = ChromosomeLayout(topology=self.topology, config=self.approx_config)

    # ------------------------------------------------------------------
    def result_key(
        self,
        train_inputs: np.ndarray,
        train_labels: np.ndarray,
        baseline_accuracy: Optional[float] = None,
        seed_model: Optional[FloatMLP] = None,
        area_objective: bool = True,
    ) -> Hashable:
        """Stage key of what :meth:`train` returns for these arguments.

        It covers the fitness context (layout, training split, baseline
        accuracy, loss bound), the gene bounds, every :class:`GAConfig`
        field, the objective and the seed model's arrays.  The numpy
        version and the code digest guard the whole snapshot file
        (:meth:`~repro.core.cache.EvaluationCache.load`), not the key.
        """
        seed = None
        if seed_model is not None:
            packed = pack_arrays(list(seed_model.weights) + list(seed_model.biases))
            seed = stable_fingerprint(*(part for shape, data in packed for part in (repr(shape), data)))
        layout = self.layout
        return EvaluationCache.stage_key(
            "ga",
            FitnessEvaluator.context_key(
                layout, train_inputs, train_labels, baseline_accuracy, MAX_ACCURACY_LOSS
            ),
            stable_fingerprint(layout.lower_bounds.tobytes(), layout.upper_bounds.tobytes()),
            EvaluationCache.settings_key(self.ga_config),
            bool(area_objective),
            seed,
        )

    def train(
        self,
        train_inputs: np.ndarray,
        train_labels: np.ndarray,
        baseline_accuracy: Optional[float] = None,
        seed_model: Optional[FloatMLP] = None,
        area_objective: bool = True,
    ) -> GAResult:
        """Run the genetic training.

        Parameters
        ----------
        train_inputs:
            Integer-quantized training inputs.
        train_labels:
            Training labels.
        baseline_accuracy:
            Accuracy of the exact baseline; enables the 10 % accuracy-loss
            feasibility constraint of Section IV-A.
        seed_model:
            Optional gradient-trained float model used to seed the doped
            individuals of the initial population.
        area_objective:
            When False the area objective is ignored (all candidates get
            area 0), which reproduces the hardware-unaware "GA" column of
            Table III and is used by the ablation experiments.
        """
        config = self.ga_config
        rng = np.random.default_rng(config.seed)
        start = time.perf_counter()

        evaluator = FitnessEvaluator(
            layout=self.layout,
            train_inputs=train_inputs,
            train_labels=train_labels,
            baseline_accuracy=baseline_accuracy,
        )
        initializer = PopulationInitializer(
            layout=self.layout, doping_fraction=config.doping_fraction, seed_model=seed_model
        )
        archive = ParetoArchive()
        history: List[GenerationStats] = []

        # The population lives as one (n, genes) int64 matrix and its
        # fitness as one (n, 4) table end to end: variation, evaluation
        # and environmental selection index rows of both.
        population = initializer.build(config.population_size, rng)
        fitness = evaluator.evaluate_population(population)
        self._update_archive(archive, population, fitness)
        # Fixed hypervolume reference point so progress is comparable
        # across generations.
        hv_reference = (1.0, float(fitness[:, AREA].max()) * 1.1 + 1.0)

        operators = GeneticOperators(layout=self.layout)
        # Only the initial population is sorted from scratch: environmental
        # selection hands every later generation its survivors' sort key.
        sort_key = nsga2_sort_key(*self._objective_matrix(fitness, area_objective))

        for generation in range(config.generations):
            generation_start = time.perf_counter()
            population, fitness, sort_key = self._generation_step(
                rng=rng,
                evaluator=evaluator,
                operators=operators,
                archive=archive,
                population=population,
                fitness=fitness,
                sort_key=sort_key,
                area_objective=area_objective,
            )
            stats = self._stats(generation, fitness, archive, evaluator, hv_reference)
            history.append(stats)
            if _LOGGER.isEnabledFor(logging.DEBUG):
                previous = history[-2] if len(history) > 1 else None
                _LOGGER.debug(
                    "generation %d: %d unique fitness lookups, %.3fs",
                    generation,
                    stats.evaluations - (previous.evaluations if previous else 0),
                    time.perf_counter() - generation_start,
                )

        if len(archive) == 0:
            # No candidate satisfied the accuracy-loss bound within the
            # budget; fall back to the final population so downstream
            # hardware analysis still has a front to work with.
            for chromosome, (error, area, accuracy, _) in zip(population, fitness.tolist()):
                archive.add(ParetoPoint(error, area, accuracy, payload=chromosome.copy()))

        result = GAResult(
            layout=self.layout,
            pareto_points=archive.points,
            history=history,
            evaluations=evaluator.evaluations,
            wall_clock_seconds=time.perf_counter() - start,
            baseline_accuracy=baseline_accuracy,
        )
        return result

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _generation_step(
        self,
        *,
        rng: np.random.Generator,
        evaluator: FitnessEvaluator,
        operators: GeneticOperators,
        archive: ParetoArchive,
        population: np.ndarray,
        fitness: np.ndarray,
        sort_key: tuple[np.ndarray, np.ndarray],
        area_objective: bool,
    ) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """One NSGA-II generation: variation → evaluation → selection.

        ``sort_key`` is the population's ``nsga2_sort_key`` (ranks and
        crowding distances); the survivors' key comes back with them.
        The population size is preserved: ``len(population)`` offspring
        are bred and the same number survive selection.
        """
        target_size = len(population)
        ranks, crowding = sort_key
        offspring = operators.make_offspring(population, ranks, crowding, target_size, rng)
        offspring_fitness = evaluator.evaluate_population(offspring)
        self._update_archive(archive, offspring, offspring_fitness)
        return self._environmental_selection(
            np.concatenate([population, offspring]),
            np.concatenate([fitness, offspring_fitness]),
            target_size,
            area_objective,
        )

    @staticmethod
    def _objective_matrix(
        fitness: np.ndarray, area_objective: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """``nsga2_sort_key``'s inputs: the ``[error, area]`` columns (area
        zeroed without the area objective) and the violations."""
        objectives = fitness[:, :2]
        if not area_objective:
            objectives = np.column_stack([fitness[:, ERROR], np.zeros(len(fitness))])
        return objectives, fitness[:, VIOLATION]

    @staticmethod
    def _update_archive(archive: ParetoArchive, population: np.ndarray, fitness: np.ndarray) -> None:
        for index in np.flatnonzero(fitness[:, VIOLATION] <= 0.0).tolist():
            error, area, accuracy, _ = fitness[index].tolist()
            archive.add(ParetoPoint(error, area, accuracy, payload=population[index].copy()))

    def _environmental_selection(
        self,
        population: np.ndarray,
        fitness: np.ndarray,
        target_size: int,
        area_objective: bool,
    ) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """Keep the best ``target_size`` rows: whole fronts, then the least
        crowded members of the first front that does not fit.

        Also returns the survivors' ``nsga2_sort_key``, in survivor order.
        Dropping points of the last fronts cannot change an earlier point's
        rank (all its dominators rank lower), so the survivors keep their
        ranks; a whole front keeps its members in the same order, so its
        crowding is unchanged; only the partial front's crowding is
        recomputed, over its chosen members in the order they were chosen.
        """
        objectives, violations = self._objective_matrix(fitness, area_objective)
        ranks, crowding = nsga2_sort_key(objectives, violations)
        # Fronts in rank order, members ascending within each front.
        by_front = np.argsort(ranks, kind="stable")
        filled = np.cumsum(np.bincount(ranks))
        whole = int(np.searchsorted(filled, target_size, side="right"))
        survivors = by_front[: filled[whole - 1] if whole else 0]
        sort_key = (ranks[survivors], crowding[survivors])
        remaining = target_size - len(survivors)
        if remaining > 0 and whole < len(filled):
            front = by_front[len(survivors) : filled[whole]]
            chosen = front[np.argsort(-crowding[front], kind="stable")[:remaining]]
            survivors = np.concatenate([survivors, chosen])
            sort_key = (
                np.concatenate([sort_key[0], np.full(remaining, whole, dtype=np.int64)]),
                np.concatenate([sort_key[1], crowding_distance(objectives[chosen])]),
            )
        return population[survivors], fitness[survivors], sort_key

    @staticmethod
    def _stats(
        generation: int,
        fitness: np.ndarray,
        archive: ParetoArchive,
        evaluator: FitnessEvaluator,
        reference: tuple[float, float],
    ) -> GenerationStats:
        errors, areas = fitness[:, ERROR], fitness[:, AREA]
        return GenerationStats(
            generation=generation,
            best_error=float(errors.min()),
            best_area=float(areas.min()),
            mean_error=float(errors.mean()),
            mean_area=float(areas.mean()),
            hypervolume=archive.hypervolume(reference),
            archive_size=len(archive),
            evaluations=evaluator.evaluations,
            fitness_computations=evaluator.fitness_computations,
        )
