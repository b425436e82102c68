"""Genetic, hardware-approximation-aware training (the paper's core).

The training problem (equation (3)) is a two-objective minimization over
discrete parameters:

    min_theta [ 1 - Accuracy(theta, D),  Area(theta) ]

where ``theta`` collects, for every connection, the mask ``m``, sign
``s`` and power-of-two exponent ``k``, plus a bias ``b`` per neuron.
Because the parameters are discrete (masks especially), gradients are
unavailable and the paper trains with NSGA-II.

* :mod:`repro.core.chromosome` — flat integer encoding of ``theta``
  (genes grouped weight → neuron → layer, Fig. 3).
* :mod:`repro.core.fitness` — the two objectives plus the 10 % accuracy
  -loss feasibility constraint.
* :mod:`repro.core.nsga2` — non-dominated sorting, crowding distance and
  constrained-dominance tournament selection.
* :mod:`repro.core.operators` — integer crossover and mutation.
* :mod:`repro.core.population` — semi-random initialization doped with
  nearly non-approximate individuals.
* :mod:`repro.core.pareto` — Pareto-front utilities and hypervolume.
* :mod:`repro.core.pure` — the stdlib-only first-front sweep and content
  fingerprint, shared with the numpy-free serving layer.
* :mod:`repro.core.trainer` — the :class:`GATrainer` orchestrating the
  whole flow and producing the estimated area/accuracy Pareto front.
"""

# Re-exports are lazy (PEP 562): the serving layer imports the light
# query-time module (pure) without the trainer stack or numpy
# loading as a side effect.  ``from repro.core import GATrainer`` still
# works exactly as before.
from repro._lazy import lazy_exports

_EXPORTS = {
    "EvaluationCache": "repro.core.cache",
    "LRUCache": "repro.core.cache",
    "ChromosomeLayout": "repro.core.chromosome",
    "FitnessEvaluator": "repro.core.fitness",
    "crowding_distance": "repro.core.nsga2",
    "fast_non_dominated_sort": "repro.core.nsga2",
    "GeneticOperators": "repro.core.operators",
    "PopulationInitializer": "repro.core.population",
    "ParetoPoint": "repro.core.pareto",
    "hypervolume": "repro.core.pareto",
    "pareto_front": "repro.core.pareto",
    "GAConfig": "repro.core.trainer",
    "GAResult": "repro.core.trainer",
    "GATrainer": "repro.core.trainer",
}

_SUBMODULES = (
    "cache",
    "chromosome",
    "fitness",
    "nsga2",
    "operators",
    "pareto",
    "population",
    "trainer",
)

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS, _SUBMODULES)

__all__ = [
    "EvaluationCache",
    "LRUCache",
    "ChromosomeLayout",
    "FitnessEvaluator",
    "crowding_distance",
    "fast_non_dominated_sort",
    "GeneticOperators",
    "PopulationInitializer",
    "ParetoPoint",
    "hypervolume",
    "pareto_front",
    "GAConfig",
    "GAResult",
    "GATrainer",
]
