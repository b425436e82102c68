"""Experiment harness reproducing every table and figure of the paper.

The public entry point is the :class:`~repro.experiments.session.ExperimentSession`:
each paper artifact (Table I/II/III, Fig. 4/5, the ablations) is a
declared stage graph over typed
:class:`~repro.evaluation.artifacts.Artifact` results, and the heavy
per-dataset stages (gradient baseline, hardware-aware GA front, TC'23
sweep) are memoized so experiments share them::

    from repro.experiments import ExperimentSession

    session = ExperimentSession("smoke")
    artifacts = session.run(["table2", "fig4"])
    print(artifacts["table2"].format())

Each module declares one artifact's rows:

* :mod:`repro.experiments.table1` — Table I (exact bespoke baselines),
* :mod:`repro.experiments.table2` — Table II (our approximate MLPs at
  ≤5 % accuracy loss, with area/power reduction factors),
* :mod:`repro.experiments.fig4`   — Fig. 4 (normalized area/power versus
  the TC'23, TCAD'23 and DATE'21 state of the art),
* :mod:`repro.experiments.fig5`   — Fig. 5 (printed-power-source
  feasibility zones at 0.6 V),
* :mod:`repro.experiments.table3` — Table III (training execution times),
* :mod:`repro.experiments.ablation` — additional ablations of the design
  choices (approximation modes, doping, accuracy-loss constraint).

A session runs at an :class:`~repro.experiments.config.ExperimentScale`,
so the experiments run at CI-friendly budgets or at paper-scale budgets.
"""

# Re-exports are lazy (PEP 562), as in :mod:`repro.core`: the runner's
# query mode imports this package without the session (and with it the
# trainers) loading as a side effect.
from repro._lazy import lazy_exports

_EXPORTS = {
    "ExperimentScale": "repro.experiments.config",
    "SCALES": "repro.experiments.config",
    "get_scale": "repro.experiments.config",
    "EXPERIMENT_ORDER": "repro.experiments.config",
    "PipelineResult": "repro.experiments.pipeline",
    "ExperimentSession": "repro.experiments.session",
    "ExperimentDefinition": "repro.experiments.session",
    "EXPERIMENT_DEFINITIONS": "repro.experiments.session",
}

_SUBMODULES = (
    "ablation",
    "config",
    "fig4",
    "fig5",
    "pipeline",
    "publish",
    "runner",
    "session",
    "table1",
    "table2",
    "table3",
)

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS, _SUBMODULES)

__all__ = [
    "ExperimentScale",
    "SCALES",
    "get_scale",
    "PipelineResult",
    "ExperimentSession",
    "ExperimentDefinition",
    "EXPERIMENT_DEFINITIONS",
    "EXPERIMENT_ORDER",
]
