"""Experiment scales: smoke (seconds), ci (a minute or two), full (about a minute).

The paper's training runs evaluate tens of millions of chromosomes on a
64-core server; the reproduction exposes the same flow at three budgets
so that tests and benchmarks stay fast.  ``runner --experiment all
--scale full`` regenerates every artifact in 62.6 s with a 55 MB peak
RSS (one run on a shared 2-core x86_64 box, Python 3.11.7, numpy 2.4.6,
one BLAS thread).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = ["EXPERIMENT_ORDER", "ExperimentScale", "SCALES", "get_scale"]

#: Canonical execution/printing order of the experiments.
EXPERIMENT_ORDER: Tuple[str, ...] = (
    "table1",
    "table2",
    "table3",
    "fig4",
    "fig5",
    "ablation_approx",
    "ablation_ga",
)


@dataclass(frozen=True)
class ExperimentScale:
    """Budget knobs shared by all experiments.

    Attributes
    ----------
    name:
        Scale identifier.
    datasets:
        Datasets to include (canonical names).
    max_samples:
        Optional per-dataset sample count.  It sets the count outright
        (``load_dataset(num_samples=...)``), so it can exceed the real
        set's size: at ``ci`` scale breast_cancer gets 800 samples
        against 569.  ``None`` keeps each dataset's registered size.
    gradient_epochs / gradient_restarts:
        Budget of the float (baseline) training.
    ga_population / ga_generations:
        Budget of the genetic training.
    ga_workers / ga_islands:
        Fixed at 0 / 1 (one in-process GA population); the names remain
        only because ``perfbench/workloads.py`` passes them.
    max_front_designs:
        How many estimated-front members to synthesize in the hardware
        analysis step.
    seed:
        Global seed (dataset generation, training, GA).
    dataset_workers:
        Threads used to warm the per-dataset heavy stages (gradient
        baseline + GA front) in parallel before experiments read them
        (``ExperimentSession.prefetch``); 0/1 keeps execution serial.
    verify_rtl:
        Differentially verify every synthesized front member — Python
        model vs. RTL testbench golden vectors vs. the module text
        executed as Verilog — after the hardware-analysis stage
        (``runner.py --verify-rtl``).
    verify_vectors:
        Stimulus vectors per design for the RTL verification sweep.
    verify_seed:
        Explicit seed for the verification stimulus draw; ``None`` falls
        back to the global ``seed`` (``runner.py --verify-seed``).
    """

    name: str
    datasets: Tuple[str, ...] = (
        "breast_cancer",
        "cardio",
        "pendigits",
        "redwine",
        "whitewine",
    )
    max_samples: Optional[int] = None
    gradient_epochs: int = 150
    gradient_restarts: int = 3
    ga_population: int = 60
    ga_generations: int = 40
    ga_workers: int = 0
    ga_islands: int = 1
    max_front_designs: Optional[int] = 40
    seed: int = 0
    dataset_workers: int = 0
    verify_rtl: bool = False
    verify_vectors: int = 32
    verify_seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.ga_workers != 0 or self.ga_islands != 1:
            raise ValueError(
                "the GA has one in-process engine: ga_workers must be 0 and "
                f"ga_islands 1, got {self.ga_workers} and {self.ga_islands}"
            )


SCALES: Dict[str, ExperimentScale] = {
    "smoke": ExperimentScale(
        name="smoke",
        datasets=("breast_cancer", "redwine"),
        max_samples=300,
        gradient_epochs=40,
        gradient_restarts=1,
        ga_population=24,
        ga_generations=10,
        max_front_designs=10,
    ),
    "ci": ExperimentScale(
        name="ci",
        max_samples=800,
        gradient_epochs=80,
        gradient_restarts=2,
        ga_population=40,
        ga_generations=25,
        max_front_designs=20,
    ),
    "full": ExperimentScale(
        name="full",
        max_samples=None,
        gradient_epochs=300,
        gradient_restarts=5,
        ga_population=120,
        ga_generations=300,
        max_front_designs=None,
    ),
}


def get_scale(name: str) -> ExperimentScale:
    """Look up a scale by name."""
    try:
        return SCALES[name]
    except KeyError:
        raise KeyError(f"unknown scale {name!r}; available: {sorted(SCALES)}") from None
