"""repro — hardware-approximation-aware genetic training for printed MLPs.

A from-scratch Python reproduction of

    "Embedding Hardware Approximations in Discrete Genetic-based Training
    for Printed MLPs", DATE 2024.

The package is organized bottom-up:

* :mod:`repro.quant`      — input quantizers and QReLU,
* :mod:`repro.approx`     — the approximate (pow2 weights + bit masks) MLP,
* :mod:`repro.hardware`   — FA-count area model, printed EGFET library,
  analytical synthesis, printed power sources,
* :mod:`repro.rtl`        — Verilog generation for the bespoke circuits,
* :mod:`repro.eda`        — Verilog-semantics simulation oracle plus the
  feature-detected iverilog/yosys cross-check flow,
* :mod:`repro.core`       — NSGA-II based hardware-aware training,
* :mod:`repro.baselines`  — gradient training, the exact bespoke baseline
  and the TC'23 / TCAD'23 / DATE'21 comparators,
* :mod:`repro.datasets`   — the five evaluation datasets (offline
  synthetic stand-ins),
* :mod:`repro.evaluation` — Pareto/hardware analysis, RTL verification,
  artifacts and report tables,
* :mod:`repro.experiments`— regeneration of every table and figure,
* :mod:`repro.serving`    — the query-time half: persistent design store
  and the Pareto-front query service (imports **no** search-time
  module — top-level re-exports here are lazy for exactly that reason).

Quickstart
----------
>>> from repro.datasets import load_dataset
>>> from repro.core import GAConfig, GATrainer
>>> ds = load_dataset("breast_cancer", seed=0)
>>> x, y = ds.quantized_train()
>>> result = GATrainer((10, 3, 2), ga_config=GAConfig(population_size=24,
...                                                   generations=10)).train(x, y)
>>> front = result.estimated_front  # area/accuracy Pareto front
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "ApproxConfig": "repro.approx",
    "ApproximateMLP": "repro.approx",
    "Topology": "repro.approx",
    "GAConfig": "repro.core",
    "GAResult": "repro.core",
    "GATrainer": "repro.core",
    "load_dataset": "repro.datasets",
    "mlp_fa_count": "repro.hardware",
    "synthesize_approximate_mlp": "repro.hardware",
    "synthesize_exact_mlp": "repro.hardware",
}

_SUBMODULES = (
    "approx",
    "baselines",
    "core",
    "datasets",
    "eda",
    "evaluation",
    "experiments",
    "hardware",
    "quant",
    "rtl",
    "serving",
)

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS, _SUBMODULES)

__all__ = [
    "ApproxConfig",
    "ApproximateMLP",
    "Topology",
    "GAConfig",
    "GAResult",
    "GATrainer",
    "load_dataset",
    "mlp_fa_count",
    "synthesize_approximate_mlp",
    "synthesize_exact_mlp",
    "__version__",
]
