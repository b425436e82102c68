#!/usr/bin/env python3
"""Battery feasibility study: which printed power source can drive each MLP?

Reproduces the reasoning behind the paper's Fig. 5 on two datasets:

* synthesize the exact bespoke baseline and our GA-trained approximate
  MLP at the nominal 1 V supply,
* re-evaluate the approximate circuit at the minimum 0.6 V EGFET supply
  (possible because the approximate circuit is faster than the baseline
  and still meets the relaxed printed clock period),
* classify every circuit by the smallest printed power source able to
  drive it (energy harvester, Blue Spark 5 mW, Zinergy 15 mW, Molex
  30 mW) and by area sustainability.

Run with::

    python examples/battery_feasibility.py
"""

from __future__ import annotations

from repro.baselines.exact_bespoke import train_exact_baseline
from repro.baselines.gradient import GradientTrainer
from repro.core import GAConfig, GATrainer
from repro.datasets import load_dataset
from repro.datasets.registry import get_spec
from repro.evaluation.report import format_table
from repro.hardware.egfet import MIN_VOLTAGE
from repro.hardware.synthesis import synthesize_approximate_mlp
from repro.serving.queries import assess_report
from repro.serving.store import ReportRecord


def analyze(dataset_name: str) -> list:
    spec = get_spec(dataset_name)
    dataset = load_dataset(dataset_name, seed=0, num_samples=800)
    x_train, y_train = dataset.quantized_train()
    x_test, y_test = dataset.quantized_test()

    bespoke, float_model = train_exact_baseline(
        dataset.train.features,
        dataset.train.labels,
        spec.mlp_topology,
        trainer=GradientTrainer(epochs=80, restarts=2, seed=0),
    )
    baseline_report = bespoke.synthesize(clock_period_ms=spec.clock_period_ms)

    trainer = GATrainer(
        spec.mlp_topology, ga_config=GAConfig(population_size=36, generations=25, seed=0)
    )
    result = trainer.train(
        x_train,
        y_train,
        baseline_accuracy=bespoke.accuracy(x_train, y_train),
        seed_model=float_model,
    )
    point = result.select_within_accuracy_loss(0.05) or result.best_accuracy_point()
    approx = result.decode(point)
    approx_report = synthesize_approximate_mlp(approx, clock_period_ms=spec.clock_period_ms)

    rows = []
    for label, report, voltage in (
        ("baseline @1.0V", baseline_report, 1.0),
        ("ours @1.0V", approx_report, 1.0),
        (f"ours @{MIN_VOLTAGE}V", approx_report, MIN_VOLTAGE),
    ):
        feasibility = assess_report(ReportRecord.from_report(report), label, voltage)
        rows.append(
            [
                spec.short_name,
                label,
                feasibility["area_cm2"],
                feasibility["power_mw"],
                feasibility["zone"],
                "yes" if feasibility["self_powered"] else "no",
            ]
        )
    return rows


def main() -> None:
    rows = []
    for name in ("breast_cancer", "redwine"):
        print(f"Analyzing {name} ...")
        rows.extend(analyze(name))
    print()
    print(
        format_table(
            ["MLP", "Design", "Area (cm2)", "Power (mW)", "Power source", "Self-powered"],
            rows,
        )
    )


if __name__ == "__main__":
    main()
