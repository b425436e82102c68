#!/usr/bin/env python3
"""RTL generation: from a trained approximate MLP to Verilog + testbench.

Shows the hardware-generation tail of the framework:

1. train a small approximate MLP with the GA,
2. emit the synthesizable Verilog module and a self-checking testbench
   into ``./generated_rtl/``, ready for a real EDA flow,
3. sign the emitted text off against the Python model: the testbench's
   golden responses and the module text, executed as Verilog, must agree
   with the model on every vector,
4. print the gate/cell statistics the analytical synthesis model assigns
   to the design.

Run with::

    python examples/rtl_generation.py
"""

from __future__ import annotations

from pathlib import Path

from repro.core import GAConfig, GATrainer
from repro.datasets import load_dataset
from repro.datasets.registry import get_spec
from repro.evaluation.verification import verify_design
from repro.hardware.synthesis import synthesize_approximate_mlp
from repro.rtl import generate_mlp_verilog, generate_testbench


def main() -> None:
    spec = get_spec("breast_cancer")
    dataset = load_dataset("breast_cancer", seed=0, num_samples=400)
    x_train, y_train = dataset.quantized_train()

    print("Training a small approximate MLP ...")
    trainer = GATrainer(
        spec.mlp_topology, ga_config=GAConfig(population_size=30, generations=15, seed=4)
    )
    result = trainer.train(x_train, y_train)
    mlp = result.decode(result.best_accuracy_point())

    output_dir = Path("generated_rtl")
    output_dir.mkdir(exist_ok=True)
    verilog = generate_mlp_verilog(mlp, module_name="bc_approx_mlp")
    testbench = generate_testbench(
        mlp, module_name="bc_approx_mlp", vectors=x_train[:12], testbench_name="bc_approx_mlp_tb"
    )
    (output_dir / "bc_approx_mlp.v").write_text(verilog)
    (output_dir / "bc_approx_mlp_tb.v").write_text(testbench)
    print(f"Wrote {output_dir / 'bc_approx_mlp.v'} ({len(verilog.splitlines())} lines)")
    print(f"Wrote {output_dir / 'bc_approx_mlp_tb.v'} ({len(testbench.splitlines())} lines)")

    print("Verifying the emitted RTL against the Python model ...")
    verification = verify_design(
        mlp, x_train[:12], testbench_text=testbench, verilog_text=verilog
    )
    print(
        f"  {verification.num_vectors} vectors, {verification.num_neurons} accumulator nets: "
        f"model {verification.model_mismatches} / expr {verification.expression_mismatches} / "
        f"eda {verification.eda_mismatches} mismatches"
    )
    if not verification.passed:
        raise SystemExit("RTL does not match the model")

    report = synthesize_approximate_mlp(mlp, clock_period_ms=spec.clock_period_ms)
    print("\nAnalytical synthesis estimate:")
    print(f"  area  : {report.area_cm2:.3f} cm2")
    print(f"  power : {report.power_mw:.3f} mW @ 1.0 V")
    print(f"  delay : {report.delay_ms:.1f} ms (clock period {report.clock_period_ms:.0f} ms)")
    print("  cells :", {k: int(v) for k, v in sorted(report.cell_counts.items())})


if __name__ == "__main__":
    main()
