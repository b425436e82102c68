"""Verilog generation for the bespoke approximate MLP circuits.

The generated module is purely combinational (one inference per clock
in the registered wrapper the paper's flow adds around it) and mirrors
the structure of Fig. 1/Fig. 3:

* each retained summand is the bitwise AND of an input activation with a
  hard-wired mask, shifted left by the hard-wired pow2 exponent,
* negative-sign summands are subtracted (the synthesis tool folds the
  two's-complement corrections exactly as the paper describes),
* each hidden neuron saturates through the QReLU block,
* the output stage is a behavioural argmax producing the class index.

The module is valid Verilog-2001 and is intended to be handed to a real
EDA flow by users who have one; inside this reproduction the text itself
is executed as Verilog by :mod:`repro.eda.microverilog`, and
:func:`repro.evaluation.verification.verify_design` checks every
``acc_lL_nJ`` accumulator net and the ``class_index`` output against
the Python model.
"""

from __future__ import annotations

import re
from typing import List

import numpy as np

from repro.approx.mlp import ApproximateMLP

__all__ = [
    "generate_neuron_expression",
    "generate_mlp_verilog",
    "rename_module",
]

#: The ``module <name> (`` header line of a generated module.
_MODULE_HEADER_RE = re.compile(r"^module [A-Za-z_][A-Za-z0-9_$]* \($", re.MULTILINE)


def _accumulator_width(mlp: ApproximateMLP, layer_index: int) -> int:
    """Signed accumulator width required by one layer."""
    layer = mlp.layers[layer_index]
    span = max(
        int(abs(layer.min_accumulators().min(initial=0))),
        int(layer.max_accumulators().max(initial=0)),
        1,
    )
    return int(np.ceil(np.log2(span + 1))) + 2


def generate_neuron_expression(
    mlp: ApproximateMLP, layer_index: int, neuron_index: int, input_prefix: str
) -> str:
    """Verilog expression of one neuron's accumulator (before activation)."""
    layer = mlp.layers[layer_index]
    in_bits = layer.input_bits
    terms: List[str] = []
    for i in range(layer.fan_in):
        mask = int(layer.masks[i, neuron_index])
        if mask == 0:
            continue
        sign = "-" if layer.signs[i, neuron_index] < 0 else "+"
        exponent = int(layer.exponents[i, neuron_index])
        masked = f"({input_prefix}{i} & {in_bits}'d{mask})"
        shifted = f"({masked} << {exponent})" if exponent else masked
        terms.append(f"{sign} {shifted}")
    bias = int(layer.biases[neuron_index])
    if bias >= 0:
        terms.append(f"+ {bias}")
    else:
        terms.append(f"- {abs(bias)}")
    if not terms:
        return "0"
    expression = " ".join(terms)
    return expression[2:] if expression.startswith("+ ") else expression


def generate_mlp_verilog(mlp: ApproximateMLP, module_name: str = "approx_mlp") -> str:
    """Generate a self-contained combinational Verilog module for ``mlp``."""
    topology = mlp.topology
    config = mlp.config
    lines: List[str] = []
    num_inputs = topology.num_inputs
    num_classes = topology.num_outputs
    class_bits = max(int(np.ceil(np.log2(num_classes))), 1)

    lines.append("// Automatically generated bespoke approximate printed MLP")
    lines.append(f"// topology: {topology}, parameters: {topology.num_parameters}")
    lines.append(f"module {module_name} (")
    port_list = [
        f"    input  wire [{config.input_bits - 1}:0] in{i}" for i in range(num_inputs)
    ]
    port_list.append(f"    output wire [{class_bits - 1}:0] class_index")
    lines.append(",\n".join(port_list))
    lines.append(");")
    lines.append("")

    previous_prefix = "in"
    for layer_index, layer in enumerate(mlp.layers):
        acc_width = _accumulator_width(mlp, layer_index)
        is_output = layer_index == topology.num_layers - 1
        lines.append(f"    // ---- layer {layer_index} "
                     f"({layer.fan_in} -> {layer.fan_out}{', output' if is_output else ''}) ----")
        for j in range(layer.fan_out):
            expr = generate_neuron_expression(mlp, layer_index, j, previous_prefix)
            lines.append(
                f"    wire signed [{acc_width - 1}:0] acc_l{layer_index}_n{j} = {expr};"
            )
        if not is_output:
            shift = layer.activation.shift if layer.activation is not None else 0
            out_bits = layer.activation.out_bits if layer.activation is not None else 8
            max_val = (1 << out_bits) - 1
            lines.append(
                f"    localparam integer ACT_MAX_L{layer_index} = {max_val};"
            )
            for j in range(layer.fan_out):
                acc = f"acc_l{layer_index}_n{j}"
                # A part-select is only legal on an identifier, so the
                # shifted accumulator gets its own named wire before the
                # QReLU saturation ternary slices it.  The wire is at
                # least ``out_bits`` wide (the signed assignment
                # sign-extends a narrower accumulator), so the slice never
                # selects past its declared width.
                sat = f"sat_l{layer_index}_n{j}"
                shifted = f"{acc} >>> {shift}" if shift else acc
                lines.append(
                    f"    wire signed [{max(acc_width, out_bits) - 1}:0] {sat} = {shifted};"
                )
                lines.append(
                    f"    wire [{out_bits - 1}:0] act_l{layer_index}_n{j} = "
                    f"({acc} < 0) ? {out_bits}'d0 : "
                    f"({sat} > ACT_MAX_L{layer_index}) ? {out_bits}'d{max_val} : "
                    f"{sat}[{out_bits - 1}:0];"
                )
            previous_prefix = f"act_l{layer_index}_n"
        lines.append("")

    # Behavioural argmax over the output accumulators.
    last = topology.num_layers - 1
    acc_width = _accumulator_width(mlp, last)
    lines.append("    // ---- argmax over the output-layer accumulators ----")
    lines.append(f"    reg [{class_bits - 1}:0] best_index;")
    lines.append(f"    reg signed [{acc_width - 1}:0] best_score;")
    lines.append("    integer k;")
    lines.append("    always @* begin")
    lines.append(f"        best_index = {class_bits}'d0;")
    lines.append(f"        best_score = acc_l{last}_n0;")
    for j in range(1, num_classes):
        lines.append(f"        if (acc_l{last}_n{j} > best_score) begin")
        lines.append(f"            best_score = acc_l{last}_n{j};")
        lines.append(f"            best_index = {class_bits}'d{j};")
        lines.append("        end")
    lines.append("    end")
    lines.append("    assign class_index = best_index;")
    lines.append("")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def rename_module(verilog: str, module_name: str) -> str:
    """``verilog`` with only the identifier of its ``module <name> (`` header replaced.

    For text of :func:`generate_mlp_verilog` this equals regenerating it
    with ``module_name`` byte for byte (the name appears nowhere else),
    so a caller holding the canonical text need not emit it twice.
    Raises ``ValueError`` when the text has no such header.
    """
    renamed, count = _MODULE_HEADER_RE.subn(
        lambda _: f"module {module_name} (", verilog, count=1
    )
    if count != 1:
        raise ValueError("text has no 'module <name> (' header line")
    return renamed
