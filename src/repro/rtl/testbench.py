"""Self-checking Verilog testbench generation.

The testbench applies a set of quantized input vectors to the generated
MLP module and compares the predicted class index against the golden
responses of the Python model (computed at generation time), mirroring
the paper's functional simulation step.
"""

from __future__ import annotations

from itertools import starmap
from typing import Optional

import numpy as np

from repro.approx.mlp import ApproximateMLP

# The parsing half lives in the pure :mod:`repro.rtl.vectors` module so
# query-time code (the EDA cross-check flow) can use it without pulling
# the model stack in; re-exported here for the historical import path.
from repro.rtl.vectors import TestbenchVectors, extract_testbench_vectors

__all__ = ["TestbenchVectors", "generate_testbench", "extract_testbench_vectors"]


def generate_testbench(
    mlp: ApproximateMLP,
    vectors: Optional[np.ndarray] = None,
    module_name: str = "approx_mlp",
    testbench_name: str = "approx_mlp_tb",
    num_random_vectors: int = 16,
    seed: int = 0,
) -> str:
    """Generate a self-checking testbench for the generated MLP module.

    Parameters
    ----------
    vectors:
        Integer input vectors of shape ``(n, num_inputs)``; when omitted,
        ``num_random_vectors`` random in-range vectors are drawn.
    """
    topology = mlp.topology
    config = mlp.config
    num_inputs = topology.num_inputs
    class_bits = max(int(np.ceil(np.log2(topology.num_outputs))), 1)

    if vectors is None:
        rng = np.random.default_rng(seed)
        vectors = rng.integers(0, config.max_input_value + 1, size=(num_random_vectors, num_inputs))
    vectors = np.asarray(vectors, dtype=np.int64)
    if vectors.ndim != 2 or vectors.shape[1] != num_inputs:
        raise ValueError(f"vectors must have shape (n, {num_inputs}), got {vectors.shape}")
    expected = mlp.predict(vectors)

    bits = config.input_bits
    ports = ", ".join([f".in{i}(in{i})" for i in range(num_inputs)] + [".class_index(class_index)"])
    header = (
        f"`timescale 1ms/1us\nmodule {testbench_name};\n"
        + "".join(f"    reg  [{bits - 1}:0] in{i};\n" for i in range(num_inputs))
        + f"    wire [{class_bits - 1}:0] class_index;\n    integer errors;\n\n"
        + f"    {module_name} dut ({ports});\n\n    initial begin\n        errors = 0;\n"
    )
    # One vector's block; fields 0..n-1 are its inputs, field n its golden
    # class.  The applied vector is known at generation time, so it is
    # spelled out literally: the SystemVerilog-only "%p" format breaks
    # under Verilog-2001 simulators such as iverilog.
    block = (
        "".join(f"        in{i} = {bits}'d{{{i}}};\n" for i in range(num_inputs))
        + f"        #1;\n        if (class_index !== {class_bits}'d{{{num_inputs}}}) begin\n"
        + '            $display("MISMATCH inputs={{'
        + ", ".join(f"{{{i}}}" for i in range(num_inputs))
        + f'}}}} expected={{{num_inputs}}} got=%0d", class_index);\n'
        + "            errors = errors + 1;\n        end\n"
    )
    rows = np.column_stack([vectors, expected]).tolist()
    return (
        header
        + "".join(starmap(block.format, rows))
        + '        if (errors == 0) $display("TESTBENCH PASSED");\n'
        + '        else $display("TESTBENCH FAILED with %0d errors", errors);\n'
        + "        $finish;\n    end\nendmodule\n"
    )
