"""HDL (Verilog) generation for bespoke approximate printed MLPs.

The paper's framework automatically translates the trained coefficients
and masks of every estimated-Pareto-front member into an HDL description
that is then synthesized with commercial tools.  This subpackage emits
the equivalent Verilog-2001 text:

* :func:`~repro.rtl.verilog.generate_mlp_verilog` — a self-contained
  combinational module implementing equation (4) with every mask, sign,
  shift and bias hard-wired,
* :func:`~repro.rtl.testbench.generate_testbench` — a self-checking
  testbench whose expected responses come from the Python golden model,
* :mod:`repro.rtl.vectors` — the *pure* parsing half (recovering
  stimulus/golden vectors from emitted testbench text), importable by
  query-time code without dragging the model stack in.

Like the other package roots, the re-exports resolve lazily (PEP 562):
``import repro.rtl.vectors`` must not execute the generator modules,
whose :mod:`repro.approx` dependency is forbidden in the query-time
import closure (lint rule RP01).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "generate_mlp_verilog": "repro.rtl.verilog",
    "generate_neuron_expression": "repro.rtl.verilog",
    "rename_module": "repro.rtl.verilog",
    "generate_testbench": "repro.rtl.testbench",
    "extract_testbench_vectors": "repro.rtl.vectors",
    "TestbenchVectors": "repro.rtl.vectors",
}

_SUBMODULES = ("testbench", "vectors", "verilog")

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS, _SUBMODULES)
