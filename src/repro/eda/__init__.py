"""EDA cross-check subsystem: Verilog-semantics oracle + external tools.

Two layers close the gap between the in-process Python oracles and real
EDA truth:

* :mod:`repro.eda.microverilog` — always available, pure Python.  Parses
  the emitted module text as Verilog (the supported structural subset)
  and executes it with the language's width/signedness semantics; the
  module-text oracle of the differential verification harness.
* :mod:`repro.eda.tools` / :mod:`repro.eda.report` — feature-detected
  via ``shutil.which``.  When ``iverilog``/``yosys`` are installed, the
  emitted module + testbench run through a real simulator and the front
  designs through a real synthesis flow, comparing gate-level area with
  the analytical EGFET model.

Run ``python -m repro.eda --store DIR`` for the cross-check report CLI.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

_EXPORTS = {
    "MAX_WIDTH": "repro.eda.microverilog",
    "MicroVerilogError": "repro.eda.microverilog",
    "MicroVerilogModule": "repro.eda.microverilog",
    "parse_module": "repro.eda.microverilog",
    "simulate_mlp_module": "repro.eda.microverilog",
    "EdaToolError": "repro.eda.tools",
    "ToolInfo": "repro.eda.tools",
    "find_tool": "repro.eda.tools",
    "have_iverilog": "repro.eda.tools",
    "have_yosys": "repro.eda.tools",
    "run_iverilog": "repro.eda.tools",
    "run_yosys_stat": "repro.eda.tools",
    "EdaCrossCheck": "repro.eda.report",
    "cross_check_store": "repro.eda.report",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    _EXPORTS,
    submodules=("microverilog", "tools", "report"),
)
