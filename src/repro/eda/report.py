"""The EDA cross-check report: store designs vs. real/emulated EDA flows.

:func:`cross_check_store` walks the RTL records of a published
:class:`~repro.serving.store.DesignStore` and, per design:

* always re-simulates the stored module text against its stored
  testbench golden vectors with the pure-Python microverilog oracle
  (:mod:`repro.eda.microverilog`) — so the *persisted artifact* is
  checked, not the model that once produced it;
* when ``iverilog`` is installed, compiles and executes the very same
  text pair with a real Verilog-2001 simulator and records its verdict;
* when ``yosys`` is installed, synthesizes the module and reports the
  gate-level cell census next to the analytical EGFET area objective
  (the GA's Full-Adder count), closing the loop between the paper's
  analytical hardware model and real EDA numbers.

The result is a typed :class:`~repro.evaluation.artifacts.Artifact`
(exportable as JSON/CSV like every experiment table).  The CLI wrapper
lives in :mod:`repro.eda.__main__`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.eda import tools
from repro.eda.microverilog import simulate_mlp_module

__all__ = ["EdaCrossCheck", "cross_check_store"]

_DISPLAY: Tuple[Tuple[str, str], ...] = (
    ("Dataset", "dataset"),
    ("Design", "design"),
    ("Vectors", "num_vectors"),
    ("uV mism.", "micro_mismatches"),
    ("iverilog", "iverilog"),
    ("FA count", "fa_count"),
    ("Yosys cells", "yosys_cells"),
    ("Cells/FA", "cells_per_fa"),
)


@dataclass(frozen=True)
class EdaCrossCheck:
    """Aggregated outcome of one store-wide cross-check run."""

    #: One row per checked design (the artifact's rows).
    rows: Tuple[Dict[str, object], ...]
    #: Designs whose microverilog simulation disagreed with golden.
    micro_failures: int
    #: Designs whose iverilog run disagreed ("" tools absent: 0).
    iverilog_failures: int
    #: Which external tools actually ran.
    used_iverilog: bool
    used_yosys: bool

    @property
    def num_designs(self) -> int:
        """Designs checked across all datasets."""
        return len(self.rows)

    @property
    def passed(self) -> bool:
        """True when every oracle that ran agreed on every design."""
        return self.micro_failures == 0 and self.iverilog_failures == 0

    def artifact(self, scale: str = "store", seed: int = 0):
        """The cross-check as a typed, exportable Artifact."""
        from repro.evaluation.artifacts import Artifact

        datasets = sorted({str(row["dataset"]) for row in self.rows})
        return Artifact.build(
            "eda_cross_check",
            self.rows,
            scale=scale,
            seed=seed,
            datasets=datasets,
            display=_DISPLAY,
        )


def cross_check_store(
    store,
    datasets: Optional[Sequence[str]] = None,
    max_designs: Optional[int] = None,
    use_iverilog: Optional[bool] = None,
    use_yosys: Optional[bool] = None,
) -> EdaCrossCheck:
    """Cross-check the RTL records of a published design store.

    Parameters
    ----------
    store:
        A :class:`~repro.serving.store.DesignStore` or its root path.
    datasets:
        Datasets to check (default: every published dataset).
    max_designs:
        Optional per-dataset cap (front order, i.e. ascending area).
    use_iverilog / use_yosys:
        Force a tool on (raising
        :class:`~repro.eda.tools.EdaToolError` when it is missing) or
        off; ``None`` feature-detects.
    """
    from repro.serving.store import DesignStore
    from repro.rtl.vectors import extract_testbench_vectors

    if not isinstance(store, DesignStore):
        store = DesignStore(store)

    if use_iverilog is None:
        use_iverilog = tools.have_iverilog()
    elif use_iverilog and not tools.have_iverilog():
        raise tools.EdaToolError("iverilog requested but not found on PATH")
    if use_yosys is None:
        use_yosys = tools.have_yosys()
    elif use_yosys and not tools.have_yosys():
        raise tools.EdaToolError("yosys requested but not found on PATH")

    names = list(datasets) if datasets is not None else store.datasets()
    rows: List[Dict[str, object]] = []
    micro_failures = 0
    iverilog_failures = 0
    for dataset in names:
        front = store.get_front(dataset)
        fa_counts = {record.name: float(record.fa_count) for record in front.designs}
        designs = [
            record.name
            for record in front.designs
            if record.name in set(store.rtl_designs(dataset))
        ]
        if max_designs is not None:
            designs = designs[:max_designs]
        for design in designs:
            rtl = store.get_rtl(dataset, design)
            parsed = extract_testbench_vectors(rtl.testbench)
            predictions, _ = simulate_mlp_module(rtl.verilog, parsed.vectors)
            micro_mismatches = int(np.count_nonzero(predictions != parsed.golden))
            if micro_mismatches:
                micro_failures += 1

            row: Dict[str, object] = {
                "dataset": dataset,
                "design": design,
                "module_name": rtl.module_name,
                "num_vectors": parsed.num_vectors,
                "micro_mismatches": micro_mismatches,
                "iverilog": "-",
                "fa_count": fa_counts.get(design),
                "yosys_cells": None,
                "cells_per_fa": None,
            }
            if use_iverilog:
                verdict = tools.run_iverilog(rtl.verilog, rtl.testbench)
                row["iverilog"] = "pass" if verdict.passed else f"FAIL({verdict.errors})"
                if not verdict.passed:
                    iverilog_failures += 1
            if use_yosys:
                stat = tools.run_yosys_stat(rtl.verilog, top=rtl.module_name)
                row["yosys_cells"] = stat.cells
                fa = fa_counts.get(design)
                if fa:
                    row["cells_per_fa"] = round(stat.cells / fa, 3)
            rows.append(row)

    return EdaCrossCheck(
        rows=tuple(rows),
        micro_failures=micro_failures,
        iverilog_failures=iverilog_failures,
        used_iverilog=bool(use_iverilog),
        used_yosys=bool(use_yosys),
    )
