"""Query-time half of the reproduction: design store + Pareto service.

``repro.serving`` answers the questions a deployed system asks — *which
design should I print for this accuracy budget? what does its front look
like? which power source can drive it? give me its Verilog* — from
records persisted by a previous search run.  It never imports (let alone
runs) the GA trainers, genetic operators or synthesis engines; the test
suite enforces that with an import-graph guard.

* :mod:`repro.serving.store`   — schema-versioned strict-JSON records,
  BLAKE2b-fingerprinted, one directory per dataset;
* :mod:`repro.serving.queries` — pure query logic (selection, true
  front, feasibility, plot-ready point sets);
* :mod:`repro.serving.service` — the :class:`ParetoService`, a plain
  memo that reads each stored record at most once;
* :mod:`repro.serving.cli`     — ``python -m repro.serving`` and the one
  query router behind it and ``runner.py --serve/--query``.
"""

from repro.serving.queries import (
    DEFAULT_ACCURACY_LOSS,
    front_rows,
    nondominated_mask,
    select,
    select_design,
    selection_row,
    true_front,
)
from repro.serving.service import ParetoService
from repro.serving.store import (
    STORE_SCHEMA_VERSION,
    DatasetRecord,
    DesignRecord,
    DesignStore,
    FrontRecord,
    MethodRecord,
    MethodsRecord,
    ReportRecord,
    RTLRecord,
    StoreError,
    Tc23Record,
    VerificationRecord,
    design_name,
)

__all__ = [
    "DEFAULT_ACCURACY_LOSS",
    "STORE_SCHEMA_VERSION",
    "DatasetRecord",
    "DesignRecord",
    "DesignStore",
    "FrontRecord",
    "MethodRecord",
    "MethodsRecord",
    "ParetoService",
    "ReportRecord",
    "RTLRecord",
    "StoreError",
    "Tc23Record",
    "VerificationRecord",
    "design_name",
    "front_rows",
    "nondominated_mask",
    "select",
    "select_design",
    "selection_row",
    "true_front",
]
