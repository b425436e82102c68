"""The :class:`ParetoService` — queries over a warm design store.

The service is the interactive half of the system: it answers
"which design should I print?" class questions from a
:class:`~repro.serving.store.DesignStore` alone, without ever running
(or importing) the GA search, the synthesis engines or the verifier.

It is a plain synchronous memo: each dataset record and each RTL record
is read from the store at most once, on first use, and served from
memory afterwards.  Records are immutable — a store republish is a new
service.  What a record fixes is built once with it: its true Pareto
front is computed on the first ``front`` query
(:attr:`~repro.serving.store.FrontRecord.true_front`), and the EGFET
library that re-scales and classifies operating points is built once per
process (:func:`~repro.hardware.egfet.default_egfet_library`).  Every
answer is still assembled from the records; no answer is cached.  The
list of published datasets is re-read on every call, so a dataset
published after the service started is still found.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.hardware.egfet import MIN_VOLTAGE
from repro.serving import queries
from repro.serving.store import DatasetRecord, DesignStore, RTLRecord

__all__ = ["ParetoService"]


class ParetoService:
    """Pareto-front query service over one :class:`DesignStore`.

    Parameters
    ----------
    store:
        The design store (or its root directory).

    A query that names no budget uses the paper's 5 %
    (:data:`~repro.serving.queries.DEFAULT_ACCURACY_LOSS`); the
    ``ours_0v6`` feasibility entries sit at the minimum EGFET supply
    (:data:`~repro.hardware.egfet.MIN_VOLTAGE`) unless a query names a
    voltage.
    """

    def __init__(self, store: Union[DesignStore, str, Path]) -> None:
        if not isinstance(store, DesignStore):
            store = DesignStore(store)
        self.store = store
        #: Dataset name -> loaded record.
        self._records: Dict[str, DatasetRecord] = {}
        #: (dataset, design) -> loaded RTL record.
        self._rtl: Dict[Tuple[str, str], RTLRecord] = {}

    def _record(self, dataset: str) -> DatasetRecord:
        record = self._records.get(dataset)
        if record is None:
            record = self._records[dataset] = self.store.get_dataset(dataset)
        return record

    def _rtl_record(self, dataset: str, design: str) -> RTLRecord:
        key = (dataset, design)
        record = self._rtl.get(key)
        if record is None:
            record = self._rtl[key] = self.store.get_rtl(dataset, design)
        return record

    @staticmethod
    def _loss(max_accuracy_loss: Optional[float]) -> float:
        if max_accuracy_loss is None:
            return queries.DEFAULT_ACCURACY_LOSS
        return max_accuracy_loss

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def datasets(self) -> List[str]:
        """Datasets with a published front."""
        return self.store.datasets()

    def select(self, dataset: str, max_accuracy_loss: Optional[float] = None) -> Dict:
        """Operating point of ``dataset`` at an accuracy-loss budget."""
        return queries.selection_row(
            self._record(dataset), max_accuracy_loss=self._loss(max_accuracy_loss)
        )

    def front(self, dataset: str) -> List[Dict]:
        """True Pareto front of ``dataset`` (one row per design)."""
        return queries.front_rows(self._record(dataset))

    def feasibility(
        self,
        dataset: str,
        voltage: Optional[float] = None,
        max_accuracy_loss: Optional[float] = None,
    ) -> List[Dict]:
        """Fig. 5 feasibility rows of ``dataset``.

        ``voltage`` overrides the low-voltage operating point of the
        ``ours_0v6`` entry (default: the minimum EGFET supply).
        """
        return queries.fig5_rows(
            self._record(dataset),
            max_accuracy_loss=self._loss(max_accuracy_loss),
            approximate_voltage=MIN_VOLTAGE if voltage is None else voltage,
        )

    def rtl(
        self,
        dataset: str,
        design: Optional[str] = None,
        max_accuracy_loss: Optional[float] = None,
    ) -> Dict:
        """Verilog + testbench of one front design.

        ``design=None`` retrieves the selected operating point's RTL.
        """
        name = queries.resolve_rtl_design(
            self._record(dataset),
            design=design,
            max_accuracy_loss=self._loss(max_accuracy_loss),
        )
        rtl = self._rtl_record(dataset, name)
        answer = {
            "dataset": dataset,
            "design": name,
            "module_name": rtl.module_name,
            "fingerprint": rtl.fingerprint,
            "verilog": rtl.verilog,
            "testbench": rtl.testbench,
            "num_vectors": rtl.num_vectors,
            "num_inputs": rtl.num_inputs,
        }
        if rtl.eda is not None:
            answer["eda"] = {
                "oracle": rtl.eda.oracle,
                "num_vectors": rtl.eda.num_vectors,
                "mismatches": rtl.eda.mismatches,
                "passed": rtl.eda.passed,
            }
        return answer

    def points(
        self, experiment: str, max_accuracy_loss: Optional[float] = None
    ) -> List[Dict]:
        """Plot-ready fig4/fig5 point sets across every stored dataset."""
        if experiment not in ("fig4", "fig5"):
            raise ValueError(f"unknown point set {experiment!r} (fig4 or fig5)")
        loss = self._loss(max_accuracy_loss)
        rows: List[Dict] = []
        for dataset in self.store.datasets():
            record = self._record(dataset)
            if experiment == "fig4":
                rows.extend(
                    queries.fig4_point_rows(
                        queries.fig4_rows(record, max_accuracy_loss=loss)
                    )
                )
            else:
                rows.extend(
                    queries.fig5_point_rows(queries.fig5_rows(record, max_accuracy_loss=loss))
                )
        return rows
