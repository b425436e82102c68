"""Table II — our approximate printed MLPs for up to 5 % accuracy loss.

For every dataset the experiment trains the hardware-approximation-aware
GA, synthesizes the estimated Pareto front, selects the smallest-area
design within the 5 % accuracy-loss budget and reports its accuracy,
area, power and the reduction factors against the exact baseline.
When no design meets the budget the row reports the most accurate
design instead and its ``within_budget`` (the printed "In Budget"
column) is ``False``.

The row builder (:func:`build_table2`) reads the session's shared
``ga_front`` stage — the same trained front ``fig4``/``fig5``/``table3``
consume — so ``--experiment all`` trains it once per dataset.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["DISPLAY", "build_table2"]

#: Values reported in the paper's Table II, for reference in reports:
#: dataset -> (accuracy, area cm², power mW, area reduction, power reduction).
PAPER_TABLE2: Dict[str, tuple] = {
    "breast_cancer": (0.947, 0.04, 0.15, 288.0, 274.0),
    "cardio": (0.873, 1.73, 6.5, 19.3, 19.0),
    "pendigits": (0.893, 12.7, 40.2, 5.3, 5.3),
    "redwine": (0.519, 0.04, 0.13, 470.0, 579.0),
    "whitewine": (0.508, 0.20, 0.74, 122.0, 137.0),
}

#: (header, row key) pairs of the printed table.
DISPLAY = (
    ("MLP", "dataset"),
    ("Acc", "accuracy"),
    ("Area(cm2)", "area_cm2"),
    ("Power(mW)", "power_mw"),
    ("Area Red.", "area_reduction"),
    ("Power Red.", "power_reduction"),
    ("Base Acc", "baseline_accuracy"),
    ("In Budget", "within_budget"),
)


def build_table2(session) -> List[Dict]:
    """Table II rows (one per dataset), a thin reader over front records.

    The builder consumes the session's plain-data
    :class:`~repro.serving.store.FrontRecord` — the exact payload a
    warm serving store holds — and delegates selection + reductions to
    the shared pure query logic, so a Table II regenerated from a store
    is cell-for-cell identical to one built in-session.  The budget is
    the paper's 5 % (:data:`~repro.serving.queries.DEFAULT_ACCURACY_LOSS`).
    """
    from repro.serving import queries
    from repro.serving.store import StoreError

    rows: List[Dict] = []
    for name in session.scale.datasets:
        record = session.record(name)
        try:
            selection = queries.selection_row(record)
        except StoreError:
            raise RuntimeError(f"no admissible design found for dataset {name}")
        paper = PAPER_TABLE2.get(name, (None,) * 5)
        rows.append(
            {
                "dataset": selection["dataset"],
                "accuracy": selection["accuracy"],
                "baseline_accuracy": selection["baseline_accuracy"],
                "accuracy_loss": selection["accuracy_loss"],
                "within_budget": selection["within_budget"],
                "area_cm2": selection["area_cm2"],
                "power_mw": selection["power_mw"],
                "baseline_area_cm2": selection["baseline_area_cm2"],
                "baseline_power_mw": selection["baseline_power_mw"],
                "area_reduction": selection["area_reduction"],
                "power_reduction": selection["power_reduction"],
                "fa_count": selection["fa_count"],
                "paper_accuracy": paper[0],
                "paper_area_reduction": paper[3],
                "paper_power_reduction": paper[4],
            }
        )
    return rows
