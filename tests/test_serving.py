"""Tests of the serving split: DesignStore, pure queries, ParetoService.

Pins the tentpole guarantees of the search-time / query-time split:

* **store round-trip** — every record survives the strict-JSON store
  bit-identically, writes are atomic, malformed and version-mismatched
  files fail loudly, and the record schemas are golden-pinned;
* **import purity** — ``repro.serving`` (checked in a subprocess)
  imports no trainer, genetic operator or synthesis engine, and no
  serving process loads numpy;
* **vectorized true front** — the batched dominance formulation is
  bit-identical to the scalar ``slow=True`` oracle, ties included;
* **deterministic selection** — ``select_design`` breaks area ties by
  accuracy and exact ties by stable design name, independent of input
  order;
* **one read per record** — any mix of queries over one dataset reads
  its record from the store once;
* **one query router** — every entry point goes through
  ``cli._dispatch``; a bad query (non-finite budget, non-object, non-JSON)
  answers ``ok: false`` without ending a batch or a served stream, and
  every documented ``python -m repro.serving`` command parses;
* **warm-store parity** — a session-published store answers
  select/front/feasibility/rtl for every dataset with zero search-stage
  executions, cell-for-cell equal to the session's own artifacts.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.serving import queries
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

GOLDEN_DIR = Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# Fixture records
# ---------------------------------------------------------------------------


def _design(index: int, accuracy: float, area: float, **overrides) -> DesignRecord:
    values = dict(
        name=design_name(bytes([index])),
        index=index,
        test_accuracy=accuracy,
        train_accuracy=accuracy + 0.01,
        error=1.0 - (accuracy + 0.01),
        fa_count=float(40 - 10 * index),
        area_cm2=area,
        power_mw=3.0 * area,
        delay_ms=0.5,
        voltage=1.0,
        clock_period_ms=5.0,
    )
    values.update(overrides)
    return DesignRecord(**values)


def _front(designs, dataset="demo") -> FrontRecord:
    return FrontRecord(
        dataset=dataset,
        scale="smoke",
        seed=0,
        fingerprint="fp",
        split="split",
        baseline_test_accuracy=0.93,
        baseline_train_accuracy=0.95,
        baseline=ReportRecord(2.0, 6.0, 0.4, 1.0, 5.0),
        designs=tuple(designs),
        default_accuracy_loss=0.05,
        selected=designs[0].name if designs else None,
        training_seconds=1.5,
        verification=VerificationRecord(len(designs), 16, 0, 0, True),
    )


@pytest.fixture()
def store(tmp_path) -> DesignStore:
    """A populated store: front + tc23 + methods + RTL for one dataset."""
    designs = [_design(0, 0.92, 1.0), _design(1, 0.88, 0.6), _design(2, 0.80, 0.3)]
    store = DesignStore(tmp_path / "store")
    store.put_front(_front(designs))
    store.put_tc23(
        Tc23Record(
            dataset="demo",
            max_accuracy_loss=0.05,
            accuracy=0.9,
            report=ReportRecord(1.5, 4.0, 0.3, 1.0, 5.0),
        )
    )
    store.put_methods(
        MethodsRecord(
            dataset="demo",
            max_accuracy_loss=0.05,
            methods=(
                MethodRecord("tc23", 0.9, 1.5, 4.0),
                MethodRecord("date21", 0.6, 0.2, 0.5),
            ),
        )
    )
    for design in designs:
        store.put_rtl(
            RTLRecord(
                dataset="demo",
                design=design.name,
                module_name=f"m_{design.name}",
                verilog=f"module m_{design.name}; endmodule",
                testbench=f"// tb {design.name}",
            )
        )
    return store


class TestStoreRoundTrip:
    def test_round_trip_bit_identical(self, store):
        record = store.get_dataset("demo")
        designs = [_design(0, 0.92, 1.0), _design(1, 0.88, 0.6), _design(2, 0.80, 0.3)]
        assert record.front == _front(designs)
        assert record.tc23.accuracy == 0.9
        assert record.methods.methods[1].method == "date21"
        assert record.rtl_designs == tuple(sorted(d.name for d in designs))
        rtl = store.get_rtl("demo", designs[0].name)
        assert rtl.verilog == f"module m_{designs[0].name}; endmodule"
        assert rtl.fingerprint  # auto-derived, non-empty

    def test_special_floats_round_trip(self, tmp_path):
        store = DesignStore(tmp_path)
        designs = [_design(0, 0.9, 1.0, delay_ms=float("inf"))]
        store.put_front(_front(designs))
        loaded = store.get_front("demo")
        assert loaded.designs[0].delay_ms == float("inf")
        text = (tmp_path / "demo" / "front.json").read_text()
        assert "Infinity" in text and "$float" in text
        # The file itself stays strict JSON (no bare Infinity literal).
        json.loads(text)

    def test_missing_and_optional_sections(self, tmp_path):
        store = DesignStore(tmp_path)
        with pytest.raises(StoreError, match="no 'front' record"):
            store.get_front("demo")
        store.put_front(_front([_design(0, 0.9, 1.0)]))
        record = store.get_dataset("demo")
        assert record.tc23 is None and record.methods is None
        assert record.rtl_designs == ()
        assert store.datasets() == ["demo"]

    def test_schema_version_mismatch_fails(self, store):
        path = store.root / "demo" / "front.json"
        payload = json.loads(path.read_text())
        payload["schema_version"] = STORE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload))
        with pytest.raises(StoreError, match="schema_version"):
            store.get_front("demo")

    def test_version_2_front_record_is_refused(self, store):
        """A version-2 front record (its verification object still holds
        the gate-level netlist counts) is refused by its version."""
        path = store.root / "demo" / "front.json"
        payload = json.loads(path.read_text())
        payload["schema_version"] = 2
        payload["record"]["verification"].update(netlist_mismatches=0, rtl_mismatches=0)
        path.write_text(json.dumps(payload))
        with pytest.raises(StoreError, match="schema_version=2"):
            store.get_front("demo")

    def test_malformed_and_unknown_fields_fail(self, store):
        path = store.root / "demo" / "front.json"
        path.write_text("{not json")
        with pytest.raises(StoreError, match="malformed"):
            store.get_front("demo")
        payload = {
            "kind": "front",
            "schema_version": STORE_SCHEMA_VERSION,
            "fingerprint": "x",
            "record": {"dataset": "demo", "bogus_field": 1},
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(StoreError, match="bogus_field"):
            store.get_front("demo")

    def test_bare_nan_rejected(self, store):
        path = store.root / "demo" / "front.json"
        payload = json.loads(path.read_text())
        path.write_text(json.dumps(payload).replace('"fp"', "NaN"))
        with pytest.raises(StoreError):
            store.get_front("demo")

    def test_atomic_writes_leave_no_temp_files(self, store):
        leftovers = [
            p for p in store.root.rglob("*") if p.is_file() and p.suffix == ".tmp"
        ]
        assert leftovers == []

    def test_failed_manifest_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        """The manifest goes through the same atomic writer as every
        record: when its ``os.replace`` fails, its temp file is removed."""
        store = DesignStore(tmp_path / "store")
        real_replace = os.replace

        def replace(src, dst):
            if Path(dst).name == "store.json":
                raise OSError("manifest replace failed")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="manifest replace failed"):
            store.put_front(_front([_design(0, 0.9, 1.0)]))
        monkeypatch.undo()
        assert sorted(p.name for p in store.root.rglob("*") if p.is_file()) == ["front.json"]
        store.put_front(_front([_design(0, 0.9, 1.0)]))
        assert (store.root / "store.json").is_file()
        assert list(store.root.rglob("*.tmp")) == []

    def test_datasets_lists_only_published_fronts(self, tmp_path):
        assert DesignStore(tmp_path / "missing").datasets() == []
        store = DesignStore(tmp_path / "store")
        store.put_front(_front([_design(0, 0.9, 1.0)], dataset="beta"))
        (store.root / "empty").mkdir()
        (store.root / "stray.json").write_text("{}", encoding="utf-8")
        assert (store.root / "store.json").is_file()
        assert store.datasets() == ["beta"]
        store.put_front(_front([_design(0, 0.9, 1.0)], dataset="alpha"))
        assert store.datasets() == ["alpha", "beta"]

    def test_invalid_names_rejected(self, store):
        with pytest.raises(StoreError):
            store.get_front("../escape")
        with pytest.raises(StoreError):
            store.get_rtl("demo", "../../etc")

    def test_rtl_record_eda_summary_round_trips(self, tmp_path):
        """num_vectors/num_inputs and the nested EdaSummaryRecord survive
        the strict-JSON store bit-identically."""
        from repro.serving.store import EdaSummaryRecord

        store = DesignStore(tmp_path)
        record = RTLRecord(
            dataset="demo",
            design="d_00",
            module_name="approx_mlp",
            verilog="module approx_mlp; endmodule",
            testbench="// tb",
            num_vectors=16,
            num_inputs=4,
            eda=EdaSummaryRecord(
                oracle="microverilog", num_vectors=16, mismatches=0, passed=True
            ),
        )
        store.put_rtl(record)
        loaded = store.get_rtl("demo", "d_00")
        assert loaded.num_vectors == 16
        assert loaded.num_inputs == 4
        assert isinstance(loaded.eda, EdaSummaryRecord)
        assert loaded.eda == record.eda
        # The legacy shape (no EDA summary) still loads.
        store.put_rtl(
            RTLRecord(
                dataset="demo",
                design="d_01",
                module_name="m",
                verilog="module m; endmodule",
                testbench="// tb",
            )
        )
        bare = store.get_rtl("demo", "d_01")
        assert bare.eda is None and bare.num_vectors == 0

    def test_rtl_schema_version_mismatch_fails(self, store):
        design = store.rtl_designs("demo")[0]
        path = store.root / "demo" / "rtl" / f"{design}.json"
        payload = json.loads(path.read_text())
        payload["schema_version"] = STORE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload))
        with pytest.raises(StoreError, match="schema_version"):
            store.get_rtl("demo", design)

    def test_rtl_eda_summary_unknown_field_fails(self, store):
        design = store.rtl_designs("demo")[0]
        path = store.root / "demo" / "rtl" / f"{design}.json"
        payload = json.loads(path.read_text())
        payload["record"]["eda"] = {
            "oracle": "microverilog",
            "num_vectors": 4,
            "mismatches": 0,
            "passed": True,
            "bogus": 1,
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(StoreError, match="bogus"):
            store.get_rtl("demo", design)

    def test_corrupt_testbench_text_fails_loudly(self, store):
        """A stored testbench that no longer parses must raise, not
        silently verify zero vectors."""
        from repro.rtl.testbench import extract_testbench_vectors

        design = store.rtl_designs("demo")[0]
        rtl = store.get_rtl("demo", design)
        with pytest.raises(ValueError, match="does not contain"):
            extract_testbench_vectors(rtl.testbench)  # fixture tb is a stub
        with pytest.raises(ValueError, match="does not contain"):
            extract_testbench_vectors("module tb; endmodule")

    def test_record_schemas_match_golden(self):
        from repro.serving import store as store_module

        record_classes = {
            "front": FrontRecord,
            "design": DesignRecord,
            "report": ReportRecord,
            "method": MethodRecord,
            "verification": VerificationRecord,
            "tc23": Tc23Record,
            "methods": MethodsRecord,
            "rtl": RTLRecord,
            "eda": store_module.EdaSummaryRecord,
            "dataset": DatasetRecord,
        }
        produced = {
            "schema_version": store_module.STORE_SCHEMA_VERSION,
            "records": {
                name: sorted(f.name for f in dataclasses.fields(cls))
                for name, cls in record_classes.items()
            },
        }
        golden = json.loads(
            (GOLDEN_DIR / "store_records.schema.json").read_text(encoding="utf-8")
        )
        assert produced == golden, (
            "store record schema drifted from tests/golden/store_records."
            "schema.json; if intentional, regenerate the golden and bump "
            "STORE_SCHEMA_VERSION"
        )


# ---------------------------------------------------------------------------
# Import purity
# ---------------------------------------------------------------------------


class TestImportPurity:
    def test_serving_imports_no_search_modules(self):
        """Subprocess guard: the whole serving package stays search-free."""
        code = (
            "import json, sys\n"
            "import repro.serving\n"
            "import repro.serving.cli, repro.serving.queries\n"
            "import repro.serving.service, repro.serving.store\n"
            "from repro.serving.cli import forbidden_loaded\n"
            "print(json.dumps({'forbidden': forbidden_loaded(),\n"
            "                  'numpy': 'numpy' in sys.modules,\n"
            "                  'repro': sorted(m for m in sys.modules\n"
            "                                  if m.startswith('repro'))}))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
        )
        report = json.loads(result.stdout)
        assert report["forbidden"] == [], (
            "repro.serving imported search-time modules: "
            f"{report['forbidden']} (loaded: {report['repro']})"
        )
        assert not report["numpy"]

    def test_runner_query_mode_loads_no_search_stack(self, store):
        """``runner --query`` answers from the store without importing the
        experiment session, the GA trainer or the gradient baseline."""
        code = (
            "import json, sys\n"
            "from repro.experiments import runner\n"
            "code = runner.main(sys.argv[1:])\n"
            "print(json.dumps({'code': code,\n"
            "                  'numpy': 'numpy' in sys.modules,\n"
            "                  'repro': sorted(m for m in sys.modules\n"
            "                                  if m.startswith('repro'))}))\n"
        )
        query = json.dumps({"op": "select", "dataset": "demo"})
        result = subprocess.run(
            [sys.executable, "-c", code, "--query", query, "--store-dir", str(store.root)],
            capture_output=True,
            text=True,
            check=True,
        )
        answer, report = (json.loads(line) for line in result.stdout.splitlines())
        assert answer["ok"] and report["code"] == 0
        for module in ("repro.core.trainer", "repro.baselines.gradient", "repro.experiments.session"):
            assert module not in report["repro"]
        assert not report["numpy"]

    def test_runner_serve_session_never_loads_numpy(self, store):
        """A ``runner --serve`` process that runs every op's code path
        (feasibility with and without the voltage re-scale, an explicit
        ``rtl`` design, both point sets) never imports numpy."""
        design = store.get_dataset("demo").front.designs[1].name
        battery = [
            {"op": "datasets"},
            {"op": "select", "dataset": "demo"},
            {"op": "front", "dataset": "demo"},
            {"op": "feasibility", "dataset": "demo"},
            {"op": "feasibility", "dataset": "demo", "voltage": 0.6},
            {"op": "rtl", "dataset": "demo", "design": design},
            {"op": "points", "experiment": "fig4"},
            {"op": "points", "experiment": "fig5"},
        ]
        code = (
            "import json, sys\n"
            "from repro.experiments import runner\n"
            "code = runner.main(sys.argv[1:])\n"
            "print(json.dumps({'code': code,\n"
            "                  'numpy': sorted(m for m in sys.modules\n"
            "                                  if m.partition('.')[0] == 'numpy')}))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code, "--serve", "--store-dir", str(store.root)],
            input="".join(json.dumps(query) + "\n" for query in battery),
            capture_output=True,
            text=True,
            check=True,
        )
        *answers, report = (json.loads(line) for line in result.stdout.splitlines())
        assert [answer["ok"] for answer in answers] == [True] * len(battery)
        assert answers[5]["result"]["design"] == design
        assert report == {"code": 0, "numpy": []}

    def test_forbidden_list_covers_the_search_stack(self):
        from repro.serving.cli import FORBIDDEN_MODULES

        for prefix in (
            "numpy",
            "repro.core.trainer",
            "repro.core.operators",
            "repro.approx",
            "repro.rtl",
            "repro.hardware.synthesis",
            "repro.experiments",
        ):
            assert prefix in FORBIDDEN_MODULES


# ---------------------------------------------------------------------------
# Vectorized true front vs the scalar oracle
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class FakeDesign:
    test_accuracy: float
    area_cm2: float


class TestTrueFrontEquivalence:
    def _random_designs(self, rng, n):
        # Quantized values provoke plenty of exact ties.
        accuracies = rng.integers(0, 6, size=n) / 5.0
        areas = rng.integers(1, 6, size=n) / 2.0
        return [FakeDesign(float(a), float(b)) for a, b in zip(accuracies, areas)]

    def test_matches_scalar_oracle(self):
        from repro.evaluation.pareto_analysis import true_pareto_front

        rng = np.random.default_rng(7)
        for n in (0, 1, 2, 3, 8, 40, 120):
            designs = self._random_designs(rng, n)
            fast = true_pareto_front(designs)
            slow = true_pareto_front(designs, slow=True)
            assert len(fast) == len(slow)
            for f, s in zip(fast, slow):
                assert f is s  # same objects, same order

    def test_duplicates_all_survive(self):
        from repro.evaluation.pareto_analysis import true_pareto_front

        twin = [FakeDesign(0.9, 1.0), FakeDesign(0.9, 1.0), FakeDesign(0.5, 2.0)]
        fast = true_pareto_front(twin)
        slow = true_pareto_front(twin, slow=True)
        assert fast == slow == [twin[0], twin[1]]

    def test_mask_semantics(self):
        mask = queries.nondominated_mask([0.9, 0.8, 0.95], [1.0, 2.0, 3.0])
        assert mask == [True, False, True]
        assert queries.nondominated_mask([], []) == []


# ---------------------------------------------------------------------------
# Deterministic selection
# ---------------------------------------------------------------------------


class TestDeterministicSelection:
    def test_area_tie_prefers_accuracy_then_name(self):
        a = _design(0, 0.92, 0.5)
        b = _design(1, 0.90, 0.5)
        picked = queries.select_design([b, a], baseline_accuracy=0.93)
        assert picked is a  # same area, higher accuracy wins
        twin_a = _design(0, 0.92, 0.5)
        twin_b = _design(1, 0.92, 0.5)
        expected = min(twin_a.name, twin_b.name)
        for ordering in ([twin_a, twin_b], [twin_b, twin_a]):
            assert queries.select_design(ordering, 0.93).name == expected

    def test_order_independence(self):
        rng = np.random.default_rng(3)
        designs = [
            _design(i, float(rng.integers(80, 95)) / 100, float(rng.integers(1, 4)) / 2)
            for i in range(12)
        ]
        baseline = 0.93
        reference = queries.select_design(designs, baseline).name
        for _ in range(10):
            shuffled = list(designs)
            rng.shuffle(shuffled)
            assert queries.select_design(shuffled, baseline).name == reference

    def test_fallback_is_deterministic(self):
        # Nothing eligible: most accurate wins, ties by area then name.
        a = _design(0, 0.5, 2.0)
        b = _design(1, 0.5, 1.0)
        assert queries.select_design([a, b], baseline_accuracy=0.99) is b
        assert queries.select_design([], baseline_accuracy=0.99) is None

    def test_evaluated_design_selection_matches_record_selection(self):
        """pareto_analysis.select_design and queries.select agree on ties."""
        from repro.core.pareto import ParetoPoint
        from repro.evaluation.pareto_analysis import (
            design_sort_name,
            select_design as live_select,
        )
        from repro.evaluation.pareto_analysis import EvaluatedDesign
        from repro.hardware.synthesis import HardwareReport

        def live(index, accuracy, area):
            return EvaluatedDesign(
                point=ParetoPoint(
                    error=1.0 - accuracy,
                    area=10.0,
                    accuracy=accuracy,
                    payload=np.array([index], dtype=np.int64),
                ),
                test_accuracy=accuracy,
                report=HardwareReport(
                    area_cm2=area,
                    power_mw=1.0,
                    delay_ms=0.1,
                    voltage=1.0,
                    clock_period_ms=5.0,
                ),
            )

        designs = [live(0, 0.9, 1.0), live(1, 0.9, 1.0), live(2, 0.8, 0.4)]
        picked = live_select(designs, baseline_accuracy=0.92)
        names = [design_sort_name(d) for d in designs]
        # Exact tie between designs 0 and 1: the smaller stable name wins,
        # and the record-level rule picks the same design.
        assert design_sort_name(picked) == min(names[0], names[1])
        records = [
            _design(i, d.test_accuracy, d.area_cm2, name=names[i])
            for i, d in enumerate(designs)
        ]
        assert queries.select_design(records, 0.92).name == design_sort_name(picked)


# ---------------------------------------------------------------------------
# Queries over a populated store
# ---------------------------------------------------------------------------


class TestQueries:
    def test_selection_row(self, store):
        record = store.get_dataset("demo")
        row = queries.selection_row(record)
        assert row["dataset"] == "demo"
        # Budget 0.05 with baseline 0.93: the 0.88 design (area 0.6) is
        # the smallest admissible one.
        assert row["accuracy"] == 0.88 and row["area_cm2"] == 0.6
        tight = queries.selection_row(record, max_accuracy_loss=0.01)
        assert tight["accuracy"] == 0.92
        assert row["within_budget"] and tight["within_budget"]

    def test_selection_row_flags_a_budget_fallback(self, store):
        """No stored design is within 0.1% of the 0.93 baseline: the row
        reports the most accurate design and says it is a fallback."""
        record = store.get_dataset("demo")
        row = queries.selection_row(record, max_accuracy_loss=0.001)
        assert row["accuracy"] == 0.92 and row["area_cm2"] == 1.0
        assert row["accuracy_loss"] > row["max_accuracy_loss"]
        assert row["within_budget"] is False

    def test_table2_marks_fallback_rows(self, store):
        """Table II carries the flag and prints it in its own column."""
        from types import SimpleNamespace

        from repro.evaluation.report import format_rows
        from repro.experiments.table2 import DISPLAY, build_table2

        record = store.get_dataset("demo")
        session = SimpleNamespace(
            scale=SimpleNamespace(datasets=("demo",)), record=lambda name: record
        )
        fallback = queries.selection_row(session.record("demo"), max_accuracy_loss=0.001)
        (admissible,) = build_table2(session)
        assert fallback["within_budget"] is False
        assert admissible["within_budget"] is True
        for row, flag in ((fallback, "False"), (admissible, "True")):
            header, _, line = format_rows(DISPLAY, [row]).splitlines()[:3]
            assert header.split("|")[-1].strip() == "In Budget"
            assert line.split("|")[-1].strip() == flag

    def test_front_rows_are_nondominated(self, store):
        rows = queries.front_rows(store.get_dataset("demo"))
        assert [row["area_cm2"] for row in rows] == sorted(
            row["area_cm2"] for row in rows
        )
        assert all(set(row) >= {"design", "test_accuracy", "fa_count"} for row in rows)

    def test_fig5_rows_scale_voltage(self, store):
        rows = queries.fig5_rows(store.get_dataset("demo"))
        names = [row["design"] for row in rows]
        assert names == ["baseline_micro20", "tc23", "ours", "ours_0v6"]
        ours = rows[2]
        low = rows[3]
        assert low["voltage"] == pytest.approx(0.6)
        assert low["area_cm2"] == ours["area_cm2"]  # area is voltage-independent
        assert low["power_mw"] < ours["power_mw"]

    def test_fig4_rows_and_points(self, store):
        rows = queries.fig4_rows(store.get_dataset("demo"))
        assert [row["method"] for row in rows] == ["ours", "tc23", "date21"]
        base_area = store.get_front("demo").baseline.area_cm2
        assert rows[0]["norm_area"] == rows[0]["area_cm2"] / base_area
        points = queries.fig4_point_rows(rows)
        assert set(points[0]) == {
            "dataset",
            "method",
            "accuracy",
            "norm_area",
            "norm_power",
        }

    def test_points_schemas_match_golden(self, store):
        from repro.evaluation.artifacts import Artifact

        for name, project, display, rows in (
            (
                "fig4_points",
                queries.fig4_point_rows,
                queries.FIG4_POINTS_DISPLAY,
                queries.fig4_rows(store.get_dataset("demo")),
            ),
            (
                "fig5_points",
                queries.fig5_point_rows,
                queries.FIG5_POINTS_DISPLAY,
                queries.fig5_rows(store.get_dataset("demo")),
            ),
        ):
            artifact = Artifact.build(
                name, project(rows), scale="smoke", seed=0, datasets=("demo",),
                display=display,
            )
            produced = {
                "experiment": artifact.experiment,
                "schema_version": artifact.schema_version,
                "columns": sorted(artifact.columns),
                "display": [list(pair) for pair in artifact.display],
            }
            golden = json.loads(
                (GOLDEN_DIR / f"{name}.schema.json").read_text(encoding="utf-8")
            )
            assert produced == golden, f"{name} schema drifted"

    def test_rtl_resolution(self, store):
        record = store.get_dataset("demo")
        selected = queries.select(record).name
        assert queries.resolve_rtl_design(record) == selected
        with pytest.raises(StoreError, match="no design"):
            queries.resolve_rtl_design(record, design="nope")


# ---------------------------------------------------------------------------
# The service and its one query router
# ---------------------------------------------------------------------------


def _count_dataset_loads(store) -> dict:
    """Count ``store.get_dataset`` calls (the service's only dataset read)."""
    loads = {"n": 0}
    real = store.get_dataset

    def counting(dataset):
        loads["n"] += 1
        return real(dataset)

    store.get_dataset = counting
    return loads


class TestParetoService:
    def test_mixed_ops_share_one_record_load(self, store):
        loads = _count_dataset_loads(store)
        service = ParetoService(store)
        selections = [service.select("demo") for _ in range(64)]
        assert all(row == selections[0] for row in selections)
        service.front("demo")
        service.feasibility("demo")
        service.rtl("demo")
        service.points("fig5")
        service.select("demo", max_accuracy_loss=0.01)
        assert loads["n"] == 1

    def test_rtl_and_errors(self, store):
        service = ParetoService(store)
        rtl = service.rtl("demo")
        assert rtl["verilog"].startswith("module ")
        with pytest.raises(StoreError):
            service.select("missing")
        with pytest.raises(StoreError, match="no design"):
            service.rtl("demo", design="nope")
        with pytest.raises(ValueError, match="unknown point set"):
            service.points("fig9")

    def test_datasets_reread_on_every_call(self, store):
        service = ParetoService(store)
        assert service.datasets() == ["demo"]
        store.put_front(_front([_design(0, 0.9, 1.0)], dataset="late"))
        assert service.datasets() == ["demo", "late"]
        assert {row["dataset"] for row in service.points("fig5")} == {"demo", "late"}

    def test_feasibility_builds_no_cell_after_warm_up(self, store, monkeypatch):
        from repro.hardware.egfet import CellSpec

        service = ParetoService(store)
        service.feasibility("demo")
        built = {"n": 0}
        real = CellSpec.__post_init__

        def counting(spec):
            built["n"] += 1
            real(spec)

        monkeypatch.setattr(CellSpec, "__post_init__", counting)
        service.feasibility("demo")
        service.feasibility("demo", voltage=0.8)
        service.points("fig5")
        assert built["n"] == 0

    def test_front_queries_compute_the_true_front_once(self, store, monkeypatch):
        calls = {"n": 0}
        real = queries.nondominated_mask

        def counting(accuracies, areas):
            calls["n"] += 1
            return real(accuracies, areas)

        monkeypatch.setattr(queries, "nondominated_mask", counting)
        service = ParetoService(store)
        answers = [service.front("demo") for _ in range(16)]
        assert calls["n"] == 1
        fresh = queries.front_rows(store.get_dataset("demo"))
        assert all(answer == fresh for answer in answers)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_accuracy_loss", float("nan")),
            ("max_accuracy_loss", float("inf")),
            ("max_accuracy_loss", "0.05"),
            ("voltage", float("-inf")),
            ("voltage", True),
            pytest.param("voltage", 10**400, id="voltage-int-overflows-float"),
        ],
    )
    def test_dispatch_rejects_non_finite_numbers(self, store, field, value):
        from repro.serving.cli import _dispatch

        query = {"op": "feasibility", "dataset": "demo", field: value}
        with pytest.raises(ValueError, match=f"{field} must be a finite number"):
            _dispatch(ParetoService(store), query)

    @pytest.mark.parametrize("op", ["select", "feasibility", "rtl", "points"])
    def test_dispatch_rejects_a_negative_budget(self, store, op):
        from repro.serving.cli import _answer, _dispatch

        query = {"op": op, "dataset": "demo", "experiment": "fig5"}
        query["max_accuracy_loss"] = -0.01
        with pytest.raises(ValueError, match="max_accuracy_loss must be non-negative"):
            _dispatch(ParetoService(store), query)
        ok, line = _answer(ParetoService(store), json.dumps(query))
        assert not ok
        assert json.loads(line) == {
            "ok": False,
            "error": "max_accuracy_loss must be non-negative, got -0.01",
        }

    def test_zero_budget_is_accepted(self, store):
        from repro.serving.cli import _dispatch

        service = ParetoService(store)
        query = {"op": "select", "dataset": "demo", "max_accuracy_loss": 0.0}
        assert _dispatch(service, query) == service.select("demo", max_accuracy_loss=0.0)

    def test_cli_select_rejects_a_negative_budget(self, store, capsys):
        from repro.serving import cli

        code = cli.main(
            ["--store", str(store.root), "select", "demo", "--max-accuracy-loss", "-0.01"]
        )
        assert code == 1
        assert "max_accuracy_loss must be non-negative" in capsys.readouterr().err

    def test_dispatch_matches_the_methods(self, store):
        from repro.serving.cli import _dispatch

        service = ParetoService(store)
        assert _dispatch(service, {"op": "datasets"}) == service.datasets()
        assert _dispatch(
            service, {"op": "select", "dataset": "demo", "max_accuracy_loss": 0.01}
        ) == service.select("demo", max_accuracy_loss=0.01)
        assert _dispatch(
            service, {"op": "feasibility", "dataset": "demo", "voltage": 0.8}
        ) == service.feasibility("demo", voltage=0.8)
        with pytest.raises(ValueError, match="unknown query op"):
            _dispatch(service, {"op": "bogus"})
        with pytest.raises(TypeError, match="JSON object"):
            _dispatch(service, [1])

    def test_batch_answers_every_line(self, store, capsys):
        """A bad line answers ``ok: false`` and the batch goes on."""
        from repro.serving import cli

        path = store.root.parent / "queries.jsonl"
        path.write_text(
            '{"op":"select","dataset":"demo","max_accuracy_loss":NaN}\n'
            "not json\n"
            "\n"
            '{"op":"front","dataset":"demo"}\n'
        )
        code = cli.main(["--store", str(store.root), "batch", "--queries", str(path)])
        answers = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert code == 1
        assert [a["ok"] for a in answers] == [False, False, True]
        assert answers[0]["query"] is None and "NaN" in answers[0]["error"]
        assert answers[2]["query"] == {"op": "front", "dataset": "demo"}
        assert answers[2]["result"] == ParetoService(store).front("demo")

    def test_answer_survives_any_nesting_depth(self, store):
        """Lines nested around the recursion limit either parse or not,
        and either echo back or not; each still gets one ``ok: false``."""
        from repro.serving.cli import _answer

        service = ParetoService(store)
        for depth in range(0, sys.getrecursionlimit() + 10):
            line = '{"op":"select","dataset":' + "[" * depth + "]" * depth + "}"
            ok, answer = _answer(service, line, echo=True)
            assert not ok
            assert json.loads(answer)["ok"] is False

    def test_cli_subcommand_rejects_nan_budget(self, store, capsys):
        from repro.serving import cli

        code = cli.main(
            ["--store", str(store.root), "select", "demo", "--max-accuracy-loss", "nan"]
        )
        assert code == 1
        assert "max_accuracy_loss must be a finite number" in capsys.readouterr().err

    def test_serve_survives_bad_queries(self, store):
        """A non-finite budget, an int budget too large for a float, a
        non-object, a non-JSON line and a line nested past the recursion
        limit each get an ``ok: false`` answer; the server keeps answering
        and exits 0."""
        lines = [
            '{"op":"select","dataset":"demo","max_accuracy_loss":NaN}',
            '{"op":"select","dataset":"demo","max_accuracy_loss":1' + "0" * 400 + "}",
            "[1]",
            "not json",
            "[" * 100_000,
            '{"op":"select","dataset":"demo"}',
        ]
        result = subprocess.run(
            [sys.executable, "-m", "repro.experiments.runner", "--serve",
             "--store-dir", str(store.root)],
            input="\n".join(lines) + "\n",
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        answers = [json.loads(line) for line in result.stdout.splitlines()]
        assert [a["ok"] for a in answers] == [False] * 5 + [True]
        assert all(set(a) == {"ok", "error"} for a in answers[:5])
        assert "max_accuracy_loss must be a finite number" in answers[1]["error"]
        assert answers[5] == {"ok": True, "result": ParetoService(store).select("demo")}


class TestDocumentedCommands:
    """Every ``$ ... python -m repro.serving ...`` shell command in the
    docs' code blocks parses (backslash continuations joined)."""

    @staticmethod
    def _commands():
        root = Path(__file__).resolve().parent.parent
        for doc in (root / "README.md", root / "docs" / "serving.md"):
            blocks = doc.read_text(encoding="utf-8").split("```")[1::2]
            for block in blocks:
                for line in block.replace("\\\n", " ").splitlines():
                    _, found, rest = line.partition("python -m repro.serving ")
                    if found and line.lstrip().startswith("$"):
                        yield doc.name, rest

    def test_documented_commands_parse(self):
        import shlex

        from repro.serving.cli import _parser

        commands = list(self._commands())
        assert len(commands) >= 6
        for doc, command in commands:
            try:
                _parser().parse_args(shlex.split(command))
            except SystemExit:
                pytest.fail(f"{doc}: 'python -m repro.serving {command}' does not parse")


# ---------------------------------------------------------------------------
# End-to-end: session publish -> warm-store queries, zero search stages
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def published(tmp_path_factory):
    """A tiny fig4+fig5 session run published into a store."""
    from repro.experiments.config import ExperimentScale
    from repro.experiments.session import ExperimentSession

    scale = ExperimentScale(
        name="tiny-serving",
        datasets=("breast_cancer",),
        max_samples=200,
        gradient_epochs=30,
        gradient_restarts=1,
        ga_population=16,
        ga_generations=6,
        max_front_designs=6,
        seed=0,
    )
    out = tmp_path_factory.mktemp("serve_e2e")
    session = ExperimentSession(scale)
    artifacts = session.run(["fig4", "fig5"], export_dir=out)
    return session, artifacts, out


class TestWarmStoreParity:
    def test_store_published_with_rtl_and_points(self, published):
        _, _, out = published
        store = DesignStore(out / "store")
        assert store.datasets() == ["breast_cancer"]
        record = store.get_dataset("breast_cancer")
        assert record.tc23 is not None and record.methods is not None
        assert len(record.rtl_designs) == len(record.front.designs) > 0
        for name in ("fig4_points", "fig5_points"):
            assert (out / f"{name}.json").is_file()
            assert (out / f"{name}.csv").is_file()

    def test_warm_queries_match_artifacts_without_search(self, published, monkeypatch):
        session, artifacts, out = published
        from repro.core import trainer

        def forbidden(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("search stage executed during a warm-store query")

        monkeypatch.setattr(trainer.GATrainer, "train", forbidden)

        service = ParetoService(DesignStore(out / "store"))
        select = service.select("breast_cancer")
        front = service.front("breast_cancer")
        feas = service.feasibility("breast_cancer")
        rtl = service.rtl("breast_cancer")
        fig4_points = service.points("fig4")
        assert [dict(row) for row in artifacts["fig5"].rows] == feas
        table_row = next(
            row for row in artifacts["fig4"].rows if row["method"] == "ours"
        )
        assert select["accuracy"] == table_row["accuracy"]
        assert select["area_cm2"] == table_row["area_cm2"]
        assert front and rtl["verilog"].startswith("//")
        from repro.evaluation.artifacts import Artifact

        exported = Artifact.from_json((out / "fig4_points.json").read_text())
        assert [dict(row) for row in exported.rows] == fig4_points

    def test_cli_battery_is_pure(self, published):
        """The CLI answers under --assert-pure against the real store."""
        _, _, out = published
        queries_jsonl = "\n".join(
            json.dumps(query)
            for query in (
                {"op": "datasets"},
                {"op": "select", "dataset": "breast_cancer"},
                {"op": "front", "dataset": "breast_cancer"},
                {"op": "feasibility", "dataset": "breast_cancer"},
                {"op": "rtl", "dataset": "breast_cancer"},
                {"op": "points", "experiment": "fig5"},
            )
        )
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.serving",
                "--store",
                str(out / "store"),
                "--assert-pure",
                "batch",
            ],
            input=queries_jsonl,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        answers = [json.loads(line) for line in result.stdout.splitlines()]
        assert len(answers) == 6 and all(a["ok"] for a in answers)
        assert "[purity] serving import graph clean" in result.stderr


# ---------------------------------------------------------------------------
# Printed-power-source feasibility of one operating point
# ---------------------------------------------------------------------------


def _report(area: float, power: float, voltage: float = 1.0) -> ReportRecord:
    return ReportRecord(
        area_cm2=area, power_mw=power, delay_ms=10.0, voltage=voltage, clock_period_ms=200.0
    )


class TestAssessReport:
    def test_zone_assignment_from_report(self):
        row = queries.assess_report(_report(area=2.0, power=0.5), "toy")
        assert row["self_powered"]
        assert row["zone"] == "Printed energy harvester"

    def test_voltage_rescaling_applied(self):
        report = _report(area=2.0, power=10.0, voltage=1.0)
        at_nominal = queries.assess_report(report, "toy")
        at_low = queries.assess_report(report, "toy", voltage=0.6)
        assert at_nominal["zone"] == "Zinergy"
        assert at_low["power_mw"] == pytest.approx(3.6)
        assert at_low["zone"] == "Blue Spark"
        assert at_low["area_cm2"] == report.area_cm2 and at_low["voltage"] == 0.6

    def test_rescale_guard_keeps_a_report_at_its_own_voltage(self):
        """Asking for the report's own supply re-scales nothing, so the
        figures come back bit for bit; 0.6 V goes through ``scale_report``."""
        report = _report(area=2.0, power=10.0, voltage=1.0)
        assert queries.assess_report(report, "toy", voltage=1.0) == queries.assess_report(
            report, "toy"
        )
        scaled = queries.scale_report(report, 0.6)
        at_low = queries.assess_report(report, "toy", voltage=0.6)
        assert (at_low["power_mw"], at_low["voltage"]) == (scaled.power_mw, scaled.voltage)

    def test_unsustainable_area(self):
        row = queries.assess_report(_report(area=100.0, power=0.5), "huge")
        assert row["zone"] == "Unsustainable Area"
        assert not row["feasible"]

    def test_synthesized_report_assessed_through_from_report(self, rng):
        """Search-time callers wrap a :class:`HardwareReport`; every scalar
        field survives the wrap, so the row carries the synthesized figures."""
        from repro.approx.config import ApproxConfig
        from repro.approx.mlp import ApproximateMLP
        from repro.approx.topology import Topology
        from repro.hardware.synthesis import synthesize_approximate_mlp

        mlp = ApproximateMLP.random(Topology((4, 3, 2)), ApproxConfig(), rng)
        report = synthesize_approximate_mlp(mlp, clock_period_ms=200.0)
        record = ReportRecord.from_report(report)
        for field in dataclasses.fields(ReportRecord):
            assert getattr(record, field.name) == getattr(report, field.name), field.name
        row = queries.assess_report(record, "mlp", voltage=0.6)
        assert row["area_cm2"] == report.area_cm2
        assert row["power_mw"] == queries.scale_report(record, 0.6).power_mw < report.power_mw


class TestOneVoltageRule:
    @pytest.mark.parametrize("voltage", [0.6, 0.8, 1.0])
    def test_scale_report_follows_rescale_power_delay_bit_for_bit(self, published, voltage):
        """The serving tier's ``scale_report`` moves every stored design and
        baseline by ``egfet.rescale_power_delay``, the one re-scaling rule,
        to the same floats bit for bit, and leaves area and clock alone."""
        from repro.hardware.egfet import rescale_power_delay

        _, _, out = published
        store = DesignStore(out / "store")
        records = []
        for dataset in store.datasets():
            front = store.get_dataset(dataset).front
            records += [front.baseline] + [design.report for design in front.designs]
        assert len(records) > 1
        for record in records:
            served = queries.scale_report(record, voltage)
            power, delay = rescale_power_delay(
                record.power_mw, record.delay_ms, record.voltage, voltage
            )
            assert served.power_mw.hex() == power.hex(), record
            assert served.delay_ms.hex() == delay.hex(), record
            assert (served.area_cm2, served.clock_period_ms, served.voltage) == (
                record.area_cm2,
                record.clock_period_ms,
                voltage,
            )
