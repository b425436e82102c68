"""Feature-detected external EDA flow: discovery, parsing, loud errors.

The container running tier-1 has no ``iverilog``/``yosys``, so these
tests drive :mod:`repro.eda.tools` through *stub executables* written to
a temporary PATH directory: the subprocess plumbing, verdict parsing and
error paths are exercised for real, while the handful of tests that need
the genuine tools are ``skipif``-gated and only run in the CI
``eda-cross-check`` job.
"""

from __future__ import annotations

import os
import stat
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.approx.config import ApproxConfig
from repro.eda import tools
from repro.eda.report import cross_check_store
from repro.eda.tools import (
    EdaToolError,
    IverilogResult,
    YosysStat,
    find_tool,
    have_iverilog,
    have_yosys,
    run_iverilog,
    run_yosys_stat,
)
from repro.rtl.testbench import generate_testbench
from repro.rtl.verilog import generate_mlp_verilog
from repro.approx.mlp import ApproximateMLP
from repro.approx.topology import Topology
from repro.serving.store import (
    DesignRecord,
    DesignStore,
    FrontRecord,
    ReportRecord,
    RTLRecord,
    VerificationRecord,
    design_name,
)

MODULE = "module m; endmodule\n"
TESTBENCH = "module tb; endmodule\n"


def _write_stub(bindir: Path, name: str, body: str) -> Path:
    """Write an executable shell stub named ``name`` into ``bindir``."""
    path = bindir / name
    path.write_text("#!/bin/sh\n" + textwrap.dedent(body), encoding="utf-8")
    path.chmod(path.stat().st_mode | stat.S_IXUSR | stat.S_IXGRP | stat.S_IXOTH)
    return path


@pytest.fixture()
def stub_bin(tmp_path, monkeypatch) -> Path:
    """An empty executable directory that *replaces* PATH.

    Replacing (rather than prepending) guarantees the tests see exactly
    the stubs they write — and, before any are written, a world with no
    EDA tools at all.
    """
    bindir = tmp_path / "bin"
    bindir.mkdir()
    # The stubs are /bin/sh scripts; sh itself must stay findable.
    monkeypatch.setenv("PATH", f"{bindir}{os.pathsep}/bin{os.pathsep}/usr/bin")
    return bindir


def _stub_iverilog(bindir: Path, vvp_body: str, iverilog_body: str = "exit 0\n"):
    _write_stub(bindir, "iverilog", iverilog_body)
    _write_stub(bindir, "vvp", vvp_body)


class TestDiscovery:
    def test_find_tool_missing_returns_none(self, stub_bin):
        assert find_tool("iverilog") is None
        assert find_tool("definitely-not-an-eda-tool") is None

    def test_find_tool_probes_version_banner(self, stub_bin):
        _write_stub(
            stub_bin, "iverilog", 'echo "Icarus Verilog version 12.0 (stub)"\n'
        )
        info = find_tool("iverilog")
        assert info is not None
        assert info.name == "iverilog"
        assert info.path == str(stub_bin / "iverilog")
        assert info.version == "Icarus Verilog version 12.0 (stub)"

    def test_find_tool_survives_failed_version_probe(self, stub_bin):
        _write_stub(stub_bin, "yosys", "exit 3\n")
        info = find_tool("yosys")
        assert info is not None
        assert info.version == ""

    def test_have_iverilog_needs_compiler_and_runtime(self, stub_bin):
        assert have_iverilog() is False
        _write_stub(stub_bin, "iverilog", "exit 0\n")
        assert have_iverilog() is False  # vvp still missing
        _write_stub(stub_bin, "vvp", "exit 0\n")
        assert have_iverilog() is True

    def test_have_yosys(self, stub_bin):
        assert have_yosys() is False
        _write_stub(stub_bin, "yosys", "exit 0\n")
        assert have_yosys() is True


class TestRunIverilog:
    def test_missing_tool_raises(self, stub_bin):
        with pytest.raises(EdaToolError, match="not found on PATH"):
            run_iverilog(MODULE, TESTBENCH)

    def test_pass_verdict(self, stub_bin):
        _stub_iverilog(stub_bin, 'echo "TESTBENCH PASSED"\n')
        result = run_iverilog(MODULE, TESTBENCH)
        assert result == IverilogResult(passed=True, errors=0)

    def test_fail_verdict_with_mismatch_lines(self, stub_bin):
        _stub_iverilog(
            stub_bin,
            """\
            echo "MISMATCH inputs={1, 2} expected=0 got=1"
            echo "MISMATCH inputs={3, 0} expected=1 got=0"
            echo "TESTBENCH FAILED with 2 errors"
            """,
        )
        result = run_iverilog(MODULE, TESTBENCH)
        assert result.passed is False
        assert result.errors == 2
        assert len(result.mismatch_lines) == 2
        assert all("MISMATCH" in line for line in result.mismatch_lines)

    def test_contradictory_verdict_raises(self, stub_bin):
        _stub_iverilog(
            stub_bin,
            """\
            echo "MISMATCH inputs={1} expected=0 got=1"
            echo "TESTBENCH PASSED"
            """,
        )
        with pytest.raises(EdaToolError, match="PASSED but also mismatch"):
            run_iverilog(MODULE, TESTBENCH)

    def test_missing_verdict_raises(self, stub_bin):
        _stub_iverilog(stub_bin, 'echo "hello from the simulator"\n')
        with pytest.raises(EdaToolError, match="no testbench verdict"):
            run_iverilog(MODULE, TESTBENCH)

    def test_compile_failure_raises_with_stderr(self, stub_bin):
        _stub_iverilog(
            stub_bin,
            'echo "unreachable"\n',
            iverilog_body='echo "tb.v:3: syntax error" >&2\nexit 1\n',
        )
        with pytest.raises(EdaToolError, match="syntax error"):
            run_iverilog(MODULE, TESTBENCH)

    def test_hung_tool_times_out(self, stub_bin):
        _stub_iverilog(stub_bin, "sleep 30\n")
        with pytest.raises(EdaToolError, match="timed out"):
            run_iverilog(MODULE, TESTBENCH, timeout=1.0)

    def test_sources_reach_the_compiler(self, stub_bin):
        """The stub compiler sees both files with the exact texts."""
        _write_stub(
            stub_bin,
            "iverilog",
            "cat tb.v module.v > seen.txt\nexit 0\n",
        )
        _write_stub(stub_bin, "vvp", 'cat seen.txt\necho "TESTBENCH PASSED"\n')
        result = run_iverilog("module real_m; endmodule\n", "// tb text\n")
        assert result.passed is True


class TestRunYosysStat:
    STAT_OUTPUT = """\
    2.49. Printing statistics.

    === approx_mlp ===

       Number of wires:                 31
       Number of cells:                 99

    3.1. Executing final stat pass.

    === approx_mlp ===

       Number of wires:                 31
       Number of cells:                 42

         $add                            12
         $mux                            26
         $sub                             4
    """

    def test_missing_tool_raises(self, stub_bin):
        with pytest.raises(EdaToolError, match="not found on PATH"):
            run_yosys_stat(MODULE, top="m")

    def test_parses_last_census(self, stub_bin):
        _write_stub(stub_bin, "yosys", f"cat <<'EOF'\n{self.STAT_OUTPUT}EOF\n")
        result = run_yosys_stat(MODULE, top="m")
        assert result.cells == 42  # the post-synth census, not the first
        assert result.cell_counts == {"$add": 12, "$mux": 26, "$sub": 4}
        assert result.arithmetic_cells == 16

    def test_missing_census_raises(self, stub_bin):
        _write_stub(stub_bin, "yosys", 'echo "Yosys did nothing useful"\n')
        with pytest.raises(EdaToolError, match="no cell census"):
            run_yosys_stat(MODULE, top="m")

    def test_synth_failure_raises(self, stub_bin):
        _write_stub(stub_bin, "yosys", 'echo "ERROR: syntax error" >&2\nexit 1\n')
        with pytest.raises(EdaToolError, match="exited with 1"):
            run_yosys_stat(MODULE, top="m")

    def test_yosys_stat_arithmetic_cells_empty(self):
        assert YosysStat(cells=5, cell_counts={"$mux": 5}).arithmetic_cells == 0


# ---------------------------------------------------------------------------
# cross_check_store through stubbed tools
# ---------------------------------------------------------------------------


def _mini_store(tmp_path) -> DesignStore:
    """A one-design store whose RTL texts are *real* generator output."""
    rng = np.random.default_rng(7)
    config = ApproxConfig(input_bits=4)
    mlp = ApproximateMLP.random(Topology((4, 3, 2)), config, rng, mask_density=0.5)
    vectors = rng.integers(0, config.max_input_value + 1, size=(12, 4))
    name = design_name(b"\x00")
    design = DesignRecord(
        name=name,
        index=0,
        test_accuracy=0.9,
        train_accuracy=0.91,
        error=0.09,
        fa_count=20.0,
        area_cm2=1.0,
        power_mw=3.0,
        delay_ms=0.5,
        voltage=1.0,
        clock_period_ms=5.0,
    )
    store = DesignStore(tmp_path / "store")
    store.put_front(
        FrontRecord(
            dataset="demo",
            scale="smoke",
            seed=0,
            fingerprint="fp",
            split="split",
            baseline_test_accuracy=0.93,
            baseline_train_accuracy=0.95,
            baseline=ReportRecord(2.0, 6.0, 0.4, 1.0, 5.0),
            designs=(design,),
            default_accuracy_loss=0.05,
            selected=name,
            training_seconds=1.0,
            verification=VerificationRecord(1, 12, 0, 0, True),
        )
    )
    store.put_rtl(
        RTLRecord(
            dataset="demo",
            design=name,
            module_name="approx_mlp",
            verilog=generate_mlp_verilog(mlp),
            testbench=generate_testbench(mlp, vectors=vectors),
            num_vectors=12,
            num_inputs=4,
        )
    )
    return store


class TestCrossCheckWithStubs:
    def test_forcing_missing_tools_raises(self, stub_bin, tmp_path):
        store = _mini_store(tmp_path)
        with pytest.raises(EdaToolError, match="iverilog requested"):
            cross_check_store(store, use_iverilog=True)
        with pytest.raises(EdaToolError, match="yosys requested"):
            cross_check_store(store, use_yosys=True)

    def test_tools_absent_degrades_to_microverilog_only(self, stub_bin, tmp_path):
        check = cross_check_store(_mini_store(tmp_path))
        assert check.num_designs == 1
        assert check.used_iverilog is False
        assert check.used_yosys is False
        assert check.micro_failures == 0
        assert check.passed is True
        (row,) = check.rows
        assert row["iverilog"] == "-"
        assert row["yosys_cells"] is None

    def test_full_flow_through_stubbed_tools(self, stub_bin, tmp_path):
        _stub_iverilog(stub_bin, 'echo "TESTBENCH PASSED"\n')
        _write_stub(
            stub_bin,
            "yosys",
            'printf "   Number of cells:                 80\\n'
            '     $add                            10\\n"\n',
        )
        check = cross_check_store(_mini_store(tmp_path))
        assert check.used_iverilog is True
        assert check.used_yosys is True
        assert check.passed is True
        (row,) = check.rows
        assert row["iverilog"] == "pass"
        assert row["yosys_cells"] == 80
        assert row["cells_per_fa"] == 4.0  # 80 cells / 20 FA
        artifact = check.artifact()
        assert artifact.experiment == "eda_cross_check"
        assert "Yosys cells" in artifact.format()

    def test_iverilog_failure_counts(self, stub_bin, tmp_path):
        _stub_iverilog(
            stub_bin,
            """\
            echo "MISMATCH inputs={0, 0, 0, 0} expected=0 got=1"
            echo "TESTBENCH FAILED with 1 errors"
            """,
        )
        check = cross_check_store(_mini_store(tmp_path))
        assert check.iverilog_failures == 1
        assert check.passed is False
        (row,) = check.rows
        assert row["iverilog"] == "FAIL(1)"


# ---------------------------------------------------------------------------
# Real tools (CI eda-cross-check job only; skipped where not installed)
# ---------------------------------------------------------------------------


@pytest.mark.skipif(not have_iverilog(), reason="iverilog/vvp not installed")
class TestRealIverilog:
    def test_generated_pair_passes(self, tmp_path):
        store = _mini_store(tmp_path)
        rtl = store.get_rtl("demo", store.rtl_designs("demo")[0])
        result = run_iverilog(rtl.verilog, rtl.testbench)
        assert result.passed is True
        assert result.errors == 0

    def test_edge_case_design_passes(self, edge_design):
        mlp, vectors = edge_design
        result = run_iverilog(
            generate_mlp_verilog(mlp), generate_testbench(mlp, vectors=vectors)
        )
        assert result.passed is True
        assert result.errors == 0

    def test_tampered_module_fails(self, tmp_path):
        store = _mini_store(tmp_path)
        rtl = store.get_rtl("demo", store.rtl_designs("demo")[0])
        tampered = rtl.verilog.replace(">", "<", 1)
        result = run_iverilog(tampered, rtl.testbench)
        assert result.passed is False
        assert result.errors > 0


@pytest.mark.skipif(not have_yosys(), reason="yosys not installed")
class TestRealYosys:
    def test_generated_module_synthesizes(self, tmp_path):
        store = _mini_store(tmp_path)
        rtl = store.get_rtl("demo", store.rtl_designs("demo")[0])
        result = run_yosys_stat(rtl.verilog, top=rtl.module_name)
        assert result.cells > 0
