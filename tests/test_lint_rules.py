"""Per-rule tests over the fixture packages, plus the CLI and the
static-vs-runtime purity agreement check."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint.config import LintConfig, PurityPolicy, SchemaTarget, default_config
from repro.lint.engine import Project, run_rules
from repro.lint.rules import rules_by_id
from repro.lint.rules.rp01_import_purity import ImportPurityRule
from repro.lint.rules.rp02_oracle_pairing import OraclePairingRule
from repro.lint.rules.rp03_nondeterminism import NondeterminismRule
from repro.lint.rules.rp04_schema_version import (
    SchemaVersionRule,
    extract_schema,
    write_golden,
)
from repro.lint.rules.rp06_strict_json import StrictJsonRule
from repro.serving.cli import FORBIDDEN_MODULES

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"

SCHEMA_TARGET = SchemaTarget(
    module="bad_pkg.schema_mod",
    version_constant="RECORD_SCHEMA_VERSION",
    dataclasses=("Record",),
    constants=("LAYOUT",),
)


def make_project(*roots, **config_kwargs):
    return Project([FIXTURES / root for root in roots], LintConfig(**config_kwargs))


def lint_cli(*args, cwd=ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


class TestRP01ImportPurity:
    def test_deep_chain_detected_and_anchored(self):
        project = make_project(
            "bad_pkg",
            purity_policies=(
                PurityPolicy(
                    zone="bad_pkg.serving_zone", forbidden=("bad_pkg.search_zone",)
                ),
            ),
        )
        findings = list(ImportPurityRule().check(project))
        assert findings
        assert {f.rule for f in findings} == {"RP01"}
        # Both the package __init__ and the trainer module are reached.
        mentioned = {f.message.split(" via ")[0].split()[-1] for f in findings}
        assert mentioned == {"bad_pkg.search_zone", "bad_pkg.search_zone.trainer"}
        for finding in findings:
            assert finding.path.endswith("serving_zone/query.py")
            assert finding.line == 3  # the import that starts the chain
        chain_finding = next(
            f for f in findings if "bad_pkg.search_zone.trainer" in f.message
        )
        assert (
            "bad_pkg.serving_zone.query -> bad_pkg.middle -> "
            "bad_pkg.search_zone.trainer" in chain_finding.message
        )

    def test_third_party_import_detected(self):
        """A function-level ``import numpy`` in the zone is a finding
        when the policy forbids numpy, anchored at that import."""
        project = make_project(
            "bad_pkg",
            purity_policies=(
                PurityPolicy(zone="bad_pkg.serving_zone", forbidden=("numpy",)),
            ),
        )
        (finding,) = ImportPurityRule().check(project)
        assert finding.path.endswith("serving_zone/plot.py")
        assert finding.line == 5
        assert finding.message.endswith(
            "forbidden module numpy via bad_pkg.serving_zone.plot -> numpy"
        )

    def test_clean_zone_passes(self):
        project = make_project(
            "clean_pkg",
            purity_policies=(
                PurityPolicy(zone="clean_pkg.pure", forbidden=("clean_pkg.engine",)),
            ),
        )
        assert list(ImportPurityRule().check(project)) == []


class TestRP02OraclePairing:
    def make(self, *roots):
        return make_project(*roots, tests_root=FIXTURES / "corpus")

    def test_bad_kernels(self):
        findings = list(OraclePairingRule().check(self.make("bad_pkg/kernels.py")))
        by_line = {f.line: f for f in findings}
        assert set(by_line) == {6, 10, 16}
        assert "never reads it" in by_line[6].message  # dead_oracle
        assert "no equivalence test references unverified" in by_line[10].message
        assert "missing_oracle(), which is not defined" in by_line[16].message

    def test_clean_pairings_pass(self):
        assert list(OraclePairingRule().check(self.make("clean_pkg"))) == []


class TestRP03Nondeterminism:
    def test_every_violation_flagged_with_anchor(self):
        findings = list(NondeterminismRule().check(make_project("bad_pkg/rng.py")))
        by_line = {f.line: f for f in findings}
        assert set(by_line) == {11, 15, 19, 23, 27}
        assert "legacy global numpy RNG" in by_line[11].message
        assert "np.random.default_rng() constructed without a seed" in by_line[15].message
        assert "stdlib random.random()" in by_line[19].message
        assert "time.time() reads the wall clock" in by_line[23].message
        assert "datetime.now() reads the wall clock" in by_line[27].message

    def test_clean_module_passes(self):
        assert list(NondeterminismRule().check(make_project("clean_pkg"))) == []


class TestRP04SchemaVersion:
    def make(self, golden_path, update_golden=False):
        return make_project(
            "bad_pkg/schema_mod.py",
            schema_targets=(SCHEMA_TARGET,),
            golden_path=golden_path,
            update_golden=update_golden,
        )

    def test_extract_schema_shapes(self):
        project = self.make(None)
        extracted = extract_schema(project.modules["bad_pkg.schema_mod"], SCHEMA_TARGET)
        assert extracted["version"] == 1
        assert extracted["version_line"] == 5
        assert extracted["shapes"] == {
            "LAYOUT": ["alpha", "beta"],
            "Record": ["name: str", "value: float"],
        }

    def test_wildcard_selects_all_dataclasses(self):
        project = self.make(None)
        target = SchemaTarget(
            module="bad_pkg.schema_mod",
            version_constant="RECORD_SCHEMA_VERSION",
            dataclasses=("*",),
        )
        extracted = extract_schema(project.modules["bad_pkg.schema_mod"], target)
        assert "Record" in extracted["shapes"]

    def test_matching_golden_passes(self, tmp_path):
        golden = tmp_path / "golden.json"
        write_golden(self.make(golden))
        assert list(SchemaVersionRule().check(self.make(golden))) == []

    def test_shape_drift_without_bump(self, tmp_path):
        golden = tmp_path / "golden.json"
        project = self.make(golden)
        write_golden(project)
        payload = json.loads(golden.read_text())
        payload["bad_pkg.schema_mod"]["shapes"]["Record"] = ["name: str"]
        golden.write_text(json.dumps(payload))
        (finding,) = SchemaVersionRule().check(self.make(golden))
        assert finding.line == 5  # the version-constant line
        assert "changed without a RECORD_SCHEMA_VERSION bump" in finding.message
        assert "value: float" in finding.message

    def test_stale_golden_after_bump(self, tmp_path):
        golden = tmp_path / "golden.json"
        write_golden(self.make(golden))
        payload = json.loads(golden.read_text())
        payload["bad_pkg.schema_mod"]["version"] = 0
        golden.write_text(json.dumps(payload))
        (finding,) = SchemaVersionRule().check(self.make(golden))
        assert "golden file is stale" in finding.message

    def test_missing_golden(self, tmp_path):
        (finding,) = SchemaVersionRule().check(self.make(tmp_path / "absent.json"))
        assert "no golden schema recorded" in finding.message
        assert "--update-golden" in finding.hint

    def test_update_golden_writes_and_reports_nothing(self, tmp_path):
        golden = tmp_path / "fresh.json"
        assert list(SchemaVersionRule().check(self.make(golden, update_golden=True))) == []
        assert golden.exists()


class TestRP06StrictJson:
    def test_unproven_dumps_flagged(self):
        findings = list(StrictJsonRule().check(make_project("bad_pkg/emit.py")))
        by_line = {f.line: f for f in findings}
        assert set(by_line) == {7, 11, 15}
        assert "omits allow_nan=False" in by_line[7].message
        assert "not the literal False" in by_line[11].message
        assert "**kwargs" in by_line[15].message

    def test_strict_call_passes(self):
        findings = list(StrictJsonRule().check(make_project("bad_pkg/emit.py")))
        assert 19 not in {f.line for f in findings}


class TestCleanPackageFullBattery:
    def test_zero_findings(self):
        project = make_project(
            "clean_pkg",
            purity_policies=(
                PurityPolicy(zone="clean_pkg.pure", forbidden=("clean_pkg.engine",)),
            ),
            tests_root=FIXTURES / "corpus",
        )
        findings, stats = run_rules(project, rules_by_id(None))
        assert findings == []
        assert stats.files == 5


class TestCli:
    def test_exit_zero_on_real_src(self):
        result = lint_cli("src")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "0 finding(s)" in result.stderr

    def test_json_findings_on_fixtures(self):
        result = lint_cli(
            "tests/lint_fixtures/bad_pkg/rng.py", "--rule", "RP03", "--format", "json"
        )
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["stats"]["rules"] == ["RP03"]
        assert set(payload["stats"]) == {"files", "rules", "findings", "pragmas"}
        assert len(payload["findings"]) == 5
        first = payload["findings"][0]
        assert first["rule"] == "RP03"
        assert first["path"].endswith("rng.py")
        assert first["line"] == 11

    @pytest.mark.parametrize(
        "flag, value",
        [("--write-baseline", "F"), ("--baseline", "F"), ("--purity-zone", "a:b")],
    )
    def test_removed_flags_are_usage_errors(self, flag, value):
        """No baseline file and no RP01 zone override: the battery runs
        as configured in ``default_config``."""
        result = lint_cli(flag, value)
        assert result.returncode == 2
        assert f"unrecognized arguments: {flag}" in result.stderr

    def test_unknown_rule_is_usage_error(self):
        assert lint_cli("src", "--rule", "RP99").returncode == 2

    def test_missing_path_is_usage_error(self):
        assert lint_cli("no/such/dir").returncode == 2

    def test_list_rules(self):
        result = lint_cli("--list-rules")
        assert result.returncode == 0
        for rule_id in ("RP01", "RP02", "RP03", "RP04", "RP06"):
            assert rule_id in result.stdout


class TestPurityAgreement:
    """RP01 (static closure) and ``--assert-pure`` (runtime probe) agree.

    The static check proves no code path can import a search-time
    module; the runtime probe proves none actually loaded.  Both feed
    off :data:`repro.serving.cli.FORBIDDEN_MODULES`, and the runtime
    import set must be a subset of the static closure — otherwise the
    closure is missing edges and its purity proof is worthless.
    """

    @staticmethod
    def _matches(module, prefixes):
        return any(
            module == p or module.startswith(p + ".") for p in prefixes
        )

    def test_static_closure_contains_runtime_imports_and_both_are_clean(self):
        config = default_config(ROOT)
        project = Project([ROOT / "src"], config)
        zone = sorted(
            m
            for m in project.modules
            if m == "repro.serving" or m.startswith("repro.serving.")
        )
        assert zone, "serving zone not found in src scan"
        closure = set(project.closure(zone))
        dirty = [m for m in closure if self._matches(m, FORBIDDEN_MODULES)]
        assert dirty == [], f"static closure reaches forbidden modules: {dirty}"

        script = (
            "import importlib, json, sys\n"
            "zone = json.loads(sys.argv[1])\n"
            "for module in zone:\n"
            "    importlib.import_module(module)\n"
            "from repro.serving.cli import forbidden_loaded\n"
            "loaded = sorted(n for n in sys.modules\n"
            "                if n == 'repro' or n.startswith('repro.'))\n"
            "print(json.dumps({'forbidden': forbidden_loaded(), 'loaded': loaded}))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        result = subprocess.run(
            [sys.executable, "-c", script, json.dumps(zone)],
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        assert payload["forbidden"] == []
        runtime_only = sorted(set(payload["loaded"]) - closure)
        assert runtime_only == [], (
            "runtime imported modules the static closure missed: "
            f"{runtime_only}"
        )
