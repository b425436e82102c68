"""Tests for the :mod:`repro.lint` engine: scanning, pragmas, graph, runner."""

from pathlib import Path

import pytest

from repro.lint.config import LintConfig
from repro.lint.engine import Finding, Project, _parse_pragmas, run_rules
from repro.lint.rules import ALL_RULES, rules_by_id
from repro.lint.rules.rp03_nondeterminism import NondeterminismRule

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


def make_project(*roots, **config_kwargs):
    return Project([FIXTURES / root for root in roots], LintConfig(**config_kwargs))


class TestScanning:
    def test_module_names_from_package_structure(self):
        project = make_project("bad_pkg")
        assert "bad_pkg" in project.modules
        assert "bad_pkg.middle" in project.modules
        assert "bad_pkg.serving_zone.query" in project.modules
        assert "bad_pkg.search_zone.trainer" in project.modules
        assert project.modules["bad_pkg"].is_package

    def test_single_file_root(self):
        project = make_project("bad_pkg/rng.py")
        assert list(project.modules) == ["bad_pkg.rng"]

    def test_broken_file_surfaces_as_rp00(self):
        project = make_project("broken")
        assert len(project.broken) == 1
        finding = project.broken[0]
        assert finding.rule == "RP00"
        assert finding.path.endswith("not_python.py")
        assert "does not parse" in finding.message
        findings, _ = run_rules(project, rules=[])
        assert finding in findings


class TestPragmas:
    def test_parse_allow_with_reason(self):
        pragmas = _parse_pragmas("x = 1  # lint: allow(RP03, RP06) -- because\n")
        assert len(pragmas) == 1
        assert pragmas[0].verb == "allow"
        assert pragmas[0].args == ("RP03", "RP06")
        assert pragmas[0].reason == "because"
        assert pragmas[0].line == 1

    def test_parse_oracle_pair(self):
        pragmas = _parse_pragmas("def f():  # lint: oracle-pair(slow_f)\n    pass\n")
        assert pragmas[0].verb == "oracle-pair"
        assert pragmas[0].args == ("slow_f",)
        assert pragmas[0].reason is None

    def test_pragma_only_in_real_comments(self):
        # A pragma-looking substring inside a string literal is not a pragma.
        pragmas = _parse_pragmas('text = "# lint: allow(RP03)"\n')
        assert pragmas == []



class TestImportGraph:
    def test_relative_import_resolved(self):
        project = make_project("clean_pkg")
        edges = project.edges["clean_pkg.pure"]
        assert any(e.target == "clean_pkg.pure.api" for e in edges)

    def test_from_import_of_submodule_adds_precise_edge(self):
        project = make_project("bad_pkg")
        edges = project.edges["bad_pkg.middle"]
        assert any(e.target == "bad_pkg.search_zone.trainer" for e in edges)

    def test_expand_target_includes_ancestor_packages(self):
        project = make_project("bad_pkg")
        expanded = project.expand_target("bad_pkg.search_zone.trainer")
        assert expanded == ["bad_pkg", "bad_pkg.search_zone", "bad_pkg.search_zone.trainer"]

    def test_closure_and_chain(self):
        project = make_project("bad_pkg")
        closure = project.closure(["bad_pkg.serving_zone", "bad_pkg.serving_zone.query"])
        assert "bad_pkg.search_zone.trainer" in closure
        chain = project.chain(closure, "bad_pkg.search_zone.trainer")
        assert chain == [
            "bad_pkg.serving_zone.query",
            "bad_pkg.middle",
            "bad_pkg.search_zone.trainer",
        ]

    def test_imports_outside_the_project_are_leaf_roots(self, tmp_path):
        (tmp_path / "mod_a.py").write_text(
            "import json\n"
            "from numpy.linalg import norm\n"
            "import mod_b\n",
            encoding="utf-8",
        )
        (tmp_path / "mod_b.py").write_text(
            "def late():\n    import scipy.sparse\n", encoding="utf-8"
        )
        project = Project([tmp_path], LintConfig())
        closure = project.closure(["mod_a"])
        assert set(closure) == {"mod_a", "mod_b", "json", "numpy", "scipy"}
        assert closure["numpy"] == ("mod_a", 2, "mod_a")
        assert project.chain(closure, "scipy") == ["mod_a", "mod_b", "scipy"]

    def test_type_checking_imports_excluded(self, tmp_path):
        (tmp_path / "mod_a.py").write_text(
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    import mod_b\n",
            encoding="utf-8",
        )
        (tmp_path / "mod_b.py").write_text("VALUE = 1\n", encoding="utf-8")
        project = Project([tmp_path], LintConfig())
        closure = project.closure(["mod_a"])
        assert "mod_b" not in closure
        closure = project.closure(["mod_a"], include_type_checking=True)
        assert "mod_b" in closure

    def test_function_level_imports_included(self, tmp_path):
        (tmp_path / "mod_a.py").write_text(
            "def late():\n    import mod_b\n    return mod_b\n", encoding="utf-8"
        )
        (tmp_path / "mod_b.py").write_text("VALUE = 1\n", encoding="utf-8")
        project = Project([tmp_path], LintConfig())
        edges = project.edges["mod_a"]
        assert edges and edges[0].function_level
        assert "mod_b" in project.closure(["mod_a"])


class TestFinding:
    def test_format_text_and_hint(self):
        finding = Finding("RP03", "src/x.py", 4, 2, "bad", hint="fix it")
        assert finding.format_text() == "src/x.py:4:2: RP03 error: bad  [hint: fix it]"

    def test_to_dict_omits_missing_hint(self):
        payload = Finding("RP06", "a.py", 1, 0, "msg").to_dict()
        assert payload["rule"] == "RP06"
        assert "hint" not in payload


class TestRunRules:
    def test_leftover_allow_reports_its_finding_and_rp00(self):
        """A justified ``allow`` pragma suppresses nothing: the RP03
        finding it sits on is reported, next to an RP00 unknown-verb
        finding for the pragma itself."""
        project = make_project("bad_pkg/leftover_allow.py")
        findings, stats = run_rules(project, rules=[NondeterminismRule()])
        assert [(f.rule, f.line) for f in findings] == [("RP00", 8), ("RP03", 8)]
        assert "unknown lint pragma verb 'allow'" in findings[0].message
        assert findings[0].hint == "expected one of oracle-pair"
        assert stats.pragmas == 1
        assert not hasattr(stats, "suppressed")

    def test_pragma_discipline_findings(self):
        project = make_project("bad_pkg/pragmas.py")
        findings, stats = run_rules(project, rules=[])
        by_line = {f.line: f for f in findings}
        assert all(f.rule == "RP00" for f in findings)
        assert "unknown lint pragma verb 'allow'" in by_line[7].message
        assert "unknown lint pragma verb 'frobnicate'" in by_line[11].message
        assert "unknown lint pragma verb 'allow'" in by_line[15].message

    def test_no_pragma_suppresses_a_finding(self):
        project = make_project("bad_pkg/pragmas.py")
        findings, stats = run_rules(project, rules=[NondeterminismRule()])
        assert any(f.rule == "RP03" and f.line == 7 for f in findings)
        assert any(f.rule == "RP00" and f.line == 7 for f in findings)
        assert stats.pragmas == 3

    def test_baseline_is_gone(self):
        project = make_project("bad_pkg/rng.py")
        with pytest.raises(TypeError, match="baseline"):
            run_rules(project, rules=[NondeterminismRule()], baseline=set())
        findings, _ = run_rules(project, rules=[NondeterminismRule()])
        assert len(findings) == 5
        assert not hasattr(findings[0], "fingerprint")

    def test_findings_sorted_by_location(self):
        project = make_project("bad_pkg")
        findings, _ = run_rules(project, rules=[NondeterminismRule()])
        keys = [(f.path, f.line, f.col, f.rule) for f in findings]
        assert keys == sorted(keys)


class TestRuleRegistry:
    def test_all_rules_have_unique_ids(self):
        ids = [rule.id for rule in ALL_RULES]
        assert len(ids) == len(set(ids)) == 5

    def test_rules_by_id_selects(self):
        (rule,) = rules_by_id(["RP03"])
        assert rule.id == "RP03"

    def test_rules_by_id_rejects_unknown(self):
        with pytest.raises(ValueError):
            rules_by_id(["RP99"])

    def test_rules_by_id_none_returns_full_battery(self):
        assert [r.id for r in rules_by_id(None)] == [r.id for r in ALL_RULES]
