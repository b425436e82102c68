"""``python -m repro.lint`` — run the invariant battery from the shell.

Usage::

    python -m repro.lint [PATHS...] [options]

    PATHS                       roots to scan (default: src)
    --rule RPxx                 run only these rules (repeatable)
    --format {text,json}        output format (default text)
    --update-golden             regenerate tests/golden/schema_versions.json
                                from the current tree (RP04's golden)
    --tests-root DIR            equivalence-test corpus for RP02
                                (default: tests)
    --golden FILE               golden shape file for RP04
    --list-rules                print the rule catalogue and exit

Exit codes: **0** no findings, **1** findings reported, **2** usage or
internal error.  ``--format json`` emits one object with ``findings``
(each carrying ``rule``/``path``/``line``/``col``/``severity``/
``message``/``hint``) plus run statistics — this is what the CI lint
job uploads as an artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.lint.config import LintConfig, default_config
from repro.lint.engine import Project, run_rules
from repro.lint.rules import ALL_RULES, rules_by_id

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-based invariant checker for this repository.",
    )
    parser.add_argument("paths", nargs="*", help="roots to scan (default: src)")
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="RPxx",
        help="run only these rule ids (repeatable)",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--update-golden", action="store_true")
    parser.add_argument("--tests-root", default=None, metavar="DIR")
    parser.add_argument("--golden", default=None, metavar="FILE")
    parser.add_argument("--list-rules", action="store_true")
    return parser


def _build_config(args: argparse.Namespace) -> LintConfig:
    config = default_config(Path.cwd())
    if args.tests_root is not None:
        config.tests_root = Path(args.tests_root)
    if args.golden is not None:
        config.golden_path = Path(args.golden)
    if args.update_golden:
        config.update_golden = True
    return config


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = _parser().parse_args(argv)

    if args.list_rules:
        for rule_cls in ALL_RULES:
            print(f"{rule_cls.id}  {rule_cls.title}")
        return 0

    try:
        config = _build_config(args)
        rules = rules_by_id(args.rule)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    paths: List[Path] = [Path(p) for p in (args.paths or ["src"])]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path(s): {missing}", file=sys.stderr)
        return 2

    findings, stats = run_rules(Project(paths, config), rules)

    if args.format == "json":
        payload = {
            "findings": [finding.to_dict() for finding in findings],
            "stats": {
                "files": stats.files,
                "rules": list(stats.rules),
                "findings": len(findings),
                "pragmas": stats.pragmas,
            },
        }
        json.dump(payload, sys.stdout, indent=2, allow_nan=False)
        sys.stdout.write("\n")
    else:
        for finding in findings:
            print(finding.format_text())
        print(
            f"[lint] {stats.files} files, {len(stats.rules)} rules: "
            f"{len(findings)} finding(s)",
            file=sys.stderr,
        )

    return 1 if findings else 0
