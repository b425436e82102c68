"""``repro.lint`` — AST-based invariant checker for this repository.

The codebase's correctness story rests on conventions that ordinary
test suites cannot enforce *at rest*: every vectorized kernel keeps a
bit-identical ``slow=True`` scalar oracle, query-time code never
imports search-time modules, persisted record shapes never change
without a schema-version bump, randomness flows through seeded
generators, and JSON output stays strict.  This package turns each
convention into a statically checkable rule:

========  ==========================================================
Rule id   Invariant
========  ==========================================================
RP00      Pragma discipline (``oracle-pair`` is the one verb)
RP01      Import purity (serving/eda reach no search-time module)
RP02      Oracle pairing (``slow=`` kernels keep a referenced oracle
          and an equivalence test)
RP03      Nondeterminism (no unseeded/legacy RNG, no wall clock)
RP04      Schema-version discipline (record shapes vs. golden files)
RP06      Strict-JSON safety (``json.dump(s)`` with
          ``allow_nan=False``)
========  ==========================================================

Run it with ``python -m repro.lint`` (see :mod:`repro.lint.cli`), or
programmatically::

    >>> from repro.lint import Project, default_config, run_rules
    >>> project = Project(["src"], default_config())
    >>> findings, stats = run_rules(project)

See ``docs/static_analysis.md`` for the rule catalogue, the
``oracle-pair`` pragma and how to add a new rule.
"""

from repro.lint.config import LintConfig, PurityPolicy, SchemaTarget, default_config
from repro.lint.engine import (
    Finding,
    ImportEdge,
    Pragma,
    Project,
    Rule,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    SourceFile,
    run_rules,
)
from repro.lint.rules import ALL_RULES, rules_by_id

__all__ = [
    "ALL_RULES",
    "Finding",
    "ImportEdge",
    "LintConfig",
    "Pragma",
    "Project",
    "PurityPolicy",
    "Rule",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "SchemaTarget",
    "SourceFile",
    "default_config",
    "run_rules",
    "rules_by_id",
]
