"""The repository-specific rule battery for :mod:`repro.lint`.

Each rule lives in its own module and subclasses
:class:`repro.lint.engine.Rule`.  To add a rule: create
``rules/rpNN_<slug>.py`` with a ``Rule`` subclass, append it to
:data:`ALL_RULES` here, cover it with fixture packages under ``tests/lint_fixtures``
and document it in ``docs/static_analysis.md``.
"""

from repro.lint.rules.rp01_import_purity import ImportPurityRule
from repro.lint.rules.rp02_oracle_pairing import OraclePairingRule
from repro.lint.rules.rp03_nondeterminism import NondeterminismRule
from repro.lint.rules.rp04_schema_version import SchemaVersionRule
from repro.lint.rules.rp06_strict_json import StrictJsonRule

__all__ = [
    "ALL_RULES",
    "ImportPurityRule",
    "NondeterminismRule",
    "OraclePairingRule",
    "SchemaVersionRule",
    "StrictJsonRule",
    "rules_by_id",
]

#: Every registered rule class, in id order.
ALL_RULES = (
    ImportPurityRule,
    OraclePairingRule,
    NondeterminismRule,
    SchemaVersionRule,
    StrictJsonRule,
)


def rules_by_id(ids=None):
    """Instantiate the battery, optionally filtered to ``ids``."""
    rules = [rule_cls() for rule_cls in ALL_RULES]
    if ids is None:
        return rules
    wanted = {rule_id.upper() for rule_id in ids}
    unknown = wanted - {rule.id for rule in rules}
    if unknown:
        raise ValueError(f"unknown rule id(s): {sorted(unknown)}")
    return [rule for rule in rules if rule.id in wanted]
