"""Rule configuration for :mod:`repro.lint`.

The engine itself is repository-agnostic; everything repo-specific —
which packages form the pure query-time zones, which modules carry
version-stamped persisted schemas, where the test corpus lives — is
declared here as data.  :func:`default_config` builds the configuration
for *this* repository; the lint fixture tests build small synthetic
configs over ``tests/lint_fixtures`` instead.

The serving purity policy is **imported from**
:data:`repro.serving.cli.FORBIDDEN_MODULES` rather than duplicated:
the static RP01 closure check and the runtime ``--assert-pure`` probe
share one source of truth, so they cannot drift apart (a unit test
asserts they agree on the live import graph as well).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Tuple

__all__ = [
    "LintConfig",
    "PurityPolicy",
    "SchemaTarget",
    "default_config",
    "eda_forbidden_modules",
]


@dataclass(frozen=True)
class PurityPolicy:
    """One pure zone and the module prefixes it must never reach."""

    #: Dotted package prefix of the zone (e.g. ``"repro.serving"``).
    zone: str
    #: Module prefixes the zone's import closure must not contain.
    forbidden: Tuple[str, ...]


@dataclass(frozen=True)
class SchemaTarget:
    """One module whose persisted shapes are pinned to a golden file.

    ``dataclasses`` lists class names whose field lists (name plus
    annotation) are part of the persisted shape; the single wildcard
    ``"*"`` means every ``@dataclass``-decorated class in the module.
    ``constants`` lists module-level ``NAME`` or class-level
    ``Class.ATTR`` tuples/lists of strings that describe persisted
    layout (e.g. the cache's ``_PERSISTED_SECTIONS``).
    """

    module: str
    version_constant: str
    dataclasses: Tuple[str, ...] = ()
    constants: Tuple[str, ...] = ()


@dataclass
class LintConfig:
    """Everything the rule battery needs beyond the source tree."""

    #: Import-purity zones (RP01).
    purity_policies: Tuple[PurityPolicy, ...] = ()
    #: Directory scanned for equivalence-test references (RP02).
    tests_root: Optional[Path] = None
    #: Version-stamped schema modules (RP04).
    schema_targets: Tuple[SchemaTarget, ...] = ()
    #: Golden shape file RP04 diffs against.
    golden_path: Optional[Path] = None
    #: When true, RP04 rewrites the golden file instead of diffing.
    update_golden: bool = False
    #: ``numpy.random`` constructors that are fine *when seeded* (RP03).
    seeded_constructors: Tuple[str, ...] = (
        "default_rng",
        "SeedSequence",
        "Generator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    )


def eda_forbidden_modules(serving_forbidden: Tuple[str, ...]) -> Tuple[str, ...]:
    """Forbidden prefixes for the ``repro.eda`` query-time zone.

    The EDA cross-check flow reads *published* stores, so it shares the
    serving layer's forbidden list except that (a) it obviously may
    import itself, (b) it may parse stored RTL text through the pure
    :mod:`repro.rtl.vectors` helpers — the generator half of ``repro.rtl``
    stays forbidden transitively because it imports the search-time
    model stack (``repro.approx``) — and (c) it may import numpy, which
    :mod:`repro.eda.microverilog` simulates with.
    """
    allowed = {"repro.eda", "repro.rtl", "numpy"}
    forbidden = tuple(m for m in serving_forbidden if m not in allowed)
    # Generator modules remain explicitly off-limits even if their
    # transitive approx dependency is someday removed: emitting new RTL
    # is a search-time activity.
    return forbidden + ("repro.rtl.verilog", "repro.rtl.testbench")


def default_config(repo_root: Optional[Path] = None) -> LintConfig:
    """The rule configuration for this repository."""
    root = Path(repo_root) if repo_root is not None else Path.cwd()
    # Single source of truth shared with the runtime purity probe.
    from repro.serving.cli import FORBIDDEN_MODULES

    return LintConfig(
        purity_policies=(
            PurityPolicy(zone="repro.serving", forbidden=tuple(FORBIDDEN_MODULES)),
            PurityPolicy(
                zone="repro.eda",
                forbidden=eda_forbidden_modules(tuple(FORBIDDEN_MODULES)),
            ),
        ),
        tests_root=root / "tests",
        schema_targets=(
            SchemaTarget(
                module="repro.serving.store",
                version_constant="STORE_SCHEMA_VERSION",
                dataclasses=("*",),
            ),
            SchemaTarget(
                module="repro.core.cache",
                version_constant="CACHE_FORMAT_VERSION",
                constants=("EvaluationCache._PERSISTED_SECTIONS",),
            ),
            SchemaTarget(
                module="repro.evaluation.artifacts",
                version_constant="ARTIFACT_SCHEMA_VERSION",
                dataclasses=("Artifact",),
            ),
        ),
        golden_path=root / "tests" / "golden" / "schema_versions.json",
    )
