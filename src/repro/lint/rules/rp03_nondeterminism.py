"""RP03 — nondeterminism: randomness and wall clock must be explicit.

The GA's determinism guarantee (fixed seed ⇒ bit-identical front) and
the cache's process-stable keys only hold if every random draw flows
through a seeded :class:`numpy.random.Generator` passed explicitly, and
no library code reads the wall clock into computed values.  The rule flags, in library
code:

* legacy/module-level numpy RNG calls (``np.random.rand``,
  ``np.random.seed``, ``np.random.shuffle``, ...) — these mutate hidden
  global state;
* **unseeded** generator construction — ``np.random.default_rng()``,
  ``SeedSequence()``, ``PCG64()`` etc. with no arguments (seeded
  construction is the sanctioned idiom and passes);
* any stdlib :mod:`random` call (module-level global state);
* wall-clock reads: ``time.time()``, ``datetime.now()``,
  ``datetime.utcnow()``, ``date.today()``.  (``time.perf_counter`` and
  ``time.monotonic`` are fine — durations, not timestamps.)

No pragma exempts a call: a legitimate wall-clock use would need the
rule itself to change.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.engine import Finding, Project, Rule, SourceFile

__all__ = ["NondeterminismRule"]

_WALL_CLOCK_ATTRS = {"now", "utcnow", "today"}


class NondeterminismRule(Rule):
    id = "RP03"
    title = "nondeterminism (unseeded RNG / wall clock in library code)"

    def check(self, project: Project) -> Iterator[Finding]:
        seeded = set(project.config.seeded_constructors)
        for source in project.files:
            aliases = _ImportAliases(source)
            for node in ast.walk(source.tree):
                if not isinstance(node, ast.Call):
                    continue
                finding = self._check_call(source, node, aliases, seeded)
                if finding is not None:
                    yield finding

    def _check_call(
        self,
        source: SourceFile,
        node: ast.Call,
        aliases: "_ImportAliases",
        seeded: Set[str],
    ) -> Optional[Finding]:
        chain = _attribute_chain(node.func)
        if chain is None:
            # Bare-name call: names imported from random/time/datetime.
            if isinstance(node.func, ast.Name):
                origin = aliases.from_imports.get(node.func.id)
                if origin == "numpy.random":
                    return self._check_numpy_random(
                        source, node, aliases.original_name(node.func.id), seeded
                    )
                if origin == "random":
                    return self._finding(
                        source,
                        node,
                        f"stdlib random.{aliases.original_name(node.func.id)}() "
                        "draws from hidden global state",
                        hint="thread a seeded np.random.Generator through instead",
                    )
                if origin == "time" and aliases.original_name(node.func.id) == "time":
                    return self._finding(
                        source,
                        node,
                        "time.time() reads the wall clock in library code",
                        hint="use time.perf_counter() for durations, or pass "
                        "timestamps in explicitly",
                    )
                if origin == "datetime" and aliases.original_name(node.func.id) in (
                    "datetime",
                    "date",
                ):
                    # Constructor calls like datetime(2024, 1, 1) are fine.
                    return None
            return None

        root, rest = chain[0], chain[1:]

        # numpy.random.*
        if root in aliases.numpy_aliases and rest[:1] == ("random",) and len(rest) == 2:
            fn = rest[1]
            return self._check_numpy_random(source, node, fn, seeded)
        # ``from numpy import random as npr`` → npr.<fn>
        if root in aliases.numpy_random_aliases and len(rest) == 1:
            return self._check_numpy_random(source, node, rest[0], seeded)

        # stdlib random module
        if root in aliases.random_aliases and len(rest) == 1:
            return self._finding(
                source,
                node,
                f"stdlib random.{rest[0]}() draws from hidden global state",
                hint="thread a seeded np.random.Generator through instead",
            )

        # wall clock
        if root in aliases.time_aliases and rest == ("time",):
            return self._finding(
                source,
                node,
                "time.time() reads the wall clock in library code",
                hint="use time.perf_counter() for durations, or pass "
                "timestamps in explicitly",
            )
        if rest and rest[-1] in _WALL_CLOCK_ATTRS:
            if root in aliases.datetime_aliases or (
                aliases.from_imports.get(root) == "datetime"
            ):
                return self._finding(
                    source,
                    node,
                    f"{'.'.join(chain)}() reads the wall clock in library code",
                    hint="pass timestamps in explicitly",
                )
        return None

    def _check_numpy_random(
        self, source: SourceFile, node: ast.Call, fn: str, seeded: Set[str]
    ) -> Optional[Finding]:
        if fn in seeded:
            if node.args or node.keywords:
                return None
            return self._finding(
                source,
                node,
                f"np.random.{fn}() constructed without a seed",
                hint="pass an explicit seed (or an existing Generator/"
                "SeedSequence) so results are reproducible",
            )
        return self._finding(
            source,
            node,
            f"np.random.{fn}() uses the legacy global numpy RNG",
            hint="use a seeded np.random.Generator passed explicitly",
        )

    def _finding(
        self, source: SourceFile, node: ast.AST, message: str, hint: str = None
    ) -> Finding:
        return Finding(
            rule=self.id,
            path=source.relpath,
            line=node.lineno,
            col=node.col_offset,
            message=message,
            hint=hint,
        )


def _attribute_chain(func: ast.expr) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` → ``("a", "b", "c")``; None for non-dotted callables."""
    parts: List[str] = []
    current = func
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name) and parts:
        parts.append(current.id)
        return tuple(reversed(parts))
    return None


class _ImportAliases:
    """Per-file alias tables for numpy / random / time / datetime."""

    def __init__(self, source: SourceFile) -> None:
        self.numpy_aliases: Set[str] = set()
        self.numpy_random_aliases: Set[str] = set()
        self.random_aliases: Set[str] = set()
        self.time_aliases: Set[str] = set()
        self.datetime_aliases: Set[str] = set()
        #: local name -> origin module, for ``from X import y [as z]``.
        self.from_imports: Dict[str, str] = {}
        #: local name -> original imported name.
        self._original: Dict[str, str] = {}
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    if alias.name == "numpy":
                        self.numpy_aliases.add(local)
                    elif alias.name == "numpy.random":
                        # ``import numpy.random as npr``
                        if alias.asname:
                            self.numpy_random_aliases.add(local)
                        else:
                            self.numpy_aliases.add(local)
                    elif alias.name == "random":
                        self.random_aliases.add(local)
                    elif alias.name == "time":
                        self.time_aliases.add(local)
                    elif alias.name == "datetime":
                        self.datetime_aliases.add(local)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module == "numpy" and alias.name == "random":
                        self.numpy_random_aliases.add(local)
                    elif node.module in ("random", "time", "datetime"):
                        self.from_imports[local] = node.module
                        self._original[local] = alias.name
                    elif node.module == "numpy.random":
                        # ``from numpy.random import default_rng`` — treat
                        # the bare name as the numpy.random function.
                        self.from_imports[local] = "numpy.random"
                        self._original[local] = alias.name

    def original_name(self, local: str) -> str:
        return self._original.get(local, local)
