"""Reusable AST-walking rule engine behind ``python -m repro.lint``.

The engine owns everything the rules share:

* **Project scanning** — every ``*.py`` under the requested roots is
  parsed once into a :class:`SourceFile` (text, AST, dotted module
  name, pragmas), collected into a :class:`Project` with a shared
  module table and import graph.
* **Import table** — per-module :class:`ImportEdge` records (target,
  line, whether the import is function-level or ``TYPE_CHECKING``-
  guarded), with relative imports resolved and ``from pkg import mod``
  normalized to the submodule it actually loads.  :meth:`Project.closure`
  computes the transitive import closure the purity rule reasons over;
  an import from outside the project (``numpy``, ``json``) enters it as
  its top-level name, a leaf with no edges of its own.
* **Findings** — :class:`Finding` records carry rule id, severity,
  ``file:line:col`` anchors, a message and a fix hint; they format as
  text or JSON.
* **Pragmas** — ``# lint: oracle-pair(name)`` registers an
  out-of-band oracle pairing for RP02.  It is the one pragma verb: no
  comment suppresses a finding, and any other verb is itself a finding
  (RP00).

Rules subclass :class:`Rule` and implement ``check(project)``;
:func:`run_rules` runs a battery and appends the RP00
pragma-discipline findings.
"""

from __future__ import annotations

import ast
import io
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.lint.config import LintConfig

__all__ = [
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "Finding",
    "ImportEdge",
    "Pragma",
    "Project",
    "Rule",
    "SourceFile",
    "run_rules",
]

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

_PRAGMA_VERBS = ("oracle-pair",)


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to ``path:line:col``."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: str = SEVERITY_ERROR
    hint: Optional[str] = None

    def format_text(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.severity}: {self.message}"
        if self.hint:
            text += f"  [hint: {self.hint}]"
        return text

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity,
            "message": self.message,
        }
        if self.hint:
            payload["hint"] = self.hint
        return payload


@dataclass(frozen=True)
class Pragma:
    """One parsed ``# lint: verb(args) -- reason`` comment."""

    verb: str
    args: Tuple[str, ...]
    reason: Optional[str]
    line: int


@dataclass(frozen=True)
class ImportEdge:
    """One import statement edge out of a module."""

    target: str
    line: int
    function_level: bool = False
    type_checking: bool = False


class SourceFile:
    """One parsed python file plus its pragma table."""

    def __init__(self, path: Path, relpath: str, module: str, text: str) -> None:
        self.path = path
        self.relpath = relpath
        self.module = module
        self.text = text
        self.tree = ast.parse(text, filename=relpath)
        self.pragmas: List[Pragma] = _parse_pragmas(text)
        self.parse_error: Optional[str] = None

    def oracle_pair_pragmas(self) -> List[Pragma]:
        return [p for p in self.pragmas if p.verb == "oracle-pair"]

    @property
    def is_package(self) -> bool:
        return self.path.name == "__init__.py"


def _parse_pragmas(text: str) -> List[Pragma]:
    """Extract ``# lint:`` pragmas from real comment tokens only."""
    pragmas: List[Pragma] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        comments = [
            (tok.start[0], tok.string) for tok in tokens if tok.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, SyntaxError, IndentationError):
        comments = []
    for line, comment in comments:
        body = comment.lstrip("#").strip()
        if not body.startswith("lint:"):
            continue
        spec = body[len("lint:") :].strip()
        reason: Optional[str] = None
        if "--" in spec:
            spec, _, reason_text = spec.partition("--")
            spec = spec.strip()
            reason = reason_text.strip() or None
        verb, _, arg_text = spec.partition("(")
        verb = verb.strip()
        args = tuple(
            a.strip() for a in arg_text.rstrip(")").split(",") if a.strip()
        )
        pragmas.append(Pragma(verb=verb, args=args, reason=reason, line=line))
    return pragmas


class _ImportVisitor(ast.NodeVisitor):
    """Collect import edges with function-level / TYPE_CHECKING context."""

    def __init__(self, source: SourceFile, known_modules: Set[str]) -> None:
        self.source = source
        self.known_modules = known_modules
        self.edges: List[ImportEdge] = []
        self._function_depth = 0
        self._type_checking_depth = 0

    # -- context tracking ----------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_If(self, node: ast.If) -> None:
        if _is_type_checking_test(node.test):
            self._type_checking_depth += 1
            for child in node.body:
                self.visit(child)
            self._type_checking_depth -= 1
            for child in node.orelse:
                self.visit(child)
            return
        self.generic_visit(node)

    def _add(self, target: str, line: int) -> None:
        self.edges.append(
            ImportEdge(
                target=target,
                line=line,
                function_level=self._function_depth > 0,
                type_checking=self._type_checking_depth > 0,
            )
        )

    # -- import statements ----------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._add(alias.name, node.lineno)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = self._resolve_base(node)
        if base is None:
            return
        self._add(base, node.lineno)
        # ``from pkg import mod`` imports the submodule itself; record
        # that precise edge whenever the name resolves to a known module.
        for alias in node.names:
            candidate = f"{base}.{alias.name}" if base else alias.name
            if candidate in self.known_modules:
                self._add(candidate, node.lineno)

    def _resolve_base(self, node: ast.ImportFrom) -> Optional[str]:
        if node.level == 0:
            return node.module
        parts = self.source.module.split(".")
        if not self.source.is_package:
            parts = parts[:-1]
        drop = node.level - 1
        if drop > len(parts):
            return None
        if drop:
            parts = parts[:-drop]
        if node.module:
            parts = parts + node.module.split(".")
        return ".".join(parts) if parts else None


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


class Project:
    """A scanned source tree: files, module table, import graph, tests.

    Parameters
    ----------
    roots:
        Directories (or single files) to scan for ``*.py``.  A file's
        dotted module name is computed from the nearest ancestor that is
        *not* a package (no ``__init__.py``), so both ``src/repro/...``
        and fixture trees resolve naturally.
    config:
        Shared rule configuration (:class:`repro.lint.config.LintConfig`).
    """

    def __init__(self, roots: Sequence[object], config: LintConfig) -> None:
        self.config = config
        self.roots = [Path(root) for root in roots]
        self.files: List[SourceFile] = []
        self.modules: Dict[str, SourceFile] = {}
        self.broken: List[Finding] = []
        self._edges: Optional[Dict[str, List[ImportEdge]]] = None
        self._test_texts: Optional[Dict[str, str]] = None
        self._scan()

    # -- scanning -------------------------------------------------------
    def _scan(self) -> None:
        seen: Set[Path] = set()
        for root in self.roots:
            if root.is_file():
                paths: Iterable[Path] = [root]
            else:
                paths = sorted(root.rglob("*.py"))
            for path in paths:
                path = path.resolve()
                if path in seen or "__pycache__" in path.parts:
                    continue
                seen.add(path)
                relpath = self._relpath(path)
                module = _module_name(path)
                try:
                    source = SourceFile(
                        path, relpath, module, path.read_text(encoding="utf-8")
                    )
                except (SyntaxError, UnicodeDecodeError) as exc:
                    self.broken.append(
                        Finding(
                            rule="RP00",
                            path=relpath,
                            line=getattr(exc, "lineno", 1) or 1,
                            col=0,
                            message=f"file does not parse: {exc}",
                        )
                    )
                    continue
                self.files.append(source)
                self.modules[module] = source

    def _relpath(self, path: Path) -> str:
        try:
            return path.relative_to(Path.cwd()).as_posix()
        except ValueError:
            return path.as_posix()

    # -- import graph ---------------------------------------------------
    @property
    def edges(self) -> Dict[str, List[ImportEdge]]:
        if self._edges is None:
            known = set(self.modules)
            self._edges = {}
            for source in self.files:
                visitor = _ImportVisitor(source, known)
                visitor.visit(source.tree)
                self._edges[source.module] = visitor.edges
        return self._edges

    def expand_target(self, target: str) -> List[str]:
        """Modules loaded by importing ``target``: itself + ancestor packages.

        Importing ``a.b.c`` executes ``a/__init__`` and ``a.b/__init__``
        too, so the closure must include every ancestor that is a scanned
        package — the PEP 562 lazy roots keep those cheap, but only the
        closure can prove they *stay* cheap.
        """
        expanded = []
        parts = target.split(".")
        for end in range(1, len(parts) + 1):
            candidate = ".".join(parts[:end])
            if candidate in self.modules:
                expanded.append(candidate)
        return expanded

    def closure(
        self,
        start_modules: Sequence[str],
        include_type_checking: bool = False,
    ) -> Dict[str, Tuple[str, int, Optional[str]]]:
        """Transitive import closure of ``start_modules``.

        Returns ``{module: (via_module, via_line, parent)}`` — for every
        reached module, the *first* import statement that pulled it in
        (the file/line to anchor a finding at) and the parent module in
        the chain (``None`` for the start set), so rules can reconstruct
        the full import chain for their messages.  An import whose
        top-level name is no scanned package (a third-party or stdlib
        module) is recorded by that top-level name as a leaf: its own
        imports are not scanned, but a policy can still forbid it.
        """
        project_roots = {module.partition(".")[0] for module in self.modules}
        reached: Dict[str, Tuple[str, int, Optional[str]]] = {}
        queue: List[str] = []
        for module in start_modules:
            if module in self.modules and module not in reached:
                reached[module] = (module, 0, None)
                queue.append(module)
        while queue:
            current = queue.pop()
            for edge in self.edges.get(current, ()):
                if edge.type_checking and not include_type_checking:
                    continue
                root = edge.target.partition(".")[0]
                if root in project_roots:
                    targets = self.expand_target(edge.target)
                else:
                    targets = [root]
                for target in targets:
                    if target not in reached:
                        reached[target] = (current, edge.line, current)
                        queue.append(target)
        return reached

    def chain(
        self, closure: Mapping[str, Tuple[str, int, Optional[str]]], module: str
    ) -> List[str]:
        """Reconstruct the import chain leading to ``module``."""
        chain = [module]
        seen = {module}
        while True:
            entry = closure.get(chain[-1])
            if entry is None or entry[2] is None or entry[2] in seen:
                break
            chain.append(entry[2])
            seen.add(entry[2])
        return list(reversed(chain))

    # -- test corpus (RP02) ----------------------------------------------
    def test_texts(self) -> Dict[str, str]:
        """``{relpath: text}`` of every ``*.py`` under ``config.tests_root``."""
        if self._test_texts is None:
            self._test_texts = {}
            root = self.config.tests_root
            if root is not None and Path(root).is_dir():
                for path in sorted(Path(root).rglob("*.py")):
                    if "__pycache__" in path.parts:
                        continue
                    try:
                        self._test_texts[self._relpath(path)] = path.read_text(
                            encoding="utf-8"
                        )
                    except UnicodeDecodeError:
                        continue
        return self._test_texts


class Rule:
    """Base class for lint rules; subclasses set ``id``/``title``."""

    id: str = "RP??"
    title: str = ""

    def check(self, project: Project) -> Iterator[Finding]:
        raise NotImplementedError


@dataclass
class RunStats:
    """Bookkeeping from one :func:`run_rules` pass."""

    files: int = 0
    rules: Tuple[str, ...] = ()
    pragmas: int = 0


def run_rules(
    project: Project, rules: Optional[Sequence[Rule]] = None
) -> Tuple[List[Finding], RunStats]:
    """Run ``rules`` over ``project``, append the RP00 pragma-discipline
    findings and sort the lot by location.  Every finding is reported:
    nothing suppresses one.
    """
    if rules is None:
        from repro.lint.rules import ALL_RULES

        rules = [rule_cls() for rule_cls in ALL_RULES]
    stats = RunStats(files=len(project.files), rules=tuple(r.id for r in rules))

    findings: List[Finding] = list(project.broken)
    for rule in rules:
        findings.extend(rule.check(project))
    findings.extend(_pragma_discipline(project, stats))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings, stats


def _pragma_discipline(project: Project, stats: RunStats) -> List[Finding]:
    """RP00: every pragma uses a known verb with well-formed arguments."""
    findings: List[Finding] = []
    for source in project.files:
        for pragma in source.pragmas:
            stats.pragmas += 1
            if pragma.verb not in _PRAGMA_VERBS:
                findings.append(
                    Finding(
                        rule="RP00",
                        path=source.relpath,
                        line=pragma.line,
                        col=0,
                        message=f"unknown lint pragma verb {pragma.verb!r}",
                        hint=f"expected one of {', '.join(_PRAGMA_VERBS)}",
                    )
                )
                continue
            if len(pragma.args) != 1:
                findings.append(
                    Finding(
                        rule="RP00",
                        path=source.relpath,
                        line=pragma.line,
                        col=0,
                        message="oracle-pair pragma takes exactly one oracle name",
                    )
                )
    return findings


def _module_name(path: Path) -> str:
    """Dotted module name from the nearest non-package ancestor."""
    parts = [path.stem] if path.name != "__init__.py" else []
    current = path.parent
    while (current / "__init__.py").exists():
        parts.insert(0, current.name)
        parent = current.parent
        if parent == current:
            break
        current = parent
    return ".".join(parts) if parts else path.stem
