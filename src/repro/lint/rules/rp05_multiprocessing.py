"""RP05 — multiprocessing hygiene: only top-level callables cross pools.

Everything submitted to a :class:`~concurrent.futures.ProcessPoolExecutor`
is pickled into the worker process.  Lambdas, functions defined inside
other functions, and bound ``self.<method>`` callables either fail to
pickle outright or drag the whole enclosing object across the
boundary; both failure modes surface far from the submit site, and
only on the code path that actually starts the pool.  The package has
no process pool today; the rule guards any future one.  It flags, in
any module that constructs a process pool:

* ``submit``/``map`` callables that are lambdas, locally-defined
  (nested) functions, names bound to lambdas, ``self.<attr>`` bound
  methods, or ``functools.partial`` wrapping any of those;
* lambda arguments riding along in the submit call;
* a lambda or nested function as the pool's ``initializer=``.

Thread pools are exempt — nothing is pickled — so the checks only
activate for receivers assigned from ``ProcessPoolExecutor(...)``, or
(as a module-scoped backstop for pools reached through helper methods)
for any ``.submit``/``.map`` call with a definitely-unpicklable
callable in a module that constructs a process pool anywhere.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.lint.engine import Finding, Project, Rule, SourceFile

__all__ = ["MultiprocessingHygieneRule"]

_POOL_METHODS = ("submit", "map")


def _is_process_pool_call(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = None
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    return name == "ProcessPoolExecutor"


class _Scope:
    """One function scope: nested defs, lambda-bound names, pool names."""

    def __init__(self) -> None:
        self.nested_defs: Set[str] = set()
        self.lambda_names: Set[str] = set()
        self.pool_names: Set[str] = set()


class _Visitor(ast.NodeVisitor):
    def __init__(self, rule: "MultiprocessingHygieneRule", source: SourceFile) -> None:
        self.rule = rule
        self.source = source
        self.findings: List[Finding] = []
        self.scopes: List[_Scope] = [_Scope()]
        self.module_has_process_pool = False

    # -- scope bookkeeping ----------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if len(self.scopes) > 1:
            # ``node`` is a nested def from the enclosing scope's view.
            self.scopes[-1].nested_defs.add(node.name)
        self.scopes.append(_Scope())
        self.generic_visit(node)
        self.scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_process_pool_call(node.value):
            self.module_has_process_pool = True
            self._check_initializer(node.value)
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.scopes[-1].pool_names.add(target.id)
        if isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.scopes[-1].lambda_names.add(target.id)
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            if _is_process_pool_call(item.context_expr):
                self.module_has_process_pool = True
                self._check_initializer(item.context_expr)
                if isinstance(item.optional_vars, ast.Name):
                    self.scopes[-1].pool_names.add(item.optional_vars.id)
        self.generic_visit(node)

    visit_AsyncWith = visit_With  # type: ignore[assignment]

    # -- submit/map calls ------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if _is_process_pool_call(node):
            self.module_has_process_pool = True
            self._check_initializer(node)
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _POOL_METHODS:
            receiver_is_pool = isinstance(
                func.value, ast.Name
            ) and self._known_pool(func.value.id)
            receiver_is_pool = receiver_is_pool or _is_process_pool_call(func.value)
            if receiver_is_pool or self.module_has_process_pool:
                strict = receiver_is_pool
                self._check_submit(node, func.attr, strict=strict)
        self.generic_visit(node)

    def _known_pool(self, name: str) -> bool:
        return any(name in scope.pool_names for scope in self.scopes)

    def _check_initializer(self, call: ast.Call) -> None:
        for keyword in call.keywords:
            if keyword.arg == "initializer":
                problem = self._callable_problem(keyword.value, strict=True)
                if problem:
                    self._flag(keyword.value, f"process-pool initializer {problem}")

    def _check_submit(self, node: ast.Call, method: str, strict: bool) -> None:
        if not node.args:
            return
        callable_arg = node.args[0]
        problem = self._callable_problem(callable_arg, strict=strict)
        if problem:
            self._flag(callable_arg, f"callable passed to {method}() {problem}")
        for arg in list(node.args[1:]) + [kw.value for kw in node.keywords]:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Lambda):
                    self._flag(
                        sub,
                        f"lambda argument in {method}() call cannot be pickled "
                        "into the worker process",
                    )

    def _callable_problem(self, node: ast.expr, strict: bool) -> Optional[str]:
        """Why ``node`` cannot cross the process boundary (None if fine)."""
        if isinstance(node, ast.Lambda):
            return "is a lambda — lambdas cannot be pickled"
        if isinstance(node, ast.Name):
            for scope in self.scopes[1:]:
                if node.id in scope.nested_defs:
                    return (
                        "is a nested function — only top-level functions "
                        "can be pickled"
                    )
                if node.id in scope.lambda_names:
                    return "is bound to a lambda — lambdas cannot be pickled"
            return None
        if isinstance(node, ast.Attribute) and strict:
            base = node.value
            if isinstance(base, ast.Name) and base.id == "self":
                return (
                    "is a bound method — the whole instance would be pickled "
                    "into every worker"
                )
            return None
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if name == "partial" and node.args:
                return self._callable_problem(node.args[0], strict=strict)
        return None

    def _flag(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                rule=self.rule.id,
                path=self.source.relpath,
                line=node.lineno,
                col=node.col_offset,
                message=message,
                hint="move the callable (and its state) to module top level "
                "so it pickles by reference",
            )
        )


class MultiprocessingHygieneRule(Rule):
    id = "RP05"
    title = "multiprocessing hygiene (top-level picklable submits)"

    def check(self, project: Project) -> Iterator[Finding]:
        for source in project.files:
            # Two passes: the first discovers whether the module
            # constructs a process pool at all (a submit site may appear
            # textually before the pool construction); the second does
            # the real checks with that knowledge preset.
            first = _Visitor(self, source)
            first.visit(source.tree)
            if not first.module_has_process_pool:
                continue
            visitor = _Visitor(self, source)
            visitor.module_has_process_pool = True
            visitor.visit(source.tree)
            yield from visitor.findings
