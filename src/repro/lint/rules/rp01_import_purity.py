"""RP01 — import purity: pure zones reach no search-time module.

For every :class:`~repro.lint.config.PurityPolicy` zone the rule
computes the static transitive import closure (function-level imports
included — a lazy import still breaks purity the moment the function
runs; ``TYPE_CHECKING`` blocks excluded — they never execute) and
fails if any closure member matches a forbidden prefix.  Third-party
packages are closure members too (by top-level name), so a zone can
forbid ``numpy`` itself.  Findings are
anchored at the import statement *inside the zone* that starts the
offending chain, and the message spells the whole chain out, because
the interesting hop is usually three modules deep.

This replaces the CI serve-smoke ``grep`` and complements the runtime
``--assert-pure`` probe: the probe proves the modules that actually
loaded during one process run were clean, the closure proves no code
path — exercised or not — can ever load a dirty one.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.lint.engine import Finding, Project, Rule

__all__ = ["ImportPurityRule"]


def _matches(module: str, prefixes: Tuple[str, ...]) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".") for prefix in prefixes
    )


class ImportPurityRule(Rule):
    id = "RP01"
    title = "import purity (query-time zones reach no search-time module)"

    def check(self, project: Project) -> Iterator[Finding]:
        for policy in project.config.purity_policies:
            zone_modules = sorted(
                module
                for module in project.modules
                if module == policy.zone or module.startswith(policy.zone + ".")
            )
            if not zone_modules:
                continue
            closure = project.closure(zone_modules)
            reported = set()
            for module in sorted(closure):
                if not _matches(module, policy.forbidden):
                    continue
                chain = project.chain(closure, module)
                # Anchor at the last zone-internal module in the chain
                # and the line of its outgoing import.
                anchor_module, anchor_line = self._anchor(
                    project, closure, chain, policy.zone
                )
                key = (anchor_module, module)
                if key in reported:
                    continue
                reported.add(key)
                source = project.modules[anchor_module]
                yield Finding(
                    rule=self.id,
                    path=source.relpath,
                    line=anchor_line,
                    col=0,
                    message=(
                        f"pure zone {policy.zone} reaches forbidden module "
                        f"{module} via {' -> '.join(chain)}"
                    ),
                    hint=(
                        "break the chain: move the needed helper into a "
                        "pure module or make the offending import lazy "
                        "behind a search-time entry point"
                    ),
                )

    @staticmethod
    def _anchor(
        project: Project,
        closure: Dict[str, Tuple[str, int, object]],
        chain: List[str],
        zone: str,
    ) -> Tuple[str, int]:
        """Last zone module in the chain + the import line it leaves by."""
        for index in range(len(chain) - 1, -1, -1):
            module = chain[index]
            if module == zone or module.startswith(zone + "."):
                if index + 1 < len(chain):
                    via_module, via_line, _ = closure[chain[index + 1]]
                    if via_module == module:
                        return module, via_line
                # Fall back to the edge that discovered the next module.
                if index + 1 < len(chain):
                    return closure[chain[index + 1]][0], closure[chain[index + 1]][1]
                return module, 1
        # Chain never passes through the zone (shouldn't happen): anchor
        # at the first module's discovery site.
        via_module, via_line, _ = closure[chain[-1]]
        return via_module, max(via_line, 1)
