#!/usr/bin/env python3
"""Entry-point census: the share of ``src/``'s executable lines that the
repository's non-test entry points reach.

Every entry point runs in its own child process under a ``sys.settrace``
line tracer (``threading.settrace`` too, so ``--dataset-workers`` threads
count).  The union of the lines they execute is set against the
executable lines of every ``src/repro/**/*.py`` file, taken from the
line tables of its compiled code objects.  The entry points are:

* ``runner --experiment all --scale smoke --export-dir --verify-rtl
  --dataset-workers 2``;
* ``runner --experiment table2`` and ``table1`` at smoke scale with
  ``--cache-dir``, twice each (cold, then warm);
* ``runner --experiment fig4 --scale smoke --store-dir``;
* the CI serving battery through ``python -m repro.serving batch``,
  ``runner --serve`` and ``runner --query``;
* ``python -m repro.eda --store``;
* ``python -m repro.lint``, text and JSON.

A line no entry point reaches is an error path, a ``slow=`` oracle, or
code that only tests call.  The census also prints the two design-size
measures: ``src/``'s line count (every line of every ``*.py`` file, as
``find src -name '*.py' | xargs cat | wc -l`` counts them) and its
settable values, read from the ASTs of ``src/repro``: defaulted
parameters of every function or method whose name has no leading
underscore (``__init__`` included), defaulted fields of public
``@dataclass`` classes, and ``add_argument`` calls.  Stdlib only; the
children import the package from ``src/``.  Not collected by pytest.
Run from anywhere::

    python benchmarks/entry_census.py             # total share (~10 s, 2-core x86_64)
    python benchmarks/entry_census.py --per-file  # plus one row per module
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from types import CodeType
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: Builds the CI serving battery from a published store (runs untraced).
BATTERY = """
import json, sys
from repro.serving.store import DesignStore
store = DesignStore(sys.argv[1])
datasets = store.datasets()
battery = [
    {"op": op, "dataset": dataset}
    for dataset in datasets
    for op in ("select", "front", "feasibility", "rtl")
]
battery.append({"op": "feasibility", "dataset": datasets[0], "voltage": 0.6})
battery.append({"op": "rtl", "dataset": datasets[0], "design": store.rtl_designs(datasets[0])[-1]})
battery.append({"op": "points", "experiment": "fig4"})
battery.append({"op": "points", "experiment": "fig5"})
for query in battery + battery:
    print(json.dumps(query))
"""


def _code_objects(code: CodeType) -> Iterator[CodeType]:
    yield code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _code_objects(const)


def executable_lines(path: Path) -> Set[int]:
    """Line numbers that carry bytecode in ``path``."""
    module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    return {
        line
        for code in _code_objects(module)
        for _, _, line in code.co_lines()
        if line is not None and line > 0
    }


def settable_values(path: Path) -> Tuple[int, int, int]:
    """``(defaulted public parameters, defaulted public dataclass fields,
    add_argument calls)`` of one source file."""
    parameters = fields = arguments = 0
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_") or node.name == "__init__":
                parameters += len(node.args.defaults)
                parameters += sum(default is not None for default in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            if any("dataclass" in ast.unparse(deco) for deco in node.decorator_list):
                fields += sum(
                    isinstance(item, ast.AnnAssign)
                    and item.value is not None
                    and isinstance(item.target, ast.Name)
                    and not item.target.id.startswith("_")
                    for item in node.body
                )
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
        ):
            arguments += 1
    return parameters, fields, arguments


def design_size() -> str:
    """One line: ``src/``'s line count and its settable-value counts."""
    lines = sum(
        len(path.read_bytes().splitlines()) for path in SRC.rglob("*.py")
    )
    parameters, fields, arguments = map(
        sum, zip(*(settable_values(path) for path in PACKAGE.rglob("*.py")))
    )
    return (
        f"src/ has {lines} lines; settable values: {parameters + fields + arguments} "
        f"({parameters} defaulted parameters + {fields} defaulted dataclass fields "
        f"+ {arguments} add_argument calls)"
    )


def run_traced(out: str, module: str, args: List[str]) -> int:
    """Run ``python -m module args`` in this process, recording every
    executed line under ``src/repro`` into the JSON file ``out``."""
    prefix = str(PACKAGE) + os.sep
    hits: Dict[str, Set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.argv = [module, *args]
    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as error:
        code = error.code if isinstance(error.code, int) else (0 if error.code is None else 1)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({name: sorted(lines) for name, lines in hits.items()}, handle)
    return code


def entry_points(work: Path) -> List[Tuple[str, List[str]]]:
    """The census's entry points, in run order, writing under ``work``."""
    runner = "repro.experiments.runner"
    store = str(work / "store")
    queries = work / "queries.jsonl"
    smoke = ["--scale", "smoke"]
    points = [
        (runner, ["--experiment", "all", *smoke, "--export-dir", str(work / "out"),
                  "--verify-rtl", "--dataset-workers", "2"]),
    ]
    for experiment in ("table2", "table1"):
        cache = ["--cache-dir", str(work / f"cache-{experiment}")]
        points += [(runner, ["--experiment", experiment, *smoke, *cache])] * 2
    points += [
        (runner, ["--experiment", "fig4", *smoke, "--store-dir", store]),
        ("battery", []),
        ("repro.serving", ["--store", store, "--assert-pure", "batch", "--queries", str(queries)]),
        (runner, ["--serve", "--store-dir", store]),
        (runner, ["--query", "FIRST_QUERY", "--store-dir", store]),
        ("repro.eda", ["--store", store]),
        ("repro.lint", []),
        ("repro.lint", ["--format", "json"]),
    ]
    return points


def census(per_file: bool) -> None:
    """Run every entry point traced and print the reached share."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    reached: Dict[str, Set[int]] = {}
    with tempfile.TemporaryDirectory(prefix="entry-census-") as tmp:
        work = Path(tmp)
        queries = work / "queries.jsonl"
        first_query = ""
        for index, (module, args) in enumerate(entry_points(work)):
            if module == "battery":
                battery = subprocess.run(
                    [sys.executable, "-c", BATTERY, str(work / "store")],
                    env=env, cwd=ROOT, check=True, capture_output=True, text=True,
                ).stdout
                queries.write_text(battery, encoding="utf-8")
                first_query = battery.splitlines()[0]
                continue
            args = [first_query if arg == "FIRST_QUERY" else arg for arg in args]
            out = work / f"lines-{index}.json"
            with open(queries if "--serve" in args else os.devnull, "rb") as stdin:
                done = subprocess.run(
                    [sys.executable, __file__, "--child", str(out), module, *args],
                    env=env, cwd=ROOT, stdin=stdin, stdout=subprocess.DEVNULL,
                    stderr=subprocess.PIPE, text=True,
                )
            label = " ".join([module, *args]).replace(str(work) + os.sep, "")
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                raise SystemExit(f"entry point failed ({done.returncode}): {label}")
            print(f"ran {label}", file=sys.stderr)
            for name, lines in json.loads(out.read_text(encoding="utf-8")).items():
                reached.setdefault(name, set()).update(lines)
    total = hit = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = executable_lines(path)
        covered = len(lines & reached.get(str(path), set()))
        total += len(lines)
        hit += covered
        if per_file:
            name = str(path.relative_to(SRC))
            print(f"{name:48} {covered:5d} / {len(lines):5d}  {100.0 * covered / max(len(lines), 1):5.1f}%")
    print(f"reached {hit} of {total} executable src/ lines: {100.0 * hit / total:.1f}%")
    print(design_size())


def main() -> None:
    if len(sys.argv) > 3 and sys.argv[1] == "--child":
        raise SystemExit(run_traced(sys.argv[2], sys.argv[3], sys.argv[4:]))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--per-file", action="store_true", help="print one row per module")
    census(parser.parse_args().per_file)


if __name__ == "__main__":
    main()
