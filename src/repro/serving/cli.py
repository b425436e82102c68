"""``python -m repro.serving`` — query a warm design store from the shell.

Every command answers from the store alone; nothing here (or in any
module this one imports) can start a GA search or a synthesis run.  The
``--assert-pure`` flag turns that promise into a runtime check: after
answering, the process inspects ``sys.modules`` and fails (exit code 3)
if any search-time module, or numpy, was imported.  The CI serve-smoke job runs its
whole query battery under this flag.

Commands::

    datasets                              list stored datasets
    select <dataset> [--max-accuracy-loss X]
    front <dataset>
    feasibility <dataset> [--voltage V] [--max-accuracy-loss X]
    rtl <dataset> [--design NAME] [--emit verilog|testbench]
    points {fig4,fig5} [--out DIR]        plot-ready point sets
    batch [--queries FILE]                JSONL query battery (stdin default)

Every command is routed through :func:`_dispatch`, the one query router
shared with ``runner.py --query/--serve``.  All structured output is JSON
on stdout, one document (or one line per batch query); diagnostics go to
stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.serving import queries
from repro.serving.service import ParetoService
from repro.serving.store import DesignStore

__all__ = ["FORBIDDEN_MODULES", "answer_lines", "forbidden_loaded", "main"]

#: Module prefixes the serving layer must never import — the search-time
#: half of the system, and numpy, which no query needs and which would
#: double the server's cold start.  Single source of truth for
#: ``--assert-pure``, the import-graph unit test and the CI serve-smoke job.
FORBIDDEN_MODULES = (
    "numpy",
    "repro.approx",
    "repro.baselines",
    "repro.datasets",
    "repro.quant",
    "repro.rtl",
    "repro.eda",
    "repro.experiments",
    "repro.core.trainer",
    "repro.core.operators",
    "repro.core.fitness",
    "repro.core.population",
    "repro.core.chromosome",
    "repro.hardware.synthesis",
    "repro.hardware.fast_synthesis",
    "repro.hardware.fast_area",
    "repro.hardware.area",
    "repro.hardware.adder_tree",
    "repro.evaluation.pareto_analysis",
    "repro.evaluation.verification",
)


def forbidden_loaded() -> List[str]:
    """Search-time modules currently present in ``sys.modules``."""
    loaded = []
    for name in sys.modules:
        for forbidden in FORBIDDEN_MODULES:
            if name == forbidden or name.startswith(forbidden + "."):
                loaded.append(name)
                break
    return sorted(loaded)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving",
        description="Answer Pareto-front queries from a persisted design store.",
    )
    parser.add_argument(
        "--store", required=True, help="design-store directory (…/store)"
    )
    parser.add_argument(
        "--assert-pure",
        action="store_true",
        help="fail (exit 3) if any search-time module or numpy was imported",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list datasets with a published front")

    cmd = sub.add_parser("select", help="operating point within a loss budget")
    cmd.add_argument("dataset")
    cmd.add_argument("--max-accuracy-loss", type=float, default=None)

    cmd = sub.add_parser("front", help="true Pareto front of one dataset")
    cmd.add_argument("dataset")

    cmd = sub.add_parser("feasibility", help="printed-power-source feasibility")
    cmd.add_argument("dataset")
    cmd.add_argument("--voltage", type=float, default=None)
    cmd.add_argument("--max-accuracy-loss", type=float, default=None)

    cmd = sub.add_parser("rtl", help="Verilog + testbench of one design")
    cmd.add_argument("dataset")
    cmd.add_argument("--design", default=None)
    cmd.add_argument("--max-accuracy-loss", type=float, default=None)
    cmd.add_argument(
        "--emit",
        choices=("verilog", "testbench"),
        default=None,
        help="print just the requested source text instead of JSON",
    )

    cmd = sub.add_parser("points", help="plot-ready fig4/fig5 point sets")
    cmd.add_argument("experiment", choices=("fig4", "fig5"))
    cmd.add_argument("--out", default=None, help="write <exp>_points.json/.csv here")
    cmd.add_argument("--max-accuracy-loss", type=float, default=None)

    cmd = sub.add_parser("batch", help="answer a JSONL query battery")
    cmd.add_argument(
        "--queries",
        default=None,
        help="JSONL file of {op, dataset, ...} queries (default: stdin)",
    )
    return parser


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text} in query")
    return value


#: Strict JSON (``NaN``/``Infinity``/``1e999`` rejected): every number in
#: a parsed query line is finite, so an answer echoing it serializes.
_QUERY_DECODER = json.JSONDecoder(parse_float=_finite_float, parse_constant=_finite_float)


def _finite(query: Dict, key: str) -> Optional[float]:
    """``query[key]`` (``None`` if absent), which must be a finite real number."""
    value = query.get(key)
    if value is None:
        return None
    try:
        if not isinstance(value, bool) and math.isfinite(value):
            return value
    except (TypeError, OverflowError):  # not a number; an int too large for a float
        pass
    raise ValueError(f"{key} must be a finite number, got {value!r}")


def _dispatch(service: ParetoService, query: Dict) -> object:
    """Route one {op, ...} query object to the service."""
    if not isinstance(query, dict):
        raise TypeError(f"a query must be a JSON object, got {type(query).__name__}")
    op = query.get("op")
    dataset = query.get("dataset")
    loss = _finite(query, "max_accuracy_loss")
    if loss is not None and loss < 0:
        raise ValueError(f"max_accuracy_loss must be non-negative, got {loss!r}")
    voltage = _finite(query, "voltage")
    if op == "datasets":
        return service.datasets()
    if op == "select":
        return service.select(dataset, max_accuracy_loss=loss)
    if op == "front":
        return service.front(dataset)
    if op == "feasibility":
        return service.feasibility(dataset, voltage=voltage, max_accuracy_loss=loss)
    if op == "rtl":
        return service.rtl(dataset, design=query.get("design"), max_accuracy_loss=loss)
    if op == "points":
        return service.points(query.get("experiment"), max_accuracy_loss=loss)
    raise ValueError(f"unknown query op {op!r}")


def _answer(service: ParetoService, line: str, *, echo: bool = False) -> Tuple[bool, str]:
    """Answer one JSONL query line: ``(ok, answer line)``.

    The answer is ``{"ok": true, "result": ...}`` or ``{"ok": false,
    "error": ...}``; ``echo`` adds the parsed query under ``"query"``
    (``null`` if the line does not parse or nests too deeply to echo).
    Parsing, dispatch and serialization all sit inside the error handling,
    which catches any ``Exception``: no single line can end a batch or a
    served stream.
    """
    query = None

    def encode(ok: bool, key: str, value: object) -> str:
        answer = {"ok": ok, "query": query} if echo else {"ok": ok}
        answer[key] = value
        return json.dumps(answer, allow_nan=False)

    try:
        query = _QUERY_DECODER.decode(line)
        return True, encode(True, "result", _dispatch(service, query))
    except Exception as exc:
        error = str(exc)
    try:
        return False, encode(False, "error", error)
    except RecursionError:  # parsed, but nested too deeply to echo back
        query = None
    return False, encode(False, "error", error)


def answer_lines(service: ParetoService, lines: Iterable[str], *, echo: bool) -> int:
    """Print one answer line per non-blank query line; 1 if any failed, else 0."""
    code = 0
    for line in lines:
        if line.strip():
            ok, answer = _answer(service, line, echo=echo)
            print(answer, flush=True)
            if not ok:
                code = 1
    return code


def _emit(payload: object) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=False, allow_nan=False)
    sys.stdout.write("\n")


def _save_points(store: DesignStore, experiment: str, rows: List[Dict], out: str) -> Dict:
    # Artifact reuse keeps the export format identical to the session's
    # (`<experiment>_points.json` + `.csv`, strict JSON, display pairs).
    from repro.evaluation.artifacts import Artifact

    display = (
        queries.FIG4_POINTS_DISPLAY if experiment == "fig4" else queries.FIG5_POINTS_DISPLAY
    )
    front = store.get_front(store.datasets()[0]) if store.datasets() else None
    artifact = Artifact.build(
        f"{experiment}_points",
        rows,
        scale=front.scale if front else "unknown",
        seed=front.seed if front else 0,
        datasets=store.datasets(),
        display=display,
    )
    artifact.save(out)
    return {
        "experiment": f"{experiment}_points",
        "rows": len(rows),
        "out": str(Path(out)),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = _parser().parse_args(argv)
    store = DesignStore(args.store)
    service = ParetoService(store)
    code = 0
    if args.command == "batch":
        if args.queries is None:
            lines = sys.stdin.read().splitlines()
        else:
            lines = Path(args.queries).read_text(encoding="utf-8").splitlines()
        code = answer_lines(service, lines, echo=True)
    else:
        try:
            result = _dispatch(service, {"op": args.command, **vars(args)})
            if args.command == "rtl" and args.emit is not None:
                sys.stdout.write(result[args.emit])
            elif args.command == "points" and args.out is not None:
                _emit(_save_points(store, args.experiment, result, args.out))
            else:
                _emit(result)
        except Exception as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 1

    if args.assert_pure:
        loaded = forbidden_loaded()
        if loaded:
            print(f"[purity] forbidden modules imported: {loaded}", file=sys.stderr)
            return 3
        print(
            f"[purity] serving import graph clean "
            f"({sum(name.startswith('repro') for name in sys.modules)} repro modules)",
            file=sys.stderr,
        )
    return code
