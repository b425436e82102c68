"""Command-line client of the :class:`~repro.experiments.session.ExperimentSession`.

Usage::

    python -m repro.experiments.runner --experiment table2 --scale ci
    python -m repro.experiments.runner --experiment all --scale smoke
    python -m repro.experiments.runner --experiment all --scale smoke --export-dir out/
    python -m repro.experiments.runner --experiment table2 --cache-dir .repro-cache

Every experiment prints a plain-text table mirroring the corresponding
artifact of the paper (Table I/II/III, Fig. 4/5) plus the ablations.
The heavy per-dataset stages (gradient baseline, hardware-aware GA
front, TC'23 sweep) are session stages shared by all experiments, so
``--experiment all`` trains each of them exactly once per dataset.

``--export-dir DIR`` additionally writes every artifact as machine-
readable ``<experiment>.json`` + ``<experiment>.csv`` (see
:mod:`repro.evaluation.artifacts`; the JSON round-trips bit-identically
through ``Artifact.from_json``).

``--cache-dir DIR`` makes the evaluation cache persistent: each
dataset's exact baseline (float model, bespoke circuit and its report),
GA results and accuracy/hardware-report entries are loaded from
``DIR/<dataset>.cache.pkl`` before the baseline stage.  A snapshot is
rewritten if and only if the run changed one of its persisted sections,
so a second invocation of the same experiment at the same scale
restores the baseline and the GA instead of training them and writes
nothing.  A per-dataset ``[cache]`` summary line reports the snapshot
traffic and whether the baseline and the GA were ``restored`` or
``trained`` (``ga none`` when the experiments train no GA, as
``table1``); ``saved 0`` means the run changed no persisted section and
left the snapshot's bytes as they were.
Snapshots are versioned, and keys are namespaced by dataset split,
constraints, settings and the package's source digest, so one directory
can safely be shared between scales and experiments, and an edited
source tree retrains.

``--dataset-workers N`` warms the per-dataset heavy stages in ``N``
threads before the experiments read them (datasets are independent).

``--store-dir DIR`` publishes a serving design store (fronts, baseline
and comparator summaries, per-design RTL) after the experiments run —
``--export-dir`` does so implicitly under ``<export-dir>/store``.  The
two query modes then answer from such a store **without re-running any
search stage**: ``--query '{"op": "select", "dataset": "redwine"}'``
(repeatable) answers one-shot queries, ``--serve`` reads JSONL queries
from stdin and streams JSONL answers — both thin wrappers over
``python -m repro.serving`` (see ``docs/serving.md``).

``--verify-rtl`` differentially verifies every synthesized front member
after the hardware-analysis stage — Python model vs. RTL testbench
golden vectors vs. the emitted module text executed *as Verilog* by
:mod:`repro.eda.microverilog`, batched over ``--verify-vectors``
stimulus vectors — and prints a per-dataset ``[verify]`` summary line
(see ``docs/verification.md``).  ``--verify-seed`` pins the stimulus draw
independently of the experiment seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import List, Optional

from repro.experiments.config import EXPERIMENT_ORDER, SCALES

__all__ = ["main"]


def _query_mode(store_dir: str, queries: Optional[List[str]], serve: bool) -> int:
    """Answer queries from a warm design store (no search stage runs).

    Each one-shot ``--query`` string prints one JSON answer line that
    echoes the query; ``--serve`` then reads JSONL queries from stdin and
    streams one JSONL answer per line until EOF.  Exit code 1 if a
    ``--query`` failed; failed ``--serve`` queries only answer
    ``{"ok": false, ...}``.
    """
    from repro.serving.cli import answer_lines
    from repro.serving.service import ParetoService

    service = ParetoService(store_dir)
    code = answer_lines(service, queries or [], echo=True)
    if serve:
        answer_lines(service, sys.stdin, echo=False)
    return code


def main(argv: List[str] | None = None) -> int:
    """Run one (or all) experiments and print the resulting tables."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--experiment",
        default="all",
        choices=sorted(EXPERIMENT_ORDER) + ["all"],
        help="which artifact to regenerate",
    )
    parser.add_argument(
        "--scale",
        default="ci",
        choices=sorted(SCALES),
        help="evaluation budget (smoke/ci/full)",
    )
    parser.add_argument(
        "--dataset-workers",
        type=int,
        default=None,
        help=(
            "threads warming the per-dataset heavy stages (gradient baseline "
            "+ GA front) in parallel before the experiments read them"
        ),
    )
    parser.add_argument(
        "--export-dir",
        default=None,
        help=(
            "directory for machine-readable exports: every experiment is "
            "written as <experiment>.json + <experiment>.csv"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "directory for persistent evaluation-cache snapshots; repeated "
            "invocations restore trained stages and reuse synthesis work"
        ),
    )
    parser.add_argument(
        "--store-dir",
        default=None,
        help=(
            "serving design-store directory: experiment runs publish into "
            "it; --serve/--query answer from it without any search stage"
        ),
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="serve JSONL queries from stdin against --store-dir and exit",
    )
    parser.add_argument(
        "--query",
        action="append",
        default=None,
        metavar="JSON",
        help='answer one query, e.g. \'{"op": "front", "dataset": "redwine"}\' (repeatable)',
    )
    parser.add_argument(
        "--verify-rtl",
        action="store_true",
        help=(
            "differentially verify every synthesized front member (Python "
            "model vs RTL testbench golden vectors vs the module text "
            "executed as Verilog) and print a per-dataset [verify] summary"
        ),
    )
    parser.add_argument(
        "--verify-vectors",
        type=int,
        default=None,
        help="stimulus vectors per design for --verify-rtl (default: scale setting)",
    )
    parser.add_argument(
        "--verify-seed",
        type=int,
        default=None,
        help=(
            "seed for the verification stimulus draw (default: the "
            "experiment seed); two runs with the same value apply "
            "identical vectors"
        ),
    )
    args = parser.parse_args(argv)

    if args.serve or args.query:
        if args.store_dir is None:
            parser.error("--serve/--query require --store-dir (a published design store)")
        return _query_mode(args.store_dir, args.query, serve=args.serve)

    scale = SCALES[args.scale]
    if args.dataset_workers is not None:
        if args.dataset_workers < 0:
            parser.error("--dataset-workers must be non-negative")
        scale = dataclasses.replace(scale, dataset_workers=args.dataset_workers)
    if args.verify_rtl:
        scale = dataclasses.replace(scale, verify_rtl=True)
    if args.verify_vectors is not None:
        # The scale itself may enable verification (ExperimentScale.verify_rtl);
        # only reject the flag when no verification will actually run.
        if not scale.verify_rtl:
            parser.error("--verify-vectors requires --verify-rtl")
        if args.verify_vectors <= 0:
            parser.error("--verify-vectors must be positive")
        scale = dataclasses.replace(scale, verify_vectors=args.verify_vectors)
    if args.verify_seed is not None:
        if not scale.verify_rtl:
            parser.error("--verify-seed requires --verify-rtl")
        scale = dataclasses.replace(scale, verify_seed=args.verify_seed)

    # Imported here so the query modes above never load the search stack.
    from repro.experiments.session import ExperimentSession

    session = ExperimentSession(scale, cache_dir=args.cache_dir)
    names = list(EXPERIMENT_ORDER) if args.experiment == "all" else [args.experiment]
    artifacts = session.run(
        names, export_dir=args.export_dir, store_dir=args.store_dir
    )
    for name in names:
        print(f"\n=== {name} (scale={args.scale}) ===")
        print(artifacts[name].format())
    if args.export_dir is not None:
        print(f"\n[export] wrote {len(artifacts)} experiment(s) to {args.export_dir} (.json + .csv)")
    store_dir = args.store_dir
    if store_dir is None and args.export_dir is not None:
        store_dir = str(Path(args.export_dir) / "store")
    if store_dir is not None:
        from repro.serving.store import DesignStore

        published = DesignStore(store_dir).datasets()
        if published:
            print(f"[store] published {len(published)} dataset(s) to {store_dir}: {', '.join(published)}")
    if session.cache_dir is not None:
        for dataset, stats in sorted(session.cache_summary().items()):
            print(
                f"[cache] {dataset}: snapshot loaded {stats['loaded']} / "
                f"saved {stats['saved']} entries, "
                f"baseline {stats['baseline']}, ga {stats['ga']}"
            )
    if scale.verify_rtl:
        for dataset, verification in sorted(session.verification_summary().items()):
            status = "OK" if verification.passed else "FAILED"
            print(
                f"[verify] {dataset}: {verification.num_designs} designs x "
                f"{verification.num_vectors} vectors "
                f"({verification.num_neuron_checks} accumulator nets) -- "
                f"model {verification.model_mismatches} / "
                f"expr {verification.expression_mismatches} / "
                f"eda {verification.eda_mismatches} / "
                f"total {verification.total_mismatches} mismatches "
                f"[{status}] ({verification.seconds:.2f}s)"
            )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
