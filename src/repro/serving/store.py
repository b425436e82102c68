"""Persistent, search-free state for query time: the :class:`DesignStore`.

The GA search, hardware synthesis and verification stages are expensive
and batch-shaped; answering "which design should I print for ≤ 2 %
accuracy loss?" is cheap and interactive.  This module is the boundary
between the two: everything query time needs — the evaluated fronts
with their per-design metrics, the exact-baseline accuracies and
hardware numbers, the comparator-method summaries, the emitted Verilog
/testbench text and the verification outcome — is persisted here as
schema-versioned strict-JSON records, so the query half of the system
(:mod:`repro.serving.queries`, :mod:`repro.serving.service`) never has
to import a trainer, a genetic operator or a synthesis engine.

Layout on disk (one directory per dataset)::

    <root>/store.json                      manifest (schema version)
    <root>/<dataset>/front.json            FrontRecord
    <root>/<dataset>/tc23.json             Tc23Record   (optional)
    <root>/<dataset>/methods.json          MethodsRecord(optional)
    <root>/<dataset>/rtl/<design>.json     RTLRecord    (per design)

Every record is identified by a machine-stable BLAKE2b fingerprint
(:func:`repro.core.pure.stable_fingerprint` — the same machinery the
evaluation cache uses for dataset splits), and every cell follows the
artifact serialization conventions (:mod:`repro.evaluation.artifacts`):
scalar-only values, ``allow_nan=False``, non-finite floats spelled as
``{"$float": "NaN"}`` tokens.  Files are written atomically
(temp-file + ``os.replace``) so a crashed publisher never leaves a
half-written record behind; a reader either sees the previous complete
record or the new one.

This module is import-pure by construction: it depends only on the
standard library, :mod:`repro.core.pure` (fingerprints) and
:mod:`repro.evaluation.artifacts` (the cell codec), plus
:mod:`repro.serving.queries` once a record's true front is first read.
The test suite pins that property with a subprocess import-graph guard.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.core.pure import stable_fingerprint
from repro.evaluation.artifacts import decode_cell, encode_cell

__all__ = [
    "STORE_SCHEMA_VERSION",
    "StoreError",
    "ReportRecord",
    "DesignRecord",
    "MethodRecord",
    "VerificationRecord",
    "EdaSummaryRecord",
    "FrontRecord",
    "Tc23Record",
    "MethodsRecord",
    "RTLRecord",
    "DatasetRecord",
    "DesignStore",
    "design_name",
]

#: Version of the on-disk store layout.  Bump whenever record fields,
#: file layout or the fingerprint recipe change shape.
#: Version 2: RTL records carry the parsed testbench shape and an EDA
#: verification summary; verification records count the EDA oracle.
#: Version 3: verification records drop the two gate-level netlist counts.
STORE_SCHEMA_VERSION = 3

_MANIFEST = "store.json"
_KIND_MANIFEST = "design-store"


class StoreError(ValueError):
    """A store record is missing, malformed or from a different schema."""


def design_name(genome_bytes: Optional[bytes], *fallback_parts: str) -> str:
    """Stable identifier of one front member.

    Derived from the raw genome bytes when the Pareto point still
    carries its chromosome payload; otherwise from the caller-supplied
    fallback parts (typically the objective values).  The same genome
    yields the same name in every process, so search-time selection and
    query-time selection break ties identically.
    """
    if genome_bytes is not None:
        return "d" + stable_fingerprint(genome_bytes)[:12]
    return "d" + stable_fingerprint(*fallback_parts)[:12]


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReportRecord:
    """Hardware operating point of one circuit (plain-data HardwareReport)."""

    area_cm2: float
    power_mw: float
    delay_ms: float
    voltage: float
    clock_period_ms: float

    @classmethod
    def from_report(cls, report) -> "ReportRecord":
        """Build from any object with the HardwareReport scalar fields."""
        return cls(
            area_cm2=float(report.area_cm2),
            power_mw=float(report.power_mw),
            delay_ms=float(report.delay_ms),
            voltage=float(report.voltage),
            clock_period_ms=float(report.clock_period_ms),
        )


@dataclass(frozen=True)
class DesignRecord:
    """One evaluated front member with every query-relevant metric."""

    #: Stable identifier (:func:`design_name`); the RTL file key.
    name: str
    #: Position in the evaluated front (ascending estimated area).
    index: int
    test_accuracy: float
    #: GA training-split accuracy (``ParetoPoint.accuracy``).
    train_accuracy: float
    #: GA error objective (``1 - train_accuracy``).
    error: float
    #: GA area objective — the Full-Adder count of equation (2).
    fa_count: float
    area_cm2: float
    power_mw: float
    delay_ms: float
    voltage: float
    clock_period_ms: float

    @property
    def report(self) -> ReportRecord:
        """The design's hardware operating point."""
        return ReportRecord(
            area_cm2=self.area_cm2,
            power_mw=self.power_mw,
            delay_ms=self.delay_ms,
            voltage=self.voltage,
            clock_period_ms=self.clock_period_ms,
        )


@dataclass(frozen=True)
class MethodRecord:
    """Summary of one comparator method (TC'23, TCAD'23 VOS, DATE'21)."""

    method: str
    accuracy: float
    area_cm2: float
    power_mw: float


@dataclass(frozen=True)
class VerificationRecord:
    """Front-wide differential-verification outcome (plain data)."""

    num_designs: int
    num_vectors: int
    model_mismatches: int
    expression_mismatches: int
    passed: bool
    #: Class disagreements between the module text executed as Verilog
    #: (:mod:`repro.eda.microverilog`) and the testbench golden responses.
    eda_mismatches: int = 0
    #: Designs whose module text was executed as Verilog: every verified design.
    eda_checked: int = 0

    @classmethod
    def from_verification(cls, verification) -> "VerificationRecord":
        """Build from an :class:`~repro.evaluation.verification.FrontVerification`."""
        return cls(
            num_designs=int(verification.num_designs),
            num_vectors=int(verification.num_vectors),
            model_mismatches=int(verification.model_mismatches),
            expression_mismatches=int(verification.expression_mismatches),
            passed=bool(verification.passed),
            eda_mismatches=int(verification.eda_mismatches),
            eda_checked=int(verification.num_designs),
        )


@dataclass(frozen=True)
class FrontRecord:
    """Everything query time needs about one dataset's evaluated front."""

    dataset: str
    scale: str
    seed: int
    #: BLAKE2b identity of (dataset, scale, seed, test split).
    fingerprint: str
    #: Digest of the held-out test split the accuracies were measured on.
    split: str
    baseline_test_accuracy: float
    baseline_train_accuracy: float
    baseline: ReportRecord
    designs: Tuple[DesignRecord, ...]
    #: Accuracy-loss budget the publisher used for ``selected``.
    default_accuracy_loss: float
    #: Name of the design selected at the default budget (if any).
    selected: Optional[str]
    training_seconds: float
    verification: Optional[VerificationRecord] = None

    @functools.cached_property
    def true_front(self) -> Tuple[DesignRecord, ...]:
        """The non-dominated designs, by ascending area.

        :func:`repro.serving.queries.true_front` over ``designs``,
        computed on first use and kept with the record: the record is
        immutable, so its front never changes.
        """
        from repro.serving.queries import true_front

        return tuple(true_front(self.designs))

    def design(self, name: str) -> DesignRecord:
        """Look up one front member by name."""
        for record in self.designs:
            if record.name == name:
                return record
        raise StoreError(
            f"dataset {self.dataset!r} has no design {name!r} "
            f"(known: {[record.name for record in self.designs]})"
        )


@dataclass(frozen=True)
class Tc23Record:
    """The TC'23 digital-bespoke comparator at one accuracy-loss budget."""

    dataset: str
    max_accuracy_loss: float
    #: Test accuracy of the chosen TC'23 model (None: sweep found none).
    accuracy: Optional[float]
    report: Optional[ReportRecord]


@dataclass(frozen=True)
class MethodsRecord:
    """Comparator-method summaries for the Fig. 4 style bar charts."""

    dataset: str
    max_accuracy_loss: float
    methods: Tuple[MethodRecord, ...]


@dataclass(frozen=True)
class EdaSummaryRecord:
    """Outcome of executing one design's module text as Verilog.

    Produced at publish time by the always-available microverilog
    oracle (``oracle="microverilog"``); the external cross-check flow
    (:mod:`repro.eda.report`) emits the same shape with
    ``oracle="iverilog"``.
    """

    #: Which simulator produced the verdict.
    oracle: str
    #: Stimulus vectors applied (the testbench's embedded vectors).
    num_vectors: int
    #: Per-vector class disagreements against the testbench golden.
    mismatches: int
    passed: bool


@dataclass(frozen=True)
class RTLRecord:
    """Emitted Verilog + testbench text for one front design."""

    dataset: str
    design: str
    module_name: str
    verilog: str
    testbench: str
    #: BLAKE2b digest of (verilog, testbench) — cheap staleness check.
    fingerprint: str = ""
    #: Testbench shape, parsed back out of the emitted text at publish
    #: time (mirrors :class:`repro.rtl.testbench.TestbenchVectors`).
    num_vectors: int = 0
    num_inputs: int = 0
    #: Verilog-semantics verification of this very text (if performed).
    eda: Optional[EdaSummaryRecord] = None

    def __post_init__(self) -> None:
        if not self.fingerprint:
            object.__setattr__(
                self, "fingerprint", stable_fingerprint(self.verilog, self.testbench)
            )


@dataclass(frozen=True)
class DatasetRecord:
    """Joined view over one dataset's store sections."""

    front: FrontRecord
    tc23: Optional[Tc23Record] = None
    methods: Optional[MethodsRecord] = None
    #: Names of front designs with persisted RTL.
    rtl_designs: Tuple[str, ...] = ()

    @property
    def dataset(self) -> str:
        """Dataset name (from the front section)."""
        return self.front.dataset


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_RECORD_KINDS = {
    "front": FrontRecord,
    "tc23": Tc23Record,
    "methods": MethodsRecord,
    "rtl": RTLRecord,
}

_NESTED_FIELDS = {
    "baseline": ReportRecord,
    "report": ReportRecord,
    "verification": VerificationRecord,
    "designs": DesignRecord,
    "methods": MethodRecord,
    "eda": EdaSummaryRecord,
}


def _encode_record(record) -> object:
    if dataclasses.is_dataclass(record):
        return {
            f.name: _encode_record(getattr(record, f.name))
            for f in dataclasses.fields(record)
        }
    if isinstance(record, tuple):
        return [_encode_record(item) for item in record]
    return encode_cell(record)


def _decode_record(payload: object, cls):
    if payload is None:
        return None
    if not isinstance(payload, Mapping):
        raise StoreError(f"expected a {cls.__name__} object, got {payload!r}")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(payload) - names
    if unknown:
        raise StoreError(f"unknown {cls.__name__} fields {sorted(unknown)}")
    values: Dict[str, object] = {}
    for name, raw in payload.items():
        nested = _NESTED_FIELDS.get(name)
        if nested is not None and name in ("designs", "methods") and isinstance(raw, list):
            values[name] = tuple(_decode_record(item, nested) for item in raw)
        elif nested is not None and isinstance(raw, (Mapping, type(None))):
            values[name] = _decode_record(raw, nested)
        else:
            values[name] = decode_cell(raw)
    try:
        return cls(**values)
    except TypeError as exc:
        raise StoreError(f"incomplete {cls.__name__} record: {exc}") from None


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


class DesignStore:
    """Directory-backed collection of per-dataset serving records.

    The write side (:meth:`put_front` …) is used by the publisher at the
    end of a search run; the read side (:meth:`get_dataset` …) is all
    the query service ever touches.  Reads are strict: a missing
    section, a malformed file or a schema-version mismatch raises
    :class:`StoreError` instead of silently degrading — the store is a
    contract, not a cache.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    # -- paths ---------------------------------------------------------

    def _dataset_dir(self, dataset: str) -> Path:
        if not dataset or "/" in dataset or dataset.startswith("."):
            raise StoreError(f"invalid dataset name {dataset!r}")
        return self.root / dataset

    def _section_path(self, dataset: str, kind: str) -> Path:
        return self._dataset_dir(dataset) / f"{kind}.json"

    def _rtl_path(self, dataset: str, design: str) -> Path:
        if not design or "/" in design or design.startswith("."):
            raise StoreError(f"invalid design name {design!r}")
        return self._dataset_dir(dataset) / "rtl" / f"{design}.json"

    # -- low-level IO --------------------------------------------------

    def _read_json(self, path: Path, kind: str) -> Mapping[str, object]:
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise StoreError(f"store has no {kind!r} record at {path}") from None
        try:
            payload = json.loads(text, parse_constant=_reject_constant)
        except ValueError as exc:
            raise StoreError(f"malformed store record {path}: {exc}") from None
        if not isinstance(payload, Mapping):
            raise StoreError(f"store record {path} is not an object")
        version = payload.get("schema_version")
        if version != STORE_SCHEMA_VERSION:
            raise StoreError(
                f"store record {path} has schema_version={version!r}, "
                f"this build reads {STORE_SCHEMA_VERSION}"
            )
        if payload.get("kind") != kind:
            raise StoreError(
                f"store record {path} has kind={payload.get('kind')!r}, "
                f"expected {kind!r}"
            )
        return payload

    def _put(self, path: Path, kind: str, record, fingerprint: str) -> Path:
        """Atomically write ``record`` at ``path`` in the one record
        envelope, then the store manifest if it is absent."""
        _atomic_write_json(
            path,
            {
                "kind": kind,
                "schema_version": STORE_SCHEMA_VERSION,
                "fingerprint": fingerprint,
                "record": _encode_record(record),
            },
        )
        manifest = self.root / _MANIFEST
        if not manifest.exists():
            _atomic_write_json(
                manifest, {"kind": _KIND_MANIFEST, "schema_version": STORE_SCHEMA_VERSION}
            )
        return path

    def _get(self, dataset: str, kind: str):
        payload = self._read_json(self._section_path(dataset, kind), kind)
        return _decode_record(payload.get("record"), _RECORD_KINDS[kind])

    # -- write side ----------------------------------------------------

    def put_front(self, record: FrontRecord) -> Path:
        """Persist a dataset's front section."""
        return self._put(
            self._section_path(record.dataset, "front"), "front", record, record.fingerprint
        )

    def put_tc23(self, record: Tc23Record) -> Path:
        """Persist a dataset's TC'23 comparator section."""
        fingerprint = stable_fingerprint(
            "tc23", record.dataset, repr(record.max_accuracy_loss)
        )
        return self._put(self._section_path(record.dataset, "tc23"), "tc23", record, fingerprint)

    def put_methods(self, record: MethodsRecord) -> Path:
        """Persist a dataset's comparator-methods section."""
        fingerprint = stable_fingerprint(
            "methods", record.dataset, repr(record.max_accuracy_loss)
        )
        return self._put(
            self._section_path(record.dataset, "methods"), "methods", record, fingerprint
        )

    def put_rtl(self, record: RTLRecord) -> Path:
        """Persist one design's emitted Verilog + testbench."""
        return self._put(
            self._rtl_path(record.dataset, record.design), "rtl", record, record.fingerprint
        )

    # -- read side -----------------------------------------------------

    def datasets(self) -> List[str]:
        """Names of datasets with a published front, sorted."""
        try:
            entries = os.scandir(self.root)
        except (FileNotFoundError, NotADirectoryError):
            return []
        with entries:
            return sorted(
                entry.name
                for entry in entries
                if entry.is_dir()
                and os.path.isfile(os.path.join(entry.path, "front.json"))
            )

    def get_front(self, dataset: str) -> FrontRecord:
        """Load a dataset's front section (raises if absent)."""
        return self._get(dataset, "front")

    def get_tc23(self, dataset: str) -> Optional[Tc23Record]:
        """Load a dataset's TC'23 section, or None if never published."""
        if not self._section_path(dataset, "tc23").is_file():
            return None
        return self._get(dataset, "tc23")

    def get_methods(self, dataset: str) -> Optional[MethodsRecord]:
        """Load a dataset's methods section, or None if never published."""
        if not self._section_path(dataset, "methods").is_file():
            return None
        return self._get(dataset, "methods")

    def rtl_designs(self, dataset: str) -> Tuple[str, ...]:
        """Names of the designs with persisted RTL, sorted."""
        rtl_dir = self._dataset_dir(dataset) / "rtl"
        if not rtl_dir.is_dir():
            return ()
        return tuple(sorted(path.stem for path in rtl_dir.glob("*.json")))

    def get_rtl(self, dataset: str, design: str) -> RTLRecord:
        """Load one design's RTL record (raises if absent)."""
        payload = self._read_json(self._rtl_path(dataset, design), "rtl")
        return _decode_record(payload.get("record"), RTLRecord)

    def get_dataset(self, dataset: str) -> DatasetRecord:
        """Load the joined per-dataset view (front required)."""
        return DatasetRecord(
            front=self.get_front(dataset),
            tc23=self.get_tc23(dataset),
            methods=self.get_methods(dataset),
            rtl_designs=self.rtl_designs(dataset),
        )


def _atomic_write_json(path: Path, payload: Mapping[str, object]) -> None:
    """Write strict JSON through a temp file and ``os.replace``; the temp
    file is removed if anything fails, so a reader never sees a partial
    file and a failed write leaves nothing behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _reject_constant(name: str) -> float:
    raise StoreError(
        f"bare {name} in store record; non-finite floats must use the "
        '{"$float": ...} token encoding'
    )
