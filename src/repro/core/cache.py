"""Shared evaluation cache spanning the stages of the Fig. 2 pipeline.

The front-synthesis stage scores the GA's front on held-out data, and
the reporting experiments (Table II, Fig. 4, Fig. 5) re-request the same
hardware reports.  :class:`EvaluationCache` is one bounded memo shared by
all of them, keyed by the chromosome's genome bytes:

``accuracy``
    (genome, dataset fingerprint) → accuracy on a held-out split;
``reports``
    (genome, clock period) → hardware report, priced with the one EGFET
    library at the nominal supply;
``stages``
    (stage kind, :meth:`EvaluationCache.stage_key` parts) → a whole
    stage result in plain builtins, so a warm cache directory restores
    it instead of recomputing it.  Kind ``"baseline"`` holds the whole
    exact baseline: the trained float model's weights and biases as
    ``(shape, float64 bytes)`` pairs (:func:`pack_arrays`), the quantized
    bespoke circuit's codes as ``(shape, int64 bytes)`` pairs with its
    shifts and bit widths, and its exact
    :class:`~repro.hardware.synthesis.HardwareReport`, so a hit neither
    trains, quantizes nor synthesizes.  Kind ``"ga"`` holds a GA
    run's archive, history and evaluation count
    (:meth:`~repro.core.trainer.GAResult.pack`);
``modules``
    (layout key, genome) → ``(text, module)``: a front member's canonical
    module text (``generate_mlp_verilog(model)``) and its
    :mod:`repro.eda.microverilog` parse, held from
    :func:`~repro.evaluation.verification.verify_front` until
    :func:`~repro.experiments.publish.rtl_records` takes it out, so
    sign-off parses each design once (see
    :func:`~repro.evaluation.verification.compiled_module`).

There is no section for GA fitness values.  The GA folds the duplicates
within each population batch and scores every unique row
(:meth:`~repro.core.fitness.FitnessEvaluator.evaluate_population`): a
cross-generation memo served only about 1.5 % of the unique lookups, and
a warm cache directory restores the whole GA result from ``stages``
instead.  No section holds decoded models either: the GA and the front
stage both score straight from genome matrices
(:meth:`~repro.core.chromosome.ChromosomeLayout.population_parameters`),
and sign-off decodes each design it verifies or publishes.

Every section is a true LRU (:class:`LRUCache`): a hit refreshes
recency, so hot entries survive eviction pressure.  Sections also count
hits and misses, which the tests use to assert that a full pipeline run
performs zero redundant forward/synthesis work.

The cache is **disk-backed**: :meth:`EvaluationCache.save` snapshots the
``accuracy``, ``reports`` and ``stages`` sections (compiled modules are
deliberately excluded: they are large and cheap to rebuild) into one
versioned pickle per snapshot, and :meth:`EvaluationCache.load` restores
them.  Keys are fully self-namespacing — they embed the layout identity,
the split digest and the stage settings — so snapshots taken from
different datasets, scales or constraints can share a directory without
colliding.  Genomes are keyed by their int64 bytes
(:meth:`EvaluationCache.genome_key`), which also name published designs.
Keys are flat tuples of strings, bytes and numbers (the layout is one
:func:`~repro.core.pure.stable_fingerprint` string), whose hashes CPython
caches.

Every snapshot records the format version, the numpy version and the
:func:`code_digest` of the package, so an edited source tree restores
nothing.  Loading is corruption-tolerant: a missing, truncated, garbage,
version-mismatched or other-code file restores nothing instead of
raising, so a crashed writer can never take down the next run.
The section bounds of the LRU caches cap a snapshot's entry count, and
a snapshot holds no wall-clock value, so the same tree, inputs and seed
always write the same bytes.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import os
import pickle
import tempfile
import weakref
from collections import OrderedDict
from dataclasses import fields
from pathlib import Path
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.pure import stable_fingerprint

__all__ = [
    "LRUCache",
    "EvaluationCache",
    "CACHE_FORMAT_VERSION",
    "code_digest",
    "pack_arrays",
    "unpack_arrays",
]


@functools.lru_cache(maxsize=None)
def code_digest() -> str:
    """Digest of the ``repro`` package's ``.py`` sources (path and bytes).

    Recorded in every snapshot :meth:`EvaluationCache.save` writes, so a
    persisted stage result never outlives the code that produced it.
    Computed on first use and then once per process, never at import.
    """
    package = Path(__file__).resolve().parents[1]
    parts: List[Union[bytes, str]] = []
    for path in sorted(package.rglob("*.py")):
        parts += [path.relative_to(package).as_posix(), path.read_bytes()]
    return stable_fingerprint(*parts)


_LOGGER = logging.getLogger(__name__)

_MISSING = object()

#: Magic marker + schema version of the on-disk snapshot format.  Bump
#: the version on any change of key structure or value shape; old
#: snapshots are then ignored (never mis-read) by :meth:`EvaluationCache.load`.
#: CHANGES.md records what each version changed.
_SNAPSHOT_MAGIC = "repro-evaluation-cache"
CACHE_FORMAT_VERSION = 15

#: The only non-builtin globals a snapshot may reference.  Snapshot
#: payloads are plain data (tuples, bytes, numbers, dicts) plus these
#: frozen dataclasses; refusing everything else keeps a cache directory
#: from being a code-execution vector (pickle runs ``__reduce__``
#: payloads during load, *before* any magic/version check could reject
#: them).
_SAFE_SNAPSHOT_GLOBALS = {
    ("repro.hardware.synthesis", "HardwareReport"),
    # The RTL-verification harness memoizes per-design results in the
    # reports section; they must survive the snapshot round trip.
    ("repro.evaluation.verification", "DesignVerification"),
}


def pack_arrays(
    arrays: Sequence[np.ndarray], dtype: str = "<f8"
) -> Tuple[Tuple[Tuple[int, ...], bytes], ...]:
    """Plain-builtin form of arrays: one ``(shape, bytes)`` pair each.

    The bytes are the array cast to ``dtype`` (little-endian float64 by
    default, ``"<i8"`` for integer codes).  Builtins only, so the
    snapshot allowlist needs no numpy globals.
    """
    packed = []
    for array in arrays:
        array = np.asarray(array, dtype=dtype)
        packed.append((tuple(int(dim) for dim in array.shape), array.tobytes()))
    return tuple(packed)


def unpack_arrays(
    value: Any, shapes: Sequence[Tuple[int, ...]], dtype: str = "<f8"
) -> Optional[List[np.ndarray]]:
    """Inverse of :func:`pack_arrays`, checked against the expected ``shapes``.

    Returns ``None`` instead of raising when ``value`` is not one
    ``(shape, bytes)`` pair per expected shape with matching shapes and
    byte lengths, so a malformed snapshot entry reads as a miss.  The
    arrays come back in ``dtype``'s native-order type (float64 or int64).
    """
    if not isinstance(value, tuple) or len(value) != len(shapes):
        return None
    dtype = np.dtype(dtype)
    arrays = []
    for entry, shape in zip(value, shapes):
        if not isinstance(entry, tuple) or len(entry) != 2:
            return None
        stored_shape, data = entry
        shape = tuple(shape)
        if stored_shape != shape or not isinstance(data, bytes):
            return None
        if len(data) != dtype.itemsize * int(np.prod(shape, dtype=np.int64)):
            return None
        arrays.append(np.frombuffer(data, dtype=dtype).astype(dtype.type).reshape(shape))
    return arrays


class _SnapshotUnpickler(pickle.Unpickler):
    """Unpickler restricted to the snapshot allowlist."""

    def find_class(self, module: str, name: str):
        if (module, name) in _SAFE_SNAPSHOT_GLOBALS:
            return super().find_class(module, name)
        raise pickle.UnpicklingError(
            f"cache snapshot references disallowed global {module}.{name}"
        )


def _code_stamp() -> Tuple[str, str]:
    """The numpy version and :func:`code_digest` every snapshot records."""
    return (np.__version__, code_digest())


def _read_snapshot(path: Path) -> Optional[dict]:
    """The checked payload of one snapshot file, or ``None``.

    Never raises on bad input.  A missing file reads as ``None`` silently;
    a truncated or garbage pickle, a foreign payload, a format-version
    mismatch or a file written by other code (another numpy version or
    an edited package, see :func:`code_digest`) reads as ``None`` and
    logs a WARNING.  Deserialization goes through the allowlisted
    :class:`_SnapshotUnpickler`.
    """
    try:
        with open(path, "rb") as handle:
            payload = _SnapshotUnpickler(handle).load()
    except FileNotFoundError:
        return None
    except Exception as error:  # noqa: BLE001 - tolerate any corruption
        _LOGGER.warning("ignoring unreadable cache snapshot %s: %s", path, error)
        return None
    if not isinstance(payload, dict) or payload.get("magic") != _SNAPSHOT_MAGIC:
        _LOGGER.warning("ignoring foreign cache snapshot %s", path)
        return None
    if payload.get("version") != CACHE_FORMAT_VERSION:
        _LOGGER.warning(
            "ignoring cache snapshot %s with format version %r (expected %d)",
            path,
            payload.get("version"),
            CACHE_FORMAT_VERSION,
        )
        return None
    if payload.get("code") != _code_stamp():
        _LOGGER.warning(
            "ignoring cache snapshot %s written by other code %r (expected %r)",
            path,
            payload.get("code"),
            _code_stamp(),
        )
        return None
    return payload


def _write_snapshot(path: Path, payload: dict) -> None:
    """Pickle ``payload`` to ``path`` atomically (temp file + rename)."""
    fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _is_frozen(array: np.ndarray) -> bool:
    """Whether ``array``'s content cannot change: read-only and owning its data."""
    return not array.flags.writeable and array.base is None


#: ``(id(inputs), id(labels))`` → ``(weak inputs, weak labels, fingerprint)``
#: of frozen splits (see :meth:`EvaluationCache.split_fingerprint`).  An
#: entry leaves when either array dies, before its id can be reused.
_FINGERPRINTS: Dict[Tuple[int, int], Tuple[Any, Any, Hashable]] = {}


class LRUCache:
    """A bounded mapping with least-recently-*used* eviction.

    Unlike a plain insertion-ordered dict bound, a :meth:`get` hit moves
    the entry to the back of the eviction queue, so entries are evicted
    in true LRU order.  ``hits`` / ``misses`` count lookups and
    ``writes`` counts the calls that changed the entries (:meth:`put`, a
    :meth:`pop` hit), which tells a snapshot writer whether anything is
    new.
    """

    def __init__(self, max_size: int) -> None:
        if max_size <= 0:
            raise ValueError(f"max_size must be positive, got {max_size}")
        self.max_size = max_size
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()

    def restore(self, entries: Sequence[Tuple[Hashable, Any]]) -> int:
        """Put persisted ``(key, value)`` pairs, least recent first.

        Returns how many were read.  Each goes through :meth:`put`, so
        this section's bound applies.  Raises ``TypeError`` /
        ``ValueError`` on a malformed entry.
        """
        count = 0
        for key, value in entries:
            self.put(key, value)
            count += 1
        return count

    def entries(self) -> List[Tuple[Hashable, Any]]:
        """``(key, value)`` pairs, least recent first."""
        return list(self._data.items())

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, refreshing its recency on a hit."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) ``key``, evicting the least recently used."""
        data = self._data
        data[key] = value
        data.move_to_end(key)
        self.writes += 1
        while len(data) > self.max_size:
            data.popitem(last=False)

    def pop(self, key: Hashable, default: Any = None) -> Any:
        """Remove and return ``key``'s value, counted like a :meth:`get`."""
        value = self._data.pop(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self.hits += 1
        self.writes += 1
        return value

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)


class EvaluationCache:
    """One memo shared by the GA, front-synthesis and reporting stages."""

    #: Bounds of the ``accuracy`` and ``reports`` sections.
    MAX_ACCURACY_ENTRIES = 250_000
    MAX_REPORT_ENTRIES = 65_536
    #: Bound of the ``modules`` section.  Its entries are 60–220 KB each
    #: and live only between verification and publishing; a front
    #: longer than this is re-parsed for the members evicted first.
    MAX_MODULE_ENTRIES = 64

    def __init__(self) -> None:
        self.accuracy = LRUCache(self.MAX_ACCURACY_ENTRIES)
        self.reports = LRUCache(self.MAX_REPORT_ENTRIES)
        # A few entries per dataset: one per stage kind and settings.
        self.stages = LRUCache(256)
        # In memory only: one capped front's worth of compiled modules.
        self.modules = LRUCache(self.MAX_MODULE_ENTRIES)

    # ------------------------------------------------------------------
    @staticmethod
    def genome_key(chromosome: np.ndarray) -> bytes:
        """Canonical cache key of a chromosome (its int64 genome bytes).

        It keys the accuracy, report and module sections and names
        published designs.
        """
        return np.ascontiguousarray(chromosome, dtype=np.int64).tobytes()

    @staticmethod
    def layout_key(layout: Any) -> str:
        """Decode-semantics identity of a chromosome layout.

        Two layouts with the same topology and number formats decode any given genome identically; layouts differing
        only in gene *bounds* (the ablation experiments restrict those)
        share a key on purpose.  Namespacing entries with this prevents
        collisions between layouts whose chromosomes merely have equal
        byte length.  One :func:`stable_fingerprint` string, so keys
        built on it stay flat.
        """
        return stable_fingerprint(
            repr(tuple(int(size) for size in layout.topology.sizes)),
            repr(layout.config),  # the dataclass repr: every field, by name
        )

    @staticmethod
    def split_fingerprint(inputs: np.ndarray, labels: np.ndarray) -> Hashable:
        """A compact identity for a dataset split, for accuracy keys.

        The content digest is a keyless BLAKE2b rather than Python's
        built-in ``hash``: the built-in hash of ``bytes`` is salted per
        process (``PYTHONHASHSEED``), which would make every persisted
        key miss after a restart.  The digest is stable across processes
        and machines, so disk-backed caches keep hitting.

        When both arrays are read-only and own their data (the arrays a
        :class:`~repro.datasets.dataset.DatasetSplit` hands out), their
        content cannot change, so the fingerprint is remembered for as
        long as both live and each split is hashed once.
        """
        inputs = np.asarray(inputs)
        labels = np.asarray(labels)
        frozen = _is_frozen(inputs) and _is_frozen(labels)
        memo_key = (id(inputs), id(labels))
        if frozen:
            memo = _FINGERPRINTS.get(memo_key)
            if memo is not None and memo[0]() is inputs and memo[1]() is labels:
                return memo[2]
        digest = hashlib.blake2b(digest_size=16)
        digest.update(np.ascontiguousarray(inputs).tobytes())
        digest.update(np.ascontiguousarray(labels).tobytes())
        fingerprint = (
            inputs.shape,
            labels.shape,
            str(inputs.dtype),
            str(labels.dtype),
            digest.hexdigest(),
        )
        if frozen:
            forget = lambda _: _FINGERPRINTS.pop(memo_key, None)  # noqa: E731
            _FINGERPRINTS[memo_key] = (
                weakref.ref(inputs, forget),
                weakref.ref(labels, forget),
                fingerprint,
            )
        return fingerprint

    @staticmethod
    def report_key(genome: Hashable, clock_period_ms: float) -> Hashable:
        """Cache key of one hardware report (a design at a clock period).

        ``genome`` is typically the layout-scoped ``(layout_key, genome
        bytes)`` pair used throughout :func:`evaluate_front`.
        """
        return (genome, float(clock_period_ms))

    @staticmethod
    def stage_key(kind: str, *parts: Hashable) -> Tuple[str, Hashable]:
        """Key of one persisted stage result in the ``stages`` section.

        ``(kind, parts)``.  The numpy version and :func:`code_digest`
        are not part of it: every snapshot file records them once, and
        :meth:`load` restores nothing from a file written by other code.
        """
        return (kind, parts)

    @staticmethod
    def settings_key(settings: Any) -> Tuple[Tuple[str, Any], ...]:
        """A dataclass's ``(field name, value)`` pairs, for stage keys."""
        return tuple((field.name, getattr(settings, field.name)) for field in fields(settings))

    @staticmethod
    def baseline_key(split: Hashable, sizes: Sequence[int], trainer: Any) -> Hashable:
        """Stage key of one trained float baseline.

        ``split`` is the training split's :meth:`split_fingerprint`,
        ``sizes`` the topology's layer sizes and ``trainer`` the
        :class:`~repro.baselines.gradient.GradientTrainer` dataclass;
        every trainer field is part of the key.
        """
        return EvaluationCache.stage_key(
            "baseline",
            split,
            tuple(int(size) for size in sizes),
            EvaluationCache.settings_key(trainer),
        )

    # ------------------------------------------------------------------
    def persisted_writes(self) -> int:
        """Changes made so far to the sections a snapshot holds (:attr:`LRUCache.writes`)."""
        return sum(getattr(self, name).writes for name in self._PERSISTED_SECTIONS)

    # ------------------------------------------------------------------
    # Disk persistence
    # ------------------------------------------------------------------
    #: Sections written into a snapshot.  ``modules`` is left out:
    #: compiled modules are large and are rebuilt lazily from the
    #: genomes anyway.
    _PERSISTED_SECTIONS = ("accuracy", "reports", "stages")

    def save(self, path: Union[str, Path]) -> int:
        """Snapshot the data sections to ``path``; returns entries written.

        The snapshot records the format version, the numpy version and
        the :func:`code_digest`, and is written atomically (temp file +
        rename), so a crash mid-save leaves the previous file intact.
        Entries are stored as ``(key, value)`` pairs in LRU order (least
        recently used first), so a later :meth:`load` into a smaller
        cache keeps the hottest entries.
        A ``<path>.fitness`` file left beside the snapshot by format 10
        or earlier (the deleted GA fitness memo) is removed.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        sections = {name: getattr(self, name).entries() for name in self._PERSISTED_SECTIONS}
        _write_snapshot(
            path,
            {
                "magic": _SNAPSHOT_MAGIC,
                "version": CACHE_FORMAT_VERSION,
                "code": _code_stamp(),
                "sections": sections,
            },
        )
        path.with_name(path.name + ".fitness").unlink(missing_ok=True)
        return sum(len(entries) for entries in sections.values())

    def load(self, path: Union[str, Path]) -> int:
        """Restore a snapshot written by :meth:`save`; returns entries loaded.

        Loading is corruption-tolerant and never raises on bad input: a
        missing file, a truncated or garbage pickle, a foreign payload,
        a format-version mismatch or a file written by other code (numpy
        version or :func:`code_digest`) restores nothing (logged at
        WARNING level, except the common missing-file case).
        Deserialization is restricted to the snapshot allowlist
        (:data:`_SAFE_SNAPSHOT_GLOBALS`), so a malicious file in the
        cache directory cannot execute code during load.  Restored
        entries go through the normal :meth:`LRUCache.put` path, so the
        section bounds of *this* cache apply.
        """
        path = Path(path)
        payload = _read_snapshot(path)
        if payload is None:
            return 0
        sections = payload.get("sections")
        if not isinstance(sections, dict):
            _LOGGER.warning("ignoring cache snapshot %s without a section table", path)
            return 0
        total = 0
        for name in self._PERSISTED_SECTIONS:
            section = getattr(self, name)
            try:
                total += section.restore(sections.get(name, []))
            except (TypeError, ValueError) as error:
                _LOGGER.warning(
                    "ignoring malformed %r section of cache snapshot %s: %s",
                    name,
                    path,
                    error,
                )
        return total
