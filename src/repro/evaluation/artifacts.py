"""Typed, serializable experiment artifacts (the session API's results).

Every paper artifact the experiment harness regenerates — Table I/II/III,
Fig. 4/5 and the two ablations — is represented by one
:class:`Artifact`: a frozen record of the experiment name, the scale it
was produced at, and its rows (plain scalar mappings).  Artifacts are

* **machine readable** — :meth:`Artifact.to_json` / :meth:`Artifact.to_csv`
  emit strict JSON / RFC-4180-ish CSV, and :meth:`Artifact.from_json`
  restores a bit-identical artifact (non-finite floats included, via an
  explicit ``{"$float": ...}`` encoding so the JSON stays standard);
* **human readable** — :meth:`Artifact.format` renders the same
  fixed-width text table the experiment scripts have always printed;
* **schema versioned** — :data:`ARTIFACT_SCHEMA_VERSION` is embedded in
  every export and checked on load, so downstream consumers can detect
  incompatible layout changes instead of mis-parsing them.

Rows are normalized at construction: numpy scalars become Python
scalars, and any non-scalar cell (lists, arrays, objects) is rejected
immediately rather than at export time.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.evaluation.report import format_rows

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "Artifact",
    "ArtifactError",
    "normalize_cell",
    "encode_cell",
    "decode_cell",
]

#: Version of the exported artifact layout.  Bump whenever field names,
#: row normalization or the special-float encoding change shape.
ARTIFACT_SCHEMA_VERSION = 1

#: JSON key marking a non-finite float ("Infinity" / "-Infinity" / "NaN").
_FLOAT_TOKEN = "$float"


class ArtifactError(ValueError):
    """A value cannot be represented in (or parsed from) an artifact."""


def _normalize_scalar(value: object) -> object:
    """Coerce one cell to a JSON-representable Python scalar.

    numpy is read from ``sys.modules`` rather than imported, so the
    serving tier never loads it: a numpy scalar can only exist once
    numpy is loaded.
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    np = sys.modules.get("numpy")
    if isinstance(value, int) or (np is not None and isinstance(value, np.integer)):
        return int(value)
    if isinstance(value, float) or (np is not None and isinstance(value, np.floating)):
        return float(value)
    raise ArtifactError(
        f"cell of type {type(value).__name__} is not a serializable scalar: {value!r}"
    )


def _normalize_row(row: Mapping[str, object]) -> Dict[str, object]:
    normalized: Dict[str, object] = {}
    for key, value in row.items():
        if not isinstance(key, str):
            raise ArtifactError(f"row keys must be strings, got {key!r}")
        normalized[key] = _normalize_scalar(value)
    return normalized


def _encode_value(value: object) -> object:
    """Strict-JSON encoding of one cell (special floats become tokens)."""
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            token = "NaN"
        else:
            token = "Infinity" if value > 0 else "-Infinity"
        return {_FLOAT_TOKEN: token}
    return value


def _decode_value(value: object) -> object:
    if isinstance(value, dict):
        if set(value) != {_FLOAT_TOKEN}:
            raise ArtifactError(f"unexpected object cell {value!r}")
        token = value[_FLOAT_TOKEN]
        try:
            return {"NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf}[token]
        except KeyError:
            raise ArtifactError(f"unknown float token {token!r}") from None
    return value


#: Public names for the strict-JSON cell codec.  The serving design store
#: persists its records with the exact same conventions as the artifacts
#: (scalar-only cells, ``allow_nan=False``, special floats as tokens).
normalize_cell = _normalize_scalar
encode_cell = _encode_value
decode_cell = _decode_value


def _cells_equal(left: object, right: object) -> bool:
    if isinstance(left, float) and isinstance(right, float):
        return (math.isnan(left) and math.isnan(right)) or left == right
    return type(left) is type(right) and left == right


@dataclass(frozen=True, eq=False)
class Artifact:
    """One experiment's typed result set.

    Attributes
    ----------
    experiment:
        Experiment name (``table1`` … ``ablation_ga``).
    scale:
        Name of the :class:`~repro.experiments.config.ExperimentScale`
        the rows were produced at.
    seed:
        Global seed of the producing session.
    datasets:
        Datasets covered by the producing session's scale.
    rows:
        One mapping per table row; values are plain scalars.
    display:
        ``(header, row key)`` pairs selecting and labelling the columns
        of the human-readable table (:meth:`format`).
    schema_version:
        Artifact layout version embedded in every export.
    """

    experiment: str
    scale: str
    seed: int
    datasets: Tuple[str, ...]
    rows: Tuple[Dict[str, object], ...]
    display: Tuple[Tuple[str, str], ...]
    schema_version: int = ARTIFACT_SCHEMA_VERSION

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        experiment: str,
        rows: Iterable[Mapping[str, object]],
        *,
        scale: str,
        seed: int,
        datasets: Sequence[str],
        display: Optional[Sequence[Tuple[str, str]]] = None,
    ) -> "Artifact":
        """Normalize ``rows`` and assemble an artifact.

        When ``display`` is omitted every column of the first row is
        shown under its own key (the ablation tables work this way).
        """
        normalized = tuple(_normalize_row(row) for row in rows)
        if display is None:
            first = normalized[0] if normalized else {}
            display = tuple((key, key) for key in first)
        else:
            display = tuple((str(header), str(key)) for header, key in display)
        return cls(
            experiment=str(experiment),
            scale=str(scale),
            seed=int(seed),
            datasets=tuple(str(name) for name in datasets),
            rows=normalized,
            display=display,
        )

    # ------------------------------------------------------------------
    @property
    def columns(self) -> List[str]:
        """Union of row keys in first-seen order (the CSV header)."""
        columns: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        return columns

    def __hash__(self) -> int:
        # Rows are dicts (unhashable); hashing the identity fields keeps
        # artifacts usable in sets/dict keys, and equal artifacts (which
        # share all identity fields) hash equal.
        return hash(
            (
                self.experiment,
                self.scale,
                self.seed,
                self.datasets,
                self.display,
                self.schema_version,
            )
        )

    def __eq__(self, other: object) -> bool:
        """Field equality with NaN-tolerant cell comparison."""
        if not isinstance(other, Artifact):
            return NotImplemented
        if (
            self.experiment != other.experiment
            or self.scale != other.scale
            or self.seed != other.seed
            or self.datasets != other.datasets
            or self.display != other.display
            or self.schema_version != other.schema_version
            or len(self.rows) != len(other.rows)
        ):
            return False
        for mine, theirs in zip(self.rows, other.rows):
            if list(mine) != list(theirs):
                return False
            if not all(_cells_equal(mine[key], theirs[key]) for key in mine):
                return False
        return True

    # ------------------------------------------------------------------
    # Formats
    # ------------------------------------------------------------------
    def format(self) -> str:
        """The fixed-width text table (what the runner prints)."""
        return format_rows(self.display, self.rows)

    def to_json(self, indent: int = 2) -> str:
        """Strict JSON encoding (``allow_nan=False``; see module docs)."""
        payload = {
            "schema_version": self.schema_version,
            "experiment": self.experiment,
            "scale": self.scale,
            "seed": self.seed,
            "datasets": list(self.datasets),
            "display": [list(pair) for pair in self.display],
            "rows": [
                {key: _encode_value(value) for key, value in row.items()}
                for row in self.rows
            ],
        }
        return json.dumps(payload, indent=indent, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "Artifact":
        """Parse an artifact exported by :meth:`to_json`.

        Raises :class:`ArtifactError` on malformed payloads or a schema
        version this library does not understand.
        """
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ArtifactError(f"not valid JSON: {error}") from None
        if not isinstance(payload, dict):
            raise ArtifactError("artifact payload must be a JSON object")
        version = payload.get("schema_version")
        if version != ARTIFACT_SCHEMA_VERSION:
            raise ArtifactError(
                f"unsupported artifact schema version {version!r} "
                f"(expected {ARTIFACT_SCHEMA_VERSION})"
            )
        missing = {"experiment", "scale", "seed", "datasets", "display", "rows"} - set(
            payload
        )
        if missing:
            raise ArtifactError(f"artifact payload is missing fields {sorted(missing)}")
        rows = tuple(
            {key: _decode_value(value) for key, value in row.items()}
            for row in payload["rows"]
        )
        display = tuple((str(h), str(k)) for h, k in payload["display"])
        return cls(
            experiment=str(payload["experiment"]),
            scale=str(payload["scale"]),
            seed=int(payload["seed"]),
            datasets=tuple(str(name) for name in payload["datasets"]),
            rows=rows,
            display=display,
            schema_version=int(version),
        )

    def to_csv(self) -> str:
        """CSV with the union of row keys as header.

        Cells keep Python ``repr`` fidelity for floats (``csv`` writes
        ``str(value)``, which round-trips shortest-repr floats); ``None``
        becomes an empty cell.
        """
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        columns = self.columns
        writer.writerow(columns)
        for row in self.rows:
            writer.writerow(
                ["" if row.get(key) is None else row.get(key) for key in columns]
            )
        return buffer.getvalue()

    # ------------------------------------------------------------------
    def save(self, directory: Union[str, Path]) -> List[Path]:
        """Write ``<experiment>.json`` and ``<experiment>.csv`` to ``directory``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        json_path = directory / f"{self.experiment}.json"
        csv_path = directory / f"{self.experiment}.csv"
        json_path.write_text(self.to_json() + "\n", encoding="utf-8")
        csv_path.write_text(self.to_csv(), encoding="utf-8")
        return [json_path, csv_path]
