"""Persistence for experiment tables.

Experiment tables are plain data (title, columns, rows, notes, metadata), so
they serialise naturally to JSON for archival / re-plotting and to CSV for
spreadsheets, so recorded numbers are regenerated from saved JSON files
rather than by copying terminal output around; the CLI's ``--save`` flag
uses the same functions.

Saved JSON carries a ``schema_version`` field; loading is tolerant of the
format drift older records exhibit (missing ``schema_version``/``notes``/
``metadata``, rows whose keys drifted from the column list) and only rejects
files from a *newer* schema than this build understands, so archives keep
loading as the format evolves instead of dying on ``KeyError``.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Union

from ..core.errors import ExperimentError
from .tables import Table

__all__ = [
    "SCHEMA_VERSION",
    "ResultsIOError",
    "save_table_json",
    "load_table_json",
    "save_table_csv",
    "save_table",
]

PathLike = Union[str, Path]


class ResultsIOError(ExperimentError):
    """A saved results file cannot be read (truncated, invalid, or newer).

    Carries the offending ``path`` so callers batch-loading archives can
    report *which* file is damaged instead of re-parsing the message.
    Subclasses :class:`ExperimentError`, so existing ``except`` clauses
    keep working.
    """

    def __init__(self, path: PathLike, reason: str) -> None:
        self.path = str(path)
        super().__init__(f"cannot load table from {self.path}: {reason}")

#: Version written into saved tables.  History:
#: 1 — title/columns/rows/notes (implicit; files carry no version field);
#: 2 — adds ``schema_version`` and the ``metadata`` block (e.g. the scenario
#:     spec that produced the table).
SCHEMA_VERSION = 2


def save_table_json(table: Table, path: PathLike) -> Path:
    """Write ``table`` to ``path`` as JSON; returns the resolved path."""
    destination = Path(path)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "title": table.title,
        "columns": table.columns,
        "rows": table.to_records(),
        "notes": list(table.notes),
        "metadata": dict(table.metadata),
    }
    destination.write_text(json.dumps(payload, indent=2, sort_keys=False))
    return destination


def load_table_json(path: PathLike) -> Table:
    """Read a table previously written by :func:`save_table_json`.

    Tolerates older records: a missing ``schema_version`` is treated as
    version 1, missing ``notes``/``metadata`` default to empty, a missing
    ``columns`` list is inferred from the rows, and row keys that drifted
    from the column list extend it instead of raising.  Files written by a
    *newer* schema are rejected with a clear message.

    Every failure — unreadable file, truncated/invalid JSON, wrong shape,
    newer schema — raises :class:`ResultsIOError` naming the path.
    """
    source = Path(path)
    try:
        payload = json.loads(source.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise ResultsIOError(source, str(error)) from error
    if not isinstance(payload, dict):
        raise ResultsIOError(source, "file does not hold a JSON object")
    version = payload.get("schema_version", 1)
    if not isinstance(version, int) or version < 1:
        raise ResultsIOError(source, f"invalid schema_version {version!r}")
    if version > SCHEMA_VERSION:
        raise ResultsIOError(
            source,
            f"written by schema version {version}, but this build reads up "
            f"to version {SCHEMA_VERSION}; upgrade repro to load it",
        )
    if "rows" not in payload and "columns" not in payload:
        raise ResultsIOError(
            source, "file has neither 'rows' nor 'columns'; not a saved table"
        )
    rows = payload.get("rows", [])
    if not isinstance(rows, list):
        raise ResultsIOError(source, "non-list 'rows' field")
    columns = list(payload.get("columns", []))
    # Format drift: rows may carry keys the column list predates (or the
    # column list may be absent entirely).  Extend instead of KeyError-ing.
    seen = set(columns)
    for row in rows:
        if not isinstance(row, dict):
            raise ResultsIOError(source, f"non-mapping row: {row!r}")
        for key in row:
            if key not in seen:
                seen.add(key)
                columns.append(key)
    table = Table(
        title=payload.get("title", ""),
        columns=columns,
        metadata=dict(payload.get("metadata", {})),
    )
    for row in rows:
        table.add_row(**row)
    for note in payload.get("notes", []):
        table.add_note(note)
    return table


def save_table_csv(table: Table, path: PathLike) -> Path:
    """Write the rows of ``table`` to ``path`` as CSV (title/notes omitted)."""
    destination = Path(path)
    with destination.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=table.columns)
        writer.writeheader()
        for row in table.to_records():
            writer.writerow({column: row.get(column, "") for column in table.columns})
    return destination


def save_table(table: Table, path: PathLike) -> Path:
    """Save ``table`` choosing the format from the file extension (.json/.csv)."""
    destination = Path(path)
    suffix = destination.suffix.lower()
    if suffix == ".json":
        return save_table_json(table, destination)
    if suffix == ".csv":
        return save_table_csv(table, destination)
    raise ExperimentError(
        f"unsupported table format {suffix!r} for {destination}; use .json or .csv"
    )
