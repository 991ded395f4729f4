"""Plain-text tables for experiment output.

Every experiment returns a :class:`Table`; benchmarks and the CLI print it.
The format is deliberately simple (fixed-width columns, no external
dependencies) so the output reads well inside pytest-benchmark logs and can be
diffed across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List

from ..core.errors import ExperimentError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (spec builds tables)
    from ..spec.run import ScenarioRun

__all__ = ["Table"]


@dataclass
class Table:
    """A titled table of experiment results.

    Attributes
    ----------
    title:
        Table caption, e.g. ``"E1 — round complexity (d = 8)"``.
    columns:
        Ordered column names.
    rows:
        One dict per row; missing keys render as empty cells.
    notes:
        Free-text lines printed below the table (e.g. which scaling law fits
        best, or a pointer to the paper claim the table reproduces).
    metadata:
        Machine-readable provenance that travels with the saved table but is
        not rendered — most importantly the serialized
        :class:`repro.spec.ScenarioSpec` record(s) that reproduce the table
        (see :meth:`record_runs`).
    """

    title: str
    columns: List[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    def add_row(self, **values: object) -> None:
        """Append a row given as keyword arguments."""
        unknown = set(values) - set(self.columns)
        if unknown:
            raise ExperimentError(
                f"row contains columns {sorted(unknown)} not in table {self.columns}"
            )
        self.rows.append(dict(values))

    def add_note(self, note: str) -> None:
        """Append a free-text note shown under the table."""
        self.notes.append(note)

    def record_runs(self, *runs: "ScenarioRun") -> None:
        """Record the scenario specs this table was built from.

        One run is stored as ``metadata["spec"]``, several as
        ``metadata["specs"]`` (one spec per run, in run order).  Runs that
        went through the distributed executor add their provenance as
        ``metadata["distributed"]`` in the same shape: one dict, or a list
        aligned with ``specs``.
        """
        if len(runs) == 1:
            self.metadata["spec"] = runs[0].spec.to_dict()
            if runs[0].provenance:
                self.metadata["distributed"] = dict(runs[0].provenance)
            return
        self.metadata["specs"] = [run.spec.to_dict() for run in runs]
        if any(run.provenance for run in runs):
            self.metadata["distributed"] = [dict(run.provenance) for run in runs]

    def column(self, name: str) -> List[object]:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise ExperimentError(f"unknown column {name!r}")
        return [row.get(name) for row in self.rows]

    # -- rendering -----------------------------------------------------------------

    @staticmethod
    def _format_cell(value: object) -> str:
        if value is None:
            return ""
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    def render(self) -> str:
        """Render the table (title, header, rows, notes) as a string."""
        formatted_rows = [
            [self._format_cell(row.get(column)) for column in self.columns]
            for row in self.rows
        ]
        widths = [
            max(len(column), *(len(r[i]) for r in formatted_rows))
            if formatted_rows
            else len(column)
            for i, column in enumerate(self.columns)
        ]
        header = " | ".join(
            column.ljust(widths[i]) for i, column in enumerate(self.columns)
        )
        separator = "-+-".join("-" * width for width in widths)
        lines = [self.title, "=" * len(self.title), header, separator]
        for row in formatted_rows:
            lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        for note in self.notes:
            lines.append(f"  * {note}")
        return "\n".join(lines)

    def to_records(self) -> List[Dict[str, object]]:
        """The rows as plain dictionaries (for programmatic consumption)."""
        return [dict(row) for row in self.rows]

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()
