"""CSV ingestion and dataset validation.

Rows with any missing or unparseable indicator cell are dropped whole, not
imputed; the drops are recorded in an IngestReport so callers can audit
what was removed.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from enum import Enum
from typing import BinaryIO

import numpy as np

from .errors import (
    DuplicateEntityIdError,
    EmptyInputError,
    HeaderMismatchError,
    InvariantError,
    NonFiniteInputError,
    TooFewRowsError,
)
from .model import RawDataset, Schema
from .normalize import _column_fault

__all__ = [
    "ENTITY_COLUMN",
    "MISSING_MARKERS",
    "FindingKind",
    "ValidationFinding",
    "IngestReport",
    "parse_csv",
    "validate",
]

ENTITY_COLUMN = "entity_id"

# Case-insensitive cell contents treated as absent values.
MISSING_MARKERS = frozenset({"", "na", "nan"})


class FindingKind(str, Enum):
    DEGENERATE_COLUMN = "DegenerateColumn"
    NON_FINITE_VALUE = "NonFiniteValue"


@dataclass(frozen=True)
class ValidationFinding:
    """One dataset problem discovered by validate; data, not a failure."""

    kind: FindingKind
    indicator: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind.value}: indicator '{self.indicator}': {self.detail}"


@dataclass(frozen=True)
class IngestReport:
    """Counts and identifiers of rows removed during parsing."""

    rows_read: int
    rows_dropped: int
    dropped_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dropped_ids", tuple(self.dropped_ids))
        if self.rows_dropped != len(self.dropped_ids):
            raise InvariantError("rows_dropped must match the dropped id list")
        if self.rows_dropped > self.rows_read:
            raise InvariantError("cannot drop more rows than were read")

    @property
    def rows_retained(self) -> int:
        return self.rows_read - self.rows_dropped


def _parse_cell(cell: str) -> float | None:
    """Parse one indicator cell; None means missing or unparseable."""
    text = cell.strip()
    if text.lower() in MISSING_MARKERS:
        return None
    try:
        return float(text)
    except ValueError:
        return None


def parse_csv(source: BinaryIO | bytes, schema: Schema) -> tuple[RawDataset, IngestReport]:
    """Parse UTF-8 CSV bytes into a dataset, dropping incomplete rows.

    The header's first column must be literally ``entity_id``; the
    remaining columns are matched to schema indicator names by header
    name, so the column order of the file does not matter.  A row with
    fewer or more cells than the header is dropped like a row with a
    missing cell.  A caller's binary handle is left open.

    Raises HeaderMismatchError, EmptyInputError, TooFewRowsError, or
    DuplicateEntityIdError (also for a blank entity id).
    """
    if isinstance(source, (bytes, bytearray)):
        source = io.BytesIO(source)
    text = io.TextIOWrapper(source, encoding="utf-8-sig", newline="")
    try:
        return _parse_records(csv.reader(text), schema)
    finally:
        # Unhook the wrapper so collecting it neither closes the caller's
        # handle nor warns about it.
        text.detach()


def _parse_records(reader, schema: Schema) -> tuple[RawDataset, IngestReport]:
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyInputError("input has no header row") from None

    header = [cell.strip() for cell in header]
    if not header or header[0] != ENTITY_COLUMN:
        found = header[0] if header else "nothing"
        raise HeaderMismatchError(
            f"first column must be '{ENTITY_COLUMN}', got {found!r}"
        )
    indicator_headers = header[1:]
    seen: set[str] = set()
    for name in indicator_headers:
        if name in seen:
            raise HeaderMismatchError(f"duplicate column '{name}'")
        seen.add(name)
    for name in schema.names:
        if name not in seen:
            raise HeaderMismatchError(f"schema indicator '{name}' has no column")
    unknown = [name for name in indicator_headers if name not in set(schema.names)]
    if unknown:
        raise HeaderMismatchError(
            f"columns not in schema: {', '.join(sorted(unknown))}"
        )
    # Position of each schema indicator within a data row (offset by the id).
    column_of = {name: indicator_headers.index(name) + 1 for name in schema.names}

    entity_ids: list[str] = []
    rows: list[list[float]] = []
    dropped: list[str] = []
    rows_read = 0
    for record in reader:
        if not record:
            continue  # blank line, not a data row
        rows_read += 1
        entity_id = record[0].strip()
        if not entity_id:
            raise DuplicateEntityIdError(f"line {reader.line_num}: blank entity id")
        cells: list[float] = []
        complete = len(record) == len(header)
        if complete:
            for name in schema.names:
                value = _parse_cell(record[column_of[name]])
                if value is None:
                    complete = False
                    break
                cells.append(value)
        if complete:
            entity_ids.append(entity_id)
            rows.append(cells)
        else:
            dropped.append(entity_id)

    if rows_read == 0:
        raise EmptyInputError("input has a header but no data rows")
    if len(rows) < 2:
        raise TooFewRowsError(
            f"only {len(rows)} usable row(s) remain after dropping "
            f"{len(dropped)} incomplete row(s); need at least 2"
        )
    counts: dict[str, int] = {}
    for entity_id in entity_ids:
        counts[entity_id] = counts.get(entity_id, 0) + 1
    dupes = sorted(eid for eid, k in counts.items() if k > 1)
    if dupes:
        raise DuplicateEntityIdError(f"duplicate entity ids: {', '.join(dupes)}")

    dataset = RawDataset(tuple(entity_ids), np.array(rows, dtype=np.float64), schema)
    report = IngestReport(rows_read, len(dropped), tuple(dropped))
    return dataset, report


def validate(dataset: RawDataset) -> list[ValidationFinding]:
    """Check a dataset for conditions that make it unevaluable.

    Returns one finding per indicator column that cannot be normalized:
    NonFiniteValue when it holds NaN or infinite entries (naming the
    entities) or its range overflows float64, DegenerateColumn when it has
    no spread.  An empty list means the dataset can be normalized and
    scored.
    """
    findings: list[ValidationFinding] = []
    for j, spec in enumerate(dataset.schema):
        fault = _column_fault(dataset.values[:, j], dataset.entity_ids)
        if fault is not None:
            error, detail = fault
            kind = (
                FindingKind.NON_FINITE_VALUE
                if error is NonFiniteInputError
                else FindingKind.DEGENERATE_COLUMN
            )
            findings.append(ValidationFinding(kind, spec.name, detail))
    return findings
