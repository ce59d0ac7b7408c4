"""CSV ingestion and dataset validation.

Rows with any missing or unparseable indicator cell are dropped whole, not
imputed; the drops are recorded in an IngestReport so callers can audit
what was removed.
"""

from __future__ import annotations

import csv
import io
import operator
from array import array
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from .errors import (
    DuplicateEntityIdError,
    EmptyInputError,
    EntroscoreError,
    HeaderMismatchError,
    InvariantError,
    MalformedCsvError,
    TooFewRowsError,
)
from .model import RawDataset, Schema
from .normalize import _column_fault

__all__ = [
    "ENTITY_COLUMN",
    "MISSING_MARKERS",
    "ValidationFinding",
    "IngestReport",
    "parse_csv",
    "validate",
]

ENTITY_COLUMN = "entity_id"

# Case-insensitive cell contents treated as absent values.
MISSING_MARKERS = frozenset({"", "na", "nan"})


@dataclass(frozen=True)
class ValidationFinding:
    """One unevaluable column found by validate, with the error the pipeline raises."""

    error: type[EntroscoreError]
    indicator: str
    detail: str

    def __str__(self) -> str:
        return f"{self.error.__name__}: indicator '{self.indicator}': {self.detail}"


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
    """Parse one indicator cell; None means missing or unparseable.

    A number is what float() reads from ASCII text without '_' digit
    separators, so '1_000' and non-ASCII digits are unparseable.
    """
    text = cell.strip()
    if not text.isascii() or "_" in text:
        return None
    try:
        value = float(text)
    except ValueError:
        return None
    # Of the missing markers only "nan" parses; testing it after float()
    # keeps the common numeric cell off the marker lookup.
    if value != value and text.lower() in MISSING_MARKERS:
        return None
    return value


def _parse_row(cells: tuple[str, ...], out: array) -> bool:
    """Append a row's indicator values to out; False drops the row.

    float() on the raw cell agrees with _parse_cell whenever the row's
    text is ASCII without '_', 'n' or 'N': float() then strips the same
    whitespace str.strip() does (or raises, on '\\x1c'-'\\x1f'), and every
    NaN or inf spelling holds an 'n'.  Any other row takes _parse_cell,
    which stays the definition of a cell.  Whatever a row appended before
    it failed is cut off again, so a dropped row leaves out as it was.
    """
    mark = len(out)
    try:
        out.extend(map(float, cells))
    except ValueError:
        pass
    else:
        text = "".join(cells)
        if text.isascii() and "_" not in text and "n" not in text and "N" not in text:
            return True
    del out[mark:]
    for cell in cells:
        value = _parse_cell(cell)
        if value is None:
            del out[mark:]
            return False
        out.append(value)
    return True


class _ChunkReader(io.BufferedIOBase):
    """The caller's bytes as parse_csv's text layer reads them, chunk by chunk.

    cr_pending says whether the chunk before the latest one ended in CR.
    The text layer holds such a CR back until it sees whether an LF
    follows, so if the next chunk fails to decode, the CR's line has not
    reached the csv reader.  Closing this reader leaves the caller's open.
    """

    def __init__(self, source: BinaryIO):
        super().__init__()
        self._read = getattr(source, "read1", source.read)
        self._last = b""
        self.cr_pending = False

    def readable(self) -> bool:
        return True

    def read1(self, size: int = -1) -> bytes:
        chunk = self._read(size)
        self.cr_pending = self._last == b"\r"
        self._last = chunk[-1:]
        return chunk


def _undecodable_line(lines_read: int, exc: UnicodeDecodeError, cr_pending: bool) -> int:
    """The line of the bad byte exc names, once the csv reader has read lines_read.

    exc.object holds the bytes from the end of the last decoded chunk on.
    Every line that ended before them has reached the csv reader, but for
    one ended by a held-back CR.  A line ends at CRLF, LF or CR.
    """
    before = exc.object[: exc.start]
    breaks = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
    if cr_pending and not before.startswith(b"\n"):
        breaks += 1
    return lines_read + 1 + breaks


def parse_csv(source: BinaryIO | bytes, schema: Schema) -> tuple[RawDataset, IngestReport]:
    """Parse UTF-8 CSV bytes into a dataset, dropping incomplete rows.

    The header's first column must be literally ``entity_id``; the
    remaining columns are matched to schema indicator names by header
    name, so the column order of the file does not matter.  A row with
    fewer or more cells than the header is dropped like a row with a
    missing cell.  A caller's binary handle is left open.

    Raises HeaderMismatchError, EmptyInputError, TooFewRowsError,
    DuplicateEntityIdError (also for a blank entity id), or
    MalformedCsvError where the csv module cannot read a line, as when a
    field is longer than its field_size_limit, or where a byte is not
    UTF-8, naming the line that holds the first such byte.
    """
    if isinstance(source, (bytes, bytearray)):
        source = io.BytesIO(source)
    chunks = _ChunkReader(source)
    text = io.TextIOWrapper(chunks, encoding="utf-8-sig", newline="")
    reader = csv.reader(text)
    try:
        return _parse_records(reader, schema)
    except csv.Error as exc:
        raise MalformedCsvError(f"line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        line = _undecodable_line(reader.line_num, exc, chunks.cr_pending)
        byte = exc.object[exc.start]
        raise MalformedCsvError(f"line {line}: not UTF-8: byte 0x{byte:02x}: {exc.reason}") from None


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
    # Each schema indicator's cell, in schema order, sits after the id; the
    # id rides along so the getter always returns a tuple.
    width = len(header)
    pick = operator.itemgetter(0, *(indicator_headers.index(name) + 1 for name in schema.names))

    entity_ids: list[str] = []
    # Kept rows' values, packed row after row as C doubles.
    values = array("d")
    dropped: list[str] = []
    rows_read = 0
    for record in reader:
        if not record:
            continue  # blank line, not a data row
        rows_read += 1
        entity_id = record[0].strip()
        if not entity_id:
            raise DuplicateEntityIdError(f"line {reader.line_num}: blank entity id")
        if len(record) == width and _parse_row(pick(record)[1:], values):
            entity_ids.append(entity_id)
        else:
            dropped.append(entity_id)

    if rows_read == 0:
        raise EmptyInputError("input has a header but no data rows")
    if len(entity_ids) < 2:
        raise TooFewRowsError(
            f"only {len(entity_ids)} usable row(s) remain after dropping "
            f"{len(dropped)} incomplete row(s); need at least 2"
        )
    counts: dict[str, int] = {}
    for entity_id in entity_ids:
        counts[entity_id] = counts.get(entity_id, 0) + 1
    dupes = sorted(eid for eid, k in counts.items() if k > 1)
    if dupes:
        raise DuplicateEntityIdError(f"duplicate entity ids: {', '.join(dupes)}")

    matrix = np.frombuffer(values, dtype=np.float64).reshape(len(entity_ids), len(schema))
    dataset = RawDataset(tuple(entity_ids), matrix, schema)
    report = IngestReport(rows_read, len(dropped), tuple(dropped))
    return dataset, report


def validate(dataset: RawDataset) -> list[ValidationFinding]:
    """Check a dataset for conditions that make it unevaluable.

    Returns one finding per indicator column that cannot be normalized,
    carrying the error the pipeline would raise: NonFiniteInputError when
    the column holds NaN or infinite entries (naming the entities) or its
    range overflows float64, DegenerateColumnError when it has no spread.
    An empty list means the dataset can be normalized and scored.
    """
    findings: list[ValidationFinding] = []
    for j, spec in enumerate(dataset.schema):
        fault = _column_fault(dataset.values[:, j], dataset.entity_ids)
        if fault is not None:
            error, detail = fault
            findings.append(ValidationFinding(error, spec.name, detail))
    return findings
