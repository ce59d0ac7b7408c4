"""CSV ingestion and dataset validation.

Rows with any missing or unparseable indicator cell are dropped whole, not
imputed; the drops are recorded in an IngestReport so callers can audit
what was removed.
"""

from __future__ import annotations

import csv
import io
import itertools
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator, Sequence

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
from .model import RawDataset, Schema, _check_count
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
    """Counts and identifiers of rows removed during parsing; rows_read
    must be an int and dropped_ids an iterable, else InvariantError."""

    rows_read: int
    dropped_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        _check_count(self.rows_read, "rows_read")
        if not isinstance(self.dropped_ids, Iterable):
            raise InvariantError(f"dropped ids must be an iterable, got {self.dropped_ids!r}")
        object.__setattr__(self, "dropped_ids", tuple(self.dropped_ids))
        if self.rows_dropped > self.rows_read:
            raise InvariantError("cannot drop more rows than were read")

    @property
    def rows_dropped(self) -> int:
        return len(self.dropped_ids)

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


def _parse_row(cells: Sequence[str], text: str, out: array) -> bool:
    """Append a row's indicator values to out; False drops the row.

    cells are the row's cells after its id, in file order, and text
    holds them all, with nothing between them but commas.
    float() on the raw cell agrees with _parse_cell whenever that text
    is ASCII without '_', 'n' or 'N': float() then strips the same
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


def _check_decodable(text: str, line_num: int) -> None:
    """Raise MalformedCsvError if the record ending on line line_num held a non-UTF-8 byte.

    text is the record's cells joined by commas.  parse_csv decodes such
    a byte to a lone surrogate, U+DC80 to U+DCFF, which no valid UTF-8
    decodes to.  A quoted field keeps its line ends, so the byte's line
    is line_num less the line ends after it (CRLF, LF or CR).  The reason is the strict decoder's: the byte cannot start a
    sequence, or it does and the sequence breaks off (at the end of the
    input the strict decoder says "unexpected end of data" instead).
    """
    at = next((i for i, ch in enumerate(text) if "\udc80" <= ch <= "\udcff"), None)
    if at is None:
        return
    rest = text[at:]
    line = line_num - (rest.count("\n") + rest.count("\r") - rest.count("\r\n"))
    byte = ord(rest[0]) - 0xDC00
    reason = "invalid continuation byte" if 0xC2 <= byte <= 0xF4 else "invalid start byte"
    raise MalformedCsvError(f"line {line}: not UTF-8: byte 0x{byte:02x}: {reason}")


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
    UTF-8, naming the line that holds the first such byte.  Faults on a
    line, the header's included, are raised in file order; of the faults
    in one record, a non-UTF-8 byte is raised first.
    """
    if isinstance(source, (bytes, bytearray)):
        source = io.BytesIO(source)
    # A byte that is not UTF-8 decodes to a lone surrogate, so the lines
    # before it are read and checked first, and the first fault in file
    # order is the one raised.
    text = io.TextIOWrapper(source, encoding="utf-8-sig", errors="surrogateescape", newline="")
    try:
        return _parse_records(_records(text), schema)
    finally:
        text.detach()  # so the caller's handle stays open


def _records(lines: Iterable[str]) -> Iterator[tuple[int, list[str], str]]:
    """Yield csv.reader's records with the number of each one's last line.

    Each record comes with its cells joined by commas.  lines must end
    where csv's lines do, at "\\n", "\\r" and "\\r\\n", as a text stream
    opened with newline="" does.  A line with no '"' and no more
    characters than csv.field_size_limit() is a record that csv reads as
    the line split at commas, so str.split reads it.  Any other line goes
    with the lines after it to a csv.reader, which reads its record and
    leaves the rest, so quoted line breaks, line numbers and csv's errors
    stay the csv module's.  A csv.Error is raised as MalformedCsvError,
    naming the line csv stopped on, and so is a record holding a byte
    that is not UTF-8 (see _check_decodable), before it is yielded.
    """
    lines = iter(lines)
    limit = csv.field_size_limit()
    line_num = 0
    for line in lines:
        if '"' in line or len(line) > limit:
            reader = csv.reader(itertools.chain((line,), lines))
            try:
                record = next(reader)  # csv reads a record from any line
            except csv.Error as exc:
                raise MalformedCsvError(f"line {line_num + reader.line_num}: {exc}") from None
            line_num += reader.line_num
            text = ",".join(record)
        else:
            line_num += 1
            text = line.rstrip("\r\n")
            record = text.split(",") if text else []
        if not text.isascii():
            _check_decodable(text, line_num)
        yield line_num, record, text


def _parse_records(records, schema: Schema) -> tuple[RawDataset, IngestReport]:
    try:
        _, header, _ = next(records)
    except StopIteration:
        raise EmptyInputError("input has no header row") from None

    header = [cell.strip() for cell in header]
    if not header or header[0] != ENTITY_COLUMN:
        found = header[0] if header else "nothing"
        raise HeaderMismatchError(
            f"first column must be '{ENTITY_COLUMN}', got {found!r}"
        )
    seen: set[str] = set()
    for name in header[1:]:
        if name in seen:
            raise HeaderMismatchError(f"duplicate column '{name}'")
        seen.add(name)
    for name in schema.names:
        if name not in seen:
            raise HeaderMismatchError(f"schema indicator '{name}' has no column")
    unknown = seen.difference(schema.names)
    if unknown:
        raise HeaderMismatchError(
            f"columns not in schema: {', '.join(sorted(unknown))}"
        )

    width = len(header)
    entity_ids: list[str] = []
    # Kept rows' values in file column order, packed row after row as C doubles.
    values = array("d")
    dropped: list[str] = []
    for line_num, record, text in records:
        if not record:
            continue  # blank line, not a data row
        entity_id = record[0].strip()
        if not entity_id:
            raise DuplicateEntityIdError(f"line {line_num}: blank entity id")
        # The text after the id's comma holds the row's other cells.
        if len(record) == width and _parse_row(record[1:], text[len(record[0]) + 1 :], values):
            entity_ids.append(entity_id)
        else:
            dropped.append(entity_id)

    rows_read = len(entity_ids) + len(dropped)
    if rows_read == 0:
        raise EmptyInputError("input has a header but no data rows")
    if len(entity_ids) < 2:
        raise TooFewRowsError(
            f"only {len(entity_ids)} usable row(s) remain after dropping "
            f"{len(dropped)} incomplete row(s); need at least 2"
        )
    if len(set(entity_ids)) < len(entity_ids):
        dupes = sorted(eid for eid, k in Counter(entity_ids).items() if k > 1)
        raise DuplicateEntityIdError(f"duplicate entity ids: {', '.join(dupes)}")

    matrix = np.frombuffer(values, dtype=np.float64).reshape(len(entity_ids), len(schema))
    if header[1:] != list(schema.names):
        # take's copy is in C order, where matrix[:, order]'s is in Fortran order.
        matrix = matrix.take([header.index(name) - 1 for name in schema.names], axis=1)
        del values  # freed before the dataset copies the matrix
    dataset = RawDataset(tuple(entity_ids), matrix, schema)
    return dataset, IngestReport(rows_read, dropped)


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
