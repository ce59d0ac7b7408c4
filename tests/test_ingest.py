"""CSV parsing and dataset validation.

Ingestion matches columns by header name, drops any row with a missing or
unparseable cell, and reports exactly what it dropped.
"""

from __future__ import annotations

import csv
import gc
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entroscore as es
from entroscore.ingest import _parse_cell
from helpers import csv_bytes, simple_schema


SCHEMA2 = simple_schema(2)
HEADER2 = ["entity_id", "ind_00", "ind_01"]


def parse(payload: bytes, schema=SCHEMA2):
    return es.parse_csv(payload, schema)


class TestHappyPath:
    def test_values_and_ids(self):
        data = csv_bytes(HEADER2, [["a", "1.5", "2"], ["b", "3", "4.25"]])
        ds, report = parse(data)
        assert ds.entity_ids == ("a", "b")
        np.testing.assert_array_equal(ds.values, [[1.5, 2.0], [3.0, 4.25]])
        assert report.rows_read == 2
        assert report.rows_dropped == 0
        assert report.rows_retained == 2

    def test_columns_matched_by_name_not_position(self):
        data = csv_bytes(
            ["entity_id", "ind_01", "ind_00"],
            [["a", "10", "1"], ["b", "20", "2"]],
        )
        ds, _ = parse(data)
        np.testing.assert_array_equal(ds.values, [[1.0, 10.0], [2.0, 20.0]])

    def test_utf8_bom_is_stripped(self):
        data = b"\xef\xbb\xbf" + csv_bytes(HEADER2, [["a", "1", "2"], ["b", "3", "4"]])
        ds, _ = parse(data)
        assert ds.entity_ids[0] == "a"

    def test_blank_lines_skipped(self):
        data = csv_bytes(HEADER2, [["a", "1", "2"], [], ["b", "3", "4"]])
        ds, report = parse(data)
        assert report.rows_read == 2
        assert len(ds.entity_ids) == 2

    def test_scientific_notation_and_negatives(self):
        data = csv_bytes(HEADER2, [["a", "-1e-3", "2E2"], ["b", "0", "+4"]])
        ds, _ = parse(data)
        np.testing.assert_array_equal(ds.values, [[-0.001, 200.0], [0.0, 4.0]])


class TestMissingPolicy:
    """A row with any missing or unreadable cell is dropped whole."""

    @pytest.mark.parametrize("marker", ["", "na", "NA", "nan", "NaN", "  na  "])
    def test_missing_markers_drop_the_row(self, marker):
        data = csv_bytes(
            HEADER2,
            [["a", "1", "2"], ["bad", marker, "3"], ["b", "4", "5"]],
        )
        ds, report = parse(data)
        assert report.rows_read == 3
        assert report.rows_dropped == 1
        assert report.dropped_ids == ("bad",)
        assert ds.entity_ids == ("a", "b")

    def test_unparseable_cell_drops_the_row(self):
        data = csv_bytes(
            HEADER2,
            [["a", "1", "2"], ["bad", "forty", "3"], ["b", "4", "5"]],
        )
        _, report = parse(data)
        assert report.dropped_ids == ("bad",)

    @pytest.mark.parametrize("cell", ["1_000", "1_0", "\u0661\u0662", "\uff11\uff12"])
    def test_underscored_or_non_ascii_number_drops_the_row(self, cell):
        # float() reads each of these as a number; the cell syntax does not.
        data = csv_bytes(HEADER2, [["a", "1", "2"], ["bad", cell, "3"], ["b", "4", "5"]])
        ds, report = parse(data)
        assert report.dropped_ids == ("bad",)
        assert ds.entity_ids == ("a", "b")

    def test_other_float_syntax_still_parses(self):
        data = csv_bytes(HEADER2, [["a", " +1.5E3 ", ".5"], ["b", "1.", "-0"]])
        ds, report = parse(data)
        assert report.rows_dropped == 0
        np.testing.assert_array_equal(ds.values, [[1500.0, 0.5], [1.0, 0.0]])

    def test_short_row_drops_the_row(self):
        data = csv_bytes(HEADER2, [["a", "1", "2"], ["bad", "1"], ["b", "4", "5"]])
        _, report = parse(data)
        assert report.dropped_ids == ("bad",)

    def test_long_row_drops_the_row(self):
        data = csv_bytes(HEADER2, [["a", "1", "2"], ["bad", "1", "2", "3"], ["b", "4", "5"]])
        ds, report = parse(data)
        assert report.dropped_ids == ("bad",)
        assert ds.entity_ids == ("a", "b")

    def test_three_defective_rows_out_of_108(self):
        rng = np.random.default_rng(31)
        rows = []
        for i in range(108):
            rows.append([f"e{i:03d}", f"{rng.uniform(0, 9):.4f}", f"{rng.uniform(0, 9):.4f}"])
        rows[17][1] = "na"
        rows[54][2] = ""
        rows[99][1] = "not-a-number"
        ds, report = parse(csv_bytes(HEADER2, rows))
        assert report.rows_read == 108
        assert report.rows_dropped == 3
        assert report.rows_retained == 105
        assert len(ds.entity_ids) == 105
        assert set(report.dropped_ids) == {"e017", "e054", "e099"}


# Entity ids survive parse_csv's strip, so they carry no outer whitespace;
# inner commas, quotes and line breaks make the CSV writer quote them.
ENTITY_IDS = st.text(
    st.characters(blacklist_categories=("Cs",)) | st.sampled_from(',"\n\r '),
    min_size=1,
    max_size=6,
).filter(lambda s: s == s.strip())


@st.composite
def raw_rows(draw):
    """(ids, values, schema): distinct ids, finite floats, 1-3 columns."""
    m = draw(st.integers(1, 3))
    ids = draw(st.lists(ENTITY_IDS, min_size=2, max_size=10, unique=True))
    cells = st.floats(allow_nan=False, allow_infinity=False)
    values = [draw(st.lists(cells, min_size=m, max_size=m)) for _ in ids]
    return ids, values, simple_schema(m)


def rows_csv(ids, cells, schema) -> bytes:
    # The excel dialect ends rows with "\r\n", so it quotes an id holding
    # either character; a "\n"-only writer leaves a lone "\r" bare.
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["entity_id", *schema.names])
    writer.writerows([eid, *row] for eid, row in zip(ids, cells))
    return buf.getvalue().encode("utf-8")


class TestCsvRoundTrip:
    @settings(max_examples=60, deadline=None, database=None)
    @given(raw_rows())
    def test_written_dataset_reads_back_bit_for_bit(self, rows):
        ids, values, schema = rows
        cells = [[repr(v) for v in row] for row in values]
        ds, report = es.parse_csv(rows_csv(ids, cells, schema), schema)
        assert ds.entity_ids == tuple(ids)
        assert ds.values.tobytes() == np.array(values, dtype=np.float64).tobytes()
        assert report.rows_dropped == 0

    @settings(max_examples=60, deadline=None, database=None)
    @given(raw_rows(), st.data())
    def test_missing_markers_drop_exactly_their_rows(self, rows, data):
        ids, values, schema = rows
        holes = data.draw(st.sets(st.integers(0, len(ids) - 1), max_size=len(ids) - 2))
        cells = [[repr(v) for v in row] for row in values]
        for i in holes:
            j = data.draw(st.integers(0, len(schema) - 1))
            cells[i][j] = data.draw(st.sampled_from(["", "na", "NaN"]))
        ds, report = es.parse_csv(rows_csv(ids, cells, schema), schema)
        kept = [i for i in range(len(ids)) if i not in holes]
        assert report.dropped_ids == tuple(ids[i] for i in sorted(holes))
        assert ds.entity_ids == tuple(ids[i] for i in kept)
        expected = np.array([values[i] for i in kept], dtype=np.float64)
        assert ds.values.tobytes() == expected.tobytes()


# Cell text that the row fast path and _parse_cell could read apart:
# float() syntax, the whitespace float() and str.strip() treat
# differently, digit separators, non-ASCII digits, every NaN and inf
# spelling, an overflowing exponent and the missing markers.
ADVERSARIAL = st.one_of(
    st.text(
        st.sampled_from(
            "0123456789+-.e \t\x1c\x1d\x1e\x1f_\u0660\u0661\u0669\uff10\uff11\uff19"
        ),
        max_size=6,
    ),
    st.sampled_from(
        ["nan", "NaN", "NAN", "-nan", "+NaN", "inf", "-inf", "Infinity", "1e400", "", "na", "NA"]
    ),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)


def reference_parse(rows, width):
    """Rows kept and dropped by applying _parse_cell to every cell."""
    kept, dropped = [], []
    for row in rows:
        values = [_parse_cell(cell) for cell in row[1:]]
        if len(row) == width and None not in values:
            kept.append((row[0], values))
        else:
            dropped.append(row[0])
    return kept, dropped


class TestRowFastPath:
    """parse_csv reads plain rows with one float() per cell; the result
    must match _parse_cell applied cell by cell."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.integers(1, 3), st.data())
    def test_matches_the_cell_parser(self, m, data):
        schema = simple_schema(m)
        cells = st.lists(ADVERSARIAL, min_size=m - 1, max_size=m + 1)
        bodies = data.draw(st.lists(cells, max_size=12))
        # Two plain rows keep every draw above the two-row minimum.
        rows = [["g0", *["1"] * m], ["g1", *["2"] * m]]
        rows += [[f"r{i}", *body] for i, body in enumerate(bodies)]
        kept, dropped = reference_parse(rows, m + 1)
        payload = rows_csv([r[0] for r in rows], [r[1:] for r in rows], schema)
        ds, report = es.parse_csv(payload, schema)
        assert ds.entity_ids == tuple(eid for eid, _ in kept)
        assert report.dropped_ids == tuple(dropped)
        expected = np.array([values for _, values in kept], dtype=np.float64)
        assert ds.values.tobytes() == expected.tobytes()

    def test_negative_nan_keeps_its_row_for_the_column_check(self):
        data = csv_bytes(HEADER2, [["a", "1", "2"], ["b", "-nan", "3"], ["c", "4", "5"]])
        ds, report = parse(data)
        assert report.rows_dropped == 0
        assert math.isnan(ds.values[1, 0])
        with pytest.raises(es.NonFiniteInputError, match="entities: b"):
            es.normalize_matrix(ds)

    def test_file_separator_whitespace_is_stripped(self):
        # str.strip() removes \x1c-\x1f but float() refuses them.
        data = csv_bytes(HEADER2, [["a", "\x1c1", "2"], ["b", "3", "4\x1f"]])
        ds, report = parse(data)
        assert report.rows_dropped == 0
        np.testing.assert_array_equal(ds.values, [[1.0, 2.0], [3.0, 4.0]])

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.integers(1, 5), st.data())
    def test_a_failing_cell_anywhere_leaves_the_other_rows_intact(self, m, data):
        # Rows of plain numbers, some with one adversarial cell at a drawn
        # position, so a row can fail after its leading cells parsed.
        schema = simple_schema(m)
        plain = st.floats(allow_nan=False, allow_infinity=False).map(repr)
        rows = [["g0", *["1"] * m], ["g1", *["2"] * m]]
        for i in range(data.draw(st.integers(1, 10))):
            cells = data.draw(st.lists(plain, min_size=m, max_size=m))
            if data.draw(st.booleans()):
                cells[data.draw(st.integers(0, m - 1))] = data.draw(ADVERSARIAL)
            rows.insert(data.draw(st.integers(0, len(rows))), [f"r{i}", *cells])
        kept, dropped = reference_parse(rows, m + 1)
        ds, report = es.parse_csv(rows_csv([r[0] for r in rows], [r[1:] for r in rows], schema), schema)
        assert ds.entity_ids == tuple(eid for eid, _ in kept)
        assert report.dropped_ids == tuple(dropped)
        expected = np.array([values for _, values in kept], dtype=np.float64)
        assert ds.values.tobytes() == expected.tobytes()


class TestPackedBuffer:
    """A row that fails float() after its leading cells parsed leaves no
    values behind, whether it is then dropped or kept cell by cell."""

    @pytest.mark.parametrize(
        "late,kept",
        [("abc", False), ("1_0", False), ("nan", False), ("2\x1c", True)],
        ids=["word", "underscore", "nan", "separator-kept"],
    )
    def test_later_rows_keep_their_values(self, late, kept):
        # float() refuses '2\x1c', but str.strip() removes the '\x1c', so
        # _parse_cell keeps that row after its first three cells went in.
        schema = simple_schema(4)
        rows = [
            ["a", "0.25", "1e3", "-7", "8"],
            ["late1", "1.5", "2.5", "3.5", late],
            # Parsed whole by float(), then again cell by cell for its 'n'.
            ["b", "1", "2", "3", "Infinity"],
            ["c", "9", "8", "7", "6.5"],
            ["late2", "1.5", "2.5", "3.5", late],
            ["d", "-0", "0.1", "2E-3", "+4"],
        ]
        reference, dropped = reference_parse(rows, 5)
        ds, report = es.parse_csv(rows_csv([r[0] for r in rows], [r[1:] for r in rows], schema), schema)
        late_ids = ("late1", "late2")
        assert report.dropped_ids == tuple(dropped) == (() if kept else late_ids)
        assert ds.entity_ids == tuple(eid for eid, _ in reference)
        assert set(late_ids) <= set(ds.entity_ids) if kept else len(ds.entity_ids) == 4
        expected = np.array([values for _, values in reference], dtype=np.float64)
        assert ds.values.tobytes() == expected.tobytes()

    def test_parse_peak_tracks_the_matrix_size(self):
        # The parse holds the values once as packed doubles and once in
        # the dataset's copy, plus the ids: about 2.9 n*m*8 bytes here.
        # One Python float per value, as a list of rows, would be over 7.
        if tracemalloc.is_tracing():
            pytest.skip("tracemalloc is already tracing; its peak is not this test's")
        n, m = 4000, 17
        schema = simple_schema(m)
        rng = np.random.default_rng(7)
        payload = rows_csv(
            [f"E{i:06d}" for i in range(n)],
            [[repr(v) for v in row] for row in rng.uniform(0.0, 1e3, (n, m)).tolist()],
            schema,
        )
        tracemalloc.start()
        try:
            ds, _ = es.parse_csv(payload, schema)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.values.shape == (n, m)
        assert peak < 3.5 * n * m * 8


class TestUnreadableCsv:
    def test_overlong_field_names_its_line(self):
        limit = csv.field_size_limit()
        data = csv_bytes(HEADER2, [["a", "1", "2"], ["b", "7" * (limit + 1), "3"], ["c", "4", "5"]])
        with pytest.raises(es.MalformedCsvError, match=rf"^line 3: field larger than field limit \({limit}\)$"):
            parse(data)
        assert csv.field_size_limit() == limit

    def test_overlong_header_field_names_line_one(self):
        data = b"entity_id," + b"x" * (csv.field_size_limit() + 1) + b"\na,1\n"
        with pytest.raises(es.MalformedCsvError, match="^line 1: "):
            parse(data)


def _line_breaks(data: bytes) -> int:
    """Line ends in data: CRLF, LF or CR, CRLF counting once."""
    return data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")


class TestNonUtf8Input:
    """A byte that is not UTF-8 names its line, wherever the text layer's 8 KiB chunks fall."""

    ROWS = [[f"e{i:04d}", f"{i}.5", f"{2 * i}"] for i in range(1200)]  # about 19 KiB

    def test_bad_byte_past_the_first_chunk_names_its_line(self):
        data = csv_bytes(HEADER2, self.ROWS)
        at = data.index(b"e1000,")  # on line 1002
        assert at > 8192
        data = data[:at] + b"e1000\xe9" + data[at + 5 :]
        with pytest.raises(es.MalformedCsvError,
                           match=r"^line 1002: not UTF-8: byte 0xe9: invalid continuation byte$"):
            parse(data)

    @pytest.mark.parametrize("where,line", [("header", 1), ("id", 700), ("cell", 900)])
    def test_header_id_or_cell(self, where, line):
        header = list(HEADER2)
        rows = [list(row) for row in self.ROWS]
        if where == "header":
            header[2] = "BAD"
        else:
            rows[line - 2][0 if where == "id" else 2] = "BAD"
        data = csv_bytes(header, rows).replace(b"BAD", b"x\xff")
        with pytest.raises(es.MalformedCsvError,
                           match=rf"^line {line}: not UTF-8: byte 0xff: invalid start byte$"):
            parse(data)

    def test_cr_ending_a_chunk_still_counts(self):
        # The text layer holds the CR that ends its first 8192-byte chunk
        # back, to see whether an LF follows, so the decode error in the
        # next chunk comes before that CR's line is handed on.
        body = b"entity_id,ind_00,ind_01\r"
        while len(body) < 8150:
            body += b"r%d,1,2\r" % len(body)
        body += b"x" * (8192 - len(body) - 5) + b",1,2\r"
        assert len(body) == 8192 and body.endswith(b"\r")
        data = body + b"y\xff,1,2\r" + b"z,3,4\r"
        with pytest.raises(es.MalformedCsvError, match=rf"^line {_line_breaks(body) + 1}: "):
            parse(data)

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        st.lists(st.sampled_from([b"\n", b"\r\n", b"\r"]), min_size=1, max_size=3),
        st.integers(1, 1500),
        st.booleans(),
        st.floats(0.0, 1.0),
        st.sampled_from([b"\xe9", b"\xff", b"\x80", b"\xc3", b"\xe9\x80", b"\xf0\x9f"]),
    )
    def test_named_line_holds_the_first_bad_byte(self, endings, rows, bom, where, bad):
        # Rows cycle through the drawn line ends; every 97th has a quoted
        # CRLF inside its id, so one record spans two lines.
        lines = [b"entity_id,ind_00,ind_01"] + [
            b'"q%d\r\nx",1,2' % i if i % 97 == 5 else b"r%d,%d.25,%d" % (i, i, 7 * i)
            for i in range(rows)
        ]
        data = b"".join(line + endings[i % len(endings)] for i, line in enumerate(lines))
        at = int(where * len(data))
        data = data[:at] + bad + data[at:]
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = _line_breaks(data[: exc.start]) + 1
        else:
            return  # the insertion completed a valid sequence
        if bom:
            data = b"\xef\xbb\xbf" + data
        with pytest.raises(es.MalformedCsvError, match=rf"^line {line}: not UTF-8: "):
            parse(data)

    def test_unbuffered_handle(self, tmp_path):
        # A raw file has no read1; its chunks come from read.
        data = csv_bytes(HEADER2, self.ROWS)
        path = tmp_path / "data.csv"
        path.write_bytes(data[:9000] + b"\xff" + data[9000:])
        with open(path, "rb", buffering=0) as fh, pytest.raises(
            es.MalformedCsvError, match=rf"^line {_line_breaks(data[:9000]) + 1}: "
        ):
            parse(fh)
        path.write_bytes(data)
        with open(path, "rb", buffering=0) as fh:
            assert parse(fh)[0].entity_ids == tuple(row[0] for row in self.ROWS)


class TestHeaderErrors:
    def test_first_column_must_be_entity_id(self):
        data = csv_bytes(["id", "ind_00", "ind_01"], [["a", "1", "2"]])
        with pytest.raises(es.HeaderMismatchError, match="entity_id"):
            parse(data)

    def test_missing_indicator_column(self):
        data = csv_bytes(["entity_id", "ind_00"], [["a", "1"]])
        with pytest.raises(es.HeaderMismatchError, match="ind_01"):
            parse(data)

    def test_unknown_extra_column(self):
        data = csv_bytes(HEADER2 + ["mystery"], [["a", "1", "2", "3"]])
        with pytest.raises(es.HeaderMismatchError, match="mystery"):
            parse(data)

    def test_duplicate_column(self):
        data = csv_bytes(["entity_id", "ind_00", "ind_00"], [["a", "1", "2"]])
        with pytest.raises(es.HeaderMismatchError, match="ind_00"):
            parse(data)

    def test_empty_file(self):
        with pytest.raises(es.EmptyInputError):
            parse(b"")


class TestRowCountErrors:
    def test_no_data_rows(self):
        data = csv_bytes(HEADER2, [])
        with pytest.raises(es.EmptyInputError):
            parse(data)

    def test_single_retained_row(self):
        data = csv_bytes(HEADER2, [["a", "1", "2"], ["b", "na", "4"]])
        with pytest.raises(es.TooFewRowsError, match="at least 2"):
            parse(data)

    def test_duplicate_entity_ids(self):
        data = csv_bytes(HEADER2, [["a", "1", "2"], ["a", "3", "4"]])
        with pytest.raises(es.DuplicateEntityIdError, match="duplicate entity ids: a"):
            parse(data)

    @pytest.mark.parametrize("blank", ["", "   "])
    def test_blank_entity_id_names_its_line(self, blank):
        data = csv_bytes(HEADER2, [["a", "1", "2"], [blank, "3", "4"], ["b", "5", "6"]])
        with pytest.raises(es.DuplicateEntityIdError, match="line 3: blank entity id"):
            parse(data)

    def test_duplicate_among_dropped_rows_is_fine(self):
        # Only retained rows need distinct ids.
        data = csv_bytes(
            HEADER2,
            [["a", "1", "2"], ["dup", "na", "1"], ["dup", "na", "2"], ["b", "3", "4"]],
        )
        ds, report = parse(data)
        assert ds.entity_ids == ("a", "b")
        assert report.dropped_ids == ("dup", "dup")


class TestValidate:
    def test_clean_dataset_has_no_findings(self):
        ds = es.RawDataset(("a", "b", "c"),
                           np.array([[1.0, 9.0], [2.0, 8.0], [3.0, 7.0]]),
                           SCHEMA2)
        assert es.validate(ds) == []

    def test_degenerate_column_flagged(self):
        ds = es.RawDataset(("a", "b"), np.array([[5.0, 1.0], [5.0, 2.0]]), SCHEMA2)
        findings = es.validate(ds)
        assert len(findings) == 1
        assert findings[0].error is es.DegenerateColumnError
        assert findings[0].indicator == "ind_00"
        assert "ind_00" in str(findings[0])

    def test_non_finite_value_flagged_with_entity(self):
        # "inf" parses as a float, so it survives ingestion and must be
        # caught here instead.
        data = csv_bytes(HEADER2, [["a", "1", "2"], ["b", "inf", "4"], ["c", "3", "5"]])
        ds, _ = parse(data)
        findings = es.validate(ds)
        errors = {f.error for f in findings}
        assert es.NonFiniteInputError in errors
        flagged = next(f for f in findings if f.error is es.NonFiniteInputError)
        assert "b" in flagged.detail

    def test_one_finding_per_bad_column(self):
        ds = es.RawDataset(
            ("a", "b", "c"),
            np.array([[np.inf, 4.0, 1.0], [3.0, 4.0, 2.0], [3.0, 4.0, np.nan]]),
            simple_schema(3),
        )
        findings = es.validate(ds)
        assert [(f.error, f.indicator) for f in findings] == [
            (es.NonFiniteInputError, "ind_00"),
            (es.DegenerateColumnError, "ind_01"),
            (es.NonFiniteInputError, "ind_02"),
        ]
        assert findings[0].detail == "non-finite value for entities: a"
        assert findings[2].detail == "non-finite value for entities: c"

    def test_overflowing_range_flagged_without_warning(self):
        ds = es.RawDataset(("a", "b"), np.array([[-1e308, 1.0], [1e308, 2.0]]), SCHEMA2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            findings = es.validate(ds)
        assert len(findings) == 1
        assert findings[0].error is es.NonFiniteInputError
        assert findings[0].indicator == "ind_00"
        assert "overflows" in findings[0].detail

    def test_label_is_the_class_the_pipeline_raises(self):
        ds = es.RawDataset(
            ("a", "b"), np.array([[np.inf, 4.0], [3.0, 4.0]]), SCHEMA2
        )
        assert [str(f) for f in es.validate(ds)] == [
            "NonFiniteInputError: indicator 'ind_00': non-finite value for entities: a",
            "DegenerateColumnError: indicator 'ind_01': fewer than two distinct finite values",
        ]
        with pytest.raises(es.NonFiniteInputError, match="^indicator 'ind_00': non-finite"):
            es.normalize_matrix(ds)


class TestDeterminism:
    def test_same_bytes_same_dataset(self):
        rng = np.random.default_rng(5)
        rows = [[f"e{i}", repr(rng.uniform()), repr(rng.uniform())] for i in range(40)]
        payload = csv_bytes(HEADER2, rows)
        ds1, _ = parse(payload)
        ds2, _ = parse(payload)
        assert np.array_equal(ds1.values, ds2.values)
        assert ds1.entity_ids == ds2.entity_ids


class TestCallerHandle:
    def test_handle_left_open_and_no_resource_warning(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(csv_bytes(HEADER2, [["a", "1", "2"], ["b", "3", "4"]]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with open(path, "rb") as fh:
                parse(fh)
                assert not fh.closed
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
