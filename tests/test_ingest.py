"""CSV parsing and dataset validation.

Ingestion matches columns by header name, drops any row with a missing or
unparseable cell, and reports exactly what it dropped.
"""

from __future__ import annotations

import gc
import warnings

import numpy as np
import pytest

import entroscore as es
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
        assert findings[0].kind is es.FindingKind.DEGENERATE_COLUMN
        assert findings[0].indicator == "ind_00"
        assert "ind_00" in str(findings[0])

    def test_non_finite_value_flagged_with_entity(self):
        # "inf" parses as a float, so it survives ingestion and must be
        # caught here instead.
        data = csv_bytes(HEADER2, [["a", "1", "2"], ["b", "inf", "4"], ["c", "3", "5"]])
        ds, _ = parse(data)
        findings = es.validate(ds)
        kinds = {f.kind for f in findings}
        assert es.FindingKind.NON_FINITE_VALUE in kinds
        flagged = next(f for f in findings if f.kind is es.FindingKind.NON_FINITE_VALUE)
        assert "b" in flagged.detail

    def test_one_finding_per_bad_column(self):
        ds = es.RawDataset(
            ("a", "b", "c"),
            np.array([[np.inf, 4.0, 1.0], [3.0, 4.0, 2.0], [3.0, 4.0, np.nan]]),
            simple_schema(3),
        )
        findings = es.validate(ds)
        assert [(f.kind, f.indicator) for f in findings] == [
            (es.FindingKind.NON_FINITE_VALUE, "ind_00"),
            (es.FindingKind.DEGENERATE_COLUMN, "ind_01"),
            (es.FindingKind.NON_FINITE_VALUE, "ind_02"),
        ]
        assert findings[0].detail == "non-finite value for entities: a"
        assert findings[2].detail == "non-finite value for entities: c"

    def test_overflowing_range_flagged_without_warning(self):
        ds = es.RawDataset(("a", "b"), np.array([[-1e308, 1.0], [1e308, 2.0]]), SCHEMA2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            findings = es.validate(ds)
        assert len(findings) == 1
        assert findings[0].kind is es.FindingKind.NON_FINITE_VALUE
        assert findings[0].indicator == "ind_00"
        assert "overflows" in findings[0].detail

    def test_finding_kind_values(self):
        assert es.FindingKind.DEGENERATE_COLUMN.value == "DegenerateColumn"
        assert es.FindingKind.NON_FINITE_VALUE.value == "NonFiniteValue"


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
