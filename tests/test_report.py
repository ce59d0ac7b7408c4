"""Rendering of tables and machine CSV files.

The text output is part of the byte-determinism contract, so the small
cases here assert exact strings, newline convention included.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import entroscore as es
from entroscore import report as rep


def two_indicator_fixture():
    schema = es.Schema((
        es.IndicatorSpec("alpha_rate", "profitability", "positive"),
        es.IndicatorSpec("beta_load", "operation", "inverse"),
    ))
    ev = es.EntropyVector(np.array([0.25, 0.75]))
    wv = es.WeightVector(np.array([0.25, 0.75]))
    return schema, ev, wv


class TestWeightsTable:
    def test_exact_rendering(self):
        schema, ev, wv = two_indicator_fixture()
        assert rep.weights_table(schema, ev, wv) == (
            "Category                  Indicator   Entropy   Weight\n"
            "------------------------  ----------  --------  --------\n"
            "Profitability capability  Alpha rate  0.250000  0.250000\n"
            "Operation capacity        Beta load   0.750000  0.750000\n"
        )

    def test_category_labels_cover_all_categories(self):
        assert set(rep.CATEGORY_LABELS) == {s.category for s in es.default_schema()}
        assert rep.CATEGORY_LABELS["sustainable_development"] == (
            "Capacity for sustainable development"
        )

    def test_unlabelled_category_prints_verbatim(self, tmp_path):
        schema = es.Schema((
            es.IndicatorSpec("jobs_per_hour", "throughput", "positive"),
            es.IndicatorSpec("alpha_rate", "profitability", "positive"),
        ))
        ev = es.EntropyVector(np.array([0.25, 0.75]))
        wv = es.WeightVector(np.array([0.25, 0.75]))
        table = rep.weights_table(schema, ev, wv).splitlines()
        assert table[2].startswith("throughput                Jobs per hour")
        assert table[3].startswith("Profitability capability  Alpha rate")
        rep.write_weights_csv(tmp_path / "w.csv", schema, ev, wv)
        assert (tmp_path / "w.csv").read_text().splitlines()[1].startswith(
            "throughput,jobs_per_hour,"
        )


class TestRankingTable:
    def test_exact_rendering_best_first(self):
        out = rep.ranking_table(
            ("a", "b", "c"), np.array([10.0, 30.5, 20.25]), np.array([1, 2, 0])
        )
        assert out == (
            "Ranking  Entity  Score\n"
            "-------  ------  -----\n"
            "      1  b       30.50\n"
            "      2  c       20.25\n"
            "      3  a       10.00\n"
        )


def aligned_reference(headers, rows, numeric):
    """Cell-by-cell ljust/rjust rendering that _aligned must reproduce."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        cells = [
            cell.rjust(widths[i]) if numeric[i] else cell.ljust(widths[i])
            for i, cell in enumerate(row)
        ]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


# Entity ids as parse_csv leaves them: non-blank, possibly long, non-ASCII,
# holding the characters that make csv quote a field, or braces that a
# format string would read as a field.
IDS = st.text(
    st.characters(blacklist_categories=("Cs",)) | st.sampled_from(',"\r\n {}'),
    min_size=1,
    max_size=40,
)
# Few distinct values, so scores tie often.
SCORES = st.sampled_from([0.0, 12.5, 33.333333333333336, 100.0]) | st.floats(0.0, 100.0)


class TestAlignedRendering:
    @settings(max_examples=100, deadline=None, database=None)
    @given(st.integers(1, 4), st.data())
    def test_matches_cell_by_cell_reference(self, k, data):
        headers = data.draw(st.lists(st.text(min_size=1, max_size=8), min_size=k, max_size=k))
        numeric = data.draw(st.lists(st.booleans(), min_size=k, max_size=k))
        rows = data.draw(st.lists(st.lists(IDS | st.just(""), min_size=k, max_size=k), max_size=8))
        assert rep._aligned(headers, rows, numeric) == aligned_reference(headers, rows, numeric)

    @settings(max_examples=100, deadline=None, database=None)
    @given(st.lists(IDS, max_size=12, unique=True), st.data())
    def test_ranking_table_matches_reference(self, ids, data):
        scores = np.array(data.draw(st.lists(SCORES, min_size=len(ids), max_size=len(ids))))
        ranking = es.rank(scores)
        rows = [
            (str(position + 1), ids[idx], f"{float(scores[idx]):.2f}")
            for position, idx in enumerate(ranking)
        ]
        assert rep.ranking_table(ids, scores, ranking) == aligned_reference(
            ("Ranking", "Entity", "Score"), rows, (True, False, True)
        )


def writerow_reference(header, rows, ids) -> bytes:
    """One writerow per row; every field quoted when an id holds a CR."""
    quoting = csv.QUOTE_ALL if any("\r" in eid for eid in ids) else csv.QUOTE_MINIMAL
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n", quoting=quoting)
    out.writerow(header)
    for row in rows:
        out.writerow(row)
    return buf.getvalue().encode("utf-8")


class TestCsvWriterBytes:
    @settings(max_examples=100, deadline=None, database=None)
    @given(st.lists(IDS, min_size=1, max_size=12, unique=True), st.data())
    def test_scores_csv_matches_writerow_reference(self, tmp_path_factory, ids, data):
        scores = np.array(data.draw(st.lists(SCORES, min_size=len(ids), max_size=len(ids))))
        ranking = es.rank(scores)
        rank_of = {int(idx): position + 1 for position, idx in enumerate(ranking)}
        rows = [[eid, repr(float(scores[i])), rank_of[i]] for i, eid in enumerate(ids)]
        path = tmp_path_factory.mktemp("scores") / "scores.csv"
        rep.write_scores_csv(path, ids, scores, ranking)
        assert path.read_bytes() == writerow_reference(["entity_id", "score", "rank"], rows, ids)

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.lists(IDS, min_size=2, max_size=12, unique=True), st.integers(1, 3), st.data())
    def test_normalized_csv_matches_writerow_reference(self, tmp_path_factory, ids, m, data):
        unit = st.floats(0.0, 1.0)
        values = np.array(data.draw(st.lists(
            st.lists(unit, min_size=m, max_size=m), min_size=len(ids), max_size=len(ids)
        )))
        values[0], values[1] = 0.0, 1.0  # both endpoints, as a normalized column has
        schema = es.Schema(tuple(
            es.IndicatorSpec(f"ind_{j}", "operation", "positive") for j in range(m)
        ))
        rows = [[eid, *(repr(float(v)) for v in values[i])] for i, eid in enumerate(ids)]
        path = tmp_path_factory.mktemp("normalized") / "normalized.csv"
        rep.write_normalized_csv(path, ids, es.NormalizedMatrix(values, schema))
        assert path.read_bytes() == writerow_reference(["entity_id", *schema.names], rows, ids)


class TestStatsBlock:
    def test_labels_and_precision(self):
        stats = es.DescriptiveStats(
            mean=40.63030333, median=41.50017269, std_dev=11.94833099,
            kurtosis=-0.02272025, skewness=0.091317864,
            smallest=13.69, largest=69.05, obs=105,
        )
        assert rep.stats_block(stats) == (
            "Mean      40.63030333\n"
            "median    41.50017269\n"
            "Std. Dev  11.94833099\n"
            "Kurtosis  -0.02272025\n"
            "Skewness  0.09131786\n"
            "Smallest  13.69\n"
            "Largest   69.05\n"
            "Obs       105\n"
        )

    def test_nan_moments_print_na(self):
        stats = es.DescriptiveStats(
            mean=5.0, median=5.0, std_dev=0.0, kurtosis=math.nan,
            skewness=math.nan, smallest=5.0, largest=5.0, obs=3,
        )
        block = rep.stats_block(stats)
        assert "Kurtosis  NA\n" in block
        assert "Skewness  NA\n" in block


class TestCsvWriters:
    def test_weights_csv(self, tmp_path):
        schema, ev, wv = two_indicator_fixture()
        path = tmp_path / "weights.csv"
        rep.write_weights_csv(path, schema, ev, wv)
        assert path.read_bytes() == (
            b"category,indicator,entropy,weight\n"
            b"profitability,alpha_rate,0.25,0.25\n"
            b"operation,beta_load,0.75,0.75\n"
        )

    def test_scores_csv_input_order_with_rank_column(self, tmp_path):
        path = tmp_path / "scores.csv"
        scores = np.array([10.0, 30.5, 20.25])
        rep.write_scores_csv(path, ("a", "b", "c"), scores, es.rank(scores))
        assert path.read_bytes() == (
            b"entity_id,score,rank\n"
            b"a,10.0,3\n"
            b"b,30.5,1\n"
            b"c,20.25,2\n"
        )

    def test_scores_csv_round_trips_full_precision(self, tmp_path):
        rng = np.random.default_rng(36)
        scores = rng.uniform(0.0, 100.0, size=20)
        ids = tuple(f"e{i}" for i in range(20))
        path = tmp_path / "scores.csv"
        rep.write_scores_csv(path, ids, scores, es.rank(scores))
        lines = path.read_text().splitlines()[1:]
        parsed = np.array([float(line.split(",")[1]) for line in lines])
        np.testing.assert_array_equal(parsed, scores)

    def test_normalized_csv(self, tmp_path):
        schema = es.Schema((
            es.IndicatorSpec("alpha_rate", "profitability", "positive"),
        ))
        nm = es.NormalizedMatrix(np.array([[0.0], [1.0], [0.5]]), schema)
        path = tmp_path / "normalized.csv"
        rep.write_normalized_csv(path, ("a", "b", "c"), nm)
        assert path.read_bytes() == (
            b"entity_id,alpha_rate\n"
            b"a,0.0\n"
            b"b,1.0\n"
            b"c,0.5\n"
        )

    def test_cdf_csv_grid(self, tmp_path):
        cdf = es.estimate_cdf([0.25, 0.75], 0.2)
        path = tmp_path / "cdf.csv"
        rep.write_cdf_csv(path, cdf)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,phi"
        assert len(lines) == 1 + rep.CDF_GRID_POINTS
        first_x, first_phi = lines[1].split(",")
        last_x, last_phi = lines[-1].split(",")
        assert float(first_x) == 0.0 and float(first_phi) == 0.0
        assert float(last_x) == 1.0 and float(last_phi) == 1.0

    def test_unix_newlines_everywhere(self, tmp_path):
        schema, ev, wv = two_indicator_fixture()
        path = tmp_path / "weights.csv"
        rep.write_weights_csv(path, schema, ev, wv)
        assert b"\r" not in path.read_bytes()
