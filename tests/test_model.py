"""Construction rules for the core value types.

Every type here is meant to be impossible to hold in an invalid state, so
most tests simply try to build a bad one and expect a refusal.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entroscore as es
from helpers import simple_schema


class TestIndicatorSpec:
    def test_coerces_plain_strings(self):
        spec = es.IndicatorSpec("return_on_assets", "profitability", "positive")
        assert spec.category == "profitability"
        assert spec.direction is es.Direction.POSITIVE

    def test_accepts_enum_members(self):
        spec = es.IndicatorSpec("x", "solvency", es.Direction.INVERSE)
        assert spec.category == "solvency"
        assert spec.direction is es.Direction.INVERSE

    @pytest.mark.parametrize("category", ["liquidity", "Profitability ", "throughput"])
    def test_accepts_free_category(self, category):
        assert es.IndicatorSpec("x", category, "positive").category == category

    @pytest.mark.parametrize("category", ["", None, 3])
    def test_rejects_blank_or_non_string_category(self, category):
        with pytest.raises(es.InvariantError, match="category"):
            es.IndicatorSpec("x", category, "positive")

    @pytest.mark.parametrize("direction", ["up", "negative", ""])
    def test_rejects_unknown_direction(self, direction):
        with pytest.raises(es.InvariantError):
            es.IndicatorSpec("x", "solvency", direction)

    def test_rejects_empty_name(self):
        with pytest.raises(es.InvariantError):
            es.IndicatorSpec("", "solvency", "positive")

    def test_label_is_readable(self):
        spec = es.IndicatorSpec("rate_of_cost_profit", "operation", "positive")
        assert spec.label == "Rate of cost profit"

    def test_frozen(self):
        spec = es.IndicatorSpec("x", "operation", "positive")
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.name = "y"


class TestSchema:
    def test_len_iter_names(self):
        schema = simple_schema(3)
        assert len(schema) == 3
        assert schema.names == ("ind_00", "ind_01", "ind_02")
        assert [s.name for s in schema] == list(schema.names)

    def test_directions(self):
        schema = simple_schema(3, inverse=(1,))
        assert schema.directions == (
            es.Direction.POSITIVE,
            es.Direction.INVERSE,
            es.Direction.POSITIVE,
        )

    def test_rejects_empty(self):
        with pytest.raises(es.InvariantError):
            es.Schema(())

    def test_rejects_duplicate_names(self):
        spec = es.IndicatorSpec("dup", "operation", "positive")
        with pytest.raises(es.InvariantError, match="dup"):
            es.Schema((spec, spec))

    def test_rejects_what_is_not_an_iterable_of_specs(self):
        spec = es.IndicatorSpec("a", "operation", "positive")
        with pytest.raises(es.InvariantError, match="^schema indicators must be IndicatorSpecs, got 'b'$"):
            es.Schema([spec, "b"])
        with pytest.raises(es.InvariantError, match="^schema indicators must be IndicatorSpecs, got 3$"):
            es.Schema(3)

    def test_record_round_trip(self):
        schema = simple_schema(4, inverse=(0, 3))
        again = es.Schema.from_records(schema.to_records())
        assert again.names == schema.names
        assert again.directions == schema.directions


class TestSchemaFiles:
    def test_round_trip(self, tmp_path):
        schema = simple_schema(5, inverse=(2,))
        path = tmp_path / "schema.json"
        es.save_schema(schema, path)
        loaded = es.load_schema(path)
        assert loaded.names == schema.names
        assert loaded.directions == schema.directions
        assert [s.category for s in loaded] == [s.category for s in schema]

    def test_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text('{"version": 99, "indicators": []}')
        with pytest.raises(es.InvariantError, match="version"):
            es.load_schema(path)

    def test_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text('{"version": 1}')
        with pytest.raises(es.InvariantError, match="lacks an 'indicators' list"):
            es.load_schema(path)
        path.write_text('{"version": 1, "indicators": [{"name": "x", "category": "c"}]}')
        with pytest.raises(es.InvariantError, match="malformed record: 'direction'"):
            es.load_schema(path)

    def test_a_record_that_breaks_an_invariant_keeps_its_own_error(self, tmp_path):
        # InvariantError is a ValueError, which load_schema otherwise wraps
        # as a malformed record; the schema's own fault is raised as it is.
        path = tmp_path / "schema.json"
        records = [{"name": "x", "category": "c", "direction": "positive"}] * 2
        path.write_text(json.dumps({"version": 1, "indicators": records}))
        with pytest.raises(es.InvariantError, match=r"^duplicate indicator names: x$"):
            es.load_schema(path)


class TestDefaultSchema:
    """The bundled financial indicator set used by the CLI."""

    def test_seventeen_indicators_in_order(self):
        names = es.default_schema().names
        assert names == (
            "operating_profit_ratio",
            "return_on_assets",
            "return_on_invested_capital",
            "debt_coverage_ratio",
            "current_ratio",
            "operating_cash_flow_to_operating_profit_ratio",
            "debt_asset_ratio",
            "sustainable_growth_rate",
            "hedging_and_proliferating_ratios",
            "total_assets_growth_rate",
            "revenue_growth_rate",
            "net_profit_growth_rate",
            "receivables_turnover",
            "inventory_turnover",
            "total_assets_turnover",
            "rate_of_cost_profit",
            "capital_intensity",
        )

    def test_inverse_indicators(self):
        # Debt burden and capital tied up per unit of revenue hurt the
        # entity; everything else helps.
        schema = es.default_schema()
        inverse = {s.name for s in schema if s.direction is es.Direction.INVERSE}
        assert inverse == {"debt_asset_ratio", "capital_intensity"}

    def test_category_sizes(self):
        schema = es.default_schema()
        counts = {}
        for spec in schema:
            counts[spec.category] = counts.get(spec.category, 0) + 1
        assert counts == {
            "profitability": 3,
            "solvency": 4,
            "sustainable_development": 5,
            "operation": 5,
        }


class TestRawDataset:
    def test_basic_construction(self):
        ds = es.RawDataset(("a", "b"), np.array([[1.0], [2.0]]), simple_schema(1))
        assert ds.values.dtype == np.float64
        assert not ds.values.flags.writeable

    def test_rejects_shape_mismatches(self):
        schema = simple_schema(2)
        with pytest.raises(es.InvariantError):
            es.RawDataset(("a", "b"), np.zeros((2, 3)), schema)
        with pytest.raises(es.InvariantError):
            es.RawDataset(("a",), np.zeros((2, 2)), schema)
        with pytest.raises(es.InvariantError):
            es.RawDataset(("a", "b"), np.zeros(4), schema)

    def test_rejects_single_row(self):
        with pytest.raises(es.InvariantError):
            es.RawDataset(("a",), np.zeros((1, 1)), simple_schema(1))

    def test_copies_input(self):
        raw = np.array([[1.0], [2.0]])
        ds = es.RawDataset(("a", "b"), raw, simple_schema(1))
        raw[0, 0] = 99.0
        assert ds.values[0, 0] == 1.0


# NormalizedMatrix's two ways in: the public constructor, which copies,
# and normalize_matrix's hand-over of the array it filled.
MATRIX_MAKERS = {
    "constructor": es.NormalizedMatrix,
    "adopted": lambda values, schema: es.NormalizedMatrix._adopt(
        np.array(values, dtype=np.float64), schema
    ),
}


class TestNormalizedMatrix:
    def test_accepts_unit_spanning_columns(self):
        m = es.NormalizedMatrix(
            np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.25]]), simple_schema(2)
        )
        assert m.values.shape == (3, 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(es.InvariantError):
            es.NormalizedMatrix(np.array([[0.0], [1.5]]), simple_schema(1))

    def test_rejects_column_not_reaching_bounds(self):
        with pytest.raises(es.InvariantError):
            es.NormalizedMatrix(np.array([[0.1], [0.9]]), simple_schema(1))

    @pytest.mark.parametrize("make", MATRIX_MAKERS)
    @pytest.mark.parametrize(
        "values,width,message",
        [
            ([0.0, 1.0], 1, r"^normalized values must form a 2-D grid$"),
            ([[[0.0]], [[1.0]]], 1, r"^normalized values must form a 2-D grid$"),
            ([[0.0, 1.0], [1.0, 0.0]], 3, r"^normalized grid width does not match schema$"),
            ([[0.0], [1.5]], 1, r"^normalized entries must lie in \[0, 1\]$"),
            ([[-0.0], [-1e-300], [1.0]], 1, r"^normalized entries must lie in \[0, 1\]$"),
            ([[0.0], [math.nan], [1.0]], 1, r"^normalized entries must lie in \[0, 1\]$"),
            ([[0.1], [0.9]], 1, r"^every normalized column must attain 0 and 1$"),
            ([[0.0, 0.0], [1.0, 0.5]], 2, r"^every normalized column must attain 0 and 1$"),
        ],
    )
    def test_every_guard_on_both_ways_in(self, make, values, width, message):
        with pytest.raises(es.InvariantError, match=message):
            MATRIX_MAKERS[make](values, simple_schema(width))

    def test_the_constructor_keeps_a_read_only_copy(self):
        values = np.array([[0.0, 1.0], [1.0, 0.0]])
        for given in (values, values.copy()):
            given.flags.writeable = False
            m = es.NormalizedMatrix(given, simple_schema(2))
            assert m.values is not given and not np.shares_memory(m.values, given)
            assert not m.values.flags.writeable

    def test_normalize_matrix_hands_its_array_over_read_only(self, monkeypatch):
        handed = []
        adopt = es.NormalizedMatrix._adopt.__func__

        def recorded(cls, values, schema):
            handed.append(values)
            return adopt(cls, values, schema)

        monkeypatch.setattr(es.NormalizedMatrix, "_adopt", classmethod(recorded))
        ds = es.RawDataset(("a", "b", "c"), np.array([[1.0, 5.0], [3.0, 2.0], [2.0, 9.0]]), simple_schema(2, (1,)))
        m = es.normalize_matrix(ds)
        [values] = handed
        assert m.values is values and not values.flags.writeable
        assert not np.shares_memory(m.values, ds.values)
        assert m.values.tolist() == [[0.0, 4 / 7], [1.0, 1.0], [0.5, 0.0]]


class TestVectors:
    def test_entropy_vector_bounds(self):
        es.EntropyVector(np.array([0.0, 0.5, 1.0]))
        with pytest.raises(es.InvariantError):
            es.EntropyVector(np.array([0.5, 1.0 + 1e-9]))
        with pytest.raises(es.InvariantError):
            es.EntropyVector(np.array([-1e-9]))
        with pytest.raises(es.NonFiniteInputError):
            es.EntropyVector(np.array([math.nan]))

    @pytest.mark.parametrize(
        "entropies,error,message",
        [
            ([], es.InvariantError, r"^entropies must be 1-D and at least 1 long$"),
            ([[0.5, 0.5]], es.InvariantError, r"^entropies must be 1-D and at least 1 long$"),
            (0.5, es.InvariantError, r"^entropies must be 1-D and at least 1 long$"),
            ([0.5, math.nan], es.NonFiniteInputError, r"^entropies must be finite$"),
            ([0.5, math.inf], es.NonFiniteInputError, r"^entropies must be finite$"),
            ([0.5, -math.inf], es.NonFiniteInputError, r"^entropies must be finite$"),
            ([0.5, 1.0 + 1e-9], es.InvariantError, r"^entropies must lie in \[0, 1\]$"),
            ([-1e-300, 0.5], es.InvariantError, r"^entropies must lie in \[0, 1\]$"),
        ],
    )
    def test_every_entropy_vector_guard(self, entropies, error, message):
        with pytest.raises(error, match=message):
            es.EntropyVector(np.array(entropies))

    @pytest.mark.parametrize(
        "weights,error,message",
        [
            ([0.5, math.nan], es.NonFiniteInputError, r"^weights must be finite$"),
            ([math.inf, 0.0], es.NonFiniteInputError, r"^weights must be finite$"),
            ([], es.InvariantError, r"^weights must be 1-D and at least 1 long$"),
            ([[0.5, 0.5]], es.InvariantError, r"^weights must be 1-D and at least 1 long$"),
            (1.0, es.InvariantError, r"^weights must be 1-D and at least 1 long$"),
            ([-0.1, 1.1], es.InvariantError, r"^weights must be non-negative$"),
            ([-1e-300, 1.0], es.InvariantError, r"^weights must be non-negative$"),
            ([0.25, 0.75 + 1e-9], es.InvariantError, r"^weights sum to 1\.000000001, not 1$"),
            ([0.25, 0.25], es.InvariantError, r"^weights sum to 0\.5, not 1$"),
            ([1e308, 1e308], es.InvariantError, r"^weights sum to inf, not 1$"),
        ],
    )
    def test_every_weight_vector_guard(self, weights, error, message):
        with pytest.raises(error, match=message):
            es.WeightVector(np.array(weights))

    def test_a_non_finite_vector_is_not_a_value_error(self):
        # NonFiniteInputError, unlike InvariantError, is no ValueError.
        for make, values in ((es.EntropyVector, [math.nan]), (es.WeightVector, [math.nan])):
            with pytest.raises(es.EntroscoreError) as info:
                make(np.array(values))
            assert type(info.value) is es.NonFiniteInputError
            assert not isinstance(info.value, ValueError)

    def test_a_vector_has_one_entry_an_indicator(self):
        assert len(es.EntropyVector(np.array([0.0, 0.5, 1.0]))) == 3
        assert len(es.WeightVector(np.array([0.25, 0.75]))) == 2

    def test_weight_vector_must_sum_to_one(self):
        es.WeightVector(np.array([0.25, 0.75]))
        with pytest.raises(es.InvariantError):
            es.WeightVector(np.array([0.25, 0.75 + 1e-9]))
        with pytest.raises(es.InvariantError):
            es.WeightVector(np.array([-0.1, 1.1]))


class TestDescriptiveStats:
    def test_ordering_invariant(self):
        with pytest.raises(es.InvariantError):
            es.DescriptiveStats(
                mean=1.0, median=5.0, std_dev=1.0, kurtosis=0.0,
                skewness=0.0, smallest=2.0, largest=3.0, obs=10,
            )

    @pytest.mark.parametrize("obs", [0, -1])
    def test_needs_a_positive_count(self, obs):
        with pytest.raises(es.InvariantError, match="^obs must be positive$"):
            es.DescriptiveStats(
                mean=1.0, median=1.0, std_dev=0.0, kurtosis=math.nan,
                skewness=math.nan, smallest=1.0, largest=1.0, obs=obs,
            )

    def test_nan_moments_allowed(self):
        stats = es.DescriptiveStats(
            mean=1.0, median=1.0, std_dev=0.0, kurtosis=math.nan,
            skewness=math.nan, smallest=1.0, largest=1.0, obs=2,
        )
        assert math.isnan(stats.kurtosis)


# The least int that float() rounds past the largest double.
_INT_OVERFLOW = 2**1024 - 2**970

_SAMPLES = np.array([0.0, 0.3, 0.5, 1.0])
_MATRIX = np.array([[0.0, 1.0], [1.0, 0.0]])
_WEIGHTS = np.array([0.5, 0.5])


def _report(scale, scores=(0.0, 0.0), ranking=(0, 1)):
    stats = es.DescriptiveStats(mean=0.0, median=0.0, std_dev=0.0, kurtosis=math.nan,
                                skewness=math.nan, smallest=0.0, largest=0.0, obs=2)
    return es.EvaluationReport(es.EntropyVector([0.5, 0.5]), es.WeightVector(_WEIGHTS),
                               scores, ranking, stats, scale=scale)


class TestEvaluationReport:
    @pytest.mark.parametrize("ranking", [(0, 1), (1, 0)])
    def test_takes_a_permutation_of_the_rows(self, ranking):
        assert _report(100.0, ranking=ranking).ranking.tolist() == list(ranking)

    @pytest.mark.parametrize("ranking", [(0, 0), (1, 2), (-1, 0), (0,), (0, 1, 2), ((0, 1),), 0])
    def test_rejects_a_ranking_that_is_not_a_permutation(self, ranking):
        # A 0-d ranking raised a bare TypeError before.
        with pytest.raises(es.InvariantError, match="^ranking must be a permutation of row indices$"):
            _report(100.0, ranking=ranking)

    @pytest.mark.parametrize("scores", [[[0.0, 0.0]], 0.0, [[0.0], [0.0]]])
    def test_rejects_scores_that_are_not_1d(self, scores):
        with pytest.raises(es.InvariantError, match="^scores must be 1-D$"):
            _report(100.0, scores=scores)

    @pytest.mark.parametrize("scores,ranking", [((0.0, 50.0), (0, 1)), ((50.0, 50.0 + 1e-12), (0, 1))])
    def test_rejects_a_ranking_that_raises_its_scores(self, scores, ranking):
        with pytest.raises(es.InvariantError, match="^scores along the ranking must be non-increasing$"):
            _report(100.0, scores=scores, ranking=ranking)

    @pytest.mark.parametrize("n", [1, 3])
    def test_rejects_stats_of_another_count(self, n):
        scores = np.zeros(n)
        with pytest.raises(es.InvariantError, match="^stats.obs must equal the number of scores$"):
            _report(100.0, scores=scores, ranking=np.arange(n))

    @pytest.mark.parametrize("bad", [math.nan, -math.nan, math.inf, -math.inf])
    def test_rejects_a_score_that_is_not_finite(self, bad):
        with pytest.raises(es.InvariantError, match=r"^scores must lie in \[0, 100.0\]$"):
            _report(100.0, scores=(bad, 50.0))

    @pytest.mark.parametrize(
        "ranking,dtype",
        [([1.9, 0.2], "float64"), ([1.0, 0.0], "float64"), ([True, False], "bool"), (["1", "0"], "<U1")],
        ids=["fractions", "whole-floats", "bools", "numeric-str"],
    )
    def test_rejects_a_ranking_that_is_not_integers(self, ranking, dtype):
        with pytest.raises(es.InvariantError, match=f"^ranking must be integers, got dtype {dtype}$"):
            _report(100.0, ranking=ranking)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("entropies", es.EntropyVector([0.5]), "^1 entropies but 2 weights$"),
            ("entropies", [0.5, 0.5], "^entropies must be of type EntropyVector, got list$"),
            ("weights", _WEIGHTS, "^weights must be of type WeightVector, got ndarray$"),
            ("stats", None, "^stats must be of type DescriptiveStats, got NoneType$"),
        ],
        ids=["lengths", "bare-entropies", "bare-weights", "no-stats"],
    )
    def test_rejects_parts_of_another_type_or_length(self, field, value, message):
        # One entropy for two weights was accepted before, and weights_table
        # then dropped the second indicator; stats=None raised AttributeError.
        with pytest.raises(es.InvariantError, match=message):
            dataclasses.replace(_report(100.0), **{field: value})


# Each public domain constructor given an argument of the wrong type, which
# raised a bare TypeError (or was accepted) before, and its refusal.
_WRONG_TYPES = {
    "stats-str-obs": (lambda: es.DescriptiveStats(1, 1, 1, 1, 1, 1, 1, "3"), "^obs must be an integer, got '3'$"),
    "stats-float-obs": (lambda: es.DescriptiveStats(1, 1, 1, 1, 1, 1, 1, 2.5), "^obs must be an integer, got 2.5$"),
    "stats-none-mean": (
        lambda: es.DescriptiveStats(None, 1, 1, 1, 1, 1, 1, 2),
        "^descriptive statistics must be real numbers, got dtype object$",
    ),
    "ingest-str-rows": (lambda: es.IngestReport("3", ()), "^rows_read must be an integer, got '3'$"),
    "ingest-none-ids": (lambda: es.IngestReport(3, None), "^dropped ids must be an iterable, got None$"),
    "dataset-int-ids": (
        lambda: es.RawDataset(5, [[1.0], [2.0]], simple_schema(1)),
        "^entity ids must be an iterable, got 5$",
    ),
    "dataset-no-schema": (
        lambda: es.RawDataset(("a", "b"), [[1.0], [2.0]], None),
        "^dataset schema must be of type Schema, got NoneType$",
    ),
    "normalized-no-schema": (
        lambda: es.NormalizedMatrix([[0.0], [1.0]], None),
        "^normalized schema must be of type Schema, got NoneType$",
    ),
    "adopted-no-schema": (
        lambda: es.NormalizedMatrix._adopt(np.array([[0.0], [1.0]]), None),
        "^normalized schema must be of type Schema, got NoneType$",
    ),
}


class TestConstructorArgumentTypes:
    @pytest.mark.parametrize("make,message", _WRONG_TYPES.values(), ids=_WRONG_TYPES.keys())
    def test_a_wrong_type_is_an_invariant_error(self, make, message):
        with pytest.raises(es.InvariantError, match=message):
            make()


# Each domain type's array: a call that builds one around a value, the name
# its refusal carries, and a valid value.
ARRAY_TAKERS = {
    "dataset": (lambda v: es.RawDataset(("a", "b"), v, simple_schema(2)), "dataset values", [[1.0, 2.0], [3.0, 4.0]]),
    "normalized": (lambda v: es.NormalizedMatrix(v, simple_schema(2)), "normalized values", [[0.0, 1.0], [1.0, 0.0]]),
    "entropies": (es.EntropyVector, "entropies", [0.5, 0.25]),
    "weights": (es.WeightVector, "weights", [0.5, 0.5]),
    "scores": (lambda v: _report(100.0, scores=v), "scores", [0.0, 0.0]),
}


class TestArraysAreRealNumbers:
    """Every domain type refuses an array that is not of real numbers."""

    @pytest.mark.parametrize("taker", ARRAY_TAKERS)
    @pytest.mark.parametrize(
        "cell,message",
        [
            (str, "must be real numbers, got dtype <U"),
            (lambda x: None, "must be real numbers, got dtype object$"),
            (complex, "must be real numbers, got dtype complex128$"),
            (lambda x: [x], "must be an array of real numbers$"),
        ],
        ids=["numeric-str", "none", "complex", "ragged"],
    )
    def test_refuses_what_is_not_real(self, taker, cell, message):
        make, what, good = ARRAY_TAKERS[taker]
        nested = isinstance(good[0], list)
        row = good[0] if nested else good
        row = [cell(row[0]), *row[1:]]  # the first number replaced
        with pytest.raises(es.InvariantError, match=f"^{what} {message}"):
            make([row, *good[1:]] if nested else row)


# Each taker of a positive real: its call, and the error it raises.
POSITIVE_REAL_TAKERS = {
    "options-bandwidth": (lambda v: es.EvaluationOptions(bandwidth=v), es.InvariantError),
    "options-scale": (lambda v: es.EvaluationOptions(scale=v), es.InvariantError),
    "cdf-bandwidth": (lambda v: es.estimate_cdf(_SAMPLES, v, False), es.InvalidBandwidthError),
    "report-scale": (_report, es.InvariantError),
    "composite-scale": (lambda v: es.composite_scores(_MATRIX, _WEIGHTS, v), es.InvariantError),
}

FLAG_TAKERS = {
    "options": lambda v: es.EvaluationOptions(boundary_correction=v),
    "cdf": lambda v: es.estimate_cdf(_SAMPLES, 0.2, v),
}

ANY_VALUE = st.one_of(
    st.booleans(),
    st.booleans().map(np.bool_),
    st.text(max_size=4),
    st.binary(max_size=4),
    st.none(),
    st.complex_numbers(),
    st.lists(st.floats(), max_size=2),
    st.integers(-(10**400), 10**400),
    st.sampled_from([_INT_OVERFLOW - 1, _INT_OVERFLOW, -_INT_OVERFLOW, 10**400, -(10**400)]),
    st.floats(),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
)


def _positive_finite_double(value) -> bool:
    """Whether value is a real number, not a bool, with 0 < value < inf as a double."""
    if isinstance(value, (bool, np.bool_)):
        return False
    if isinstance(value, (int, np.integer)):
        return 0 < value < _INT_OVERFLOW
    if isinstance(value, (float, np.floating)):
        return 0.0 < value < math.inf
    return False


class TestArgumentChecks:
    """Every bandwidth, scale and boundary-correction flag is checked by model's helpers."""

    def test_int_overflow_is_where_float_gives_up(self):
        assert math.isfinite(float(_INT_OVERFLOW - 1))
        with pytest.raises(OverflowError):
            float(_INT_OVERFLOW)

    @pytest.mark.parametrize("taker", POSITIVE_REAL_TAKERS)
    @settings(max_examples=150, deadline=None, database=None)
    @given(value=ANY_VALUE)
    def test_positive_real_takers_agree(self, taker, value):
        call, error = POSITIVE_REAL_TAKERS[taker]
        if value is None and taker == "options-bandwidth":
            return  # None selects Silverman's rule
        if _positive_finite_double(value):
            result = call(value)
            if taker == "cdf-bandwidth":
                assert type(result.bandwidth) is float and result.bandwidth == float(value)
            elif taker == "composite-scale":
                assert np.array_equal(result, float(value) * np.array([0.5, 0.5]))
            elif taker.startswith("options-"):
                assert getattr(result, taker[len("options-"):]) is value
        else:
            with pytest.raises(error):
                call(value)

    @pytest.mark.parametrize("taker", FLAG_TAKERS)
    @settings(max_examples=100, deadline=None, database=None)
    @given(value=ANY_VALUE)
    def test_flag_takers_agree(self, taker, value):
        if isinstance(value, (bool, np.bool_)):
            result = FLAG_TAKERS[taker](value)
            if taker == "cdf":
                assert result.boundary_correction is bool(value)
        else:
            with pytest.raises(es.InvariantError, match="boundary_correction must be True or False"):
                FLAG_TAKERS[taker](value)

    @pytest.mark.parametrize("taker", POSITIVE_REAL_TAKERS)
    @pytest.mark.parametrize("value", [2, 0.5, np.float32(0.25), np.int64(4)])
    def test_positive_reals_still_accepted(self, taker, value):
        POSITIVE_REAL_TAKERS[taker][0](value)

    @pytest.mark.parametrize("taker", FLAG_TAKERS)
    @pytest.mark.parametrize("value", [True, False, np.True_])
    def test_flags_still_accepted(self, taker, value):
        FLAG_TAKERS[taker](value)

    def test_accepted_values_give_the_same_bits(self):
        grid = np.linspace(0.0, 1.0, 1001)
        exact = es.estimate_cdf(_SAMPLES, 1.0)
        for same in (1, np.int64(1), np.float32(1.0)):
            cdf = es.estimate_cdf(_SAMPLES, same)
            assert np.array_equal(cdf.grid_values(1001), exact.grid_values(1001))
            assert np.array_equal(cdf(grid), exact(grid))
        plain = es.estimate_cdf(_SAMPLES, 0.2, True)
        assert np.array_equal(es.estimate_cdf(_SAMPLES, 0.2, np.True_)(grid), plain(grid))
        assert np.array_equal(es.composite_scores(_MATRIX, _WEIGHTS, 100),
                              es.composite_scores(_MATRIX, _WEIGHTS, 100.0))

    def test_cdf_flag_probe(self):
        with pytest.raises(es.InvariantError, match="boundary_correction"):
            es.estimate_cdf(_SAMPLES, 0.2, "no")

    @pytest.mark.parametrize("scale", [10**400, "x"], ids=["huge-int", "str"])
    def test_report_scale_probes(self, scale):
        with pytest.raises(es.InvariantError, match="scale must be"):
            _report(scale)

    def test_composite_scale_probe(self):
        with pytest.raises(es.InvariantError, match="scale must be positive"):
            es.composite_scores(_MATRIX, _WEIGHTS, -1.0)
