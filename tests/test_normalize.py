"""Min-max rescaling, both directions.

The two formulas are exact mirror images: for any column c,
normalize_inverse(c) equals normalize_positive(-c) down to the bit,
because IEEE 754 negation is exact and the two expressions then perform
the same subtractions and division.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entroscore as es
from entroscore import normalize
from helpers import simple_schema

# Cells a column may hold: signed zeros and ties, huge values whose range
# overflows, and the non-finite values the screen must catch.
CELLS = (0.0, -0.0, 1.0, -1.0, 2.5, -3.0, 1e308, -1e308, 5e-324, np.nan, np.inf, -np.inf)


class TestHandValues:
    def test_positive_simple(self):
        np.testing.assert_array_equal(
            es.normalize_positive(np.array([2.0, 4.0, 6.0])), [0.0, 0.5, 1.0]
        )

    def test_positive_with_negatives(self):
        np.testing.assert_array_equal(
            es.normalize_positive(np.array([-1.0, 0.0, 3.0])), [0.0, 0.25, 1.0]
        )

    def test_inverse_simple(self):
        np.testing.assert_array_equal(
            es.normalize_inverse(np.array([2.0, 4.0, 6.0])), [1.0, 0.5, 0.0]
        )

    def test_inverse_with_negatives(self):
        np.testing.assert_array_equal(
            es.normalize_inverse(np.array([-1.0, 0.0, 3.0])), [1.0, 0.75, 0.0]
        )


class TestBounds:
    def test_extremes_are_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            col = rng.normal(scale=50.0, size=rng.integers(2, 60))
            out = es.normalize_positive(col)
            assert out.min() == 0.0
            assert out.max() == 1.0
            out = es.normalize_inverse(col)
            assert out.min() == 0.0
            assert out.max() == 1.0

    def test_all_values_within_unit_interval(self):
        rng = np.random.default_rng(3)
        col = rng.uniform(-1e6, 1e6, size=500)
        out = es.normalize_positive(col)
        assert np.all((out >= 0.0) & (out <= 1.0))


class TestMirrorIdentities:
    def test_inverse_is_one_minus_positive(self):
        rng = np.random.default_rng(4)
        col = rng.normal(size=100)
        np.testing.assert_allclose(
            es.normalize_inverse(col), 1.0 - es.normalize_positive(col), atol=1e-15
        )

    def test_inverse_equals_positive_of_negated_column(self):
        # Bitwise identity, not just approximate.
        rng = np.random.default_rng(5)
        for _ in range(50):
            col = rng.normal(scale=rng.uniform(0.1, 1e4), size=rng.integers(2, 80))
            assert np.array_equal(es.normalize_inverse(col), es.normalize_positive(-col))


class TestAffineInvariance:
    def test_bit_identical_on_integer_grids(self):
        """Rescaling an integer column by integer a > 0, b changes nothing.

        With integer inputs every intermediate (a*x + b, the min, the max,
        the differences) is exact in float64, so the final quotients round
        from the same real numbers and must be bit-identical.
        """
        rng = np.random.default_rng(6)
        for _ in range(100):
            col = rng.integers(-1000, 1000, size=rng.integers(2, 50)).astype(np.float64)
            if col.max() == col.min():
                continue
            a = float(rng.integers(1, 50))
            b = float(rng.integers(-500, 500))
            assert np.array_equal(
                es.normalize_positive(a * col + b), es.normalize_positive(col)
            )

    def test_close_on_arbitrary_floats(self):
        rng = np.random.default_rng(7)
        col = rng.normal(size=200)
        a, b = 3.7, -12.9
        np.testing.assert_allclose(
            es.normalize_positive(a * col + b), es.normalize_positive(col), atol=1e-12
        )


class TestErrors:
    def test_constant_column(self):
        with pytest.raises(es.DegenerateColumnError):
            es.normalize_positive(np.array([3.0, 3.0, 3.0]))

    def test_single_entry(self):
        with pytest.raises(es.DegenerateColumnError):
            es.normalize_positive(np.array([3.0]))

    def test_non_finite(self):
        with pytest.raises(es.NonFiniteInputError):
            es.normalize_positive(np.array([1.0, np.inf]))
        with pytest.raises(es.NonFiniteInputError):
            es.normalize_inverse(np.array([1.0, np.nan]))

    def test_wrong_shape(self):
        with pytest.raises(es.InvariantError):
            es.normalize_positive(np.zeros((2, 2)))

    @pytest.mark.parametrize("normalize", [es.normalize_positive, es.normalize_inverse])
    @pytest.mark.parametrize(
        "column,message",
        [
            (["1", "2"], "must be real numbers, got dtype <U1$"),
            ([1.0, 2j], "must be real numbers, got dtype complex128$"),
            ([1.0, None], "must be real numbers, got dtype object$"),
            ([1.0, [2.0]], "must be an array of real numbers$"),
        ],
        ids=["numeric-str", "complex", "none", "ragged"],
    )
    def test_column_must_be_real_numbers(self, normalize, column, message):
        with pytest.raises(es.InvariantError, match=f"^column {message}"):
            normalize(column)


class TestNormalizeMatrix:
    def test_direction_dispatch(self):
        schema = simple_schema(2, inverse=(1,))
        ds = es.RawDataset(
            ("a", "b", "c"),
            np.array([[2.0, 2.0], [4.0, 4.0], [6.0, 6.0]]),
            schema,
        )
        nm = es.normalize_matrix(ds)
        np.testing.assert_array_equal(nm.values[:, 0], [0.0, 0.5, 1.0])
        np.testing.assert_array_equal(nm.values[:, 1], [1.0, 0.5, 0.0])

    def test_result_satisfies_normalized_invariants(self):
        rng = np.random.default_rng(8)
        ds = es.RawDataset(
            tuple(f"e{i}" for i in range(30)),
            rng.normal(size=(30, 4)) * 100,
            simple_schema(4, inverse=(2,)),
        )
        nm = es.normalize_matrix(ds)
        assert nm.values.shape == (30, 4)
        np.testing.assert_array_equal(nm.values.min(axis=0), np.zeros(4))
        np.testing.assert_array_equal(nm.values.max(axis=0), np.ones(4))

    def test_error_names_the_indicator(self):
        schema = simple_schema(2)
        ds = es.RawDataset(
            ("a", "b"), np.array([[1.0, 7.0], [2.0, 7.0]]), schema
        )
        with pytest.raises(es.DegenerateColumnError, match="ind_01"):
            es.normalize_matrix(ds)

    def test_row_permutation_permutes_rows(self):
        rng = np.random.default_rng(9)
        ds = es.RawDataset(
            tuple(f"e{i}" for i in range(25)),
            rng.uniform(0, 50, size=(25, 3)),
            simple_schema(3),
        )
        perm = rng.permutation(25)
        shuffled = es.RawDataset(
            tuple(ds.entity_ids[i] for i in perm), ds.values[perm], ds.schema
        )
        assert np.array_equal(es.normalize_matrix(shuffled).values,
                              es.normalize_matrix(ds).values[perm])


    @settings(max_examples=200, deadline=None, database=None)
    @given(
        picks=st.lists(
            st.lists(st.integers(0, len(CELLS) - 1), min_size=1, max_size=8), min_size=2, max_size=9
        ),
        inverse=st.sets(st.integers(0, 7)),
        layout=st.sampled_from(["C", "F", "strided"]),
    )
    def test_is_the_column_by_column_rescale_to_the_bit(self, picks, inverse, layout):
        # The one pass over all columns against _rescale on each column in
        # schema order: the same bits, or the first faulty column's error
        # under its indicator's name, and never a numpy warning.
        m = min(len(row) for row in picks)
        values = np.array([[CELLS[i] for i in row[:m]] for row in picks])
        if layout == "F":
            values = np.asfortranarray(values)
        elif layout == "strided":
            wide = np.zeros((2 * values.shape[0], 3 * m))
            wide[::2, ::3] = values
            values = wide[::2, ::3]
        ids = tuple(f"e{i}" for i in range(values.shape[0]))
        ds = es.RawDataset(ids, values, simple_schema(m, tuple(inverse)))
        expected = []
        try:
            for j, spec in enumerate(ds.schema):
                inv = spec.direction is es.Direction.INVERSE
                try:
                    expected.append(normalize._rescale(ds.values[:, j], inv, ids))
                except es.EntroscoreError as exc:
                    raise type(exc)(f"indicator '{spec.name}': {exc}") from None
        except es.EntroscoreError as exc:
            with pytest.raises(type(exc)) as info:
                es.normalize_matrix(ds)
            assert str(info.value) == str(exc)
            return
        got = es.normalize_matrix(ds).values
        assert got.tobytes() == np.column_stack(expected).tobytes()
