"""Composite scores, ranking, descriptive statistics, and the pipeline."""

from __future__ import annotations

import math
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import entroscore as es
from entroscore import density, model, scoring
from helpers import bench_dataset, exact_entropy, random_dataset, simple_schema, wrapped_spectra


class TestCompositeScores:
    def test_hand_example(self):
        values = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        scores = es.composite_scores(values, np.array([0.3, 0.7]))
        np.testing.assert_allclose(scores, [30.0, 70.0, 50.0], atol=1e-12)

    def test_brute_force_oracle(self):
        """Vectorized scores agree with an explicit double loop."""
        rng = np.random.default_rng(24)
        for _ in range(20):
            values = rng.uniform(size=(5, 3))
            w = rng.uniform(0.1, 1.0, size=3)
            w /= w.sum()
            scores = es.composite_scores(values, w)
            for i in range(5):
                acc = 0.0
                for j in range(3):
                    acc += w[j] * values[i, j]
                assert abs(scores[i] - 100.0 * acc) <= 1e-12

    def test_custom_scale(self):
        values = np.array([[1.0], [0.0]])
        scores = es.composite_scores(values, np.array([1.0]), scale=1.0)
        np.testing.assert_array_equal(scores, [1.0, 0.0])

    def test_perfect_row_caps_at_scale(self):
        # Many weights summing to 1 can overshoot 1 by an ulp when the
        # row is all ones; the clip guarantees the advertised range.
        rng = np.random.default_rng(25)
        for _ in range(50):
            m = int(rng.integers(2, 25))
            w = rng.uniform(0.01, 1.0, size=m)
            w /= w.sum()
            scores = es.composite_scores(np.ones((2, m)), w)
            assert np.all(scores <= 100.0)
            assert np.all(scores >= 99.999999)

    def test_accepts_wrapped_types(self):
        schema = simple_schema(2)
        nm = es.NormalizedMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), schema)
        wv = es.WeightVector(np.array([0.5, 0.5]))
        np.testing.assert_allclose(es.composite_scores(nm, wv), [50.0, 50.0])

    def test_dimension_mismatch(self):
        with pytest.raises(es.DimensionMismatchError):
            es.composite_scores(np.ones((3, 2)), np.array([1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_bare_inputs_are_refused_quietly(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(es.NonFiniteInputError, match="^the matrix must be finite"):
                es.composite_scores([[bad, 0.5], [1.0, 1.0]], [0.5, 0.5])
            with pytest.raises(es.NonFiniteInputError, match="^the weight vector must be finite"):
                es.composite_scores([[0.0, 0.5], [1.0, 1.0]], [bad, 0.5])

    @pytest.mark.parametrize(
        "matrix,weights",
        [
            ([[1e308, 1e308]], [1.0, 1.0]),
            ([[1e308, -1e308]], [1e308, 1e308]),
            ([[1e308] * 2 + [-1e308] * 3], [1.0] * 5),
        ],
    )
    def test_weighted_sums_past_the_largest_double_are_refused_quietly(self, matrix, weights):
        # The last sum is -1e308, but its first two terms overflow to inf.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(es.NonFiniteInputError, match="past the largest double"):
                es.composite_scores(matrix, weights)

    def test_bare_inputs_that_are_not_real_numbers_are_refused(self):
        # Strings, and ints past uint64 (an object array), are not numbers.
        with pytest.raises(es.InvariantError, match="^the matrix must be real numbers"):
            es.composite_scores([["1", "0"]], [0.5, 0.5])
        with pytest.raises(es.InvariantError, match="^the weight vector must be real numbers"):
            es.composite_scores([[1.0, 0.0]], ["0.5", "0.5"])
        with pytest.raises(es.InvariantError, match="^the weight vector must be real numbers"):
            es.composite_scores([[1.0, 0.0]], [10**30, 1])

    def test_a_scale_times_a_sum_that_overflows_clips_to_the_scale_quietly(self):
        top = np.finfo(np.float64).max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert es.composite_scores([[1.0, 1.0], [0.0, 0.0]], [0.6, 0.6], top).tolist() == [top, 0.0]


class TestRank:
    def test_descending_order(self):
        np.testing.assert_array_equal(es.rank(np.array([10.0, 30.0, 20.0])), [1, 2, 0])

    def test_ties_keep_input_order(self):
        np.testing.assert_array_equal(es.rank(np.array([5.0, 5.0])), [0, 1])
        np.testing.assert_array_equal(es.rank(np.array([1.0, 7.0, 7.0, 0.5])), [1, 2, 0, 3])

    def test_result_is_permutation_sorting_descending(self):
        rng = np.random.default_rng(26)
        scores = rng.uniform(size=200)
        order = es.rank(scores)
        assert sorted(order) == list(range(200))
        assert np.all(np.diff(scores[order]) <= 0.0)

    @pytest.mark.parametrize("scores", [np.ones((2, 2)) * [[0.0, 1.0]], [[1.0]], 3.0])
    def test_a_score_list_that_is_not_1d_is_refused(self, scores):
        with pytest.raises(es.InvariantError, match="^scores for rank must be 1-D$"):
            es.rank(scores)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_scores_are_refused_quietly(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(es.NonFiniteInputError, match="^scores for rank must be finite"):
                es.rank([0.1, bad])

    @pytest.mark.parametrize("scores", [["3", "1"], [10**30, 1]], ids=["strings", "huge-int"])
    def test_scores_that_are_not_real_numbers_are_refused(self, scores):
        with pytest.raises(es.InvariantError, match="^scores for rank must be real numbers"):
            es.rank(scores)
        with pytest.raises(es.InvariantError, match="^scores for describe must be real numbers"):
            es.describe(scores)

    def test_an_empty_score_list_ranks_to_nothing(self):
        assert es.rank([]).tolist() == []


class TestDescribe:
    def test_textbook_moment_oracle(self):
        """Bias-corrected skewness and excess kurtosis, worked by hand."""
        data = np.array([1.0, 2.0, 3.0, 4.0, 10.0])
        n = data.size
        mean = data.mean()
        dev = data - mean
        s = math.sqrt(float(dev @ dev) / (n - 1))
        g1 = (float(np.mean(dev**3))) / (float(np.mean(dev**2)) ** 1.5)
        skew = g1 * math.sqrt(n * (n - 1)) / (n - 2)
        g2 = float(np.mean(dev**4)) / (float(np.mean(dev**2)) ** 2) - 3.0
        kurt = ((n - 1) / ((n - 2) * (n - 3))) * ((n + 1) * g2 + 6.0)

        d = es.describe(data)
        np.testing.assert_allclose(d.mean, mean, rtol=1e-15)
        np.testing.assert_allclose(d.std_dev, s, rtol=1e-15)
        np.testing.assert_allclose(d.skewness, skew, rtol=1e-12)
        np.testing.assert_allclose(d.kurtosis, kurt, rtol=1e-12)
        assert d.obs == 5
        assert d.smallest == 1.0
        assert d.largest == 10.0

    def test_median_even_count_is_midpoint(self):
        assert es.describe(np.array([1.0, 2.0, 3.0, 4.0])).median == 2.5

    def test_small_samples_get_nan_shape_moments(self):
        d = es.describe(np.array([1.0, 2.0, 3.0]))
        assert math.isnan(d.skewness) and math.isnan(d.kurtosis)
        assert d.std_dev > 0.0

    def test_constant_sample(self):
        d = es.describe(np.array([5.0, 5.0, 5.0, 5.0]))
        assert d.std_dev == 0.0
        assert math.isnan(d.skewness) and math.isnan(d.kurtosis)
        assert d.mean == d.median == d.smallest == d.largest == 5.0

    def test_moments_match_scipy_to_the_bit(self):
        # scipy.stats computed these before; report bytes depend on the bits.
        from scipy import stats

        rng = np.random.default_rng(28)
        for n in (4, 5, 17, 400):
            x = rng.lognormal(3.0, 1.0, size=n)
            d = es.describe(x)
            assert d.skewness == float(stats.skew(x, bias=False))
            assert d.kurtosis == float(stats.kurtosis(x, fisher=True, bias=False))

    def test_nearly_constant_scores_warn_nothing(self):
        # Scores of two equally weighted mirror columns: 50 up to a few ulps.
        scores = np.array([49.99999999999999, 50.0, 50.0, 50.000000000000014,
                           50.000000000000014])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = es.describe(scores)
        assert d.std_dev > 0.0
        assert math.isnan(d.skewness) and math.isnan(d.kurtosis)

    def test_large_normal_sample_moments_near_zero(self):
        rng = np.random.default_rng(27)
        d = es.describe(rng.normal(loc=50.0, scale=10.0, size=5000))
        assert abs(d.skewness) < 0.1
        assert abs(d.kurtosis) < 0.2
        np.testing.assert_allclose(d.mean, 50.0, atol=0.5)
        np.testing.assert_allclose(d.std_dev, 10.0, atol=0.3)

    @pytest.mark.parametrize("scale", [1e-200, 1e80, 1e100, 1e200, 1.7e308])
    def test_huge_scale_gives_the_scaled_stats_quietly(self, scale):
        # Fourth powers of deviations overflow past about 1e77, squared
        # ones underflow below about 1e-154, and a sum of scores near the
        # largest float overflows too.
        ds = random_dataset(np.random.default_rng(38), 40, 5)
        base = es.evaluate(ds, es.EvaluationOptions(method="discrete")).stats
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = es.evaluate(ds, es.EvaluationOptions(method="discrete", scale=scale)).stats
        factor = scale / 100.0
        for name in ("mean", "median", "std_dev", "smallest", "largest"):
            assert math.isfinite(getattr(big, name))
            assert getattr(big, name) == pytest.approx(getattr(base, name) * factor, rel=1e-12)
        assert big.skewness == pytest.approx(base.skewness, rel=1e-12)
        assert big.kurtosis == pytest.approx(base.kurtosis, rel=1e-12)
        assert big.obs == base.obs


    @settings(max_examples=150, deadline=None, database=None)
    @given(
        values=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=60),
        scale=st.sampled_from([1.0, 1e-300, 1e200]),
    )
    # A fourth moment that overflows, and squared deviations that underflow.
    @example(values=[1.0, 0.0, 0.5, 0.2, 0.3], scale=1e120)
    @example(values=[1.0, 2.0, 5.0, 10.0, 3.0], scale=1e-300)
    def test_reductions_have_numpys_bits(self, values, scale):
        # describe sums without np.mean's, np.std's and np.median's Python
        # wrappers; the stats must keep the functions' bits.
        from scipy import stats

        arr = np.array(values) * scale
        d = es.describe(arr)
        magnitude = float(np.max(np.abs(arr)))
        low, high = scoring._PLAIN_SCORES
        factor = magnitude if 0.0 < magnitude and not low <= magnitude <= high else 1.0
        unit = arr / factor
        expected = {
            "mean": float(np.mean(unit) * factor),
            "median": float(np.median(arr)),
            "std_dev": float(np.std(unit, ddof=1)) * factor if arr.size >= 2 else math.nan,
            "smallest": float(np.min(arr)),
            "largest": float(np.max(arr)),
        }
        if not math.isnan(d.skewness):
            expected["skewness"] = float(stats.skew(unit, bias=False))
            expected["kurtosis"] = float(stats.kurtosis(unit, fisher=True, bias=False))
        for name, value in expected.items():
            assert np.float64(getattr(d, name)).tobytes() == np.float64(value).tobytes(), name

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_scores_are_refused_quietly(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(es.NonFiniteInputError, match="scores for describe must be finite"):
                es.describe([1.0, bad, 2.0, 3.0])

    @pytest.mark.parametrize("scores", [[], [[1.0, 2.0]]])
    def test_an_empty_or_nested_score_list_is_refused(self, scores):
        with pytest.raises(es.InvariantError, match="scores for describe must be 1-D and at least 1 long"):
            es.describe(scores)

    def test_scores_near_the_largest_double_warn_nothing(self):
        # The two middle values' sum overflows, and so would a standard
        # deviation of scores of both signs near the largest double.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = es.describe([1.7e308, 1.7e308, 1.7e308, 1.6e308])
            assert d.median == 1.7e308 and math.isfinite(d.std_dev)
            assert es.describe([1.6e308, 1.7e308]).median == pytest.approx(1.65e308, rel=1e-15)
            with pytest.raises(es.NonFiniteInputError, match="standard deviation"):
                es.describe([1.7e308, -1.7e308])


# Arrays of 0, 1 or 2 dimensions, empty ones too, all finite or with NaN
# and +-inf among their entries; finite ones run up to the largest double.
_ARRAYS = st.one_of(
    *(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6),
            elements=st.floats(allow_nan=not finite, allow_infinity=not finite),
        )
        for finite in (True, False)
    )
)


@st.composite
def _matrix_and_weights(draw):
    """Two arrays of any shapes, or an (n, m) matrix and m weights."""
    if draw(st.booleans()):
        return draw(_ARRAYS), draw(_ARRAYS)
    n, m = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    elements = st.floats(allow_nan=draw(st.booleans()), allow_infinity=draw(st.booleans()))
    matrix = draw(hnp.arrays(np.float64, (n, m), elements=elements))
    return matrix, draw(hnp.arrays(np.float64, m, elements=elements))


def _quiet_or_named(call):
    """call()'s result with every warning an error, or None if it raised an EntroscoreError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except es.EntroscoreError:
            return None


class TestLibraryInputs:
    """The library's bare-array entry points, and the entropy and weight
    vectors, on any float array: finite results or a named error, and never
    a warning."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(scores=_ARRAYS)
    def test_rank(self, scores):
        order = _quiet_or_named(lambda: es.rank(scores))
        if order is not None:
            assert sorted(order.tolist()) == list(range(scores.size))

    @settings(max_examples=60, deadline=None, database=None)
    @given(pair=_matrix_and_weights())
    def test_composite_scores(self, pair):
        scores = _quiet_or_named(lambda: es.composite_scores(*pair))
        if scores is not None:
            assert np.all((scores >= 0.0) & (scores <= 100.0))

    @settings(max_examples=60, deadline=None, database=None)
    @given(scores=_ARRAYS)
    @example(scores=np.array([1.7e308, 1.6e308]))
    @example(scores=np.array([1.7e308, -1.7e308]))
    def test_describe(self, scores):
        d = _quiet_or_named(lambda: es.describe(scores))
        if d is not None:
            for name in ("mean", "median", "smallest", "largest"):
                assert math.isfinite(getattr(d, name))
            # NaN only where describe documents it: std_dev at n = 1, the
            # shape moments at n < 4 or a zero variance.
            assert math.isfinite(d.std_dev) or d.obs == 1
            assert not math.isinf(d.skewness) and not math.isinf(d.kurtosis)

    @settings(max_examples=60, deadline=None, database=None)
    @given(entropies=_ARRAYS, rule=st.sampled_from(["paper", "classic"]))
    @example(entropies=np.array([1e308, 1e308]), rule="paper")
    def test_compute_weights(self, entropies, rule):
        weights = _quiet_or_named(lambda: es.compute_weights(entropies, rule))
        if weights is not None:
            assert np.isfinite(weights.weights).all()

    @settings(max_examples=60, deadline=None, database=None)
    @given(samples=_ARRAYS)
    @example(samples=np.array([1e308, -1e308, 0.0]))
    @example(samples=np.linspace(-1e300, 1e300, 101))
    def test_select_bandwidth(self, samples):
        h = _quiet_or_named(lambda: es.select_bandwidth(samples))
        if h is not None:
            assert 0.0 < h < math.inf

    @settings(max_examples=60, deadline=None, database=None)
    @given(samples=_ARRAYS, bandwidth=st.floats(), correct=st.booleans())
    def test_estimate_cdf(self, samples, bandwidth, correct):
        cdf = _quiet_or_named(lambda: es.estimate_cdf(samples, bandwidth, correct))
        if cdf is not None:
            assert cdf.bandwidth == bandwidth and cdf.support_samples.size == samples.size

    @settings(max_examples=60, deadline=None, database=None)
    @given(column=_ARRAYS)
    def test_discrete_entropy(self, column):
        h = _quiet_or_named(lambda: es.discrete_entropy(column))
        if h is not None:
            assert 0.0 <= h <= 1.0

    @settings(max_examples=60, deadline=None, database=None)
    @given(values=_ARRAYS)
    @example(values=np.array([1e308, 1e308]))
    def test_entropy_and_weight_vectors(self, values):
        for make in (es.EntropyVector, es.WeightVector):
            vector = _quiet_or_named(lambda: make(values))
            if vector is not None:
                assert len(vector) == values.size


class TestEvaluationOptions:
    def test_defaults(self):
        opts = es.EvaluationOptions()
        assert opts.method == "continuous"
        assert opts.weight_rule == "paper"
        assert opts.bandwidth is None
        assert opts.boundary_correction is True
        assert opts.scale == 100.0
        assert opts.threads == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"method": "magic"},
            {"weight_rule": "softmax"},
            {"bandwidth": 0.0},
            {"bandwidth": -0.1},
            {"scale": 0.0},
            {"threads": 0},
            # Ints too large for a double, where float() raises OverflowError.
            {"bandwidth": 10**400},
            {"scale": 10**400},
            {"scale": -(10**400)},
            {"boundary_correction": "no"},
            {"boundary_correction": None},
            {"quadrature": 5},
        ],
    )
    def test_rejects_bad_options(self, kwargs):
        with pytest.raises(es.InvariantError):
            es.EvaluationOptions(**kwargs)

    @pytest.mark.parametrize(
        "threads",
        [2.5, 2.0, True, "2", None, np.int64(2)],
        ids=["float", "whole-float", "bool", "str", "none", "numpy-int"],
    )
    def test_threads_must_be_an_int(self, threads):
        with pytest.raises(es.InvariantError, match="threads must be an integer"):
            es.EvaluationOptions(threads=threads)

    @pytest.mark.parametrize("name", ["bandwidth", "scale"])
    @pytest.mark.parametrize(
        "value",
        [True, False, np.bool_(True), "0.5", b"1", [0.5], 1j],
        ids=["true", "false", "numpy-bool", "str", "bytes", "list", "complex"],
    )
    def test_bandwidth_and_scale_must_be_real_numbers(self, name, value):
        with pytest.raises(es.InvariantError, match=f"{name} must be a real number"):
            es.EvaluationOptions(**{name: value})

    @pytest.mark.parametrize("value", [2, 0.5, np.float32(0.25), np.float64(3.0), np.int64(4)])
    def test_bandwidth_and_scale_take_any_positive_real(self, value):
        opts = es.EvaluationOptions(bandwidth=value, scale=value)
        assert opts.bandwidth == opts.scale == value


class TestEvaluate:
    def test_two_rows_single_indicator(self):
        ds = es.RawDataset(("lo", "hi"), np.array([[1.0], [3.0]]), simple_schema(1))
        report = es.evaluate(ds)
        np.testing.assert_array_equal(report.scores, [0.0, 100.0])
        np.testing.assert_array_equal(report.ranking, [1, 0])
        np.testing.assert_array_equal(report.weights.weights, [1.0])
        assert report.stats.obs == 2

    def test_inverse_indicator_flips_the_winner(self):
        ds = es.RawDataset(
            ("lo", "hi"), np.array([[1.0], [3.0]]), simple_schema(1, inverse=(0,))
        )
        report = es.evaluate(ds)
        np.testing.assert_array_equal(report.scores, [100.0, 0.0])

    def test_report_is_internally_consistent(self):
        rng = np.random.default_rng(28)
        ds = random_dataset(rng, 60, 5, inverse=(1, 4))
        report = es.evaluate(ds)
        assert len(report.scores) == 60
        assert np.all((report.scores >= 0.0) & (report.scores <= 100.0))
        np.testing.assert_allclose(report.weights.weights.sum(), 1.0, atol=1e-12)
        assert sorted(report.ranking) == list(range(60))
        assert np.all(np.diff(report.scores[report.ranking]) <= 0.0)
        assert report.stats.obs == 60

    def test_thread_count_never_changes_results(self):
        rng = np.random.default_rng(29)
        ds = random_dataset(rng, 40, 6)
        base = es.evaluate(ds, es.EvaluationOptions(threads=1))
        for threads in (2, 8):
            again = es.evaluate(ds, es.EvaluationOptions(threads=threads))
            assert np.array_equal(again.scores, base.scores)
            assert np.array_equal(again.entropies.entropies, base.entropies.entropies)
            assert np.array_equal(again.weights.weights, base.weights.weights)

    def test_discrete_method_matches_hand_weights(self):
        values = np.array([[4.0, 1.0], [2.0, 1.0], [1.0, 4.0], [3.0, 2.0]])
        ds = es.RawDataset(("a", "b", "c", "d"), values, simple_schema(2))
        report = es.evaluate(ds, es.EvaluationOptions(method="discrete"))
        nm = es.normalize_matrix(ds)
        h = np.array([es.discrete_entropy(nm.values[:, j] )
                      for j in range(2)])
        np.testing.assert_array_equal(report.entropies.entropies, h)
        np.testing.assert_array_equal(report.weights.weights, h / h.sum())

    def test_degenerate_column_error_names_indicator(self):
        values = np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]])
        ds = es.RawDataset(("a", "b", "c"), values, simple_schema(2))
        with pytest.raises(es.DegenerateColumnError, match="ind_01"):
            es.evaluate(ds)

    def test_non_finite_error_names_indicator(self):
        values = np.array([[1.0, 7.0], [2.0, np.inf], [3.0, 9.0]])
        ds = es.RawDataset(("a", "b", "c"), values, simple_schema(2))
        with pytest.raises(es.NonFiniteInputError, match="ind_01"):
            es.evaluate(ds)

    def test_overflowing_range_error_names_indicator(self):
        values = np.array([[1.0, -1e308], [2.0, 0.0], [3.0, 1e308]])
        ds = es.RawDataset(("a", "b", "c"), values, simple_schema(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(es.NonFiniteInputError, match="indicator 'ind_01': range"):
                es.run_pipeline(ds)

    def test_non_finite_error_names_entities(self):
        values = np.array([[1.0, np.nan], [2.0, np.inf], [3.0, 9.0]])
        ds = es.RawDataset(("a", "b", "c"), values, simple_schema(2))
        with pytest.raises(es.NonFiniteInputError) as info:
            es.run_pipeline(ds)
        assert str(info.value) == "indicator 'ind_01': non-finite value for entities: a, b"

    def test_fixed_bandwidth_override(self):
        rng = np.random.default_rng(30)
        ds = random_dataset(rng, 25, 2)
        run = es.run_pipeline(ds, es.EvaluationOptions(bandwidth=0.2))
        assert run.bandwidths == (0.2, 0.2)

    def test_classic_rule_end_to_end(self):
        rng = np.random.default_rng(32)
        ds = random_dataset(rng, 30, 3)
        paper = es.evaluate(ds, es.EvaluationOptions(weight_rule="paper"))
        classic = es.evaluate(ds, es.EvaluationOptions(weight_rule="classic"))
        h = paper.entropies.entropies
        np.testing.assert_allclose(
            classic.weights.weights, (1.0 - h) / (1.0 - h).sum(), atol=1e-12
        )


class TestRunPipeline:
    def test_exposes_intermediates(self):
        rng = np.random.default_rng(33)
        ds = random_dataset(rng, 20, 3)
        run = es.run_pipeline(ds)
        assert run.normalized.values.shape == (20, 3)
        assert len(run.bandwidths) == 3
        assert all(h > 0 for h in run.bandwidths)
        assert len(run.cdfs) == 3
        for cdf in run.cdfs:
            assert cdf(0.0) == 0.0 and cdf(1.0) == 1.0
        np.testing.assert_array_equal(
            run.report.scores,
            es.composite_scores(run.normalized, run.report.weights),
        )

    def test_discrete_mode_has_no_kernel_artifacts(self):
        rng = np.random.default_rng(34)
        ds = random_dataset(rng, 20, 3)
        run = es.run_pipeline(ds, es.EvaluationOptions(method="discrete"))
        assert run.bandwidths is None
        assert run.cdfs is None

    @pytest.mark.parametrize("correct", [np.True_, np.False_])
    def test_estimates_hold_the_correction_flag_as_a_bool(self, correct):
        # As estimate_cdf does, whatever flag type the options were given.
        ds = random_dataset(np.random.default_rng(36), 20, 2)
        run = es.run_pipeline(ds, es.EvaluationOptions(boundary_correction=correct))
        expected = es.estimate_cdf(run.normalized.values[:, 0], 0.1, correct).boundary_correction
        assert type(expected) is bool
        assert [(type(cdf.boundary_correction), cdf.boundary_correction) for cdf in run.cdfs] == [
            (bool, expected)
        ] * 2

    @pytest.mark.parametrize(
        "shape,options",
        [
            ((3000, 3), {}),
            ((30, 4), {"quadrature": es.QuadratureConfig(points=100001)}),
            ((30, 4), {"bandwidth": 1e-5}),
        ],
        ids=["long-columns", "fine-grid", "exact-path"],
    )
    def test_every_column_runs_on_the_calling_thread(self, monkeypatch, shape, options):
        # threads has no effect: long columns, a fine grid and an
        # exact-path bandwidth, where a column pool once started, run
        # every column here and give the bytes of threads=1.
        idents = []
        entropy = scoring.continuous_entropy

        def recorded(cdf, config):
            idents.append(threading.get_ident())
            return entropy(cdf, config)

        monkeypatch.setattr(scoring, "continuous_entropy", recorded)
        ds = random_dataset(np.random.default_rng(40), *shape)
        base = es.run_pipeline(ds, es.EvaluationOptions(threads=1, **options))
        again = es.run_pipeline(ds, es.EvaluationOptions(threads=8, **options))
        assert idents == [threading.get_ident()] * (2 * shape[1])
        assert again.report.scores.tobytes() == base.report.scores.tobytes()
        assert again.report.entropies.entropies.tobytes() == base.report.entropies.entropies.tobytes()
        assert again.report.weights.weights.tobytes() == base.report.weights.weights.tobytes()
        assert again.bandwidths == base.bandwidths

    def test_bandwidth_fault_is_named_before_any_column_runs(self, monkeypatch):
        # Every bandwidth is picked, in one step for all columns, before
        # any column's CDF, so a fault in the third column's bandwidth
        # stops the run before any estimate is built, under that
        # indicator's name.  The third row is made constant, which no
        # normalized column is.
        picked, built = [], []
        silverman = density._silverman

        def faulty(x, names):
            picked.append(x.shape)
            x = x.copy()
            x[2] = 0.5
            return silverman(x, names)

        monkeypatch.setattr(density, "_silverman", faulty)
        monkeypatch.setattr(density, "_kernel_means", lambda *args: built.append(args))
        ds = random_dataset(np.random.default_rng(41), 3000, 4)
        with pytest.raises(es.DegenerateColumnError) as info:
            es.run_pipeline(ds, es.EvaluationOptions(threads=2))
        assert str(info.value) == (
            "indicator 'ind_02': sample standard deviation and IQR are both zero; no bandwidth exists"
        )
        assert picked == [(4, 3000)] and built == []

    @pytest.mark.parametrize("threads", [1, 2])
    def test_continuous_columns_make_no_blas_call(self, monkeypatch, threads):
        # OpenBLAS hands a long dot product to its own worker threads, so
        # its bits could depend on the BLAS thread count.
        def no_blas(*args, **kwargs):
            raise AssertionError("BLAS call")

        for name in ("dot", "vdot", "inner", "matmul"):
            monkeypatch.setattr(np, name, no_blas)
        ds = random_dataset(np.random.default_rng(38), 30, 4)
        run = es.run_pipeline(ds, es.EvaluationOptions(threads=threads))
        assert np.all(run.report.entropies.entropies > 0.0)

    def test_silverman_bandwidth_far_below_a_grid_step_evaluates_exactly(self):
        # Silverman's rule gives h of about 2.7e-210 here.
        column = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.4e-209, 1.0])
        ds = es.RawDataset(tuple(f"e{i}" for i in range(8)), column[:, None], simple_schema(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run = es.run_pipeline(ds)
            (cdf,) = run.cdfs
            assert cdf.bandwidth < 1e-200
            assert np.array_equal(cdf.grid_values(10001), cdf(np.linspace(0.0, 1.0, 10001)))
        assert run.report.weights.weights.tolist() == [1.0]

    def test_default_indicator_set_end_to_end(self):
        rng = np.random.default_rng(35)
        schema = es.default_schema()
        values = rng.uniform(0.5, 9.5, size=(105, len(schema)))
        ds = es.RawDataset(tuple(f"c{i:03d}" for i in range(105)), values, schema)
        report = es.evaluate(ds, es.EvaluationOptions())
        assert report.stats.obs == 105
        assert np.all((report.scores >= 0.0) & (report.scores <= 100.0))
        np.testing.assert_allclose(report.weights.weights.sum(), 1.0, atol=1e-12)
        assert 0.0 < report.stats.std_dev < 100.0


class TestBenchPlans:
    """The grid plans that bench/workloads.generate's columns get."""

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_every_silverman_column_runs_on_the_coarsest_grid_its_bandwidth_allows(self, seed):
        # At 10001 points c = 64 needs h of about 276 grid steps, at its top
        # order 11, and c = 32 about 109.  Over seeds 1-10 the lognormal
        # columns' Silverman h is 119-216 steps, and every other column's
        # at least 329.
        ds = bench_dataset(70, seed)
        run = es.run_pipeline(ds)
        plans = [density._plan(10001, cdf.bandwidth, cdf._span) for cdf in run.cdfs]
        expected = [("fft", 32 if name.startswith("lognormal") else 64) for name in ds.schema.names]
        assert [(plan.kind, plan.c) for plan in plans] == expected
        assert {plan.order for plan in plans if plan.c == 64} <= set(range(7, 12))

    def test_a_bandwidth_of_two_steps_takes_the_ffts_at_1001_points(self):
        # At 1000 rows one lognormal column's Silverman h is 2.29 steps of a
        # 1001-point grid, which c = 1 covers: the FFTs, not the exact sum.
        ds = bench_dataset(1000, 11)
        column = es.normalize_matrix(ds).values[:, ds.schema.names.index("lognormal_008")]
        cdf = es.estimate_cdf(column, es.select_bandwidth(column))
        assert 2.0 < cdf.bandwidth * 1000 < 2.5
        fast = cdf.grid_values(1001)
        plan = density._plan(1001, cdf.bandwidth, cdf._span)
        assert (plan.kind, plan.c, plan.nodes) == ("fft", 1, 1001)
        assert np.max(np.abs(fast - cdf(np.linspace(0.0, 1.0, 1001)))) <= density._GRID_ERROR


# Column kinds for the set-up property: spread, ties, a heavy tail, and a
# spike with outliers (IQR 0, so Silverman's rule takes its other branch).
def _kind_column(kind: int, n: int, rng) -> np.ndarray:
    if kind == 0:
        return rng.uniform(size=n)
    if kind == 1:
        return rng.integers(0, 4, size=n).astype(np.float64)
    if kind == 2:
        return rng.lognormal(sigma=1.5, size=n)
    column = np.zeros(n)
    column[rng.integers(0, n, size=max(1, n // 8))] = rng.normal(size=max(1, n // 8))
    return column


class TestBatchedSetup:
    """run_pipeline sets every continuous column up in one pass: the same
    bits as the one-column calls, in no more memory than those took."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        n=st.sampled_from([2, 7, 8, 9, 128, 129, 300]),
        m=st.integers(1, 20),
        correct=st.booleans(),
        bandwidth=st.sampled_from([None, 0.05, 0.7]),
        exact=st.sets(st.integers(0, 19), max_size=2),
        points=st.sampled_from([3, 1001, 4097, 10001]),
        layout=st.sampled_from(["C", "F", "strided"]),
        skew=st.none() | st.integers(0, 19),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_is_the_one_column_calls_to_the_bit(
        self, n, m, correct, bandwidth, exact, points, layout, skew, seed
    ):
        # Bandwidths, entropies, weights and scores against select_bandwidth,
        # estimate_cdf and continuous_entropy on each normalized column.
        # With Silverman's rule, the columns in exact get h = 1e-5, below
        # the fast path.  skew, if drawn, puts one FFT column's values off
        # its check; that column alone must come back as its rule's sum on
        # the exact values.
        rng = np.random.default_rng(seed)
        values = np.column_stack([_kind_column(int(rng.integers(4)), n, rng) for _ in range(m)])
        flat = values.max(axis=0) == values.min(axis=0)
        values[0, flat] += 1.0
        if layout == "F":
            values = np.asfortranarray(values)
        elif layout == "strided":
            wide = np.zeros((2 * n, 3 * m))
            wide[::2, ::3] = values
            values = wide[::2, ::3]
        ds = es.RawDataset(tuple(f"e{i}" for i in range(n)), values, simple_schema(m, (1, 4)))
        exact = {j for j in exact if j < m} if bandwidth is None else set()
        options = es.EvaluationOptions(
            bandwidth=bandwidth, boundary_correction=correct, quadrature=es.QuadratureConfig(points)
        )

        # The reference, noting which columns take the FFTs.
        calls = []

        def counted(build):
            def call(*args):
                calls.append(None)
                return build(*args)

            return call

        normalized = es.normalize_matrix(ds)
        hs, entropies, fft_columns = [], [], []
        with wrapped_spectra(counted):
            for j in range(m):
                column = normalized.values[:, j]
                h = bandwidth or (1e-5 if j in exact else es.select_bandwidth(column))
                cdf = es.estimate_cdf(column, h, correct)
                before = len(calls)
                entropies.append(es.continuous_entropy(cdf, options.quadrature))
                if len(calls) > before:
                    fft_columns.append(j)
                hs.append(h)
        if skew is not None and fft_columns:
            skew = fft_columns[skew % len(fft_columns)]
            cdf = es.estimate_cdf(normalized.values[:, skew], hs[skew], correct)
            entropies[skew] = exact_entropy(cdf, options.quadrature)
        else:
            skew = None
        weights = es.compute_weights(np.array(entropies))
        scores = es.composite_scores(normalized, weights)

        silverman = density._silverman

        def mixed(x, names):
            return [1e-5 if j in exact else h for j, h in enumerate(silverman(x, names))]

        def skewed(build):
            def call(*args):
                out = build(*args)
                calls.append(None)
                if len(calls) - 1 == fft_columns.index(skew):
                    out *= 1.0 + 1e-3
                return out

            return call

        calls.clear()
        with mock.patch.object(density, "_silverman", mixed), wrapped_spectra(
            skewed if skew is not None else lambda build: build
        ):
            run = es.run_pipeline(ds, options)
        assert np.array(run.bandwidths).tobytes() == np.array(hs, dtype=np.float64).tobytes()
        assert run.report.entropies.entropies.tobytes() == np.array(entropies).tobytes()
        assert run.report.weights.weights.tobytes() == weights.weights.tobytes()
        assert run.report.scores.tobytes() == scores.tobytes()
        assert run.normalized.values.tobytes() == normalized.values.tobytes()

    def test_an_underflowing_bandwidth_is_refused_as_the_estimate_refuses_it(self):
        # IQR one subnormal, so Silverman's h rounds to 0.0 at 2000 rows.
        column = np.array([0.0] * 1000 + [5e-324] * 999 + [1.0])
        with pytest.raises(es.InvalidBandwidthError) as one:
            es.estimate_cdf(column, 0.0)
        with pytest.raises(es.InvalidBandwidthError) as picked:
            es.select_bandwidth(column)
        assert str(picked.value) == str(one.value)
        values = np.column_stack([np.linspace(0.0, 1.0, 2000), column])
        ds = es.RawDataset(tuple(f"e{i}" for i in range(2000)), values, simple_schema(2))
        with pytest.raises(es.InvalidBandwidthError) as info:
            es.run_pipeline(ds)
        assert str(info.value) == f"indicator 'ind_01': {one.value}"

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        counts=st.lists(st.integers(0, 700), min_size=4, max_size=4),
        scale=st.sampled_from([0.0, 5e-324, 1e-323, 2.5e-323, 1e-320, 1e-310, 1e-300])
        | st.floats(0.0, 0.25),
    )
    @example(counts=[999, 999, 0, 0], scale=5e-324)
    def test_a_silverman_bandwidth_is_a_checked_double_or_refused(self, counts, scale):
        # Values 0, scale, 2 * scale and 3 * scale, so the spread runs from
        # 0 through a few subnormals to normal values.
        column = np.repeat(np.arange(4) * scale, counts)
        assume(column.size >= 2)
        with pytest.raises(es.InvalidBandwidthError) as zero:
            es.estimate_cdf(column, 0.0)
        refusals = {es.DegenerateColumnError: density._NO_BANDWIDTH, es.InvalidBandwidthError: str(zero.value)}
        for column in (column, np.concatenate([column, [0.0, 1.0]])):
            try:
                h = es.select_bandwidth(column)
            except (es.DegenerateColumnError, es.InvalidBandwidthError) as exc:
                refused = exc
                assert str(exc) == refusals[type(exc)]
            else:
                refused = None
                assert model._check_positive_real(h, "bandwidth", es.InvalidBandwidthError) == h
        # The last column holds 0 and 1, so normalizing leaves it as it is.
        n = column.size
        values = np.column_stack([np.linspace(0.0, 1.0, n), column])
        ds = es.RawDataset(tuple(f"e{i}" for i in range(n)), values, simple_schema(2))
        if refused is None:
            assert np.array(es.run_pipeline(ds).bandwidths[1]).tobytes() == np.array(h).tobytes()
        else:
            with pytest.raises(type(refused)) as info:
                es.run_pipeline(ds)
            assert str(info.value) == f"indicator 'ind_01': {refused}"

    def test_a_flat_estimate_is_named_before_any_grid_work(self, monkeypatch):
        built = []
        monkeypatch.setattr(density.CdfEstimate, "grid_values", lambda *args: built.append(args))
        ds = random_dataset(np.random.default_rng(42), 30, 3)
        with pytest.raises(es.InvalidBandwidthError) as info:
            es.run_pipeline(ds, es.EvaluationOptions(bandwidth=1e20))
        assert str(info.value) == "indicator 'ind_00': bandwidth so large the kernel CDF is flat on [0, 1]"
        assert built == []

    @staticmethod
    def _one_column_at_a_time(ds: es.RawDataset):
        """run_pipeline's products from the one-column calls, in the order
        run_pipeline made them before its set-up was batched: every
        bandwidth, then each column's estimate and entropy in turn."""
        normalized = es.normalize_matrix(ds)
        columns = normalized.values.T
        bandwidths = tuple(es.select_bandwidth(column) for column in columns)
        results = []
        for column, h in zip(columns, bandwidths):
            cdf = es.estimate_cdf(column, h)
            results.append((es.continuous_entropy(cdf), cdf))
        values, cdfs = zip(*results)
        entropies = es.EntropyVector(np.array(values))
        weights = es.compute_weights(entropies)
        scores = es.composite_scores(normalized, weights)
        report = es.EvaluationReport(
            entropies, weights, scores, es.rank(scores), es.describe(scores), 100.0
        )
        return report, normalized, bandwidths, cdfs

    @pytest.mark.parametrize("rows", [70, 1000, 3000])
    def test_peak_memory_is_no_higher_than_one_column_at_a_time(self, rows):
        # bench/workloads.generate's data at rows x 17.  run_pipeline holds
        # every column's sorted samples from the start, one copy of the
        # matrix, where the one-column calls build them a column at a time;
        # beyond that copy, the set-up's blocks must fit in the scratch that
        # one column's grid work holds anyway.
        if tracemalloc.is_tracing():
            pytest.skip("tracemalloc is already tracing; its peak is not this test's")
        ds = bench_dataset(rows, 7)
        peaks = {}
        for run in (self._one_column_at_a_time, es.run_pipeline):
            run(ds)  # imports and caches out of the measured run
            tracemalloc.start()
            try:
                run(ds)
                peaks[run] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        held = ds.values.nbytes
        assert peaks[es.run_pipeline] <= peaks[self._one_column_at_a_time] + held


@st.composite
def raw_datasets(draw, integers=False):
    """Small datasets with spread in every column, some indicators inverse.

    Integer cells keep an integer-coefficient rescaling exact in float64.
    """
    n = draw(st.integers(3, 20))
    m = draw(st.integers(1, 4))
    cell = st.integers(-1000, 1000) if integers else st.floats(-1e3, 1e3)
    values = np.array(
        draw(st.lists(st.lists(cell, min_size=m, max_size=m), min_size=n, max_size=n)),
        dtype=np.float64,
    )
    assume(np.all(values.max(axis=0) > values.min(axis=0)))
    inverse = tuple(j for j in range(m) if draw(st.booleans()))
    ids = tuple(f"e{i}" for i in range(n))
    return es.RawDataset(ids, values, simple_schema(m, inverse))


METHOD = st.sampled_from(["continuous", "discrete"])
PROPERTY = settings(max_examples=40, deadline=None, database=None)


def outcome(ds, options):
    """The score and weight bytes evaluate gives, or the named error it raises.

    A generated dataset may be one the pipeline documents as an error (one
    discrete column normalized to [1, 0, 0] has no entropy), and an
    invariance must then give the same error.  Unnamed errors propagate.
    """
    try:
        report = es.evaluate(ds, options)
    except es.EntroscoreError as exc:
        return type(exc)
    return report.scores.tobytes(), report.weights.weights.tobytes()


class TestInvarianceProperties:
    """The invariances of the acceptance suite, as properties over
    generated datasets."""

    @PROPERTY
    @given(raw_datasets(integers=True), METHOD, st.data())
    def test_positive_affine_rescaling_changes_nothing(self, ds, method, data):
        j = data.draw(st.integers(0, ds.n_indicators - 1))
        a = data.draw(st.integers(1, 20))
        b = data.draw(st.integers(-100, 100))
        values = ds.values.copy()
        values[:, j] = values[:, j] * a + b
        options = es.EvaluationOptions(method=method)
        moved = es.RawDataset(ds.entity_ids, values, ds.schema)
        assert outcome(moved, options) == outcome(ds, options)

    def test_a_named_error_must_be_shared(self):
        # An inverse discrete column [0, 1, 1] normalizes to [1, 0, 0],
        # which has no entropy, before and after a rescaling.
        ds = es.RawDataset(("a", "b", "c"), np.array([[0.0], [1.0], [1.0]]), simple_schema(1, (0,)))
        moved = es.RawDataset(ds.entity_ids, ds.values * 3.0 + 7.0, ds.schema)
        options = es.EvaluationOptions(method="discrete")
        assert outcome(moved, options) == outcome(ds, options) == es.AllZeroEntropyError

    @PROPERTY
    @given(raw_datasets(), st.permutations(range(20)))
    def test_row_permutation_permutes_scores_and_ranks(self, ds, order):
        # Continuous only: the kernel sums run over sorted samples, while
        # the discrete entropy sums a column in row order.
        n = len(ds.entity_ids)
        perm = np.array([i for i in order if i < n])
        base = es.evaluate(ds)
        shuffled = es.evaluate(
            es.RawDataset(tuple(ds.entity_ids[i] for i in perm), ds.values[perm], ds.schema)
        )
        assert shuffled.scores.tobytes() == base.scores[perm].tobytes()
        base_pos = np.argsort(base.ranking)
        moved_pos = np.argsort(shuffled.ranking)
        # A tie is ordered by input position, which the permutation moves.
        untied = [i for i in range(n) if np.sum(shuffled.scores == shuffled.scores[i]) == 1]
        assert all(moved_pos[i] == base_pos[perm[i]] for i in untied)

    @PROPERTY
    @given(raw_datasets(), METHOD, st.data())
    def test_inverse_indicator_mirrors_its_negated_column(self, ds, method, data):
        j = data.draw(st.integers(0, ds.n_indicators - 1))
        inverse = {k for k, d in enumerate(ds.schema.directions) if d == "inverse"}
        values = ds.values.copy()
        values[:, j] = -values[:, j]
        mirrored = es.RawDataset(
            ds.entity_ids, values, simple_schema(ds.n_indicators, tuple(inverse ^ {j}))
        )
        options = es.EvaluationOptions(method=method)
        assert outcome(mirrored, options) == outcome(ds, options)

    @PROPERTY
    @given(raw_datasets(), METHOD, st.data())
    def test_dominating_entity_never_ranks_below(self, ds, method, data):
        n, m = ds.values.shape
        rows = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
        better, worse = data.draw(rows)
        steps = np.array(data.draw(st.lists(st.floats(0.0, 10.0), min_size=m, max_size=m)))
        inverse = np.array([d == "inverse" for d in ds.schema.directions])
        values = ds.values.copy()
        values[better] = values[worse] + np.where(inverse, -steps, steps)
        assume(np.all(values.max(axis=0) > values.min(axis=0)))
        moved = es.RawDataset(ds.entity_ids, values, ds.schema)
        try:
            report = es.evaluate(moved, es.EvaluationOptions(method=method))
        except es.AllZeroEntropyError:
            # No ranking exists when no column has discrete entropy, as when
            # the dominating row alone tops a column tied at its minimum.
            assert method == "discrete"
            columns = es.normalize_matrix(moved).values.T
            assert all(es.discrete_entropy(column) == 0.0 for column in columns)
            return
        position = np.argsort(report.ranking)
        scores = report.scores
        assert scores[better] >= scores[worse]
        # Only a tie, broken by input order, puts it after the other.
        assert position[better] < position[worse] or (
            scores[better] == scores[worse] and better > worse
        )
