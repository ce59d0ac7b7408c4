"""Composite scores, ranking, descriptive statistics, and the pipeline."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import entroscore as es
from entroscore import scoring
from helpers import random_dataset, record_pool_starts, simple_schema


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

    @pytest.mark.parametrize("scale", [1e200, 1.7e308])
    def test_huge_scale_gives_the_scaled_stats_quietly(self, scale):
        # Squared deviations overflow past 1e154, and a sum of scores near
        # the largest float overflows too.
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

    def test_only_continuous_columns_use_the_thread_pool(self, monkeypatch):
        # The pool starts only where it beats one worker: discrete columns
        # and short continuous ones on the default grid never start it;
        # long columns, a fine grid and an exact-path bandwidth do.
        started = record_pool_starts(monkeypatch)
        rng = np.random.default_rng(37)
        short = random_dataset(rng, 20, 3)
        paper_shape = random_dataset(rng, 105, 17)
        long = random_dataset(rng, 3000, 2)
        fine = es.QuadratureConfig(points=100001)
        for ds, options in [
            (long, es.EvaluationOptions(method="discrete", threads=4)),
            (short, es.EvaluationOptions(threads=4)),
            (paper_shape, es.EvaluationOptions(threads=4)),
        ]:
            es.run_pipeline(ds, options)
            assert started == []
        for ds, options in [
            (long, es.EvaluationOptions(threads=4)),
            (short, es.EvaluationOptions(threads=4, quadrature=fine)),
            (short, es.EvaluationOptions(threads=4, bandwidth=1e-5)),
        ]:
            es.run_pipeline(ds, options)
            assert started == [4]
            started.clear()
        es.run_pipeline(long, es.EvaluationOptions(threads=1))
        assert started == []

    def test_an_exact_path_bandwidth_starts_the_pool(self, monkeypatch):
        # Silverman's rule gives the first column a bandwidth below three
        # grid steps, so grid_values sums it exactly, without the lock.
        started = record_pool_starts(monkeypatch)
        rng = np.random.default_rng(39)
        values = rng.uniform(0.0, 10.0, size=(40, 3))
        values[:, 0] = np.where(np.arange(40) < 35, 5.0 + rng.uniform(0, 1e-4, 40), values[:, 0])
        ds = es.RawDataset(tuple(f"e{i}" for i in range(40)), values, simple_schema(3))
        run = es.run_pipeline(ds, es.EvaluationOptions(threads=2))
        assert run.bandwidths[0] * 10000 < 3.0 < run.bandwidths[1] * 10000
        assert started == [2]

    @pytest.mark.parametrize(
        "shape,options",
        [
            ((3000, 3), {}),
            ((30, 4), {"quadrature": es.QuadratureConfig(points=100001)}),
            ((30, 4), {"bandwidth": 1e-5}),
        ],
        ids=["long-columns", "fine-grid", "exact-path"],
    )
    def test_thread_count_never_changes_results_on_the_pool(self, monkeypatch, shape, options):
        started = record_pool_starts(monkeypatch)
        ds = random_dataset(np.random.default_rng(40), *shape)
        base = es.run_pipeline(ds, es.EvaluationOptions(threads=1, **options))
        for threads in (2, 8):
            again = es.run_pipeline(ds, es.EvaluationOptions(threads=threads, **options))
            assert again.report.scores.tobytes() == base.report.scores.tobytes()
            assert again.report.entropies.entropies.tobytes() == base.report.entropies.entropies.tobytes()
            assert again.report.weights.weights.tobytes() == base.report.weights.weights.tobytes()
            assert again.bandwidths == base.bandwidths
        assert started == [2, 8]

    def test_bandwidth_fault_is_named_before_any_column_runs(self, monkeypatch):
        # Every bandwidth is picked before any column's CDF, so a fault in
        # the third column's bandwidth stops the run before a pool starts,
        # under that indicator's name.
        started = record_pool_starts(monkeypatch)
        picked, built = [], []

        def select_bandwidth(column):
            picked.append(column)
            if len(picked) == 3:
                raise es.DegenerateColumnError("no bandwidth exists")
            return es.select_bandwidth(column)

        monkeypatch.setattr(scoring, "select_bandwidth", select_bandwidth)
        monkeypatch.setattr(scoring, "estimate_cdf", lambda *args: built.append(args))
        ds = random_dataset(np.random.default_rng(41), 3000, 4)
        with pytest.raises(es.DegenerateColumnError) as info:
            es.run_pipeline(ds, es.EvaluationOptions(threads=2))
        assert str(info.value) == "indicator 'ind_02': no bandwidth exists"
        assert len(picked) == 3 and built == [] and started == []

    @pytest.mark.parametrize("threads", [1, 2])
    def test_continuous_columns_make_no_blas_call(self, monkeypatch, threads):
        # OpenBLAS hands a long dot product to its own worker threads, which
        # stalls a column whenever the pool keeps the cores busy.
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
