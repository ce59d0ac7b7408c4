"""Bandwidth selection and the kernel CDF estimate."""

from __future__ import annotations

import copy
import functools
import math
import pickle
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entroscore as es
from entroscore import density
from helpers import exact_entropy, random_dataset, record_spectra


class TestSelectBandwidth:
    def test_two_point_hand_value(self):
        # 0.9 * min(sqrt(0.5), 0.5/1.34) * 2**(-1/5), worked by hand.
        h = es.select_bandwidth([0.0, 1.0])
        np.testing.assert_allclose(h, 0.29234906976362374, rtol=1e-14)

    def test_matches_formula_on_random_samples(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            x = rng.uniform(size=rng.integers(5, 400))
            std = float(np.std(x, ddof=1))
            iqr = float(np.percentile(x, 75) - np.percentile(x, 25))
            expected = 0.9 * min(std, iqr / 1.34) * x.size ** (-0.2)
            np.testing.assert_allclose(es.select_bandwidth(x), expected, rtol=1e-12)

    def test_falls_back_when_iqr_is_zero(self):
        # Heavy ties collapse the quartile spread but not the deviation.
        x = np.array([0.0] * 8 + [1.0])
        std = float(np.std(x, ddof=1))
        np.testing.assert_allclose(
            es.select_bandwidth(x), 0.9 * std * x.size ** (-0.2), rtol=1e-14
        )

    def test_constant_samples_rejected(self):
        with pytest.raises(es.DegenerateColumnError):
            es.select_bandwidth([0.4] * 10)

    def test_underflowing_spread_rejected_without_claiming_equal_samples(self):
        # The values differ, but the std dev underflows to zero in float64.
        with pytest.raises(es.DegenerateColumnError) as info:
            es.select_bandwidth([0.0] * 9 + [1e-320])
        assert "equal" not in str(info.value)

    def test_order_invariant_to_the_bit(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(size=101)
        shuffled = x[rng.permutation(x.size)]
        assert es.select_bandwidth(x) == es.select_bandwidth(shuffled)

    def test_shrinks_with_sample_count(self):
        rng = np.random.default_rng(14)
        small = rng.uniform(size=50)
        big = np.concatenate([small, rng.uniform(size=1950)])
        assert es.select_bandwidth(big) < es.select_bandwidth(small)

    @pytest.mark.parametrize(
        "bad,error",
        [
            pytest.param([0.5], es.InvariantError, id="bad0"),
            pytest.param([[0.1, 0.2]], es.InvariantError, id="bad1"),
            pytest.param([0.1, np.nan], es.NonFiniteInputError, id="bad2"),
            # Finite samples whose standard deviation overflows, where
            # min(inf, IQR) would take the IQR and give a wrong h.
            pytest.param([1e308, -1e308, 0.0], es.NonFiniteInputError, id="spread-overflows"),
            pytest.param([-1e308, 1e308], es.NonFiniteInputError, id="two-spread-overflows"),
            pytest.param([1.7e308, 1.7e308, 1.0], es.NonFiniteInputError, id="sum-overflows"),
            pytest.param(np.linspace(-1e300, 1e300, 101), es.NonFiniteInputError, id="std-overflows"),
        ],
    )
    def test_invalid_inputs(self, bad, error):
        with pytest.raises(error):
            es.select_bandwidth(bad)

    @pytest.mark.parametrize("bad", [["0", "0.5", "1"], [0, 10**30, 1]], ids=["strings", "huge-int"])
    def test_samples_that_are_not_real_numbers(self, bad):
        with pytest.raises(es.InvariantError, match="^samples for bandwidth selection must be real numbers"):
            es.select_bandwidth(bad)

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        pool=st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=40),
        picks=st.lists(st.integers(0, 39), min_size=2, max_size=200),
    )
    def test_quartiles_are_np_percentile_to_the_bit(self, pool, picks):
        # Picks from a small pool make ties.  Adding 0.0 turns -0.0 into
        # 0.0, as in a normalized column: which of two equal zeros of
        # either sign np.percentile takes depends on its partition.
        x = np.sort(np.array([pool[i % len(pool)] for i in picks]) + 0.0)
        got = np.array([density._sorted_quantile(x, q) for q in (0.25, 0.75)])
        assert np.array_equal(got.view(np.int64), np.percentile(x, (25, 75)).view(np.int64))

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        pool=st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=40),
        picks=st.lists(st.integers(0, 39), min_size=2, max_size=200),
    )
    def test_std_is_np_std_to_the_bit(self, pool, picks):
        # Below 1e150 in magnitude no square or sum overflows.
        x = np.sort(np.array([pool[i % len(pool)] for i in picks]))
        got = np.array([density._sample_std(x)])
        assert np.array_equal(got.view(np.int64), np.array([np.std(x, ddof=1)]).view(np.int64))


class TestCdfEstimate:
    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(15)
        x = rng.uniform(size=80)
        cdf = es.estimate_cdf(x, es.select_bandwidth(x))
        grid = np.linspace(0.0, 1.0, 501)
        phi = cdf(grid)
        assert np.all(np.diff(phi) >= 0.0)
        assert phi[0] >= 0.0 and phi[-1] <= 1.0

    def test_endpoints_pinned_with_correction(self):
        rng = np.random.default_rng(16)
        x = rng.uniform(0.1, 0.9, size=40)
        cdf = es.estimate_cdf(x, es.select_bandwidth(x))
        assert cdf(0.0) == 0.0
        assert cdf(1.0) == 1.0

    def test_uncorrected_endpoints_leak_mass(self):
        cdf = es.estimate_cdf([0.25, 0.75], 0.1, boundary_correction=False)
        assert 0.0 < cdf(0.0) < 0.05
        assert 0.95 < cdf(1.0) < 1.0

    def test_symmetric_samples_cross_half(self):
        cdf = es.estimate_cdf([0.25, 0.75], es.select_bandwidth([0.25, 0.75]))
        np.testing.assert_allclose(cdf(0.5), 0.5, atol=1e-15)

    def test_scalar_and_array_calls_agree(self):
        rng = np.random.default_rng(17)
        x = rng.uniform(size=30)
        cdf = es.estimate_cdf(x, 0.1)
        pts = np.array([0.0, 0.3, 0.7, 1.0])
        vec = cdf(pts)
        assert isinstance(cdf(0.3), float)
        np.testing.assert_array_equal(vec, [cdf(p) for p in pts])

    def test_preserves_input_shape(self):
        rng = np.random.default_rng(18)
        x = rng.uniform(size=20)
        cdf = es.estimate_cdf(x, 0.1)
        out = cdf(np.full((3, 4), 0.5))
        assert out.shape == (3, 4)

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0)])
    def test_empty_input_gives_an_empty_result(self, shape):
        cdf = es.estimate_cdf(np.random.default_rng(18).uniform(size=20), 0.1)
        out = cdf(np.empty(shape))
        assert out.shape == shape and out.dtype == np.float64

    def test_sample_order_never_matters(self):
        rng = np.random.default_rng(19)
        x = rng.uniform(size=64)
        grid = np.linspace(0.0, 1.0, 257)
        base = es.estimate_cdf(x, 0.08)(grid)
        for _ in range(5):
            shuffled = x[rng.permutation(x.size)]
            assert np.array_equal(es.estimate_cdf(shuffled, 0.08)(grid), base)

    def test_reflection_symmetry(self):
        # Mirroring the samples mirrors the estimate: the kernel is even,
        # so only rounding noise from the kernel evaluations remains.
        rng = np.random.default_rng(20)
        x = rng.uniform(size=50)
        grid = np.linspace(0.0, 1.0, 201)
        f = es.estimate_cdf(x, es.select_bandwidth(x))
        g = es.estimate_cdf(1.0 - x, es.select_bandwidth(1.0 - x))
        np.testing.assert_allclose(g(grid), 1.0 - f(1.0 - grid), atol=1e-13)

    def test_blocked_evaluation_matches_direct(self):
        # A grid large enough to force several evaluation blocks.
        rng = np.random.default_rng(21)
        x = rng.uniform(size=500)
        cdf = es.estimate_cdf(x, 0.05)
        grid = np.linspace(0.0, 1.0, 20001)
        whole = cdf(grid)
        np.testing.assert_array_equal(whole[:101], cdf(grid[:101]))

    def test_properties(self):
        x = [0.5, 0.1, 0.9]
        cdf = es.estimate_cdf(x, 0.2, boundary_correction=False)
        assert cdf.bandwidth == 0.2
        assert cdf.boundary_correction is False
        np.testing.assert_array_equal(cdf.support_samples, [0.1, 0.5, 0.9])
        assert not cdf.support_samples.flags.writeable
        assert repr(cdf) == "CdfEstimate(n=3, bandwidth=0.2, boundary_correction=False)"

    def test_two_threads_on_one_estimate_get_the_sequential_bytes(self):
        # The class promises that one estimate may be evaluated from
        # several threads; the pipeline itself calls it from one.
        rng = np.random.default_rng(22)
        x = rng.lognormal(0.0, 0.8, size=300)
        cdf = es.estimate_cdf((x - x.min()) / (x.max() - x.min()), 0.03)
        grid = np.linspace(0.0, 1.0, 2001)
        expected = (cdf.grid_values(10001).tobytes(), cdf(grid).tobytes())
        results = ([], [])

        def work(out):
            for _ in range(5):
                out.append((cdf.grid_values(10001).tobytes(), cdf(grid).tobytes()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(out,)) for out in results]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == ([expected] * 5, [expected] * 5)


class TestCdfErrors:
    @pytest.mark.parametrize(
        "h",
        [0.0, -0.5, np.inf, np.nan, pytest.param(True, id="bool"), pytest.param("0.1", id="str"),
         pytest.param(10**400, id="huge-int")],
    )
    def test_bad_bandwidth(self, h):
        with pytest.raises(es.InvalidBandwidthError):
            es.estimate_cdf([0.2, 0.8], h)

    @pytest.mark.parametrize("shape,n", [("uniform", 2), ("lognormal", 40), ("spike", 300)])
    def test_one_exact_sum_gives_both_endpoints(self, shape, n):
        x = _column(shape, n, np.random.default_rng(35))
        cdf = es.estimate_cdf(x, es.select_bandwidth(x))
        lo = cdf._raw(np.array([0.0]))[0]
        hi = cdf._raw(np.array([1.0]))[0]
        assert cdf._raw_lo == lo
        assert cdf._span == hi - lo

    def test_bandwidth_flattening_the_estimate(self):
        # So wide that the kernel CDF cannot tell 0 from 1 in float64.
        with pytest.raises(es.InvalidBandwidthError, match="flat"):
            es.estimate_cdf([0.2, 0.8], 1e20)

    def test_samples_outside_unit_interval(self):
        with pytest.raises(es.InvariantError):
            es.estimate_cdf([-0.1, 0.5], 0.1)
        with pytest.raises(es.InvariantError):
            es.estimate_cdf([0.5, 1.2], 0.1)

    def test_too_few_or_non_finite_samples(self):
        with pytest.raises(es.InvariantError):
            es.estimate_cdf([0.5], 0.1)
        with pytest.raises(es.NonFiniteInputError):
            es.estimate_cdf([0.5, np.nan], 0.1)

    @pytest.mark.parametrize(
        "bad", [["0", "1"], "abc", [0, 10**30], [0.5, 1j]], ids=["strings", "text", "huge-int", "complex"]
    )
    def test_samples_that_are_not_real_numbers(self, bad):
        with pytest.raises(es.InvariantError, match="^samples for a CDF estimate must be real numbers"):
            es.estimate_cdf(bad, 0.1)

    # Two bad arguments at once: the first in the constructor's order
    # (samples, their [0, 1] range, bandwidth, flag) is the one refused.
    @pytest.mark.parametrize(
        "samples,h,flag,error,message",
        [
            ([-0.1, 0.5], 0.0, True, es.InvariantError, r"^samples must lie in \[0, 1\]$"),
            ([0.2, 0.8], "0.1", 0, es.InvalidBandwidthError, "^bandwidth must be a real number, got '0.1'$"),
            ([0.2, 0.8], 1e20, 0, es.InvariantError, "^boundary_correction must be True or False, got 0$"),
            ([np.nan, 0.5], 0.0, True, es.NonFiniteInputError, "^samples for a CDF estimate must be finite$"),
        ],
        ids=["range-before-bandwidth", "bandwidth-before-flag", "flag-before-flatness", "nan-before-bandwidth"],
    )
    def test_the_first_bad_argument_in_order_is_refused(self, samples, h, flag, error, message):
        with pytest.raises(error, match=message) as info:
            es.estimate_cdf(samples, h, flag)
        assert type(info.value) is error


class TestCopies:
    @pytest.mark.parametrize("source", ["estimate_cdf", "run_pipeline"])
    def test_pickle_and_deepcopy_keep_every_field_and_bit(self, source):
        # pickle and copy build the copy through cls.__new__(cls), with no
        # arguments, then fill in its fields.
        rng = np.random.default_rng(36)
        if source == "estimate_cdf":
            x = _column("lognormal", 70, rng)
            cdf = es.estimate_cdf(x, es.select_bandwidth(x))
        else:
            cdf = es.run_pipeline(random_dataset(rng, 40, 3)).cdfs[1]
        expected = cdf.grid_values(10001).tobytes()
        for twin in (pickle.loads(pickle.dumps(cdf)), copy.deepcopy(cdf)):
            assert type(twin) is es.CdfEstimate and vars(twin).keys() == vars(cdf).keys()
            for name, value in vars(cdf).items():
                if isinstance(value, np.ndarray):
                    assert vars(twin)[name].tobytes() == value.tobytes()
                else:
                    assert type(vars(twin)[name]) is type(value) and vars(twin)[name] == value
            assert twin.grid_values(10001).tobytes() == expected


class TestFidelity:
    """Against uniform data the estimate should track phi(x) = x."""

    def test_sup_distance_shrinks_with_n(self):
        rng = np.random.default_rng(42)
        grid = np.linspace(0.0, 1.0, 1001)
        sups = []
        for n in (100, 1000):
            x = rng.uniform(size=n)
            cdf = es.estimate_cdf(x, es.select_bandwidth(x))
            sups.append(np.max(np.abs(cdf(grid) - grid)))
        assert sups[1] < sups[0]
        assert sups[1] <= 0.05

    def test_interior_quantiles_close(self):
        rng = np.random.default_rng(43)
        x = rng.uniform(size=2000)
        cdf = es.estimate_cdf(x, es.select_bandwidth(x))
        for q in (0.1, 0.25, 0.5, 0.75, 0.9):
            assert abs(cdf(q) - q) < 0.03


def _column(shape: str, n: int, rng) -> np.ndarray:
    """A normalized column of one of the shapes the pipeline meets."""
    if shape == "uniform":
        x = rng.uniform(size=n)
    elif shape == "normal":
        x = rng.normal(size=n)
    elif shape == "lognormal":
        x = rng.lognormal(sigma=1.5, size=n)
    elif shape == "ties":
        x = rng.integers(0, 4, size=n).astype(np.float64)
    else:  # mostly constant, with outliers
        x = np.r_[np.full(n, 0.3), 0.0, 1.0]
    x = np.r_[x, x.min() + 1.0]  # never all equal
    return (x - x.min()) / (x.max() - x.min())


def _plan_of(cdf, points):
    """The plan grid_values makes for cdf on points nodes."""
    return density._plan(points, cdf.bandwidth, cdf._span)


def _remainder(radius, order):
    """The Taylor remainder's bound at this order: radius**P/P! * max|ndtr^(P)|."""
    return radius**order / math.factorial(order) * density._NDTR_DERIVATIVE_MAX[order - 1]


def _bandwidth_inside(c, order, points=10001):
    """The h that puts this order's truncation bound at rung c 1e-15 inside
    the 1e-12 budget: less than the rounding estimate's least share, 2 * eps
    for each of 12 orders, so the rung needs one order more than that."""
    top = density._GRID_ERROR * (1.0 - 1e-3)
    radius = (top * math.factorial(order) / density._NDTR_DERIVATIVE_MAX[order - 1]) ** (1 / order)
    return c / ((points - 1) * radius)


def _count_ndtr(monkeypatch) -> list:
    """Make density log the shape of every array it hands ndtr into the returned list."""
    calls = []
    ndtr = density._ndtr()

    def counted(z, *args, **kwargs):
        calls.append(np.shape(z))
        return ndtr(z, *args, **kwargs)

    monkeypatch.setattr(density, "_ndtr", lambda: counted)
    return calls


class TestGridValues:
    """grid_values against the exact kernel sum it stands in for."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(
        n=st.integers(2, 300),
        shape=st.sampled_from(["uniform", "normal", "lognormal", "ties", "spike"]),
        scale=st.floats(-4.0, 0.5),
        correct=st.booleans(),
        points=st.one_of(
            st.integers(1, 60).map(lambda k: 2 * k + 1),
            st.sampled_from([1001, 2001, 4097, 10001, 20001]),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_within_the_stated_bound_of_the_exact_path(self, n, shape, scale, correct, points, seed):
        # h runs from Silverman's value down past a few grid steps, where
        # no Taylor order meets the bound and the exact path takes over.
        x = _column(shape, n, np.random.default_rng(seed))
        h = es.select_bandwidth(x) * 10.0**scale
        cdf = es.estimate_cdf(x, h, correct)
        exact = cdf(np.linspace(0.0, 1.0, points))
        fast = cdf.grid_values(points)
        assert fast.shape == exact.shape
        assert np.max(np.abs(fast - exact)) <= density._GRID_ERROR

    @pytest.mark.parametrize(
        "h,points",
        [(1.5e-4, 10001), (5e-3, 301), (1e-100, 10001), (1e-300, 10001), (1e-310, 3), (5e-324, 10001)],
    )
    def test_below_the_threshold_the_exact_values_come_back(self, h, points):
        # Bandwidths of 1.5 grid steps, below the 1.7 where c = 1 meets
        # the budget at order 12, then ones so small that z and the powers
        # of step/h overflow, which must warn nothing.
        x = _column("uniform", 50, np.random.default_rng(30))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cdf = es.estimate_cdf(x, h)
            assert np.array_equal(cdf.grid_values(points), cdf(np.linspace(0.0, 1.0, points)))

    def test_tiny_correction_span_falls_back_too(self):
        # So wide a bandwidth that the correction's division by the span
        # would carry the transforms' rounding past the bound.
        cdf = es.estimate_cdf([0.0, 0.4, 1.0], 1e6)
        grid = np.linspace(0.0, 1.0, 10001)
        assert np.array_equal(cdf.grid_values(10001), cdf(grid))

    @pytest.mark.parametrize("points", [3, 5, 17, 1001, 2001, 4097, 10001, 20001])
    def test_checked_nodes_are_the_linspace_nodes_to_the_bit(self, points):
        grid = np.linspace(0.0, 1.0, points)
        # grid_values takes a coarsening only below points.
        for c in (c for c in density._COARSENING if c < points):
            check, nodes = density._checked_nodes(points, c)
            assert check.min() >= 0 and check.max() < points
            assert np.array_equal(nodes.view(np.int64), grid[check].view(np.int64))

    def test_sample_order_never_matters(self):
        rng = np.random.default_rng(31)
        x = _column("lognormal", 200, rng)
        base = es.estimate_cdf(x, es.select_bandwidth(x)).grid_values(10001)
        for _ in range(3):
            shuffled = x[rng.permutation(x.size)]
            cdf = es.estimate_cdf(shuffled, es.select_bandwidth(x))
            assert np.array_equal(cdf.grid_values(10001), base)

    def test_never_evaluates_the_kernel_on_the_grid(self, monkeypatch):
        calls = []
        kernel_means = density._kernel_means

        def counted(x, bandwidths, nodes, depth):
            calls.append(nodes.size)
            return kernel_means(x, bandwidths, nodes, depth)

        monkeypatch.setattr(density, "_kernel_means", counted)
        x = _column("normal", 500, np.random.default_rng(32))
        cdf = es.estimate_cdf(x, es.select_bandwidth(x))
        cdf.grid_values(10001)
        # The two endpoints of the boundary correction, then the 17 nodes
        # the values are checked on.
        assert calls == [2, 17]
        es.estimate_cdf(x, 1e-5).grid_values(10001)  # below the threshold
        assert calls[-1] == 10001

    @pytest.mark.parametrize("steps,c", [(None, 64), (4, 1)], ids=["silverman-c64", "4-steps-c1"])
    def test_values_off_on_a_checked_node_fall_back_to_the_exact_sum(self, monkeypatch, steps, c):
        # Every kernel row the writer yields is skewed: the batched blocks
        # at a Silverman bandwidth, _binned_spectrum's rows at 4 grid steps.
        # At c = 1 the skew moves only the values within a few bandwidths
        # of a sample, so a sparse column can leave all 17 checked nodes
        # within 1e-12 (see CHANGES.md); the skewed values are asserted off
        # on a checked node here, so the fallback is what is tested.
        rows, fine_values = density._kernel_rows, density._fine_values
        fine = []

        def skewed(*args):
            for row in rows(*args):
                row *= 1.0 + 1e-9
                yield row

        def kept(*args):
            fine.append(fine_values(*args))
            return fine[-1]

        x = _column("normal", 100, np.random.default_rng(34))
        cdf = es.estimate_cdf(x, es.select_bandwidth(x) if steps is None else steps / 10000.0)
        grid = np.linspace(0.0, 1.0, 10001)
        assert not np.array_equal(cdf.grid_values(10001), cdf(grid))
        monkeypatch.setattr(density, "_kernel_rows", skewed)
        monkeypatch.setattr(density, "_fine_values", kept)
        calls = record_spectra(monkeypatch)
        assert np.array_equal(cdf.grid_values(10001), cdf(grid))
        [(_, length)] = calls
        assert length == self._length(10001, c)
        [values] = fine  # clipped in place, as the check saw them
        check, nodes = density._checked_nodes(10001, c)
        assert np.abs(values[check] - cdf(nodes)).max() > density._GRID_ERROR

    @pytest.mark.parametrize("points", [10001, 4097])
    def test_values_off_between_coarse_nodes_fall_back_to_the_exact_sum(self, monkeypatch, points):
        # Rows a >= 1 vanish on grid nodes that sit on a coarse node; at
        # 4097 points every 256th node does, so only the checked midpoints
        # between coarse nodes can see these rows go wrong.
        spectra = density._spectra

        def skewed(moments, kernels):
            out = spectra(moments, kernels)
            out[1:] *= 1.0 + 1e-9
            return out

        x = _column("normal", 100, np.random.default_rng(35))
        cdf = es.estimate_cdf(x, es.select_bandwidth(x))
        grid = np.linspace(0.0, 1.0, points)
        assert not np.array_equal(cdf.grid_values(points), cdf(grid))
        monkeypatch.setattr(density, "_spectra", skewed)
        assert np.array_equal(cdf.grid_values(points), cdf(grid))

    @staticmethod
    def _length(points, c):
        """Spectrum length of the FFTs on every c-th grid node."""
        nodes = (points - 1 + c // 2) // c + 1
        return density._fft_size(2 * nodes - 1) // 2 + 1

    def test_a_silverman_bandwidth_runs_the_ffts_on_a_coarse_grid(self):
        x = _column("normal", 40, np.random.default_rng(36))
        cdf = es.estimate_cdf(x, es.select_bandwidth(x))
        fast = cdf.grid_values(10001)
        assert np.max(np.abs(fast - cdf(np.linspace(0.0, 1.0, 10001)))) <= density._GRID_ERROR
        plan = _plan_of(cdf, 10001)
        assert (plan.kind, plan.c) == ("fft", density._COARSENING[0]) and plan.order > 1

    @pytest.mark.parametrize("steps,c", [(12, 2), (4, 1), (2, 1), (1.5, None)])
    def test_a_bandwidth_of_a_few_grid_steps_steps_down_the_ladder(self, monkeypatch, steps, c):
        # At 12 grid steps only c = 2 meets the budget, at 4 and 2 only
        # c = 1, and at 1.5 no order does, so the exact sum comes back.
        # The spectra grid_values builds are its plan's: P rows for c > 1,
        # one at c = 1, none for the exact sum.
        calls = record_spectra(monkeypatch)
        x = _column("uniform", 60, np.random.default_rng(37))
        cdf = es.estimate_cdf(x, steps / 10000.0)
        plan = _plan_of(cdf, 10001)
        fast = cdf.grid_values(10001)
        exact = cdf(np.linspace(0.0, 1.0, 10001))
        if c is None:
            assert plan == density._Plan("exact")
            assert calls == [] and np.array_equal(fast, exact)
        else:
            assert (plan.kind, plan.c) == ("fft", c)
            assert calls == [(plan.order if c > 1 else 1, plan.size // 2 + 1)]
            assert plan.size // 2 + 1 == self._length(10001, c)
            assert np.max(np.abs(fast - exact)) <= density._GRID_ERROR

    @pytest.mark.parametrize("points", [-1, 0, 1])
    def test_needs_two_points(self, points):
        with pytest.raises(es.InvariantError, match="^grid points must be from 2 to 1000001, got "):
            es.estimate_cdf([0.2, 0.8], 0.1).grid_values(points)

    @pytest.mark.parametrize("points", [2.5, 11.0, "11", None, True, np.int64(11)])
    def test_points_must_be_an_int(self, points):
        with pytest.raises(es.InvariantError, match="^grid points must be an integer, got "):
            es.estimate_cdf([0.2, 0.8], 0.1).grid_values(points)

    @pytest.mark.parametrize("points", [1_000_002, 10**9, 10**30])
    def test_points_above_the_cap_are_refused(self, points):
        # Before any grid is allocated.
        with pytest.raises(es.InvariantError, match="^grid points must be from 2 to 1000001, got "):
            es.estimate_cdf([0.2, 0.8], 0.1).grid_values(points)

    def test_three_points_run_the_ffts_on_the_full_grid(self):
        # At 3 points c is 2 or 1.  With h = 3 and no correction, c = 2
        # (radius 1/3) misses the budget at every order, and c = 1 (radius
        # 1/12) meets it.
        x = _column("normal", 50, np.random.default_rng(40))
        cdf = es.estimate_cdf(x, 3.0, False)
        fast = cdf.grid_values(3)
        plan = _plan_of(cdf, 3)
        assert (plan.kind, plan.c, plan.nodes) == ("fft", 1, 3)
        assert np.max(np.abs(fast - cdf(np.linspace(0.0, 1.0, 3)))) <= density._GRID_ERROR

    def test_entropy_within_its_bound_of_the_exact_path(self):
        # continuous_entropy documents the bound e * (27.6 eps + 2.8e-11)
        # between its rule on the coarse rows' values and on the exact ones.
        bound = math.e * (27.6 * density._GRID_ERROR + 2.8e-11)
        rng = np.random.default_rng(33)
        for shape in ("uniform", "normal", "lognormal", "ties", "spike"):
            for correct in (True, False):
                x = _column(shape, 150, rng)
                cdf = es.estimate_cdf(x, es.select_bandwidth(x), correct)
                assert abs(es.continuous_entropy(cdf) - exact_entropy(cdf)) <= bound

    def test_the_derivative_maxima_bound_the_ndtr_derivatives_closely(self):
        # max over z of |He_{p-1}(z) phi(z)| on a 1e-4 grid over [-12, 12],
        # where every maximum lies: the Taylor remainder's bound needs each
        # entry at least this, and within 0.1% of it.
        from numpy.polynomial.hermite_e import hermeval

        z = np.linspace(-12.0, 12.0, 240001)
        phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        assert len(density._NDTR_DERIVATIVE_MAX) == 12
        for p, entry in enumerate(density._NDTR_DERIVATIVE_MAX, start=1):
            peak = float(np.max(np.abs(hermeval(z, [0.0] * (p - 1) + [1.0]) * phi)))
            assert peak <= entry <= 1.001 * peak

    @pytest.mark.parametrize("order", [4, 8, 11])
    def test_the_rounding_estimate_can_raise_the_order(self, order):
        # h puts this order's truncation bound 1e-15 inside the budget, at
        # c = 64 for orders 4 and 8.  Order 11 is c = 64's top, so that one
        # is put at c = 32, which c = 64 skips at twice the radius; the plan
        # must take one order more than the truncation alone needs.
        c = 64 if order < density._TOP_ORDER[64] else 32
        x = _column("uniform", 50, np.random.default_rng(41))
        cdf = es.estimate_cdf(x, _bandwidth_inside(c, order), False)
        plan = _plan_of(cdf, 10001)
        assert _remainder(plan.step, order - 1) > density._GRID_ERROR >= _remainder(plan.step, order)
        assert (plan.kind, plan.c, plan.order) == ("fft", c, order + 1)
        fast = cdf.grid_values(10001)
        assert np.max(np.abs(fast - cdf(np.linspace(0.0, 1.0, 10001)))) <= density._GRID_ERROR

    @pytest.mark.parametrize("steps,c", [(None, 64), (80, 16), (12, 2), (4, 1)])
    def test_ndtr_runs_on_each_rung_below_radius_1_and_the_checked_nodes(self, monkeypatch, steps, c):
        # A rung whose radius is 1 or more is skipped before z = j*U is
        # formed (at a tiny h, z would leave the doubles), and so is one
        # whose bound at its top order misses the budget; each rung tried,
        # down to the chosen c, takes one ndtr over its coarse nodes for
        # the rounding estimate, and the check takes one more.
        x = _column("normal", 70, np.random.default_rng(42))
        cdf = es.estimate_cdf(x, es.select_bandwidth(x) if steps is None else steps / 10000.0)
        calls = _count_ndtr(monkeypatch)
        fast = cdf.grid_values(10001)
        monkeypatch.undo()
        u = 1.0 / (10000 * cdf.bandwidth)
        radii = {k: k * u if k > 1 else u / 2.0 for k in density._COARSENING}
        allowed = density._GRID_ERROR * cdf._span
        tried = [
            k
            for k in density._COARSENING
            if k >= c and radii[k] < 1.0 and _remainder(radii[k], _exact_top(k)) <= allowed
        ]
        assert tried[-1] == c
        assert calls == [((10000 + k // 2) // k + 1,) for k in tried] + [(1, 17, x.size)]
        assert np.max(np.abs(fast - cdf(np.linspace(0.0, 1.0, 10001)))) <= density._GRID_ERROR

    def test_a_rung_that_misses_only_by_the_rounding_estimate_is_tried(self, monkeypatch):
        # h puts c = 64's bound at its top order, 11, 1e-15 inside the
        # budget: its rounding estimate is then needed to see that it
        # misses, so it takes its ndtr before the plan steps down to c = 32.
        x = _column("uniform", 50, np.random.default_rng(41))
        cdf = es.estimate_cdf(x, _bandwidth_inside(64, 11), False)
        calls = _count_ndtr(monkeypatch)
        plan = _plan_of(cdf, 10001)
        assert (plan.kind, plan.c) == ("fft", 32)
        assert calls == [(157,), (314,)]

    @pytest.mark.parametrize(
        "h,points,correct",
        [(h, 10001, correct) for h in (5e-324, 1e-310, 1e-300, 1e6, 1e300) for correct in (True, False)]
        + [(1e306, 10001, False), (1e303, 1_000_001, False)],
    )
    def test_extreme_bandwidths_warn_nothing(self, h, points, correct):
        # u overflows to inf at the tiny ones and is 0 where (points - 1)*h
        # overflows; at h = 1e300 the correction span is 0, which the
        # estimate refuses.
        x = _column("uniform", 50, np.random.default_rng(43))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if correct and h == 1e300:
                with pytest.raises(es.InvalidBandwidthError):
                    es.estimate_cdf(x, h, correct)
                return
            cdf = es.estimate_cdf(x, h, correct)
            fast = cdf.grid_values(points)
            assert np.max(np.abs(fast - cdf(np.linspace(0.0, 1.0, points)))) <= density._GRID_ERROR


class TestPanels:
    """continuous_entropy's Gauss-Legendre panels on the coarse cells (_panels,
    CdfEstimate._panel_values), against the rule's definition and grid_values."""

    # c >= 2 planned below points, down to 3 points, with and without a
    # partial last cell.
    _LAYOUTS = [
        (c, points)
        for c in density._COARSENING[:-1]
        for points in (3, 5, 9, 17, 33, 65, 67, 129, 1001, 4097, 10001, 100001)
        if c < points
    ]

    def test_the_literal_rule_is_leggauss_6(self):
        nodes, weights = np.polynomial.legendre.leggauss(6)
        np.testing.assert_array_max_ulp(np.array(density._GL_NODES), nodes, maxulp=4)
        np.testing.assert_array_max_ulp(np.array(density._GL_WEIGHTS), weights, maxulp=4)

    @pytest.mark.parametrize("c,points", _LAYOUTS)
    def test_weights_are_positive_and_sum_to_1(self, c, points):
        # continuous_entropy's bound on H rests on this.
        layout = density._panels(c, points)
        assert layout.weights.shape == layout.nodes.shape
        assert layout.weights.min() > 0.0
        assert abs(math.fsum(layout.weights) - 1.0) <= 4 * density._EPS
        assert 0.0 < layout.nodes.min() and layout.nodes.max() < 1.0
        # Every row read is a coarse row of the plan.
        assert layout.index.max() <= (points - 1 + c // 2) // c
        assert layout.table.shape == (len(density._NDTR_DERIVATIVE_MAX), 6 + layout.index.size)
        assert not any(a.flags.writeable for a in (layout.index, layout.table, layout.nodes, layout.weights))

    @pytest.mark.parametrize("c,points", [(64, 10001), (2, 3), (4, 17), (32, 4097)])
    def test_the_panels_integrate_polynomials_of_degree_11(self, c, points):
        # Six nodes a panel: every panel integrates x^k, k <= 11, within rounding.
        layout = density._panels(c, points)
        for k in range(12):
            got = math.fsum(layout.weights * layout.nodes**k)
            assert got == pytest.approx(1.0 / (k + 1), rel=1e-14)

    @pytest.mark.parametrize(
        "steps,points,correct",
        [
            (None, 10001, True),
            (None, 4097, False),
            (80, 10001, True),
            (12, 10001, False),
            (20, 3, False),
            (None, 1001, True),
        ],
    )
    def test_the_checked_values_are_grid_values_to_the_bit(self, monkeypatch, steps, points, correct):
        # Both paths check the values they take from the coarse rows; the
        # panels' values on the checked nodes must be grid_values' own.
        seen = []
        near_exact = es.CdfEstimate._near_exact

        def spy(cdf, values, nodes):
            seen.append(values.copy())
            return near_exact(cdf, values, nodes)

        monkeypatch.setattr(es.CdfEstimate, "_near_exact", spy)
        for shape in ("uniform", "lognormal", "spike"):
            x = _column(shape, 70, np.random.default_rng(44))
            h = es.select_bandwidth(x) if steps is None else steps / (points - 1)
            cdf = es.estimate_cdf(x, h, correct)
            plan = _plan_of(cdf, points)
            assert plan.kind == "fft" and plan.c >= 2
            seen.clear()
            grid = cdf.grid_values(points)
            phi, _ = cdf._panel_values(points)
            check, _ = density._checked_nodes(points, plan.c)
            [from_grid, from_panels] = seen
            assert from_grid.tobytes() == grid[check].tobytes() == from_panels.tobytes()

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        n=st.integers(2, 300),
        shape=st.sampled_from(["uniform", "normal", "lognormal", "ties", "spike"]),
        scale=st.floats(-2.5, 0.5),
        correct=st.booleans(),
        points=st.one_of(
            st.integers(1, 60).map(lambda k: 2 * k + 1),
            st.sampled_from([1001, 4097, 10001, 20001]),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_values_within_the_stated_bound_of_the_exact_path(self, n, shape, scale, correct, points, seed):
        # The panel nodes read the coarse rows at offsets in (-1/2, 1/2),
        # where grid_values' bound holds too.
        x = _column(shape, n, np.random.default_rng(seed))
        cdf = es.estimate_cdf(x, es.select_bandwidth(x) * 10.0**scale, correct)
        plan = _plan_of(cdf, points)
        panels = cdf._panel_values(points)
        if plan.kind != "fft" or plan.c < 2:
            assert panels is None
            return
        phi, weights = panels
        layout = density._panels(plan.c, points)
        assert weights is layout.weights and phi.shape == weights.shape
        assert np.max(np.abs(phi - cdf(layout.nodes))) <= density._GRID_ERROR

    def test_the_kernel_is_evaluated_on_the_checked_nodes_only(self, monkeypatch):
        calls = []
        kernel_means = density._kernel_means

        def counted(x, bandwidths, nodes, depth):
            calls.append(nodes.size)
            return kernel_means(x, bandwidths, nodes, depth)

        x = _column("normal", 70, np.random.default_rng(45))
        cdf = es.estimate_cdf(x, es.select_bandwidth(x))
        monkeypatch.setattr(density, "_kernel_means", counted)
        es.continuous_entropy(cdf)
        assert calls == [17]

    @pytest.mark.parametrize("steps,c", [(None, 64), (12, 2)], ids=["silverman-c64", "12-steps-c2"])
    def test_values_off_on_a_checked_node_give_the_exact_panel_sum(self, monkeypatch, steps, c):
        rows = density._kernel_rows

        def skewed(*args):
            for row in rows(*args):
                row *= 1.0 + 1e-9
                yield row

        x = _column("normal", 100, np.random.default_rng(34))
        cdf = es.estimate_cdf(x, es.select_bandwidth(x) if steps is None else steps / 10000.0)
        assert _plan_of(cdf, 10001).c == c
        layout = density._panels(c, 10001)
        exact = exact_entropy(cdf)
        assert cdf._panel_values(10001)[0].tobytes() != cdf(layout.nodes).tobytes()
        assert abs(es.continuous_entropy(cdf) - exact) < 1e-12
        monkeypatch.setattr(density, "_kernel_rows", skewed)
        phi, weights = cdf._panel_values(10001)
        assert phi.tobytes() == cdf(layout.nodes).tobytes() and weights is layout.weights
        assert es.continuous_entropy(cdf).hex() == exact.hex()

    @pytest.mark.parametrize("steps", [1.5, 4.0], ids=["exact", "c1"])
    def test_the_exact_sum_and_c_1_keep_simpson(self, steps):
        # Their grid values have no coarse cells to put panels on.
        x = _column("uniform", 60, np.random.default_rng(37))
        cdf = es.estimate_cdf(x, steps / 10000.0)
        assert cdf._panel_values(10001) is None
        grid = cdf.grid_values(10001)
        assert es.continuous_entropy(cdf).hex() == es.continuous_entropy(lambda _: grid).hex()


class TestPlan:
    """_plan's choice of rung and order, against the budget worked out rung by rung,
    each rung up to the highest order at which its power table is exact."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(
        points=st.integers(3, 100_001),
        log_h=st.floats(-7.0, 6.0),
        span=st.floats(0.0, 1.0, exclude_min=True),
    )
    def test_the_largest_rung_whose_least_order_meets_the_budget(self, points, log_h, span):
        from scipy.special import ndtr

        plan = density._plan(points, 10.0**log_h, span)
        u = 1.0 / ((points - 1) * 10.0**log_h)
        met = []  # (c, nodes, size, step, least order, its bound, rounding) of each rung that meets it
        for c in density._COARSENING:
            radius = c * u if c > 1 else u / 2.0
            if c >= points or radius >= 1.0:
                continue
            nodes = (points - 1 + c // 2) // c + 1
            size = density._fft_size(2 * nodes - 1)
            k0 = ndtr(-np.arange(1, nodes) * (c * u))
            rounding = density._EPS * (math.log2(size) * math.sqrt(2.0 * math.fsum(k0 * k0)) + 24.0)
            budget = density._GRID_ERROR * span - rounding
            orders = [p for p in range(1, _exact_top(c) + 1) if _remainder(radius, p) <= budget]
            if orders:
                met.append((c, nodes, size, c * u, orders[0], _remainder(radius, orders[0]), rounding))
        if not met:
            assert plan == density._Plan("exact")
            return
        c, nodes, size, step, order, truncation, rounding = met[0]
        got = (plan.kind, plan.c, plan.order, plan.nodes, plan.size, plan.step, plan.truncation)
        assert got == ("fft", c, order, nodes, size, step, truncation)
        assert plan.rounding == pytest.approx(rounding, rel=1e-12, abs=0.0)
        assert np.array_equal(plan.z, np.arange(nodes) * step)
        assert np.array_equal(plan.step_free[1:], -ndtr(-plan.z[1:])) and plan.step_free[0] == 0.0

    def test_the_power_table_is_exact_at_every_order_the_plan_can_take(self):
        # A sweep of h from 1 to 1000 grid steps, fine enough to reach each
        # rung's top order, collects every (c, P) that _plan returns there;
        # so do the h that put each rung's top-order bound just inside the
        # budget, where only the rounding estimate asks for one order more.
        # _fine_values takes (-s)^a from _powers(c, P); each must be exact.
        edges = [_bandwidth_inside(c, _exact_top(c)) for c in density._COARSENING]
        taken = {}
        for h in np.geomspace(1e-4, 1e-1, 1001).tolist() + edges:
            plan = density._plan(10001, h, 1.0)
            if plan.kind == "fft":
                taken.setdefault(plan.c, set()).add(plan.order)
        tops = {c: max(orders) for c, orders in taken.items()}
        assert tops == {c: _exact_top(c) for c in density._COARSENING}
        for c, orders in taken.items():
            for order in orders:
                table = density._powers(c, order).tolist()
                for a, row in enumerate(table):
                    assert [Fraction(v) for v in row] == [Fraction(c // 2 - q, c) ** a for q in range(c)]


def _spectra_reference(moments, kernels, rows):
    """_spectra's rows by broadcast products, added one order p at a time."""
    out = np.zeros((rows, kernels.shape[1]), dtype=kernels.dtype)
    for p in range(len(kernels)):
        top = min(p + 1, rows)
        out[:top] += moments[p + 1 - top : p + 1][::-1] * kernels[p]
    return out


def _kernel_spectra_reference(z, step_free, step, order, size):
    """_kernel_spectra's rows built one at a time, each laid out with its mirror."""
    phi = np.exp(-0.5 * z * z) * density._INV_SQRT_2PI
    kernels = np.zeros((order, size))
    scale, he_prev, he = 1.0, 0.0, 1.0  # step**p, He_{p-2}, He_{p-1}
    for p in range(order):
        if p == 0:
            half = step_free
        else:
            scale *= step
            half = -scale * he * phi
            he_prev, he = he, z * he - (p - 1) * he_prev
        kernels[p, : z.size] = half
        kernels[p, size - z.size + 1 :] = (-1.0) ** (p + 1) * half[:0:-1]
    return np.fft.rfft(kernels, axis=1)


def _moment_spectra_reference(node, offset, counts, order, size):
    """_moment_spectra's rows, one bincount of fresh powers per order."""
    moments = [counts]
    power = np.ones(offset.size)
    for p in range(1, order):
        power = power * offset / p
        moments.append(np.bincount(node, weights=power, minlength=counts.size))
    return np.fft.rfft(np.array(moments), size, axis=1)


def _power_sum_reference(rows, c, points):
    """Every grid node's value as a sum of powers in Python floats, node by node,
    from a = 0: one multiply and one add a term."""
    table = rows.tolist()
    values = []
    for m in range(points):
        column, q = divmod(m + c // 2, c)  # m = c*column - c//2 + q
        neg_s = (c // 2 - q) / c
        value = 0.0
        for a in range(len(table)):
            value = value + table[a][column] * neg_s**a
        values.append(value)
    return np.array(values)


def _horner_reference(rows, c, points):
    """Every grid node's value by Horner's rule in Python floats, node by node."""
    table = rows.tolist()
    values = []
    for m in range(points):
        column, q = divmod(m + c // 2, c)  # m = c*column - c//2 + q
        neg_s = (c // 2 - q) / c
        value = table[-1][column]
        for a in range(len(table) - 2, -1, -1):
            value = value * neg_s + table[a][column]
        values.append(value)
    return np.array(values)


def _coarse_rows(c, order, points, seed):
    """Random coarse rows for _fine_values, each row of its own magnitude."""
    nodes = (points - 1 + c // 2) // c + 1
    rng = np.random.default_rng(seed)
    return rng.normal(size=(order, nodes)) * 10.0 ** rng.uniform(-6, 6, size=(order, 1))


# Every Taylor order grid_values can take.
_ORDERS = range(1, len(density._NDTR_DERIVATIVE_MAX) + 1)


@functools.lru_cache(maxsize=None)
def _exact_top(c):
    """The highest order P, up to 12, at which every (k/c)**a of rung c's
    power table, |k| <= c/2 and a < P, is a double, checked in Fractions."""
    ks = range(c // 2 - c + 1, c // 2 + 1)
    order = 1
    while order < len(_ORDERS) and all(
        Fraction(float(Fraction(k, c) ** order)) == Fraction(k, c) ** order for k in ks
    ):
        order += 1
    return order


def _rung_orders(coarsenings):
    """(order, c) for each c and every order _plan may take there."""
    return [(order, c) for c in coarsenings for order in range(1, density._TOP_ORDER[c] + 1)]


def _coarse_grid(points, c, h):
    """grid_values' coarse node count, FFT length, step U = c*u and z = j*U."""
    nodes = (points - 1 + c // 2) // c + 1
    step = c / ((points - 1) * h)
    return nodes, density._fft_size(2 * nodes - 1), step, np.arange(nodes) * step


class TestSameBits:
    """The memory-lean forms against the plain formulas they replace."""

    @pytest.mark.parametrize("order,c", _rung_orders([1, 2, 32, 64]))
    def test_kernel_spectra_match_the_row_by_row_build(self, c, order):
        from scipy.special import ndtr

        nodes, size, step, z = _coarse_grid(10001, c, 0.05)
        step_free = -ndtr(-z)
        step_free[0] = 0.0
        expected = _kernel_spectra_reference(z, step_free, step, order, size)
        got = density._kernel_spectra(z, step_free, step, order, size)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("order,c", _rung_orders([1, 2, 32, 64]))
    def test_moment_spectra_match_one_bincount_per_order(self, c, order):
        nodes, size, _, _ = _coarse_grid(1001, c, 0.05)
        t = np.random.default_rng(order).uniform(size=57) * (1000 / c)
        node = np.rint(t).astype(np.intp)
        counts = np.bincount(node, minlength=nodes).astype(np.float64)
        expected = _moment_spectra_reference(node, t - node, counts, order, size)
        got = density._moment_spectra(node, t - node, counts, order, size)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("order,c", _rung_orders([1, 2, 4, 8, 16, 32, 64]))
    def test_fine_values_match_a_python_power_sum(self, c, order):
        # grid_values hands over one row at c = 1, but any count works.
        # This pins np.einsum's order: each term added in turn from a = 0,
        # with a separate multiply and add, no fused multiply-add.
        rows = _coarse_rows(c, order, 1001, 10 * c + order)
        got = density._fine_values(rows, c, 1001)
        assert got.tobytes() == _power_sum_reference(rows, c, 1001).tobytes()

    @pytest.mark.parametrize("order,c", _rung_orders([1, 2, 32, 64]))
    def test_horner_matches_node_by_node_evaluation(self, c, order):
        # The fine values against Horner's rule, the evaluation they replace:
        # the same bits where s = 0 (every node at c = 1), and elsewhere
        # within both rounding bounds, gamma_P for the power sum and
        # gamma_2(P-1) for Horner (Higham 2002, sections 3.1 and 5.1), taken
        # as (3P + 1) * eps times sum_a |(-s)^a * rows[a][M]|.
        rows = _coarse_rows(c, order, 1001, 10 * c + order)
        got = density._fine_values(rows, c, 1001).tolist()
        expected = _horner_reference(rows, c, 1001).tolist()
        table = rows.tolist()
        for m, (value, reference) in enumerate(zip(got, expected)):
            column, q = divmod(m + c // 2, c)
            neg_s = (c // 2 - q) / c
            if neg_s == 0.0:
                assert value.hex() == reference.hex()
            else:
                scale = sum(abs(row[column] * neg_s**a) for a, row in enumerate(table))
                assert abs(value - reference) <= (3 * order + 1) * density._EPS * scale

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        rung=st.sampled_from(_rung_orders(density._COARSENING)),
        points=st.integers(2, 200),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fine_values_are_within_the_dot_product_bound(self, rung, points, seed):
        # |computed - exact| <= gamma_P * sum_a |(-s)^a * rows[a][M]|
        # (Higham 2002, section 3.1), taken as (P + 1) * eps.
        order, c = rung
        rows = _coarse_rows(c, order, points, seed)
        got = density._fine_values(rows, c, points).tolist()
        table = [[Fraction(v) for v in row] for row in rows.tolist()]
        eps = Fraction(density._EPS)
        for m, value in enumerate(got):
            column, q = divmod(m + c // 2, c)
            terms = [row[column] * Fraction(c // 2 - q, c) ** a for a, row in enumerate(table)]
            bound = (order + 1) * eps * sum(abs(t) for t in terms)
            assert abs(Fraction(value) - sum(terms)) <= bound

    @pytest.mark.parametrize("c", [2, 32, 64])
    @pytest.mark.parametrize("order", [2, 7, 10])
    def test_fine_values_do_not_depend_on_row_alignment(self, c, order):
        rows = _coarse_rows(c, order, 10001, order)
        expected = density._fine_values(rows, c, 10001).tobytes()
        buffer = np.empty(rows.nbytes + 8, dtype=np.uint8)
        for shift in range(1, 8):
            misaligned = buffer[shift : shift + rows.nbytes].view(np.float64).reshape(rows.shape)
            misaligned[:] = rows
            assert not misaligned.flags.aligned
            assert density._fine_values(misaligned, c, 10001).tobytes() == expected

    @pytest.mark.parametrize("points,n", [(1001, 70), (4097, 3), (20001, 500)])
    @pytest.mark.parametrize("order", _ORDERS)
    def test_binned_spectrum_is_row_0_of_the_batched_blocks(self, points, n, order):
        # c = 1, h of two grid steps: one order at a time, the kernel and
        # moment rows each transformed on their own, against _spectra's row
        # 0 of the (P, size/2 + 1) blocks.
        from scipy.special import ndtr

        nodes, size, step, z = _coarse_grid(points, 1, 2.0 / (points - 1))
        step_free = -ndtr(-z)
        step_free[0] = 0.0
        t = np.random.default_rng(order).uniform(size=n) * (points - 1)
        node = np.rint(t).astype(np.intp)
        counts = np.bincount(node, minlength=nodes).astype(np.float64)
        kernels = density._kernel_spectra(z, step_free, step, order, size)
        moments = density._moment_spectra(node, t - node, counts, order, size)
        expected = density._spectra(moments, kernels)[:1]
        got = density._binned_spectrum(z, step_free, step, node, t - node, counts, order, size)
        assert got.shape == expected.shape == (1, size // 2 + 1)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("rows", _ORDERS)
    def test_spectra_matches_the_broadcast_formula(self, rows):
        # Every row of blocks of each order P = rows.
        rng = np.random.default_rng(rows)
        shape = (rows, 97)
        moments, kernels = (rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(2))
        expected = _spectra_reference(moments, kernels, rows)
        assert density._spectra(moments, kernels.copy()).tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        n=st.integers(2, 200),
        points=st.integers(1, 300),
        log_h=st.floats(-12.0, 0.5),
        correct=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_the_exact_sum_does_not_depend_on_its_block_size(self, n, points, log_h, correct, seed):
        rng = np.random.default_rng(seed)
        cdf = es.estimate_cdf(rng.uniform(size=n), 10.0**log_h, correct)
        grid = np.r_[rng.uniform(size=points), 0.0, 1.0]
        expected = cdf(grid).tobytes()
        for elements in (1, 17):
            with mock.patch.object(density, "_BLOCK_ELEMENTS", elements):
                assert cdf(grid).tobytes() == expected


class TestScratchMemory:
    """Peak scratch of one column's grid values, bounded from its array sizes."""

    @staticmethod
    def _peak(call) -> int:
        if tracemalloc.is_tracing():
            pytest.skip("tracemalloc is already tracing; its peak is not this test's")
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("shape,seed,c", [("lognormal", 1, 16), ("lognormal", 1, 32), ("normal", 0, 64)])
    def test_the_fast_path_holds_few_coarse_blocks(self, monkeypatch, shape, seed, c):
        # Silverman's bandwidth plans c = 32 on the lognormal column and
        # c = 64 on the normal one; a fixed h of 80 grid steps plans c = 16.
        calls = record_spectra(monkeypatch)
        x = _column(shape, 69, np.random.default_rng(seed))
        h = es.select_bandwidth(x) if c >= 32 else 80 / 10000
        cdf = es.estimate_cdf(x, h)
        peak = self._peak(lambda: cdf.grid_values(10001))
        [(rows, length)] = calls
        assert x.size == 70 and length == TestGridValues._length(10001, c)
        nodes = (10000 + c // 2) // c + 1
        # The transforms: two (P, length) complex blocks (P is rows when
        # c > 1) and _spectra's product, plus the zero-padded copy that
        # numpy 1.x's rfft makes.
        transforms = 4 * rows * length * 16
        # The fine values: the einsum's one (nodes, c) block, which holds
        # them in grid order, and the coarse rows.
        fine = (c * nodes + rows * nodes) * 8
        assert peak <= max(transforms, fine) + 64 * 1024

    @pytest.mark.parametrize("shape,seed,steps", [("lognormal", 1, None), ("normal", 0, None), ("uniform", 2, 12)])
    def test_the_panels_add_nothing_to_the_coarse_phase_peak(self, shape, seed, steps):
        # c = 32, 64 and 2.  The panels' values, the gathered rows and the
        # integrand are smaller than the coarse phase's transforms, which
        # are freed before them.
        x = _column(shape, 69, np.random.default_rng(seed))
        cdf = es.estimate_cdf(x, es.select_bandwidth(x) if steps is None else steps / 10000)
        es.continuous_entropy(cdf)  # builds the cached layout
        rows = self._peak(lambda: cdf._coarse_rows(10001, 2))
        assert self._peak(lambda: es.continuous_entropy(cdf)) <= rows + 1024

    def test_the_full_grid_ffts_hold_one_order_at_a_time(self, monkeypatch):
        # h of two grid steps at 100001 points plans c = 1 at order 12.  Its
        # rows were three (12, size/2 + 1) complex blocks, 607 bytes a grid
        # point; one order at a time holds one kernel row, two transforms
        # and their sum, and seven grid-sized rows of doubles: about 140.
        calls = record_spectra(monkeypatch)
        points = 100_001
        x = _column("lognormal", 69, np.random.default_rng(1))
        cdf = es.estimate_cdf(x, 2.0 / (points - 1))
        peak = self._peak(lambda: cdf.grid_values(points))
        assert calls == [(1, TestGridValues._length(points, 1))]
        assert peak <= 200 * points

    def test_the_exact_sum_holds_one_small_block(self):
        # h = 1e-5 is below the fast path at 10001 points.
        points = 10001
        x = np.random.default_rng(39).uniform(size=1000)
        cdf = es.estimate_cdf(x, 1e-5)
        peak = self._peak(lambda: cdf.grid_values(points))
        # The kernel block, plus the grid, the means, the correction's
        # two passes and the clip, each a points-long array.
        assert peak <= 8 * density._BLOCK_ELEMENTS + 5 * 8 * points + 64 * 1024
        assert 8 * density._BLOCK_ELEMENTS <= 1 << 20
