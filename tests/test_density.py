"""Bandwidth selection and the kernel CDF estimate."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entroscore as es
from entroscore import density


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

    @pytest.mark.parametrize("bad", [[0.5], [[0.1, 0.2]], [0.1, np.nan]])
    def test_invalid_inputs(self, bad):
        with pytest.raises(es.InvariantError):
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
        with pytest.raises(es.InvariantError):
            es.estimate_cdf([0.5, np.nan], 0.1)


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
        [(2e-4, 10001), (5e-3, 301), (1e-100, 10001), (1e-300, 10001), (1e-310, 3), (5e-324, 10001)],
    )
    def test_below_the_threshold_the_exact_values_come_back(self, h, points):
        # Bandwidths of 2 and 1.5 grid steps, then ones so small that z and
        # the powers of step/h overflow, which must warn nothing.
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
        index = np.arange(points)
        nodes = density._grid_nodes(index, points)
        assert np.array_equal(nodes.view(np.int64), np.linspace(0.0, 1.0, points).view(np.int64))

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
        raw = es.CdfEstimate._raw

        def counted(self, x):
            calls.append(x.size)
            return raw(self, x)

        monkeypatch.setattr(es.CdfEstimate, "_raw", counted)
        x = _column("normal", 500, np.random.default_rng(32))
        cdf = es.estimate_cdf(x, es.select_bandwidth(x))
        cdf.grid_values(10001)
        # The two endpoints of the boundary correction, then the 17 nodes
        # the values are checked on.
        assert calls == [2, 17]
        es.estimate_cdf(x, 1e-5).grid_values(10001)  # below the threshold
        assert calls[-1] == 10001

    def test_values_off_on_a_checked_node_fall_back_to_the_exact_sum(self, monkeypatch):
        place = density._place
        monkeypatch.setattr(
            density, "_place", lambda row, half, parity: place(row, half * (1.0 + 1e-9), parity)
        )
        x = _column("uniform", 100, np.random.default_rng(34))
        cdf = es.estimate_cdf(x, es.select_bandwidth(x))
        assert np.array_equal(cdf.grid_values(10001), cdf(np.linspace(0.0, 1.0, 10001)))

    @pytest.mark.parametrize("points", [10001, 4097])
    def test_values_off_between_coarse_nodes_fall_back_to_the_exact_sum(self, monkeypatch, points):
        # Rows a >= 1 vanish on grid nodes that sit on a coarse node; at
        # 4097 points every 256th node does, so only the checked midpoints
        # between coarse nodes can see these rows go wrong.
        spectra = density._spectra

        def skewed(moments, kernels, rows):
            out = spectra(moments, kernels, rows)
            out[1:] *= 1.0 + 1e-9
            return out

        x = _column("normal", 100, np.random.default_rng(35))
        cdf = es.estimate_cdf(x, es.select_bandwidth(x))
        grid = np.linspace(0.0, 1.0, points)
        assert not np.array_equal(cdf.grid_values(points), cdf(grid))
        monkeypatch.setattr(density, "_spectra", skewed)
        assert np.array_equal(cdf.grid_values(points), cdf(grid))

    @staticmethod
    def _ffts(monkeypatch):
        """Record (rows, spectrum length) of every _spectra call."""
        calls = []
        spectra = density._spectra

        def recorded(moments, kernels, rows):
            calls.append((rows, kernels.shape[1]))
            return spectra(moments, kernels, rows)

        monkeypatch.setattr(density, "_spectra", recorded)
        return calls

    @staticmethod
    def _length(points, c):
        """Spectrum length of the FFTs on every c-th grid node."""
        nodes = (points - 1 + c // 2) // c + 1
        return density._fft_size(2 * nodes - 1) // 2 + 1

    def test_a_silverman_bandwidth_runs_the_ffts_on_a_coarse_grid(self, monkeypatch):
        calls = self._ffts(monkeypatch)
        x = _column("normal", 40, np.random.default_rng(36))
        cdf = es.estimate_cdf(x, es.select_bandwidth(x))
        fast = cdf.grid_values(10001)
        assert np.max(np.abs(fast - cdf(np.linspace(0.0, 1.0, 10001)))) <= density._GRID_ERROR
        [(rows, length)] = calls
        assert rows > 1 and length == self._length(10001, density._COARSENING[0])

    @pytest.mark.parametrize("steps,c", [(12, 2), (4, 1), (2, None)])
    def test_a_bandwidth_of_a_few_grid_steps_steps_down_the_ladder(self, monkeypatch, steps, c):
        # At 12 grid steps only c = 2 meets the budget, at 4 only c = 1,
        # and at 2 no order does, so the exact sum comes back.
        calls = self._ffts(monkeypatch)
        x = _column("uniform", 60, np.random.default_rng(37))
        cdf = es.estimate_cdf(x, steps / 10000.0)
        fast = cdf.grid_values(10001)
        exact = cdf(np.linspace(0.0, 1.0, 10001))
        if c is None:
            assert calls == [] and np.array_equal(fast, exact)
        else:
            [(rows, length)] = calls
            assert length == self._length(10001, c) and (rows == 1) == (c == 1)
            assert np.max(np.abs(fast - exact)) <= density._GRID_ERROR

    @pytest.mark.parametrize("points", [0, 1])
    def test_needs_two_points(self, points):
        with pytest.raises(es.InvariantError):
            es.estimate_cdf([0.2, 0.8], 0.1).grid_values(points)

    def test_entropy_within_its_bound_of_the_exact_path(self):
        # continuous_entropy documents the bound e * (27.6 eps + 2.8e-11).
        bound = math.e * (27.6 * density._GRID_ERROR + 2.8e-11)
        rng = np.random.default_rng(33)
        for shape in ("uniform", "normal", "lognormal", "ties", "spike"):
            for correct in (True, False):
                x = _column(shape, 150, rng)
                cdf = es.estimate_cdf(x, es.select_bandwidth(x), correct)
                fast = es.continuous_entropy(cdf)
                exact = es.continuous_entropy(lambda g: cdf(g))
                assert abs(fast - exact) <= bound
