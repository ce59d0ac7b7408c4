"""Continuous and discrete entropy, and the weight rules built on them.

The continuous form integrates -phi ln phi over [0, 1] and scales by e,
which normalizes the result so that any CDF yields a value in [0, 1]:
by Gauss-Legendre panels on a kernel estimate's coarse cells, and by
composite Simpson quadrature on the grid for other plans and any other
callable.  For phi(x) = x**k the entropy has the closed form
e * k / (k + 1)**2, giving exact anchors to test against; tests/oracle.py
is the reference for the kernel estimates.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entroscore as es
import oracle
from entroscore import entropy
from helpers import bench_dataset


def power_cdf(k):
    return lambda x: np.asarray(x, dtype=np.float64) ** k


# A module-level array that a CDF callable hands back as it is: x**2.
_HELD = np.linspace(0.0, 1.0, 10001) ** 2


class TestQuadratureConfig:
    def test_defaults(self):
        cfg = es.QuadratureConfig()
        assert cfg.points == 10001
        assert es.DEFAULT_QUADRATURE == cfg

    @pytest.mark.parametrize("points", [2, 4, 10000, 0, -3])
    def test_rejects_even_or_tiny_grids(self, points):
        with pytest.raises(es.InvariantError):
            es.QuadratureConfig(points=points)

    def test_points_up_to_the_cap(self):
        assert es.QuadratureConfig(points=1000001).points == 1000001
        for points in (1000003, 1000000001):
            with pytest.raises(es.InvariantError, match="^quadrature points must be at most 1000001$"):
                es.QuadratureConfig(points=points)

    @pytest.mark.parametrize(
        "points",
        [10001.0, 3.0, True, "101", None, np.int64(101)],
        ids=["whole-float", "small-float", "bool", "str", "none", "numpy-int"],
    )
    def test_points_must_be_an_int(self, points):
        with pytest.raises(es.InvariantError, match="quadrature points must be an integer"):
            es.QuadratureConfig(points=points)


class TestContinuousEntropy:
    def test_identity_cdf_anchor(self):
        h = es.continuous_entropy(power_cdf(1), es.QuadratureConfig())
        np.testing.assert_allclose(h, math.e / 4, atol=1e-6)

    def test_square_cdf_anchor(self):
        h = es.continuous_entropy(power_cdf(2), es.QuadratureConfig())
        np.testing.assert_allclose(h, 2 * math.e / 9, atol=1e-6)

    @pytest.mark.parametrize("k", [3, 4, 7])
    def test_power_cdf_closed_form(self, k):
        h = es.continuous_entropy(power_cdf(k), es.QuadratureConfig())
        np.testing.assert_allclose(h, math.e * k / (k + 1) ** 2, atol=1e-6)

    def test_degenerate_cdf_is_exactly_zero(self):
        # phi == 1 everywhere: the integrand is identically zero, and the
        # result must be the positive zero, not -0.0.
        h = es.continuous_entropy(
            lambda x: np.ones_like(np.asarray(x, dtype=np.float64)),
            es.QuadratureConfig(),
        )
        assert h == 0.0
        assert math.copysign(1.0, h) == 1.0

    def test_cutoff_zeroes_small_phi(self):
        # A constant plateau below the cutoff contributes nothing.
        cfg = es.QuadratureConfig()

        def phi(x):
            x = np.asarray(x, dtype=np.float64)
            return np.where(x < 0.5, 1e-13, 1.0)

        assert es.continuous_entropy(phi, cfg) == 0.0

    def test_constant_half_cdf(self):
        cfg = es.QuadratureConfig()
        h = es.continuous_entropy(
            lambda x: np.full_like(np.asarray(x, dtype=np.float64), 0.5), cfg
        )
        np.testing.assert_allclose(h, math.e * 0.5 * math.log(2.0), rtol=1e-12)

    def test_maximal_dispersion_stays_within_bound(self):
        # -phi ln phi peaks at 1/e, so a constant 1/e maximizes the
        # integral; the clamp keeps rounding from pushing past 1.
        cfg = es.QuadratureConfig()
        h = es.continuous_entropy(
            lambda x: np.full_like(np.asarray(x, dtype=np.float64), 1.0 / math.e), cfg
        )
        assert h <= 1.0
        np.testing.assert_allclose(h, 1.0, atol=1e-12)

    def test_grid_refinement_converges(self):
        coarse = es.continuous_entropy(power_cdf(1), es.QuadratureConfig(points=1251))
        fine = es.continuous_entropy(power_cdf(1), es.QuadratureConfig(points=20001))
        anchor = math.e / 4
        assert abs(fine - anchor) < abs(coarse - anchor)
        assert abs(fine - anchor) < 1e-8

    def test_more_dispersed_cdf_scores_higher(self):
        # x**2 concentrates mass near 1 harder than x does.
        cfg = es.QuadratureConfig()
        assert es.continuous_entropy(power_cdf(1), cfg) > es.continuous_entropy(
            power_cdf(2), cfg
        )

    def test_returns_plain_float(self):
        assert type(es.continuous_entropy(power_cdf(1), es.QuadratureConfig())) is float

    def test_leaves_the_callables_array_unchanged(self):
        # The integrand is formed in place; a callable's array is copied
        # first.  _HELD's first value, 0.0, is one the integrand replaces.
        kept = _HELD.copy()
        h = es.continuous_entropy(lambda x: _HELD, es.QuadratureConfig(_HELD.size))
        assert _HELD.tobytes() == kept.tobytes()
        np.testing.assert_allclose(h, 2 * math.e / 9, atol=1e-6)


_FLOOR_EDGES = (
    0.0,
    -0.0,
    1e-12,
    float(np.nextafter(1e-12, 1.0)),
    float(np.nextafter(1e-12, 0.0)),
    5e-324,
    2.5e-310,
    float(np.nextafter(2.2250738585072014e-308, 0.0)),
    1.0,
    float(np.nextafter(1.0, 0.0)),
    -1e-300,
    -0.5,
)


class TestIntegrand:
    @settings(max_examples=300, deadline=None, database=None)
    @given(
        st.lists(
            st.one_of(st.sampled_from(_FLOOR_EDGES), st.floats(-1.0, 1.0), st.floats(0.0, 1e-11)),
            min_size=1,
            max_size=80,
        )
    )
    def test_equals_the_gather_form_to_the_bit(self, values):
        # Negative values come only from plain callables; a CdfEstimate
        # clips into [0, 1].
        phi = np.array(values)
        gathered = np.zeros_like(phi)
        live = phi > entropy._PHI_FLOOR
        gathered[live] = phi[live] * np.log(phi[live])
        got = entropy._phi_log_phi(phi)
        assert np.array_equal(got.view(np.int64), gathered.view(np.int64))

    def test_the_floor_is_1e_12(self):
        # Exactly the limit 0 at and below 1e-12, phi ln phi above it: the
        # bound in continuous_entropy's docstring rests on this floor.
        got = entropy._phi_log_phi(np.array([1e-12, 5e-13, 0.0, 1e-10, 0.5]))
        assert got[:3].tolist() == [0.0, 0.0, 0.0]
        expected = [1e-10 * math.log(1e-10), 0.5 * math.log(0.5)]
        np.testing.assert_allclose(got[3:], expected, rtol=1e-15, atol=0.0)


class TestContinuousEntropyErrors:
    def test_cdf_above_one_rejected(self):
        with pytest.raises(es.QuadratureOutOfRangeError):
            es.continuous_entropy(
                lambda x: 2.0 * np.ones_like(np.asarray(x, dtype=np.float64)),
                es.QuadratureConfig(),
            )

    def test_nan_cdf_rejected(self):
        with pytest.raises(es.QuadratureOutOfRangeError):
            es.continuous_entropy(
                lambda x: np.full_like(np.asarray(x, dtype=np.float64), np.nan),
                es.QuadratureConfig(),
            )

    def test_wrong_output_length_rejected(self):
        with pytest.raises(es.InvariantError):
            es.continuous_entropy(lambda x: np.array([0.5]), es.QuadratureConfig())

    @pytest.mark.parametrize(
        "call",
        [
            lambda: es.continuous_entropy(lambda g: "abc"),
            lambda: es.continuous_entropy(lambda g: [object()] * g.size),
            lambda: es.continuous_entropy(lambda g: g + 0j),
            lambda: es.continuous_entropy(lambda g: g.astype(str)),
            lambda: es.continuous_entropy(lambda g: [g[:2], g[:3]]),
            lambda: es.estimate_cdf([0.0, 1.0], 0.1)("abc"),
            lambda: es.estimate_cdf([0.0, 1.0], 0.1)(0.5 + 0j),
        ],
        ids=["str", "objects", "complex", "numeric-str", "ragged", "call-str", "call-complex"],
    )
    def test_values_that_are_not_real_numbers_are_refused(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(es.InvariantError, match="real numbers"):
                call()

    def test_config_must_be_a_quadrature_config(self):
        cdf = es.estimate_cdf([0.0, 0.5, 1.0], 0.2)
        with pytest.raises(es.InvariantError, match="quadrature must be a QuadratureConfig"):
            es.continuous_entropy(cdf, 5)


class TestOracle:
    """tests/oracle.py, the reference the rules below are held to."""

    @pytest.mark.parametrize("width", [1.0, 0.1, 0.01])
    @pytest.mark.parametrize("k,anchor", [(1, math.e / 4), (2, 2 * math.e / 9)])
    def test_the_closed_form_anchors(self, width, k, anchor):
        assert abs(oracle.reference_entropy(lambda x: x**k, width) - anchor) <= 1e-15

    @pytest.mark.parametrize("column", [2, 5])
    @pytest.mark.parametrize("correct", [True, False])
    def test_a_finer_setting_agrees(self, column, correct):
        # Panels of h/4 at order 32 against h/2 at order 24, on the
        # lognormal and the spiky columns.
        cdf = _bench_estimate(70, column, correct)
        finer = oracle.estimate_entropy(cdf, order=32, panels_per_bandwidth=4)
        assert abs(finer - _reference(70, column, correct)) <= 1e-15


# (rows, column) of bench/workloads.generate's seed-11 data: at 40 and 70
# rows each of its six column shapes (uniform, normal, lognormal, integer
# with ties, bimodal, spiky), and at 1000 rows the uniform, lognormal and
# spiky ones, which plan c = 64, 8 and 32.
_BENCH_COLUMNS = [(rows, j) for rows in (40, 70) for j in range(6)] + [(1000, 0), (1000, 2), (1000, 5)]


@functools.lru_cache(maxsize=None)
def _bench_estimate(rows: int, column: int, correct: bool) -> es.CdfEstimate:
    x = es.normalize_matrix(bench_dataset(rows, 11)).values[:, column]
    return es.estimate_cdf(x, es.select_bandwidth(x), correct)


@functools.lru_cache(maxsize=None)
def _reference(rows: int, column: int, correct: bool) -> float:
    return oracle.estimate_entropy(_bench_estimate(rows, column, correct))


class TestAgainstTheReference:
    """H of the benchmark's column shapes against tests/oracle.py."""

    @pytest.mark.parametrize("correct", [True, False])
    @pytest.mark.parametrize("rows,column", _BENCH_COLUMNS)
    def test_the_panels_are_within_1e_13(self, rows, column, correct):
        # The Gauss-Legendre panels on the coarse cells.  Measured: 1.1e-14.
        cdf = _bench_estimate(rows, column, correct)
        assert cdf._panel_values(10001) is not None
        assert abs(es.continuous_entropy(cdf) - _reference(rows, column, correct)) <= 1e-13

    @pytest.mark.parametrize("correct", [True, False])
    @pytest.mark.parametrize("rows,column", [key for key in _BENCH_COLUMNS if key[0] < 1000] + [(1000, 2)])
    def test_simpson_is_within_its_stated_bound(self, rows, column, correct):
        # Simpson's rule on 10001 exact values, which the exact sum and c =
        # 1 keep (README): with the correction on, phi ln phi ~ a x ln x at
        # 0 and the sum leaves H low, by at most 1e-7 here (measured:
        # 8.7e-8 on the 1000-row lognormal column); with it off, within
        # 1e-11 either way (measured: 7.1e-12).
        simpson = es.continuous_entropy(lambda grid: _bench_estimate(rows, column, correct)(grid))
        error = simpson - _reference(rows, column, correct)
        if correct:
            assert -1e-7 <= error <= 1e-13
        else:
            assert abs(error) <= 1e-11


@st.composite
def _awkward_samples(draw):
    """A column of one spike, of ties, or piled on 0 and 1."""
    n = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(["spike", "ties", "piled"]))
    if kind == "spike":
        return np.r_[np.full(n - 1, draw(st.floats(0.0, 1.0))), draw(st.floats(0.0, 1.0))]
    if kind == "ties":
        levels = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
        return np.array(levels)[np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(len(levels), size=n)]
    zeros = draw(st.integers(0, n))
    return np.r_[np.zeros(zeros), np.ones(n - zeros)]


# Bandwidths in grid steps at each rung of grid_values' ladder: the exact
# sum below about 1.7, c = 1, 2, 4, 8, 16, 32 and 64 above; and plain
# bandwidths at its wide exits, where the correction's small span sends
# every column to the exact sum and, without it, c = 64 takes a low order.
_LADDER_STEPS = (1.0, 2.0, 4.0, 12.0, 25.0, 50.0, 80.0, 150.0, 400.0, 1500.0)
_WIDE = (1.0, 2.5, 3.0, 100.0, 1e6, 1e-300, 1e300)


class TestEntropyOfAnyEstimate:
    """estimate_cdf then continuous_entropy: a float in [0, 1] or a named error, and no warning."""

    @settings(max_examples=80, deadline=None, database=None)
    @given(
        samples=_awkward_samples(),
        h=st.one_of(
            st.sampled_from(_LADDER_STEPS).map(lambda steps: ("steps", steps)),
            st.sampled_from(_WIDE).map(lambda h: ("h", h)),
            st.floats(-300.0, 300.0).map(lambda e: ("h", 10.0**e)),
        ),
        correct=st.booleans(),
        points=st.integers(1, 10_000).map(lambda k: 2 * k + 1),
    )
    def test_a_float_in_the_unit_interval_or_a_named_error(self, samples, h, correct, points):
        kind, value = h
        bandwidth = value / (points - 1) if kind == "steps" else value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = es.continuous_entropy(es.estimate_cdf(samples, bandwidth, correct), es.QuadratureConfig(points))
            except es.EntroscoreError:
                return
        assert type(got) is float and 0.0 <= got <= 1.0


class TestDiscreteEntropy:
    def test_uniform_column_is_exactly_one(self):
        assert es.discrete_entropy([3.0, 3.0, 3.0, 3.0]) == 1.0

    def test_point_mass_is_exactly_zero(self):
        assert es.discrete_entropy([1.0, 0.0, 0.0, 0.0]) == 0.0

    def test_hand_value(self):
        p = np.array([0.25, 0.25, 0.5])
        hand = -float(p @ np.log(p)) / math.log(3.0)
        np.testing.assert_allclose(es.discrete_entropy([1.0, 1.0, 2.0]), hand, rtol=1e-15)

    def test_scale_invariant_to_the_bit(self):
        col = np.array([2.0, 5.0, 3.0, 7.0])
        assert es.discrete_entropy(col) == es.discrete_entropy(4.0 * col)

    def test_overflowing_total_keeps_its_distribution(self):
        # The sum overflows float64; p_i must still come out uniform.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert es.discrete_entropy([1e308, 1e308]) == 1.0
            np.testing.assert_allclose(
                es.discrete_entropy([1e308, 1e308, 1e308, 0.0]),
                es.discrete_entropy([1.0, 1.0, 1.0, 0.0]),
                rtol=1e-15,
            )

    def test_rejects_negative_entries(self):
        with pytest.raises(es.InvariantError):
            es.discrete_entropy([1.0, -0.5])

    def test_rejects_all_zero_column(self):
        with pytest.raises(es.DegenerateColumnError):
            es.discrete_entropy([0.0, 0.0, 0.0])

    def test_rejects_short_or_non_finite(self):
        with pytest.raises(es.InvariantError):
            es.discrete_entropy([1.0])
        with pytest.raises(es.NonFiniteInputError):
            es.discrete_entropy([1.0, np.inf])

    @pytest.mark.parametrize("column", [["1", "2"], [10**30, 1]], ids=["strings", "huge-int"])
    def test_rejects_samples_that_are_not_real_numbers(self, column):
        with pytest.raises(es.InvariantError, match="^samples for discrete entropy must be real numbers"):
            es.discrete_entropy(column)


class TestComputeWeights:
    def test_proportional_rule_hand_case(self):
        w = es.compute_weights(np.array([1.0, 1.0, 2.0]))
        np.testing.assert_array_equal(w.weights, [0.25, 0.25, 0.5])

    def test_single_indicator_gets_everything(self):
        w = es.compute_weights(np.array([0.7]))
        np.testing.assert_array_equal(w.weights, [1.0])

    def test_accepts_entropy_vector(self):
        ev = es.EntropyVector(np.array([0.2, 0.6]))
        w = es.compute_weights(ev)
        np.testing.assert_allclose(w.weights, [0.25, 0.75])

    def test_classic_rule_inverts_the_ordering(self):
        h = np.array([0.2, 0.6])
        w = es.compute_weights(h, rule="classic")
        np.testing.assert_allclose(w.weights, [2.0 / 3.0, 1.0 / 3.0])

    def test_classic_rule_requires_entropies_within_bound(self):
        with pytest.raises(es.InvariantError):
            es.compute_weights(np.array([0.5, 1.2]), rule="classic")

    def test_all_zero_entropy_rejected(self):
        with pytest.raises(es.AllZeroEntropyError):
            es.compute_weights(np.array([0.0, 0.0]))

    def test_classic_all_ones_rejected(self):
        with pytest.raises(es.AllZeroEntropyError):
            es.compute_weights(np.array([1.0, 1.0]), rule="classic")

    def test_unknown_rule_rejected(self):
        with pytest.raises(es.InvariantError):
            es.compute_weights(np.array([0.5]), rule="softmax")

    @pytest.mark.parametrize("entropies,message", [
        ([], "must be 1-D and at least 1 long"),
        ([[0.5, 0.5]], "must be 1-D and at least 1 long"),
        ([0.5, math.nan], "must be finite"),
        ([0.5, -0.1], "must be non-negative"),
    ])
    def test_rejects_what_is_not_a_vector_of_entropies(self, entropies, message):
        # A NaN is a non-finite input, as describe and the normalizers call
        # it; the other vectors break an invariant.
        error = es.NonFiniteInputError if message == "must be finite" else es.InvariantError
        with pytest.raises(error, match=message) as info:
            es.compute_weights(np.array(entropies))
        assert isinstance(info.value, ValueError) == (error is es.InvariantError)

    @pytest.mark.parametrize(
        "entropies,message",
        [
            (["0.5", "0.25"], "must be real numbers, got dtype <U4$"),
            ([0.5, 0.25j], "must be real numbers, got dtype complex128$"),
            ([0.5, None], "must be real numbers, got dtype object$"),
            ([0.5, [0.25]], "must be an array of real numbers$"),
        ],
        ids=["numeric-str", "complex", "none", "ragged"],
    )
    def test_bare_entropies_must_be_real_numbers(self, entropies, message):
        with pytest.raises(es.InvariantError, match=f"^entropies {message}"):
            es.compute_weights(entropies)

    def test_entropies_summing_past_the_largest_double_are_refused_quietly(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(es.InvariantError, match="^entropies sum past the largest double$"):
                es.compute_weights([1e308, 1e308])

    def test_weights_always_sum_to_one(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            h = rng.uniform(0.01, 1.0, size=rng.integers(1, 30))
            for rule in ("paper", "classic"):
                w = es.compute_weights(h, rule=rule)
                np.testing.assert_allclose(w.weights.sum(), 1.0, atol=1e-12)
