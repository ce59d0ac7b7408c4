"""Continuous and discrete entropy, and the weight rules built on them.

The continuous form integrates -phi ln phi over [0, 1] with composite
Simpson quadrature and scales by e, which normalizes the result so that
any CDF yields a value in [0, 1].  For phi(x) = x**k the entropy has the
closed form e * k / (k + 1)**2, giving exact anchors to test against.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entroscore as es
from entroscore import entropy


def power_cdf(k):
    return lambda x: np.asarray(x, dtype=np.float64) ** k


class TestQuadratureConfig:
    def test_defaults(self):
        cfg = es.QuadratureConfig()
        assert cfg.points == 10001
        assert es.DEFAULT_QUADRATURE == cfg

    @pytest.mark.parametrize("points", [2, 4, 10000, 0, -3])
    def test_rejects_even_or_tiny_grids(self, points):
        with pytest.raises(es.InvariantError):
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

    def test_config_must_be_a_quadrature_config(self):
        cdf = es.estimate_cdf([0.0, 0.5, 1.0], 0.2)
        with pytest.raises(es.InvariantError, match="quadrature must be a QuadratureConfig"):
            es.continuous_entropy(cdf, 5)


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
        with pytest.raises(es.InvariantError):
            es.discrete_entropy([1.0, np.inf])


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

    def test_weights_always_sum_to_one(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            h = rng.uniform(0.01, 1.0, size=rng.integers(1, 30))
            for rule in ("paper", "classic"):
                w = es.compute_weights(h, rule=rule)
                np.testing.assert_allclose(w.weights.sum(), 1.0, atol=1e-12)
