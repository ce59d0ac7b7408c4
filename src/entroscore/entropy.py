"""Continuous and discrete entropy of indicator distributions, and the
entropy-proportional weight vector.

The continuous form integrates the CDF itself, H = -e * I[phi ln phi]
on [0, 1].  For a kernel CDF estimate whose grid plan runs its FFTs on a
coarse grid (c >= 2) the rule is composite six-point Gauss-Legendre on
the coarse cells, the first split geometrically toward 0; for every
other plan, and for any other callable, it is composite Simpson on the
uniform grid.  Because 0 <= -phi ln phi <= 1/e pointwise and either
rule's weights are positive and sum to the interval's length, one, the
e-scaled integral always lands in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .density import _MAX_POINTS, CdfEstimate
from .errors import (
    AllZeroEntropyError,
    DegenerateColumnError,
    InvariantError,
    QuadratureOutOfRangeError,
)
from .model import EntropyVector, WeightVector, _check_count, _real_array

__all__ = [
    "QuadratureConfig",
    "DEFAULT_QUADRATURE",
    "WEIGHT_RULES",
    "continuous_entropy",
    "discrete_entropy",
    "compute_weights",
]

# Tolerated quadrature overshoot of the [0, 1] entropy bound.
_NOISE_BUDGET = 1e-9

# CDF values at or below this are taken to give phi*ln(phi) its limit, 0.
_PHI_FLOOR = 1e-12

WEIGHT_RULES = ("paper", "classic")


@dataclass(frozen=True)
class QuadratureConfig:
    """The quadrature grid of continuous_entropy.

    points sets the grid step d = 1/(points - 1) on [0, 1], and so a kernel
    CDF's coarse step c*d (c from its grid plan), the cells that the
    Gauss-Legendre panels sit on where c >= 2, the 17 grid nodes its
    values are checked on, and the grid that Simpson's rule sums where it
    remains (c = 1, the exact sum, any other callable).  It must be an odd
    int (Simpson pairs intervals) from 3 to 1000001; each grid point costs
    a column 16 to about 300 bytes of scratch.
    """

    points: int = 10001

    def __post_init__(self) -> None:
        _check_count(self.points, "quadrature points")
        if self.points < 3 or self.points % 2 == 0:
            raise InvariantError("quadrature points must be odd and >= 3")
        if self.points > _MAX_POINTS:
            raise InvariantError(f"quadrature points must be at most {_MAX_POINTS}")


DEFAULT_QUADRATURE = QuadratureConfig()


def _check_quadrature(config) -> None:
    """Raise InvariantError unless config is a QuadratureConfig."""
    if not isinstance(config, QuadratureConfig):
        raise InvariantError(f"quadrature must be a QuadratureConfig, got {config!r}")


def _check_weight_rule(rule) -> None:
    """Raise InvariantError unless rule is one of WEIGHT_RULES."""
    if rule not in WEIGHT_RULES:
        raise InvariantError(f"unknown weight rule {rule!r}; expected one of {WEIGHT_RULES}")


def continuous_entropy(
    cdf: Callable[[np.ndarray], np.ndarray],
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """Entropy of a CDF on [0, 1]: H = -e * integral of phi ln phi.

    cdf may be any callable mapping a grid in [0, 1] to values in [0, 1],
    typically a CdfEstimate.  The result is clamped into [0, 1] when
    quadrature noise overshoots by at most 1e-9; a larger excursion means
    the supplied function is not a CDF and raises
    QuadratureOutOfRangeError.

    Where a CdfEstimate's grid plan for config.points takes a coarsening c
    >= 2, the integral is composite six-point Gauss-Legendre (Davis and
    Rabinowitz 1984) on the coarse cells [M*D, (M+1)*D], D = c/(points -
    1): the first cell is split geometrically toward 0 in 40 panels, where
    phi ln phi is about a * x ln x when the correction pins phi(0) = 0,
    and the last is cut at 1.  The estimate's _panel_values gives phi at
    the panel nodes from its coarse rows, and the weights.  This leaves H
    within about 1e-14 of the integral on the benchmark's column shapes,
    where Simpson's rule left it up to 1e-7 low.  For every other plan
    (c = 1, the exact sum) the values are grid_values' on the uniform grid,
    and for any other callable cdf's own, and the rule is composite
    Simpson there.

    The values from the coarse rows are within about eps = 1e-12 of calling
    the estimate (the truncation share is bounded, the rounding share
    estimated and checked on a few grid nodes, and where a checked value
    is off the exact values are used).  Where they are within eps on every
    node, H moves by at most e * (27.6 * eps + 2.8e-11), about 1.5e-10.
    Per node, let g(phi) = phi ln phi above the floor F = 1e-12 and 0 at
    or below it.  Above F, |g'| = |ln phi + 1| <= -ln F - 1 < 27.6, so two
    values within eps of each other and both above F have g within 27.6 *
    eps.  If only one is above F, it lies in (F, F + eps], so its |g| is
    at most |g(F)| + 27.6 * eps, and |g(F)| = -F ln F < 2.8e-11.  The
    weights of both rules are positive and sum to 1 (the panels' within a
    few ulps), so the integral moves by at most the per-value bound, and
    the final clamp cannot add to it.  The rounding of the sums, below
    1e-15, fits in the slack that rounding -ln F - 1 and -F ln F up
    leaves.

    config must be a QuadratureConfig, and the values cdf returns bool,
    integer or floating numbers, one per grid point, else InvariantError.
    """
    _check_quadrature(config)
    if isinstance(cdf, CdfEstimate):
        panels = cdf._panel_values(config.points)
        phi, weights = panels if panels is not None else (cdf.grid_values(config.points), None)
    else:
        # A copy: the integrand is formed in place, and the callable may
        # hand back an array it keeps.
        phi = np.array(_real_array(cdf(np.linspace(0.0, 1.0, config.points)), "cdf values"))
        weights = None
        if phi.shape != (config.points,):
            raise InvariantError("cdf must return one value per grid point")
    if not np.isfinite(phi).all():
        raise QuadratureOutOfRangeError(
            "cdf produced NaN or infinite values on the quadrature grid"
        )

    integrand = _phi_log_phi(phi)

    if weights is None:
        step = 1.0 / (config.points - 1)
        total = (step / 3.0) * (
            integrand[0]
            + integrand[-1]
            + 4.0 * np.add.reduce(integrand[1:-1:2])
            + 2.0 * np.add.reduce(integrand[2:-2:2])
        )
    else:
        # A numpy reduction, not np.dot or @: OpenBLAS's dot depends on its
        # thread count.
        integrand *= weights
        total = np.add.reduce(integrand)
    value = float(-math.e * total)
    if not (-_NOISE_BUDGET <= value <= 1.0 + _NOISE_BUDGET):
        raise QuadratureOutOfRangeError(
            f"entropy quadrature produced {value!r}; the supplied function "
            "is not a CDF on [0, 1]"
        )
    return min(max(value, 0.0), 1.0) + 0.0  # normalize -0.0


def _phi_log_phi(phi: np.ndarray) -> np.ndarray:
    """phi ln phi per finite value, and 0, its limit, at or below _PHI_FLOOR.

    Those values are replaced by 1.0 in phi itself, whose 1.0 * ln(1.0) is
    exactly 0, so every value takes the same three passes and no gather
    or scatter, and the integrand takes one more grid-sized array, not two.
    """
    np.copyto(phi, 1.0, where=phi <= _PHI_FLOOR)
    out = np.log(phi)
    out *= phi
    return out


def discrete_entropy(column) -> float:
    """Normalized Shannon entropy of a non-negative column.

    Entries are rescaled into a probability vector p_i = s_i / sum(s),
    then H = -(1/ln n) * sum p_i ln p_i with 0 ln 0 taken as 0, which
    lands in [0, 1] for any column of length n >= 2.  An all-zero column
    has no distribution and raises DegenerateColumnError.
    """
    col = _real_array(column, "samples for discrete entropy", least=2, finite=True)
    if np.any(col < 0.0):
        raise InvariantError("discrete entropy needs non-negative values")
    with np.errstate(over="ignore"):
        total = float(np.sum(col))
    if total == 0.0:
        raise DegenerateColumnError("all entries are zero")
    if not math.isfinite(total):
        # The sum overflowed; p is scale-free, so rescale by the largest entry.
        col = col / np.max(col)
        total = float(np.sum(col))
    p = col / total
    live = p > 0.0
    value = -float(np.sum(p[live] * np.log(p[live]))) / math.log(col.size)
    return min(max(value, 0.0), 1.0) + 0.0


def compute_weights(entropies, rule: str = "paper") -> WeightVector:
    """Turn per-indicator entropies into a weight vector.

    The default rule follows the continuous-entropy method: weights are
    directly proportional to entropy, w_j = H_j / sum(H).  The "classic"
    rule uses the complementary convention w_j proportional to 1 - H_j
    for comparison with the traditional discrete entropy weight method.
    """
    if isinstance(entropies, EntropyVector):
        values = entropies.entropies
    else:
        values = _real_array(entropies, "entropies", least=1, finite=True)
        if np.any(values < 0.0):
            raise InvariantError("entropies must be non-negative")
    _check_weight_rule(rule)

    mass = values if rule == "paper" else 1.0 - values
    if rule == "classic" and np.any(mass < 0.0):
        raise InvariantError("classic rule needs entropies within [0, 1]")
    with np.errstate(over="ignore"):  # entropies near the largest double, refused below
        total = float(np.sum(mass))
    if total == math.inf:
        raise InvariantError("entropies sum past the largest double")
    if total <= 0.0:
        raise AllZeroEntropyError(
            "entropy mass sums to zero; no indicator carries information under this rule"
        )
    return WeightVector(mass / total)
