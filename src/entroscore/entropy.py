"""Continuous and discrete entropy of indicator distributions, and the
entropy-proportional weight vector.

The continuous form integrates the CDF itself, H = -e * I[phi ln phi]
on [0, 1], by composite Simpson quadrature on a uniform grid.  Because
0 <= -phi ln phi <= 1/e pointwise and the interval has length one, the
e-scaled integral always lands in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .density import CdfEstimate
from .errors import (
    AllZeroEntropyError,
    DegenerateColumnError,
    InvariantError,
    QuadratureOutOfRangeError,
)
from .model import EntropyVector, WeightVector, _check_count, _sample_array

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
    """Uniform-grid composite Simpson settings.

    points must be an odd int (Simpson pairs intervals).
    """

    points: int = 10001

    def __post_init__(self) -> None:
        _check_count(self.points, "quadrature points")
        if self.points < 3 or self.points % 2 == 0:
            raise InvariantError("quadrature points must be odd and >= 3")


DEFAULT_QUADRATURE = QuadratureConfig()


def _check_quadrature(config) -> None:
    """Raise InvariantError unless config is a QuadratureConfig."""
    if not isinstance(config, QuadratureConfig):
        raise InvariantError(f"quadrature must be a QuadratureConfig, got {config!r}")


def continuous_entropy(
    cdf: Callable[[np.ndarray], np.ndarray],
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """Entropy of a CDF on [0, 1]: H = -e * integral of phi ln phi.

    cdf may be any callable mapping a grid in [0, 1] to values in [0, 1],
    typically a CdfEstimate, which is evaluated by its grid_values.  The
    result is clamped into [0, 1] when quadrature noise overshoots by at
    most 1e-9; a larger excursion means the supplied function is not a
    CDF and raises QuadratureOutOfRangeError.

    grid_values is within about eps = 1e-12 of calling the estimate (its
    truncation share is bounded, its rounding share estimated and checked
    on a few nodes).  Where it is within eps on every grid value, H moves
    by at most e * (27.6 * eps + 2.8e-11), about 1.5e-10.  Per grid
    value, let g(phi) = phi ln phi above the floor F = 1e-12 and 0 at or
    below it.  Above F, |g'| = |ln phi + 1| <= -ln F - 1 < 27.6, so two
    values within eps of each other and both above F have g within
    27.6 * eps.  If only one is above F, it lies in (F, F + eps], so its
    |g| is at most |g(F)| + 27.6 * eps, and |g(F)| = -F ln F < 2.8e-11.
    The Simpson weights are positive and sum to 1, so the integral moves
    by at most the per-value bound, and the final clamp cannot add to
    it.  The rounding of the two quadrature sums, below 1e-15, fits in
    the slack that rounding -ln F - 1 and -F ln F up leaves.

    config must be a QuadratureConfig, else InvariantError.
    """
    _check_quadrature(config)
    if isinstance(cdf, CdfEstimate):
        phi = cdf.grid_values(config.points)
    else:
        phi = np.asarray(cdf(np.linspace(0.0, 1.0, config.points)), dtype=np.float64)
    if phi.shape != (config.points,):
        raise InvariantError("cdf must return one value per grid point")
    if not np.all(np.isfinite(phi)):
        raise QuadratureOutOfRangeError(
            "cdf produced NaN or infinite values on the quadrature grid"
        )

    integrand = _phi_log_phi(phi)

    step = 1.0 / (config.points - 1)
    simpson = (step / 3.0) * (
        integrand[0]
        + integrand[-1]
        + 4.0 * np.sum(integrand[1:-1:2])
        + 2.0 * np.sum(integrand[2:-2:2])
    )
    value = float(-math.e * simpson)
    if not (-_NOISE_BUDGET <= value <= 1.0 + _NOISE_BUDGET):
        raise QuadratureOutOfRangeError(
            f"entropy quadrature produced {value!r}; the supplied function "
            "is not a CDF on [0, 1]"
        )
    return min(max(value, 0.0), 1.0) + 0.0  # normalize -0.0


def _phi_log_phi(phi: np.ndarray) -> np.ndarray:
    """phi ln phi per finite value, and 0, its limit, at or below _PHI_FLOOR.

    Those values are replaced by 1.0, whose 1.0 * ln(1.0) is exactly 0,
    so every value takes the same three passes and no gather or scatter.
    """
    safe = np.where(phi > _PHI_FLOOR, phi, 1.0)
    out = np.log(safe)
    out *= safe
    return out


def discrete_entropy(column) -> float:
    """Normalized Shannon entropy of a non-negative column.

    Entries are rescaled into a probability vector p_i = s_i / sum(s),
    then H = -(1/ln n) * sum p_i ln p_i with 0 ln 0 taken as 0, which
    lands in [0, 1] for any column of length n >= 2.  An all-zero column
    has no distribution and raises DegenerateColumnError.
    """
    col = _sample_array(column, "discrete entropy")
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
        values = np.asarray(entropies, dtype=np.float64)
    if values.ndim != 1 or values.size < 1:
        raise InvariantError("entropies must be a non-empty 1-D vector")
    if not np.all(np.isfinite(values)):
        raise InvariantError("entropies must be finite")
    if np.any(values < 0.0):
        raise InvariantError("entropies must be non-negative")
    if rule not in WEIGHT_RULES:
        raise InvariantError(f"unknown weight rule {rule!r}; expected one of {WEIGHT_RULES}")

    mass = values if rule == "paper" else 1.0 - values
    if rule == "classic" and np.any(mass < 0.0):
        raise InvariantError("classic rule needs entropies within [0, 1]")
    total = float(np.sum(mass))
    if total <= 0.0:
        raise AllZeroEntropyError(
            "entropy mass sums to zero; no indicator carries information under this rule"
        )
    return WeightVector(mass / total)
