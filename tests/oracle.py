"""A reference for continuous entropy that shares no error with the library's rules.

    H = -e * integral over [0, 1] of g(phi(x)) dx,

with g(v) = v ln v above 1e-12 and 0 at or below it, the integrand that
continuous_entropy defines.  reference_entropy takes it by composite
Gauss-Legendre quadrature of order 24 on equal panels no wider than
width, the first of them split geometrically toward 0 in 60 levels:
with the boundary correction on, phi(0) = 0 and phi ln phi is about
a * x ln x there, which no polynomial rule on a whole panel follows.
phi is evaluated exactly (a CdfEstimate is called, never its
grid_values), and the products are added by math.fsum.

For a CdfEstimate the panels are h/2 wide.  Measured on the benchmark's
column shapes at 70 rows this matched Richardson extrapolation of
Simpson's rule at 320001 and 640001 exact points within 1.7e-16, and
panels of h/4 at order 32 moved it by at most 2.2e-16.  It costs a few
milliseconds a 70-row column and up to about 0.35 s a 1000-row one.

This module holds no tests; pytest collects test_*.py only.  numpy only.
"""

from __future__ import annotations

import math

import numpy as np

ORDER = 24
LEVELS = 60
FLOOR = 1e-12


def reference_entropy(phi, width: float, order: int = ORDER, levels: int = LEVELS) -> float:
    """-e * the integral of g(phi) on [0, 1], by the rule above; phi maps an array of nodes to values."""
    panels = max(1, math.ceil(1.0 / width))
    edges = np.linspace(0.0, 1.0, panels + 1)
    graded = np.r_[edges[1] * np.ldexp(1.0, -np.arange(levels + 1)), 0.0]  # edges[1], ..., 2^-levels of it, 0
    lo = np.r_[graded[1:], edges[1:-1]]
    hi = np.r_[graded[:-1], edges[2:]]
    t, w = np.polynomial.legendre.leggauss(order)
    half = (hi - lo) / 2.0
    x = (lo + half)[:, np.newaxis] + half[:, np.newaxis] * t
    values = np.asarray(phi(x.reshape(-1)), dtype=np.float64)
    live = values > FLOOR
    g = np.where(live, values * np.log(np.where(live, values, 1.0)), 0.0)
    return -math.e * math.fsum((half[:, np.newaxis] * w).reshape(-1) * g)


def estimate_entropy(cdf, order: int = ORDER, levels: int = LEVELS, panels_per_bandwidth: int = 2) -> float:
    """reference_entropy of a CdfEstimate on panels of h / panels_per_bandwidth."""
    return reference_entropy(cdf, cdf.bandwidth / panels_per_bandwidth, order, levels)
