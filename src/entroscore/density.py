"""Gaussian-kernel estimation of an indicator's CDF on [0, 1].

The estimate averages per-sample Gaussian kernel CDFs rather than
integrating a density grid, so it is exactly monotone and needs no
quadrature of its own.  With boundary correction on (the default) the
raw estimate is renormalized so that the endpoints are pinned to
phi(0) = 0 and phi(1) = 1, which keeps the estimate tight on data that
occupies exactly [0, 1].

Calling a CdfEstimate evaluates every (point, sample) kernel exactly
with ndtr, which costs O(points * n).  CdfEstimate.grid_values gives the
same values on a uniform grid, whatever n is, by FFTs on a grid up to 32
times coarser: samples and grid nodes are each referred to their nearest
coarse node, and the kernel CDF is Taylor-expanded in the difference of
the two offsets, at most one coarse step.  The coarsening is the largest
of 32, 16, 8, 4, 2 and 1 at which the truncation bound plus a rounding
estimate is at most 1e-12, and the values are checked against the exact
ones on a few nodes, half of them between coarse nodes, where every term
of the expansion shows.  Where no coarsening meets the bound, or a
checked value is off by more, the exact values are returned.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateColumnError, InvalidBandwidthError, InvariantError
from .model import _check_flag, _check_positive_real, _sample_array

__all__ = ["select_bandwidth", "estimate_cdf", "CdfEstimate"]

# Cap on elements of the (grid x samples) kernel matrix per evaluation block.
_BLOCK_ELEMENTS = 4_000_000

# grid_values keeps |grid_values(points) - self(grid)| within this on
# every grid value; where its estimate cannot, it returns self(grid).
_GRID_ERROR = 1e-12

# grid_values checks its values against self() on every
# ((points - 1) // _CHECK_INTERVALS)-th grid node.
_CHECK_INTERVALS = 16

# grid_values runs its FFTs on every c-th grid node, for the largest c
# here that meets its error budget.
_COARSENING = (32, 16, 8, 4, 2, 1)

# max over z of |d^p/dz^p ndtr(z)| = |He_{p-1}(z) phi(z)| for p = 1..10,
# found on a 1e-5 grid over [-12, 12], polished, and rounded up.
_NDTR_DERIVATIVE_MAX = (0.3990, 0.2420, 0.3990, 0.5506, 1.197, 2.308, 5.985, 14.18, 41.89, 115.1)

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_EPS = float(np.finfo(np.float64).eps)


def select_bandwidth(samples) -> float:
    """Silverman's rule of thumb: 0.9 * min(std, IQR/1.34) * n^(-1/5).

    The standard deviation is the sample form (n - 1 denominator).  If one
    of the two spread measures is zero the other is used; if both are zero
    DegenerateColumnError is raised.  That happens when max equals min, and
    also when the spread underflows to zero in float64.
    """
    x = _sample_array(samples, "bandwidth selection")
    # Sort so the reduction order, and hence the result bit pattern, does
    # not depend on how the caller happened to order the samples.
    x = np.sort(x)
    std = float(np.std(x, ddof=1))
    iqr = _sorted_quantile(x, 0.75) - _sorted_quantile(x, 0.25)
    spread = min(std, iqr / 1.34)
    if spread == 0.0:
        spread = max(std, iqr / 1.34)
    if spread == 0.0:
        raise DegenerateColumnError(
            "sample standard deviation and IQR are both zero; no bandwidth exists"
        )
    return 0.9 * spread * x.size ** (-0.2)


def _sorted_quantile(x: np.ndarray, q: float) -> float:
    """np.percentile(x, 100*q) of a sorted x, to the bit, for 0 <= q < 1.

    This is numpy's default linear method, with its arithmetic: the
    virtual index q*(n - 1), and a + d*g, or b - d*(1 - g) when g >= 1/2,
    between the order statistics a and b either side of it.
    """
    virtual = q * (x.size - 1)
    below = math.floor(virtual)
    g = virtual - below
    a, b = x[below : below + 2].tolist()
    d = b - a
    return b - d * (1.0 - g) if g >= 0.5 else a + d * g


class CdfEstimate:
    """A monotone map on [0, 1] backed by kernel-smoothed sample data.

    Instances are immutable, callable on scalars or arrays, and safe to
    evaluate from multiple threads.  Samples are stored sorted so the
    kernel summation order, and therefore the value, never depends on the
    order the samples arrived in.

    bandwidth must be a real number, not a bool, above 0 and finite as a
    double, else InvalidBandwidthError, and is kept as that double;
    boundary_correction a bool or numpy bool, else InvariantError.  These
    are model's checks, which EvaluationOptions shares.
    """

    def __init__(self, samples, bandwidth: float, boundary_correction: bool = True):
        x = np.sort(_sample_array(samples, "a CDF estimate"))
        if x[0] < 0.0 or x[-1] > 1.0:
            raise InvariantError("samples must lie in [0, 1]")
        x.flags.writeable = False
        self._samples = x
        self._bandwidth = _check_positive_real(bandwidth, "bandwidth", InvalidBandwidthError)
        self._correct = _check_flag(boundary_correction, "boundary_correction")
        if self._correct:
            lo, hi = self._raw(np.array([0.0, 1.0]))
            span = hi - lo
            if span <= 0.0:
                raise InvalidBandwidthError(
                    "bandwidth so large the kernel CDF is flat on [0, 1]"
                )
            self._raw_lo = lo
            self._span = span

    @property
    def support_samples(self) -> np.ndarray:
        return self._samples

    @property
    def bandwidth(self) -> float:
        return self._bandwidth

    @property
    def boundary_correction(self) -> bool:
        return self._correct

    def _raw(self, x: np.ndarray) -> np.ndarray:
        """Mean of per-sample Gaussian CDFs, evaluated in memory-bounded blocks."""
        from scipy.special import ndtr  # only continuous runs pay its import

        flat = x.ravel()
        n = self._samples.size
        block = max(1, _BLOCK_ELEMENTS // n)
        out = np.empty(flat.size, dtype=np.float64)
        for start in range(0, flat.size, block):
            chunk = flat[start : start + block]
            # A tiny bandwidth can overflow z to +-inf; ndtr(+-inf) is
            # exactly 1 or 0, the kernel CDF's limit there, so that is exact.
            with np.errstate(over="ignore"):
                z = (chunk[:, np.newaxis] - self._samples) / self._bandwidth
            out[start : start + len(chunk)] = np.mean(ndtr(z), axis=1)
        return out.reshape(x.shape)

    def _finish(self, raw: np.ndarray) -> np.ndarray:
        """Boundary-correct (if on) and clip raw kernel means into [0, 1]."""
        values = (raw - self._raw_lo) / self._span if self._correct else raw
        return np.clip(values, 0.0, 1.0)

    def __call__(self, x):
        arr = np.asarray(x, dtype=np.float64)
        scalar = arr.ndim == 0
        values = self._finish(self._raw(np.atleast_1d(arr)))
        return float(values[0]) if scalar else values.reshape(arr.shape)

    def grid_values(self, points: int) -> np.ndarray:
        """The estimate on np.linspace(0, 1, points), by binned FFT.

        The result differs from self(grid) by about 1e-12 at most on every
        grid value (the truncation share of that is a bound, the rounding
        share an estimate that is checked on some nodes), so it is not
        bit-equal to it, nor guaranteed monotone below that level.  It
        does not depend on sample order.

        The FFTs run on a coarse grid of step D = c*d, where d = 1/(points
        - 1) is the grid step and c comes from _COARSENING.  Each sample
        x sits at its nearest coarse node k with offset f = x/D - k in
        [-1/2, 1/2], and each grid node m at its nearest coarse node M
        with offset s = m/c - M in [-1/2, 1/2).  With U = D/h and j = M -
        k, (m*d - x)/h = (j - (f - s))*U, and Taylor's theorem in f - s
        gives

            ndtr((j - (f - s))*U) = sum_{p<P} (f - s)^p * K_p(j) + R,
            K_p(j) = (-U)^p/p! * ndtr^(p)(j*U),
            |R| <= r^P/P! * max|ndtr^(P)|,

        with ndtr^(p) = (-1)^(p-1) He_{p-1} phi and radius r = U, as |f -
        s| <= 1 (r = U/2 when c = 1, where s is always 0).  Expanding
        (f - s)^p = sum_a C(p, a) (-s)^a f^(p-a) and summing over samples
        gives P coarse rows, row a the convolution sum_{p>=a} C(p, a) *
        (moment f^(p-a) summed per coarse node) * K_p, each done as
        circular FFT products of a length that holds 2*nodes - 1 values
        without wrap-around.  A grid value is the polynomial in -s with
        these rows at M as coefficients, evaluated by Horner's rule.  The
        coarse rows are finished before it: row a carries 1/(n * a!) and
        the correction's 1/span, and row 0 its offset -raw(0)/span, so
        each Horner step is one multiply by a contiguous block of -s and
        one add, and the grid values need only the final clip.  At
        c = 1 only row 0 is left, the plain binned estimator (Silverman
        1982, Algorithm AS 176; Wand 1994) with its binning error removed
        by the expansion; for c > 1 it is the one-dimensional grid form of
        the fast Gauss transform (Greengard and Strain 1991).  K_0 = ndtr
        less its step at 0 (odd, and small where |j*U| is large); the
        step's share is the exact running count of samples, added to row
        0.

        P is the least order whose remainder, plus an estimate of the
        rounding, is at most 1e-12 of the correction span.  The rounding
        estimate is eps*log2(size)*||K_0||_2 for the transforms (Higham
        2002, section 24.1), on the coarse K_0, plus 2*eps per Horner step
        of at most 10.  The norm is a numpy reduction, not a BLAS dot:
        OpenBLAS hands a dot of more than 10000 values to its worker
        threads, which stalls a column while other threads keep the cores
        busy, and the dot's bits would depend on the BLAS thread count.
        c is the largest factor in _COARSENING, below points, for which
        some P <= 10 meets the budget.  If none does, the exact self(grid)
        is returned instead: for h below about three grid steps, which
        _below_fast_path decides before any coarse row is formed, and,
        with boundary correction on, for h above about 2.5, where dividing
        by the small span magnifies rounding.

        As the rounding share is only estimated, the values on every
        ((points - 1) // 16)-th node (17 nodes at 10001 points) are
        compared with self() there; if one is off by more than 1e-12,
        self(grid) is returned too.  On a node with s = 0 every row but
        row 0 drops out, so every other checked node is moved to a
        midpoint between coarse nodes (s = -1/2): otherwise, when c
        divides the check stride (points = 4097 and c = 16 or 32), no
        checked node would see rows 1 and up.
        """
        if points < 2:
            raise InvariantError("a grid needs at least two points")
        if _below_fast_path(self._bandwidth, points):
            return self(np.linspace(0.0, 1.0, points))
        u = 1.0 / ((points - 1) * self._bandwidth)
        from scipy.special import ndtr  # only continuous runs pay its import

        span = self._span if self._correct else 1.0
        allowed = _GRID_ERROR * span
        for c in _COARSENING:
            radius = c * u if c > 1 else u / 2.0
            if c >= points or not _least_order(radius, allowed):
                continue
            nodes = (points - 1 + c // 2) // c + 1
            size = _fft_size(2 * nodes - 1)
            # Each K_p is odd or even in j, so it is computed for j >= 0
            # only; _place mirrors it into the negative j that wrap to a
            # row's end.
            z = np.arange(nodes) * (c * u)
            step_free = -ndtr(-z)
            step_free[0] = 0.0
            # Not np.dot, which can wait on OpenBLAS threads: see the docstring.
            norm = math.sqrt(2.0 * np.sum(step_free * step_free))
            rounding = _EPS * (math.log2(size) * norm + 2.0 * len(_NDTR_DERIVATIVE_MAX))
            order = _least_order(radius, allowed - rounding)
            if order:
                break
        else:
            return self(np.linspace(0.0, 1.0, points))

        n = self._samples.size
        t = self._samples * ((points - 1) / c)
        node = np.rint(t).astype(np.intp)  # k
        offset = t - node  # f
        kernels = np.zeros((order, size))
        moments = np.zeros((order, nodes))
        _place(kernels[0], step_free, -1.0)
        counts = np.bincount(node, minlength=nodes).astype(np.float64)
        moments[0] = counts
        density = np.exp(-0.5 * z * z) * _INV_SQRT_2PI
        # The factorials of C(p, a) = p!/(a! (p-a)!) are folded in: f^q/q!
        # into the moments, p! into the kernels, 1/a! into the rows.
        power = np.ones(n)
        scale = 1.0
        he_prev, he = 0.0, 1.0  # He_{p-2}, He_{p-1}
        for p in range(1, order):
            power = power * offset / p
            moments[p] = np.bincount(node, weights=power, minlength=nodes)
            scale *= c * u
            _place(kernels[p], -scale * he * density, (-1.0) ** (p + 1))
            he_prev, he = he, z * he - (p - 1) * he_prev
        spectra = _spectra(
            np.fft.rfft(moments, size, axis=1), np.fft.rfft(kernels, axis=1), order if c > 1 else 1
        )
        rows = np.fft.irfft(spectra, size, axis=1)[:, :nodes]
        rows[0] += np.cumsum(counts) - 0.5 * counts
        # Finish the rows, not the grid: row a carries 1/(n * a! * span),
        # and row 0, Horner's constant term, the correction's offset.
        rows /= np.array([n * span * math.factorial(a) for a in range(len(rows))])[:, np.newaxis]
        if self._correct:
            rows[0] -= self._raw_lo / span
        # Column M of fine holds the grid nodes m = c*M - c//2 + q, q < c,
        # whose offset is s = (q - c//2)/c; Horner's rule sums
        # (-s)^a * rows[a] there, on a contiguous block of -s.
        fine = np.empty((c, nodes))
        fine[:] = rows[-1]
        neg_s = np.empty((c, nodes))
        neg_s[:] = ((c // 2 - np.arange(c)) / c)[:, np.newaxis]
        for a in range(len(rows) - 1, 0, -1):
            fine *= neg_s
            fine += rows[a - 1]
        values = fine.T.ravel()[c // 2 : c // 2 + points]
        np.clip(values, 0.0, 1.0, out=values)
        check = np.arange(0, points, max(1, (points - 1) // _CHECK_INTERVALS))
        # Every other checked node moves to a midpoint between coarse
        # nodes, where s = -1/2 (nowhere when c = 1): see the docstring.
        mid = check[1::2] - check[1::2] % c + c // 2
        check[1::2] = np.where(mid < points, mid, mid - c)
        if np.max(np.abs(values[check] - self(_grid_nodes(check, points)))) > _GRID_ERROR:
            return self(np.linspace(0.0, 1.0, points))
        return values

    def __repr__(self) -> str:
        return (
            f"CdfEstimate(n={self._samples.size}, bandwidth={self._bandwidth:.6g}, "
            f"boundary_correction={self._correct})"
        )


def _grid_nodes(index: np.ndarray, points: int) -> np.ndarray:
    """np.linspace(0, 1, points)[index], to the bit, without the grid."""
    nodes = index * (1.0 / (points - 1))
    nodes[index == points - 1] = 1.0
    return nodes


def _below_fast_path(bandwidth: float, points: int) -> bool:
    """Whether grid_values(points) sums exactly whatever the samples are.

    It does where even c = 1, whose radius u/2 (u = d/h) is the least,
    misses the error budget at the widest span, 1: for h below about
    three grid steps.  The exact sum costs O(points * n) in ndtr, which
    runs without the interpreter lock.  Where u/2 >= 1 every remainder
    bound is at least the least max|ndtr^(P)|/P!, 3.2e-5 at P = 10, so
    that is decided before any power of u, which overflows for a tiny h,
    is formed.
    """
    half_u = 0.5 / ((points - 1) * bandwidth)
    return half_u >= 1.0 or not _least_order(half_u, _GRID_ERROR)


def _least_order(radius: float, budget: float) -> int:
    """Least Taylor order P <= 10 with radius**P/P! * max|ndtr^(P)| <= budget, else 0."""
    for order, top in enumerate(_NDTR_DERIVATIVE_MAX, start=1):
        if radius**order / math.factorial(order) * top <= budget:
            return order
    return 0


def _spectra(moments: np.ndarray, kernels: np.ndarray, rows: int) -> np.ndarray:
    """Row a < rows is sum_{p>=a} moments[p - a] * kernels[p]."""
    out = np.zeros((rows, kernels.shape[1]), dtype=kernels.dtype)
    for p in range(len(kernels)):
        top = min(p + 1, rows)
        out[:top] += moments[p + 1 - top : p + 1][::-1] * kernels[p]
    return out


def _place(row: np.ndarray, half: np.ndarray, parity: float) -> None:
    """Lay a kernel given for j = 0..G-1 into a circular row: K(-j) = parity * K(j)."""
    row[: half.size] = half
    row[row.size - half.size + 1 :] = parity * half[:0:-1]


def _fft_size(minimum: int) -> int:
    """Least 2**a * c >= minimum with c in (1, 3, 5), where numpy's FFT is fastest."""
    return min(c << (-(-minimum // c) - 1).bit_length() for c in (1, 3, 5))


def estimate_cdf(samples, bandwidth: float, boundary_correction: bool = True) -> CdfEstimate:
    """Build the Gaussian-kernel CDF estimate of a normalized sample set."""
    return CdfEstimate(samples, bandwidth, boundary_correction)
