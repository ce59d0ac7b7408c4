"""Gaussian-kernel estimation of an indicator's CDF on [0, 1].

The estimate averages per-sample Gaussian kernel CDFs rather than
integrating a density grid, so it is exactly monotone and needs no
quadrature of its own.  With boundary correction on (the default) the
raw estimate is renormalized so that the endpoints are pinned to
phi(0) = 0 and phi(1) = 1, which keeps the estimate tight on data that
occupies exactly [0, 1].

Calling a CdfEstimate evaluates every (point, sample) kernel exactly
with ndtr, which costs O(points * n).  CdfEstimate.grid_values gives the
same values on a uniform grid in O(points log points), whatever n is:
samples are binned to their nearest grid node and the kernel CDF is
Taylor-expanded in the offset from that node (the binned estimator of
Silverman 1982, Algorithm AS 176, and Wand 1994, with the binning error
removed by the expansion).  It is used only where its truncation bound
plus a rounding estimate is at most 1e-12, and only if its values agree
that closely with the exact ones on a few nodes it checks; otherwise it
returns the exact values.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateColumnError, InvalidBandwidthError, InvariantError
from .model import _sample_array

__all__ = ["select_bandwidth", "estimate_cdf", "CdfEstimate"]

# Cap on elements of the (grid x samples) kernel matrix per evaluation block.
_BLOCK_ELEMENTS = 4_000_000

# grid_values keeps |grid_values(points) - self(grid)| within this on
# every grid value; where its estimate cannot, it returns self(grid).
_GRID_ERROR = 1e-12

# grid_values checks its values against self() on every
# ((points - 1) // _CHECK_INTERVALS)-th grid node.
_CHECK_INTERVALS = 16

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
    iqr = float(np.percentile(x, 75) - np.percentile(x, 25))
    spread = min(std, iqr / 1.34)
    if spread == 0.0:
        spread = max(std, iqr / 1.34)
    if spread == 0.0:
        raise DegenerateColumnError(
            "sample standard deviation and IQR are both zero; no bandwidth exists"
        )
    return 0.9 * spread * x.size ** (-0.2)


class CdfEstimate:
    """A monotone map on [0, 1] backed by kernel-smoothed sample data.

    Instances are immutable, callable on scalars or arrays, and safe to
    evaluate from multiple threads.  Samples are stored sorted so the
    kernel summation order, and therefore the value, never depends on the
    order the samples arrived in.
    """

    def __init__(self, samples, bandwidth: float, boundary_correction: bool = True):
        x = np.sort(_sample_array(samples, "a CDF estimate"))
        if x[0] < 0.0 or x[-1] > 1.0:
            raise InvariantError("samples must lie in [0, 1]")
        bandwidth = float(bandwidth)
        if not (math.isfinite(bandwidth) and bandwidth > 0.0):
            raise InvalidBandwidthError(f"bandwidth must be positive and finite, got {bandwidth!r}")
        x.flags.writeable = False
        self._samples = x
        self._bandwidth = bandwidth
        self._correct = bool(boundary_correction)
        if self._correct:
            lo = self._raw(np.array([0.0]))[0]
            hi = self._raw(np.array([1.0]))[0]
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

        With grid step d = 1/(points - 1), each sample x sits at its
        nearest node k with offset f = x/d - k in [-1/2, 1/2].  For the
        node m, (m*d - x)/h = (m - k - f)*u with u = d/h, and Taylor's
        theorem in f gives

            ndtr((j - f)*u) = sum_{p<P} f^p * K_p(j) + R,
            K_p(j) = (-u)^p/p! * ndtr^(p)(j*u),   j = m - k,
            |R| <= (u/2)^P/P! * max|ndtr^(P)|,

        with ndtr^(p) = (-1)^(p-1) He_{p-1} phi.  Summed over samples,
        each term is the convolution of the per-node moment sum f^p with
        K_p, done as one circular FFT product of a length that holds
        2*points - 1 values without wrap-around.  K_0 = ndtr less its
        step at 0 (odd, and small where |j*u| is large); the step's
        share is the exact running count of samples.

        P is the least order whose remainder, plus the estimate
        eps*log2(size)*||K_0||_2 of the transforms' rounding (Higham
        2002, section 24.1), is at most 1e-12 of the correction span.
        The norm is a numpy reduction, not a BLAS dot: OpenBLAS hands a
        dot of more than 10000 values to its worker threads, which stalls
        a column while other threads keep the cores busy, and the dot's
        bits would depend on the BLAS thread count.  If no P <= 10 meets
        the budget, the exact self(grid) is returned instead: for h below
        about three grid steps, and, with boundary correction on, for h
        above about 2.5, where dividing by the small span magnifies
        rounding.  Where u/2 >= 1 no P can meet it, so that is decided
        before any power of u, which overflows for a tiny h, is formed.
        As the rounding share is only estimated, the values on every
        ((points - 1) // 16)-th node (17 nodes at 10001 points, every node
        below 33) are compared with self() there; if one is off by more
        than 1e-12, self(grid) is returned too.
        """
        if points < 2:
            raise InvariantError("a grid needs at least two points")
        u = 1.0 / ((points - 1) * self._bandwidth)
        if u / 2.0 >= 1.0:
            # Every remainder bound is then at least the least
            # max|ndtr^(P)|/P!, 3.2e-5 at P = 10, far over the budget.
            return self(np.linspace(0.0, 1.0, points))
        from scipy.special import ndtr  # only continuous runs pay its import

        n = self._samples.size
        size = _fft_size(2 * points - 1)
        # Each K_p is odd or even in j, so it is computed for j >= 0 only;
        # _place mirrors it into the negative j that wrap to a row's end.
        z = np.arange(points) * u
        step_free = -ndtr(-z)
        step_free[0] = 0.0
        # Not np.dot, which can wait on OpenBLAS threads: see the docstring.
        rounding = _EPS * math.log2(size) * math.sqrt(2.0 * np.sum(step_free * step_free))
        budget = _GRID_ERROR * (self._span if self._correct else 1.0) - rounding
        for order, top in enumerate(_NDTR_DERIVATIVE_MAX, start=1):
            if (u / 2.0) ** order / math.factorial(order) * top <= budget:
                break
        else:
            return self(np.linspace(0.0, 1.0, points))

        t = self._samples * (points - 1)
        node = np.rint(t).astype(np.intp)  # k
        offset = t - node  # f
        kernels = np.zeros((order, size))
        moments = np.zeros((order, points))
        _place(kernels[0], step_free, -1.0)
        counts = np.bincount(node, minlength=points).astype(np.float64)
        moments[0] = counts
        density = np.exp(-0.5 * z * z) * _INV_SQRT_2PI
        power = np.ones(n)
        coef = 1.0
        he_prev, he = 0.0, 1.0  # He_{p-2}, He_{p-1}
        for p in range(1, order):
            power = power * offset
            moments[p] = np.bincount(node, weights=power, minlength=points)
            coef *= u / p
            _place(kernels[p], -coef * he * density, (-1.0) ** (p + 1))
            he_prev, he = he, z * he - (p - 1) * he_prev
        spectrum = np.sum(
            np.fft.rfft(moments, size, axis=1) * np.fft.rfft(kernels, axis=1), axis=0
        )
        smooth = np.fft.irfft(spectrum, size)[:points]
        raw = (np.cumsum(counts) - 0.5 * counts + smooth) / n
        values = self._finish(raw)
        grid = np.linspace(0.0, 1.0, points)
        check = np.arange(0, points, max(1, (points - 1) // _CHECK_INTERVALS))
        if np.max(np.abs(values[check] - self(grid[check]))) > _GRID_ERROR:
            return self(grid)
        return values

    def __repr__(self) -> str:
        return (
            f"CdfEstimate(n={self._samples.size}, bandwidth={self._bandwidth:.6g}, "
            f"boundary_correction={self._correct})"
        )


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
