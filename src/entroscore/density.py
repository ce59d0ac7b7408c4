"""Gaussian-kernel estimation of an indicator's CDF on [0, 1].

The estimate averages per-sample Gaussian kernel CDFs rather than
integrating a density grid, so it is exactly monotone and needs no
quadrature of its own.  With boundary correction on (the default) the
raw estimate is renormalized so that the endpoints are pinned to
phi(0) = 0 and phi(1) = 1, which keeps the estimate tight on data that
occupies exactly [0, 1].
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

from .errors import DegenerateColumnError, InvalidBandwidthError, InvariantError
from .model import _sample_array

__all__ = ["select_bandwidth", "estimate_cdf", "CdfEstimate"]

# Cap on elements of the (grid x samples) kernel matrix per evaluation block.
_BLOCK_ELEMENTS = 4_000_000


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
        flat = x.ravel()
        n = self._samples.size
        block = max(1, _BLOCK_ELEMENTS // n)
        out = np.empty(flat.size, dtype=np.float64)
        for start in range(0, flat.size, block):
            chunk = flat[start : start + block]
            z = (chunk[:, np.newaxis] - self._samples) / self._bandwidth
            out[start : start + len(chunk)] = np.mean(ndtr(z), axis=1)
        return out.reshape(x.shape)

    def __call__(self, x):
        arr = np.asarray(x, dtype=np.float64)
        scalar = arr.ndim == 0
        raw = self._raw(np.atleast_1d(arr))
        if self._correct:
            values = (raw - self._raw_lo) / self._span
        else:
            values = raw
        values = np.clip(values, 0.0, 1.0)
        return float(values[0]) if scalar else values.reshape(arr.shape)

    def __repr__(self) -> str:
        return (
            f"CdfEstimate(n={self._samples.size}, bandwidth={self._bandwidth:.6g}, "
            f"boundary_correction={self._correct})"
        )


def estimate_cdf(samples, bandwidth: float, boundary_correction: bool = True) -> CdfEstimate:
    """Build the Gaussian-kernel CDF estimate of a normalized sample set."""
    return CdfEstimate(samples, bandwidth, boundary_correction)
