"""Gaussian-kernel estimation of an indicator's CDF on [0, 1].

The estimate averages per-sample Gaussian kernel CDFs rather than
integrating a density grid, so it is exactly monotone and needs no
quadrature of its own.  With boundary correction on (the default) the
raw estimate is renormalized so that the endpoints are pinned to
phi(0) = 0 and phi(1) = 1, which keeps the estimate tight on data that
occupies exactly [0, 1].

Calling a CdfEstimate evaluates every (point, sample) kernel exactly
with ndtr, which costs O(points * n).  CdfEstimate.grid_values gives the
same values on a uniform grid, whatever n is, by FFTs on a grid up to 64
times coarser: samples and grid nodes are each referred to their nearest
coarse node, and the kernel CDF is Taylor-expanded in the difference of
the two offsets, at most one coarse step.  The coarsening is the largest
of 64, 32, 16, 8, 4, 2 and 1 at which the truncation bound plus a
rounding estimate is at most 1e-12, at an order of at most 11 at c = 64
and 12 below, and the values are checked against the exact
ones on a few nodes, half of them between coarse nodes, where every term
of the expansion shows.  Where no coarsening meets the bound, or a
checked value is off by more, the exact values are returned.

continuous_entropy does not take the grid values where the coarsening c
is 2 or more: CdfEstimate._panel_values reads the same coarse rows at the
nodes of six-point Gauss-Legendre panels on the coarse cells, under the
same check, and the entropy's integral is their weighted sum.

_setup builds every estimate, m columns at once (sorted samples,
bandwidths, the correction's endpoint sums): run_pipeline passes all of
a run's columns, and the CdfEstimate constructor is its one-column case,
as select_bandwidth is _silverman's, with the same bits.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import DegenerateColumnError, InvalidBandwidthError, InvariantError, NonFiniteInputError, _named
from .model import _check_count, _check_flag, _check_positive_real, _real_array

__all__ = ["select_bandwidth", "estimate_cdf", "CdfEstimate"]

# Cap on elements of the (grid x samples) kernel block that the exact sum
# fills and reuses: 65536 doubles, 512 KiB of scratch per call, which
# stays in a core's L2 cache.  Each grid value's mean is taken within one
# row, so the cap never changes a bit.  The old cap of 4_000_000 held
# 64 MB once n >= 400 and was no faster on any shape measured (2-core VM,
# 2 MiB L2 per core).  _row_blocks caps the matrix-sized temporaries of
# _sample_std and composite_scores at it too.
_BLOCK_ELEMENTS = 65_536

# The largest grid that grid_values, and so QuadratureConfig, takes.  A
# column's scratch grows with the grid: about 16 bytes a point at a
# Silverman bandwidth, 24 on the exact path, about 125-140 where the
# bandwidth is under about seven grid steps and the FFTs run on the full
# grid one order at a time, and up to about 250-300 from seven to fourteen
# steps, where they run on every second node with ten to twelve orders.
# At this cap that is at most about 0.25 GB.  The entropy's panels take
# 6/c values a grid point, and _panels caches 12/c doubles a grid point
# for each of the last 16 (c, points) it laid out: at c = 2, 48 MB at
# this cap.
# Where c >= 2 the panels leave H within about 1e-14 of its integral at
# any grid.  Simpson's error on H, which the exact sum and c = 1 keep, an
# h^2 term of up to 3e-8 at 10001 points on the benchmark's 70-row
# columns, is about 3e-12 here, below the 1.5e-10 that the kernel CDF's
# own error may move H by, so a finer grid would not make H more accurate.
_MAX_POINTS = 1_000_001

# grid_values keeps |grid_values(points) - self(grid)| within this on
# every grid value; where its estimate cannot, it returns self(grid).
_GRID_ERROR = 1e-12

# _spectra forms its products on runs of at most this many frequencies:
# 16 KiB a row.  At a Silverman bandwidth and 10001 points (c = 64, 161
# frequencies, or c = 32, 321, on a heavy-tailed column) that is one run.
_FREQUENCIES = 1024

# grid_values checks its values against self() on every
# ((points - 1) // _CHECK_INTERVALS)-th grid node.
_CHECK_INTERVALS = 16

# grid_values runs its FFTs on every c-th grid node, for the largest c
# here that meets its error budget at an order of at most _TOP_ORDER[c]:
# the most at which _powers(c, P) is exact (see there), and at most the 12
# that _NDTR_DERIVATIVE_MAX covers.
_COARSENING = (64, 32, 16, 8, 4, 2, 1)
_TOP_ORDER = {64: 11, 32: 12, 16: 12, 8: 12, 4: 12, 2: 12, 1: 12}

# max over z of |d^p/dz^p ndtr(z)| = |He_{p-1}(z) phi(z)| for p = 1..12,
# found on a 1e-5 grid over [-12, 12], polished, and rounded up to four
# significant digits.
_NDTR_DERIVATIVE_MAX = (
    0.3990, 0.2420, 0.3990, 0.5506, 1.197, 2.308, 5.985, 14.18, 41.89, 115.1, 377.1, 1163.0
)

# a! for the coarse rows a = 0..11, as doubles: each is exact, so a product
# with one has the bits of the product with the int.
_FACTORIALS = np.array([math.factorial(a) for a in range(len(_NDTR_DERIVATIVE_MAX))], dtype=np.float64)
_FACTORIALS.flags.writeable = False


_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_EPS = float(np.finfo(np.float64).eps)

# continuous_entropy's rule on the coarse cells: Gauss-Legendre's six
# nodes on [-1, 1] and their weights, np.polynomial.legendre.leggauss(6)
# written out (importing numpy.polynomial costs a fresh process 4-6 ms),
# and the panels that split the first cell toward 0.
_GL_NODES = (
    -0.9324695142031519, -0.6612093864662645, -0.2386191860831969,
    0.2386191860831969, 0.6612093864662645, 0.9324695142031519,
)
_GL_WEIGHTS = (
    0.17132449237917027, 0.3607615730481387, 0.46791393457269104,
    0.46791393457269104, 0.3607615730481387, 0.17132449237917027,
)
_GRADED_PANELS = 40

# The boundary correction's endpoints.
_ENDS = np.array([0.0, 1.0])
_ENDS.flags.writeable = False

_NO_BANDWIDTH = "sample standard deviation and IQR are both zero; no bandwidth exists"
_OVERFLOW = "sample standard deviation or IQR overflows float64"
_FLAT = "bandwidth so large the kernel CDF is flat on [0, 1]"


def select_bandwidth(samples) -> float:
    """Silverman's rule of thumb: 0.9 * min(std, IQR/1.34) * n^(-1/5).

    The standard deviation is the sample form (n - 1 denominator).  If one
    of the two spread measures is zero the other is used; if both are zero
    DegenerateColumnError is raised.  That happens when max equals min, and
    also when the spread underflows to zero in float64.  Where the spread
    is a few subnormals and the rule's h rounds to 0.0, InvalidBandwidthError
    is raised, as estimate_cdf raises it for a bandwidth of 0.0, and where
    either spread overflows float64, NonFiniteInputError.
    """
    # Sort so the reduction order, and hence the result bit pattern, does
    # not depend on how the caller happened to order the samples.
    x = np.sort(_real_array(samples, "samples for bandwidth selection", least=2, finite=True))
    [h] = _silverman(x[np.newaxis], (None,))
    return h


def _silverman(x: np.ndarray, names) -> list[float]:
    """select_bandwidth of each row of a C-contiguous, row-sorted (m, n) x;
    names[j] is row j's indicator, or None for a column with no name.

    Every sum runs along the contiguous last axis, where numpy adds one
    row at a time in its 1-D pairwise order, so each row gets the bits of
    its own select_bandwidth.  The choice of spread is Python float
    arithmetic, a few operations a row.  The first row without a
    bandwidth raises select_bandwidth's error, named after its indicator.
    """
    shrink = x.shape[-1] ** (-0.2)
    # A spread past the largest double is refused below: min(inf, IQR) is a wrong h.
    with np.errstate(over="ignore", invalid="ignore"):
        std = _sample_std(x).tolist()
        iqr = ((_sorted_quantile(x, 0.75) - _sorted_quantile(x, 0.25)) / 1.34).tolist()
    bandwidths = []
    for name, s, q in zip(names, std, iqr):
        if not (math.isfinite(s) and math.isfinite(q)):
            raise _named(NonFiniteInputError(_OVERFLOW), name)
        spread = min(s, q)
        if spread == 0.0:
            spread = max(s, q)
        if spread == 0.0:
            raise _named(DegenerateColumnError(_NO_BANDWIDTH), name)
        # CdfEstimate's check, which refuses the 0.0 that h underflows to
        # on a spread of a few subnormals.
        h = 0.9 * spread * shrink
        try:
            bandwidths.append(_check_positive_real(h, "bandwidth", InvalidBandwidthError))
        except InvalidBandwidthError as exc:
            raise _named(exc, name) from None
    return bandwidths


def _sample_std(x: np.ndarray) -> np.ndarray:
    """np.std(x, ddof=1, axis=-1) of a 1-D or 2-D float64 x, rows of two or more values, to the bit.

    This is np.std's own arithmetic: the pairwise sum of a row over n, the
    pairwise sum of its squared deviations over n - 1, and the square
    root.  np.std's Python wrapper costs twice that on a column of a few
    dozen values.  The deviations are formed on _row_blocks, so no
    temporary is as large as x once x holds more than one block.
    """
    n = x.shape[-1]
    rows = x.reshape(-1, n)
    sums = np.empty(len(rows))
    for block in _row_blocks(rows):
        part = rows[block]
        dev = part - np.add.reduce(part, axis=-1, keepdims=True) / n
        dev *= dev
        np.add.reduce(dev, axis=-1, out=sums[block])
    return np.sqrt(sums / (n - 1)).reshape(x.shape[:-1])


def _row_blocks(x: np.ndarray) -> list[slice]:
    """Slices of whole rows of a 2-D x, of at most _BLOCK_ELEMENTS values
    (one row at least), in order; one slice of every row unless x is
    C-contiguous.

    In a C-contiguous x each row's reduction runs along its own contiguous
    values, numpy's 1-D pairwise sum, whatever rows are next to it, so a
    sum over a block's rows has the bits of the sum over all of them.  In
    any other layout numpy may order a row's sum by its neighbours, so
    such an x is taken whole.
    """
    rows, width = x.shape
    step = max(1, _BLOCK_ELEMENTS // max(1, width)) if x.flags.c_contiguous else max(1, rows)
    return [slice(i, i + step) for i in range(0, rows, step)]


def _sorted_quantile(x: np.ndarray, q: float) -> np.ndarray:
    """np.percentile(x, 100*q, axis=-1) of rows sorted along the last axis,
    to the bit, for 0 <= q < 1.

    This is numpy's default linear method, with its arithmetic: the
    virtual index q*(n - 1), and a + d*g, or b - d*(1 - g) when g >= 1/2,
    between the order statistics a and b either side of it.
    """
    virtual = q * (x.shape[-1] - 1)
    below = math.floor(virtual)
    g = virtual - below
    a, b = x[..., below], x[..., below + 1]
    d = b - a
    return b - d * (1.0 - g) if g >= 0.5 else a + d * g


class CdfEstimate:
    """A monotone map on [0, 1] backed by kernel-smoothed sample data.

    Instances are immutable, callable on scalars or arrays, and safe to
    evaluate from multiple threads.  Samples are stored sorted so the
    kernel summation order, and therefore the value, never depends on the
    order the samples arrived in.

    The constructor judges the samples (real, 1-D, two or more, finite,
    within [0, 1]), then bandwidth, a real number, not a bool, above 0
    and finite as a double, else InvalidBandwidthError, kept as that
    double, then boundary_correction, a bool or numpy bool, else
    InvariantError: model's checks, which EvaluationOptions shares.  Its
    fields come from _setup on the one column, which refuses a bandwidth
    that leaves the estimate flat on [0, 1].  A call takes bool, integer
    or floating values, else raises InvariantError.
    """

    def __init__(self, samples, bandwidth: float, boundary_correction: bool = True):
        x = _real_array(samples, "samples for a CDF estimate", least=2, finite=True)
        if x.min() < 0.0 or x.max() > 1.0:
            raise InvariantError("samples must lie in [0, 1]")
        bandwidth = _check_positive_real(bandwidth, "bandwidth", InvalidBandwidthError)
        correct = _check_flag(boundary_correction, "boundary_correction")
        # points = 1: one column's endpoint sums take one block, whatever the grid.
        [built] = _setup(x[:, np.newaxis], (None,), bandwidth, correct, 1)
        vars(self).update(vars(built))

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
        """Mean of per-sample Gaussian CDFs at every value of x: _kernel_means of one column."""
        h = np.array([self._bandwidth])
        return _kernel_means(self._samples[np.newaxis], h, x.reshape(-1), 1).reshape(x.shape)

    def __call__(self, x):
        arr = _real_array(x, "CDF arguments")
        scalar = arr.ndim == 0
        values = self._raw(np.atleast_1d(arr))
        if self._correct:
            values -= self._raw_lo
            values /= self._span
        values.clip(0.0, 1.0, out=values)
        return float(values[0]) if scalar else values.reshape(arr.shape)

    def grid_values(self, points: int) -> np.ndarray:
        """The estimate on np.linspace(0, 1, points), by binned FFT.

        The result differs from self(grid) by about 1e-12 at most on every
        grid value (the truncation share of that is a bound, the rounding
        share an estimate that is checked on some nodes), so it is not
        bit-equal to it, nor guaranteed monotone below that level.  It
        does not depend on sample order.

        The FFTs run on a coarse grid of step D = c*d, where d = 1/(points
        - 1) is the grid step, and c and the order P come from _plan, which
        may plan the exact self(grid) instead.  Each sample x sits at its
        nearest coarse node k with offset f = x/D - k in [-1/2, 1/2], and
        each grid node m at its nearest coarse node M with offset s = m/c -
        M in [-1/2, 1/2).  With U = D/h and j = M - k, (m*d - x)/h = (j -
        (f - s))*U, and Taylor's theorem in f - s gives

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
        these rows at M as coefficients, one product of the rows with a
        table of the exact powers (-s)^a (_fine_values).  The coarse rows
        are finished before it: row a carries 1/(n * a!) and the
        correction's 1/span, and row 0 its offset -raw(0)/span, so the
        grid values need only the final clip.  At
        c = 1 only row 0 is left, the plain binned estimator (Silverman
        1982, Algorithm AS 176; Wand 1994) with its binning error removed
        by the expansion; for c > 1 it is the one-dimensional grid form of
        the fast Gauss transform (Greengard and Strain 1991).  K_0 = ndtr
        less its step at 0 (odd, and small where |j*U| is large); the
        step's share is the exact running count of samples, added to row
        0.

        For c > 1 the scratch is the larger of three (P, size/2 + 1)
        complex blocks, while the transforms are formed (the products
        that multiply them take at most 1024 frequencies a row), and one
        (nodes, c) block of doubles with the coarse rows, while the fine
        values are formed: they are a view of that block, in grid order.
        At c = 1 each order's kernel and moment rows, which fill those
        blocks for c > 1, are transformed as they are written
        (_binned_spectrum): one kernel row of size doubles, three rows of
        size/2 + 1 complex values (its transform, the moment row's and
        their running sum) and seven rows of nodes doubles (z, K_0, phi,
        two He rows, the counts and a moment row), about 140 bytes a grid
        point at 100001 points where all P rows at once took 607.

        As the rounding share is only estimated, the values on every
        ((points - 1) // 16)-th node (17 nodes at 10001 points) are
        compared with self() there; if one is off by more than 1e-12,
        self(grid) is returned too.  On a node with s = 0 every row but
        row 0 drops out, so every other checked node is moved to a
        midpoint between coarse nodes (s = -1/2): otherwise, when c
        divides the check stride (points = 4097 and c = 16, 32 or 64), no
        checked node would see rows 1 and up.  It is a spot check: it can
        miss an error that stays near the samples at c = 1 (a 1e-9 skew of
        every kernel row at 4 grid steps passed it on 9 of 40 uniform
        columns).
        """
        _check_count(points, "grid points")
        if not 2 <= points <= _MAX_POINTS:
            raise InvariantError(f"grid points must be from 2 to {_MAX_POINTS}, got {points}")
        c, rows = self._coarse_rows(points)
        if rows is not None:
            values = _fine_values(rows, c, points)
            del rows
            values.clip(0.0, 1.0, out=values)
            check, checked = _checked_nodes(points, c)
            if self._near_exact(values[check], checked):
                return values
        return self(np.linspace(0.0, 1.0, points))

    def _coarse_rows(self, points: int, least: int = 1):
        """grid_values' plan and coarse phase: (c, the finished coarse rows),
        or (c, None), with no array work past the plan, where the plan is
        the exact sum (c = 0) or takes a c below least.
        """
        # The factorials of C(p, a) = p!/(a! (p-a)!) are folded in: f^q/q!
        # into the moments, p! into the kernels, 1/a! into the rows.  The
        # plan is unpacked, not held, and each array is dropped once used
        # (run_pipeline holds every column's samples throughout, and this
        # keeps its peak below what one column at a time held); for c > 1
        # the kernels' transform is taken before the moments' rows exist.
        kind, c, order, nodes, size, step, _, _, z, step_free = _plan(points, self._bandwidth, self._span)
        if kind != "fft" or c < least:
            return c, None
        offset = self._samples * ((points - 1) / c)
        node = np.rint(offset).astype(np.intp)  # k
        offset -= node  # f
        counts = np.bincount(node, minlength=nodes).astype(np.float64)
        if c > 1:
            spectra = _kernel_spectra(z, step_free, step, order, size)
            del z, step_free
            moments = _moment_spectra(node, offset, counts, order, size)
            del node, offset
            spectra = _spectra(moments, spectra)
            del moments
        else:
            spectra = _binned_spectrum(z, step_free, step, node, offset, counts, order, size)
            del z, step_free, node, offset
        rows = np.fft.irfft(spectra, size, axis=1)[:, :nodes].copy()
        del spectra
        rows[0] += counts.cumsum() - 0.5 * counts
        del counts
        n = self._samples.size
        # Finish the rows, not the grid: row a carries 1/(n * a! * span),
        # and row 0, the constant term, the correction's offset.
        span = self._span
        rows /= ((n * span) * _FACTORIALS[: len(rows)])[:, np.newaxis]
        if self._correct:
            rows[0] -= self._raw_lo / span
        return c, rows

    def _near_exact(self, values: np.ndarray, nodes: np.ndarray) -> bool:
        """Whether values, taken from the coarse rows at nodes, are all within
        _GRID_ERROR of self(nodes): the check on the checked grid nodes."""
        off = values - self(nodes)
        return bool(np.abs(off, out=off).max() <= _GRID_ERROR)

    def _panel_values(self, points: int):
        """phi at the nodes of continuous_entropy's Gauss-Legendre panels and
        the panels' weights, or None where grid_values' plan for points is
        the exact sum or c = 1.

        The panels are the coarse cells [M*D, (M+1)*D], D = c/(points - 1),
        six nodes each (_panels): a node x reads coarse row M = rint(x/D)
        at offset s = x/D - M in (-1/2, 1/2), the polynomial in -s that
        grid_values evaluates on the grid nodes.  Every full cell but the
        first is one (L, 6) product with an interior cell's table, and
        only the first cell's graded panels, the last cell's cut one and
        the checked grid nodes gather their rows, so no array is as large
        as the coarse phase's.  The checked values have grid_values' bits
        and go through its check; where one is off, the values are
        self(nodes), one exact sum at the panel nodes.
        """
        c, rows = self._coarse_rows(points, least=2)
        if rows is None:
            return None
        layout = _panels(c, points)
        order, cells, gathered = len(rows), layout.cells, layout.index.size
        # Coarse row R's six values are cell R - 1's upper half, at s < 0,
        # then cell R's lower half, so from values[gathered] on each six
        # are one interior cell's in order.  The first three (row 1's, in
        # the graded first cell) fall on the gathered slots, which are
        # written after them, and the last three (row L's, past the last
        # full cell) on three spare ones.
        values = np.empty(gathered + 6 * cells - 3)
        block = values[gathered - 3 :].reshape(cells, 6)
        np.einsum("am,aq->mq", rows[:, 1 : cells + 1], layout.table[:order, :6], out=block)
        np.einsum("am,am->m", rows[:, layout.index], layout.table[:order, 6:], out=values[:gathered])
        del rows
        values.clip(0.0, 1.0, out=values)
        checked = _checked_nodes(points, c)[1]
        if self._near_exact(values[: checked.size], checked):
            return values[checked.size : -3], layout.weights
        return self(layout.nodes), layout.weights

    def __repr__(self) -> str:
        return (
            f"CdfEstimate(n={self._samples.size}, bandwidth={self._bandwidth:.6g}, "
            f"boundary_correction={self._correct})"
        )


class _Plan(NamedTuple):
    """How grid_values finds a column's values: by FFTs at coarsening c and
    Taylor order P (kind "fft"), or by the exact sum ("exact", all else default)."""

    kind: str
    c: int = 0
    order: int = 0
    nodes: int = 0
    size: int = 0  # the FFT length
    step: float = 0.0  # U = c*u, the coarse step in bandwidths
    truncation: float = 0.0  # the remainder's bound at this order
    rounding: float = 0.0  # the estimate that the order met too
    z: np.ndarray | None = None  # j*U for j = 0..nodes-1
    step_free: np.ndarray | None = None  # K_0 at z


def _plan(points: int, bandwidth: float, span: float) -> _Plan:
    """grid_values' plan for points nodes, bandwidth and correction span (1.0 if off).

    c is the largest factor in _COARSENING below points, and P <=
    _TOP_ORDER[c] the least order, whose remainder bound plus a rounding
    estimate is at most 1e-12 of the span.  A rung is skipped before any
    array is formed where its radius is 1 or more, or where the bound at
    its top order alone misses the budget: the bound falls with the order
    below radius 1, and the estimate only adds to it.  Where no rung has
    such an order, the plan is the exact sum: for h below about 1.7 grid
    steps, and, with the correction on, above about 2.5, where dividing by
    the small span magnifies rounding.  The estimate is
    eps*log2(size)*||K_0||_2 for the transforms (Higham 2002, section
    24.1), on the z = j*U and K_0 rows the kernel rows start from, plus
    2*eps for each of 12 orders: a grid value, a sum of P products with
    exact powers, rounds by about P*eps times its terms' summed magnitudes
    (Higham 2002, section 3.1), about the value.  The norm is a numpy
    reduction: OpenBLAS hands a dot of over 10000 values to its worker
    threads, so a dot's bits depend on their count.
    """
    u = 1.0 / ((points - 1) * bandwidth)
    allowed = _GRID_ERROR * span
    for c in _COARSENING:
        radius = c * u if c > 1 else u / 2.0
        # First: at radius 1 every bound is at least 2.4e-6, and at a huge
        # one z may overflow and radius**P raises OverflowError.
        if c >= points or radius >= 1.0:
            continue
        top = _TOP_ORDER[c]
        if _truncation(radius, top) > allowed:
            continue
        nodes = (points - 1 + c // 2) // c + 1
        size = _fft_size(2 * nodes - 1)
        # j >= 0 only: _kernel_rows mirrors each row into the negative j.
        z = np.arange(nodes) * (c * u)
        step_free = -_ndtr()(-z)
        step_free[0] = 0.0
        norm = math.sqrt(2.0 * np.add.reduce(step_free * step_free))  # not np.dot: see above
        rounding = _EPS * (math.log2(size) * norm + 2.0 * len(_NDTR_DERIVATIVE_MAX))
        for order in range(1, top + 1):
            truncation = _truncation(radius, order)
            if truncation <= allowed - rounding:
                return _Plan("fft", c, order, nodes, size, c * u, truncation, rounding, z, step_free)
    return _Plan("exact")


def _truncation(radius: float, order: int) -> float:
    """The Taylor remainder's bound at this order: radius**P/P! * max|ndtr^(P)|."""
    return radius**order / math.factorial(order) * _NDTR_DERIVATIVE_MAX[order - 1]


@functools.cache
def _ndtr():
    """scipy.special.ndtr, imported on the first call: only continuous runs pay its import."""
    from scipy.special import ndtr

    return ndtr


@functools.lru_cache(maxsize=64)
def _checked_nodes(points: int, c: int) -> tuple[np.ndarray, np.ndarray]:
    """The indices of grid_values' checked nodes and the nodes, read-only.

    Every ((points - 1) // _CHECK_INTERVALS)-th grid node, and every other
    one of those moved to a midpoint between coarse nodes, where s = -1/2
    (nowhere when c = 1): see grid_values' docstring.
    """
    check = np.arange(0, points, max(1, (points - 1) // _CHECK_INTERVALS))
    mid = check[1::2] - check[1::2] % c + c // 2
    check[1::2] = np.where(mid < points, mid, mid - c)
    nodes = np.linspace(0.0, 1.0, points)[check]
    check.flags.writeable = nodes.flags.writeable = False
    return check, nodes


class _Panels(NamedTuple):
    """continuous_entropy's Gauss-Legendre panels on the coarse cells of
    grid_values' plan at coarsening c and points grid nodes (_panels)."""

    cells: int  # L, the full coarse cells in [0, 1]
    index: np.ndarray  # each gathered value's coarse row: the checked grid nodes', then the edge panels'
    table: np.ndarray  # (12, 6 + gathered): (-s)^a at an interior cell's six nodes as read, then at each gathered value
    nodes: np.ndarray  # the panel nodes x, in the order _panel_values returns their values
    weights: np.ndarray  # and their weights


@functools.lru_cache(maxsize=16)
def _panels(c: int, points: int) -> _Panels:
    """The panels of _panel_values at coarsening c >= 2, all arrays read-only.

    In units of the coarse step D = c/(points - 1) the full cells are [M,
    M + 1], M < L = (points - 1) // c, and a partial one [L, (points - 1)/c]
    ends at x = 1.  Each panel carries the six-point rule.  The first cell
    is split geometrically toward 0, [2^-(k+1), 2^-k] for k < 39 and [0,
    2^-39], where phi ln phi is about a * x ln x when the correction pins
    phi(0) = 0; the partial cell, where there is one, is one panel.  A
    node u reads row M = rint(u) at s = u - M, and a checked grid node m =
    c*M - c//2 + q reads row M at -s = (c//2 - q)/c, whose powers np.vander
    forms as _powers does: their first P rows are _powers(c, P)'s bits.
    The weights are positive and sum to 1 within a few ulps.
    """
    t, w = np.array(_GL_NODES), np.array(_GL_WEIGHTS)
    step = c / (points - 1)
    cells = (points - 1) // c
    lo = np.ldexp(1.0, -np.arange(1, _GRADED_PANELS + 1))
    lo[-1] = 0.0
    hi = np.ldexp(1.0, -np.arange(_GRADED_PANELS))
    if cells * c < points - 1:
        lo, hi = np.r_[lo, cells], np.r_[hi, (points - 1) / c]
    half = (hi - lo) / 2.0
    edge = ((lo + half)[:, np.newaxis] + half[:, np.newaxis] * t).reshape(-1)
    check = _checked_nodes(points, c)[0] + c // 2
    interior = np.arange(1, cells)[:, np.newaxis] + (1.0 + t) / 2.0
    table = np.vander(
        # Row R's interior nodes: cell R - 1's upper half (s < 0), then
        # cell R's lower half (s > 0); then the gathered values'.
        np.r_[(1.0 - t[3:]) / 2.0, -(1.0 + t[:3]) / 2.0, (c // 2 - check % c) / c, np.rint(edge) - edge],
        len(_NDTR_DERIVATIVE_MAX),
        increasing=True,
    ).T.copy()
    layout = _Panels(
        cells,
        np.r_[check // c, np.rint(edge)].astype(np.intp),
        table,
        np.r_[edge, interior.reshape(-1)] * step,
        np.r_[(half[:, np.newaxis] * w).reshape(-1), np.tile(w / 2.0, cells - 1)] * step,
    )
    for array in layout[1:]:
        array.flags.writeable = False
    return layout


def _kernel_means(x: np.ndarray, bandwidths: np.ndarray, nodes: np.ndarray, depth: int):
    """The raw estimate of every column at the same nodes: out[j, i] is
    the mean over x[j] of ndtr((nodes[i] - x[j]) / bandwidths[j]).

    x is a C-contiguous, row-sorted (m, n) array and nodes a 1-D array of
    k values.  The kernel terms fill one reused block of up to depth
    columns by as many of the nodes as _BLOCK_ELEMENTS allows.  Each mean
    is one row's sum along the contiguous last axis, numpy's 1-D pairwise
    sum, so neither the block nor m changes a bit.
    """
    ndtr = _ndtr()
    m, n = x.shape
    k = nodes.size
    width = max(1, min(k, _BLOCK_ELEMENTS // n))
    depth = min(m, depth)
    out = np.empty((m, k))
    scratch = np.empty((depth, width, n))
    # A tiny bandwidth can overflow z to +-inf; ndtr(+-inf) is exactly 1 or
    # 0, the kernel CDF's limit there, so that is exact.
    with np.errstate(over="ignore"):
        for j in range(0, m, depth):
            columns = slice(j, j + depth)
            for i in range(0, k, width):
                part = slice(i, i + width)
                z = scratch[: min(depth, m - j), : min(width, k - i)]
                np.subtract(nodes[part, np.newaxis], x[columns, np.newaxis], out=z)
                z /= bandwidths[columns, np.newaxis, np.newaxis]
                # np.mean's sum, and below its division by n: the same bits.
                np.add.reduce(ndtr(z, out=z), axis=2, out=out[columns, part])
    out /= n
    return out


def _setup(columns: np.ndarray, names, bandwidth, correct: bool, points: int):
    """Set up the (n, m) normalized matrix's columns together, one numpy
    call a step for all of them: Silverman's bandwidths (where bandwidth
    is None) and the correction's endpoint sums.  Returns the
    CdfEstimates, which hold the bandwidths as checked doubles.

    The public constructor, CdfEstimate(samples, bandwidth, correct), is
    its one-column case, so every estimate is set up here.  The columns
    are copied into one C-contiguous (m, n) array sorted along its rows,
    which the estimates share, and every sum runs along a contiguous row,
    so each column of m gets the bits of its own one-column call, and of
    select_bandwidth where bandwidth is None.  A sort of the transposed
    view would stay Fortran-ordered, and numpy then sums down its columns
    in another order.  A block of the endpoint sums holds at most 2 *
    points doubles, 16 bytes a grid point, as much as the two grid-sized
    arrays that one column's entropy holds (see _MAX_POINTS), or one
    column's block if that is larger.  A fault raises what the
    one-column calls raise, named after the first faulty column of the
    first step that finds one.
    """
    x = np.array(columns.T, order="C")
    x.sort(axis=1)
    x.flags.writeable = False
    m, n = x.shape
    if bandwidth is None:
        h = np.array(_silverman(x, names))
    else:
        h = np.full(m, _check_positive_real(bandwidth, "bandwidth", InvalidBandwidthError))
    if correct:
        raw_lo, raw_hi = _kernel_means(x, h, _ENDS, max(1, points // n)).T
        span = raw_hi - raw_lo
    else:
        raw_lo, span = np.zeros(m), np.ones(m)
    estimates = []
    for name, row, hj, lo, sp in zip(names, x, h.tolist(), raw_lo.tolist(), span.tolist()):
        if sp <= 0.0:
            raise _named(InvalidBandwidthError(_FLAT), name)
        cdf = CdfEstimate.__new__(CdfEstimate)
        cdf._samples, cdf._bandwidth, cdf._correct, cdf._raw_lo, cdf._span = row, hj, bool(correct), lo, sp
        estimates.append(cdf)
    return tuple(estimates)


def _moment_rows(node, offset, counts, order):
    """Yield moment row q, f^q/q! summed per coarse node, for q = 0..order-1."""
    yield counts
    power = np.ones(offset.size)
    for q in range(1, order):
        power *= offset
        power /= q
        yield np.bincount(node, weights=power, minlength=counts.size)


def _kernel_rows(z, step_free, step, rows):
    """Write kernel row p, K_p * p! at z = j*U, into the p-th of rows (circular
    rows of length size, zero between their two halves) and yield it.

    Row 0 is step_free; row p >= 1 is (-step**p * He_{p-1}(z)) * phi(z),
    He_{p-1} by its recurrence and step**p as step * step * ..., left to
    right.  K_0 is odd in j, and K_p, a multiple of He_{p-1} phi, has the
    parity of p - 1, so each row is formed for j >= 0 and mirrored into
    the negative j that wrap to its end.  A yielded row is not read again,
    so the caller may change it or pass the same row back.
    """
    nodes = z.size
    for p, row in enumerate(rows):
        half = row[:nodes]
        if p == 0:
            half[...] = step_free
        else:
            if p == 1:
                phi = np.exp(-0.5 * z * z) * _INV_SQRT_2PI
                he_prev, he = np.zeros(nodes), np.ones(nodes)  # He_{-1}, He_0
                scale = 1.0
            else:  # He_{p-1} = z He_{p-2} - (p-2) He_{p-3}
                np.multiply(z, he, out=half)
                he_prev *= p - 2
                np.subtract(half, he_prev, out=he_prev)
                he, he_prev = he_prev, he
            scale *= step
            np.multiply(he, -scale, out=half)
            half *= phi
        np.multiply(half[:0:-1], (-1.0) ** (p + 1), out=row[row.size - nodes + 1 :])
        yield row


def _moment_spectra(node, offset, counts, order, size) -> np.ndarray:
    """rfft, at length size, of the (P, nodes) block of _moment_rows."""
    moments = np.empty((order, counts.size))
    for q, moment in enumerate(_moment_rows(node, offset, counts, order)):
        moments[q] = moment
    del moment  # not held through the transform
    return np.fft.rfft(moments, size, axis=1)


def _kernel_spectra(z, step_free, step, order, size) -> np.ndarray:
    """rfft of the (P, size) block of _kernel_rows."""
    kernels = np.zeros((order, size))
    for _ in _kernel_rows(z, step_free, step, kernels):
        pass
    return np.fft.rfft(kernels, axis=1)


def _binned_spectrum(z, step_free, step, node, offset, counts, order, size) -> np.ndarray:
    """Row 0 of _spectra on the blocks of _kernel_spectra and _moment_spectra,
    sum_p moments[p] * kernels[p], formed one order p at a time: the one
    row that grid_values needs at c = 1, as a (1, size/2 + 1) block.

    The blocks' rows p come from their writers, the kernel row into one
    reused row, and each is transformed on its own, which gives the
    batched rfft's bits; the products are added from p = 0 on, as _spectra
    adds them.  So one kernel row, one moment row, their two transforms
    and the sum are held rather than three (P, size/2 + 1) complex blocks.
    """
    kernels = _kernel_rows(z, step_free, step, itertools.repeat(np.zeros(size), order))
    total = None
    for kernel, moment in zip(kernels, _moment_rows(node, offset, counts, order)):
        product = np.fft.rfft(kernel)
        np.multiply(np.fft.rfft(moment, size), product, out=product)
        if total is None:
            total = product[np.newaxis]
        else:
            total[0] += product
    return total


def _fine_values(rows: np.ndarray, c: int, points: int) -> np.ndarray:
    """The grid values sum_a (-s)^a * rows[a] from grid_values' finished coarse rows.

    Grid node m = c*M - c//2 + q, q < c, has offset s = (q - c//2)/c, so
    the values are the (M, q) product of rows with _powers(c, P): numpy's
    own einsum loop, without BLAS, adds its terms from a = 0 on.  It
    writes them into one C-ordered (nodes, c) block, which holds them in
    grid order, so the values are a view of it and no copy is made.  At
    c = 1, with its one row, the table is [[1.0]]: each value is rows[0, M].
    """
    fine = np.empty((rows.shape[1], c))
    np.einsum("am,aq->mq", rows, _powers(c, len(rows)), out=fine)
    return fine.reshape(-1)[c // 2 : c // 2 + points]


@functools.lru_cache(maxsize=64)
def _powers(c: int, order: int) -> np.ndarray:
    """The read-only, C-ordered (order, c) table of (-s)^a = k**a / c**a, |k| <= c/2.

    _fine_values needs it exact.  Dividing by c, a power of two, is exact,
    so an entry is exact where the odd part of k**a is below 2**53; the
    largest odd |k| is c/2 - 1.  So the table is exact to order 12 for
    c <= 32, and to order 11 at c = 64, where 29**11 and 31**11 round:
    _TOP_ORDER caps _plan's orders there.
    """
    table = np.vander((c // 2 - np.arange(c)) / c, order, increasing=True).T.copy()
    table.flags.writeable = False
    return table


def _spectra(moments: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Row a is sum_{p>=a} moments[p - a] * kernels[p], for every a < P.

    Row a is written over kernels[a], which no later row reads, and
    kernels is returned, so no output block is allocated.  The
    rows are formed on near-equal runs of at most _FREQUENCIES
    frequencies, so the product, the one temporary, holds at most that
    many a row rather than a third (P, size/2 + 1) block.
    """
    order, length = kernels.shape
    runs = -(-length // _FREQUENCIES)
    bounds = [length * r // runs for r in range(runs + 1)]
    for a in range(order):
        for lo, hi in zip(bounds, bounds[1:]):
            # Same-shape operands, so the product is the only temporary (a
            # broadcast one allocates buffers too), and the sum down axis 0
            # adds its terms in p order: runs of two or more frequencies
            # keep axis 1 the inner loop, so no run sums pairwise.
            np.add.reduce(
                moments[: order - a, lo:hi] * kernels[a:, lo:hi], axis=0, out=kernels[a, lo:hi]
            )
    return kernels


def _fft_size(minimum: int) -> int:
    """Least 2**a * c >= minimum with c in (1, 3, 5), where numpy's FFT is fastest."""
    return min(c << (-(-minimum // c) - 1).bit_length() for c in (1, 3, 5))


def estimate_cdf(samples, bandwidth: float, boundary_correction: bool = True) -> CdfEstimate:
    """Build the Gaussian-kernel CDF estimate of a normalized sample set."""
    return CdfEstimate(samples, bandwidth, boundary_correction)
