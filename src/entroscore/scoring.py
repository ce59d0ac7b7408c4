"""Composite scores, rankings, descriptive statistics, and the end-to-end
evaluation pipeline.

The integrated score of an entity is the weight-blended sum of its
normalized indicators, magnified onto [0, scale] (scale defaults to 100
so scores read as percentages).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .density import _EPS, CdfEstimate, _row_blocks, _sample_std, _setup
from .entropy import (
    QuadratureConfig,
    _check_quadrature,
    _check_weight_rule,
    compute_weights,
    continuous_entropy,
    discrete_entropy,
)
from .errors import DimensionMismatchError, InvariantError, NonFiniteInputError

# Not called: normalize_matrix holds the pipeline's one column check, and
# density._setup picks the bandwidths and builds the estimates.  These
# names stay importable here because bench/tracer.py hooks them here.
from .density import estimate_cdf, select_bandwidth  # noqa: F401
from .ingest import validate  # noqa: F401
from .model import (
    DescriptiveStats,
    EntropyVector,
    EvaluationReport,
    NormalizedMatrix,
    RawDataset,
    WeightVector,
    _check_count,
    _check_flag,
    _check_positive_real,
    _real_array,
)
from .normalize import normalize_matrix

__all__ = [
    "EvaluationOptions",
    "PipelineRun",
    "composite_scores",
    "rank",
    "describe",
    "run_pipeline",
    "evaluate",
]

METHODS = ("continuous", "discrete")

# Where max|score| lies outside this band, describe takes the moments on
# scores / max|score|.  Inside it n * (2 * max)**4 cannot overflow, and
# deviations down to eps * mean keep normal fourth powers.
_PLAIN_SCORES = (1e-60, 1e60)


@dataclass(frozen=True)
class EvaluationOptions:
    """Knobs for one evaluation run.

    bandwidth None selects Silverman's rule per indicator; a positive
    real fixes one bandwidth for every indicator.  bandwidth and scale
    must be real numbers, not bools, above 0 and finite as a double, and
    boundary_correction a bool or numpy bool: model's checks, which every
    taker of these arguments shares, raise InvariantError otherwise, as
    does a quadrature that is not a QuadratureConfig.  threads must be an
    int of at least 1 and has no effect: every column runs on the calling
    thread.  It stays accepted so that existing callers and command lines
    keep working.
    """

    method: str = "continuous"
    weight_rule: str = "paper"
    bandwidth: float | None = None
    boundary_correction: bool = True
    quadrature: QuadratureConfig = field(default_factory=QuadratureConfig)
    scale: float = 100.0
    threads: int = 1

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise InvariantError(f"unknown method {self.method!r}; expected one of {METHODS}")
        _check_weight_rule(self.weight_rule)
        if self.bandwidth is not None:
            _check_positive_real(self.bandwidth, "bandwidth")
        _check_flag(self.boundary_correction, "boundary_correction")
        _check_quadrature(self.quadrature)
        _check_positive_real(self.scale, "scale")
        _check_count(self.threads, "threads")
        if self.threads < 1:
            raise InvariantError("threads must be >= 1")


def composite_scores(matrix, weights, scale: float = 100.0) -> np.ndarray:
    """Integrated scores F_i = scale * sum_j w_j * s_ij.

    matrix may be a NormalizedMatrix or a bare 2-D array; weights a
    WeightVector or a bare vector; scale a real number, not a bool, above
    0 and finite as a double, else InvariantError.  A bare matrix or
    vector holding NaN or inf raises NonFiniteInputError, as do bare ones
    with a weighted sum past the largest double.  Scores are clipped into
    [0, scale] to absorb last-ulp rounding of the weight sum, and a scale
    times a sum above 1 that overflows.
    """
    scale = _check_positive_real(scale, "scale")
    if isinstance(matrix, NormalizedMatrix):
        values = matrix.values
    else:
        values = _real_array(matrix, "the matrix", finite=True)
    if isinstance(weights, WeightVector):
        w = weights.weights
    else:
        w = _real_array(weights, "the weight vector", finite=True)
    if values.ndim != 2 or w.ndim != 1 or values.shape[1] != w.size:
        raise DimensionMismatchError(
            f"matrix has {values.shape[1] if values.ndim == 2 else '?'} columns "
            f"but weight vector has {w.size}"
        )
    # np.sum(values * w, axis=1), whose product block is as large as the
    # matrix, on _row_blocks.  Not values @ w: BLAS orders its sums.
    sums = np.empty(len(values))
    with np.errstate(over="ignore", invalid="ignore"):
        for block in _row_blocks(values):
            np.add.reduce(values[block] * w, axis=1, out=sums[block])
        scores = scale * sums
    if not np.isfinite(sums).all():
        raise NonFiniteInputError("a weighted sum of the matrix is past the largest double")
    return np.clip(scores, 0.0, scale)


def rank(scores) -> np.ndarray:
    """Indices sorted by score descending; ties keep input order.

    scores must be a 1-D list, else InvariantError, of finite numbers,
    else NonFiniteInputError: describe's checks.
    """
    return np.argsort(-_real_array(scores, "scores for rank", least=0, finite=True), kind="stable")


def describe(scores) -> DescriptiveStats:
    """Descriptive statistics of a score list.

    Standard deviation uses the n - 1 denominator; skewness and excess
    kurtosis carry the usual small-sample bias corrections and are NaN
    whenever n < 4 or the variance is zero.  Like scipy.stats, the
    variance counts as zero when the second central moment is at most
    (eps * mean)**2, where it is rounding noise of the mean.  When a
    nonzero max|score| lies outside [1e-60, 1e60], where fourth powers can
    overflow or squared deviations underflow, the moments are taken on
    scores / max|score| and the mean and standard deviation scaled back.
    A NaN or infinite score raises NonFiniteInputError, as does a standard
    deviation past the largest double (scores of both signs near it); a
    list that is not 1-D, or is empty, raises InvariantError.
    """
    arr = _real_array(scores, "scores for describe", least=1, finite=True)
    n = arr.size
    unit = arr
    magnitude = float(np.abs(arr).max())
    low, high = _PLAIN_SCORES
    if 0.0 < magnitude and not low <= magnitude <= high:
        unit = arr / magnitude
    # np.mean's and np.std's arithmetic without their Python wrappers,
    # which cost more than the sums on a few dozen scores: the pairwise
    # sum over n, and density._sample_std.
    mean = np.add.reduce(unit) / n
    std_dev = float(_sample_std(unit)) if n >= 2 else float("nan")
    skewness = kurtosis = float("nan")
    if n >= 4 and std_dev > 0.0:
        dev = unit - mean
        m2 = np.add.reduce(dev**2) / n
        if m2 > (_EPS * mean) ** 2:
            # Same operations in the same order as scipy.stats.skew and
            # kurtosis with bias=False, so the bits match; this includes
            # the (g + 3) - 3 of its excess kurtosis.
            m3 = np.add.reduce(dev**2 * dev) / n
            m4 = np.add.reduce((dev**2) ** 2) / n
            skewness = float(((n - 1.0) * n) ** 0.5 / (n - 2.0) * m3 / m2**1.5)
            g = 1.0 / (n - 2) / (n - 3) * ((n**2 - 1.0) * m4 / m2**2.0 - 3 * (n - 1) ** 2.0)
            kurtosis = float(g + 3.0 - 3.0)
    if unit is not arr:
        mean *= magnitude
        std_dev *= magnitude
        if math.isinf(std_dev):
            raise NonFiniteInputError("describe needs scores whose standard deviation is a finite double")
    return DescriptiveStats(
        mean=float(mean),
        median=_median(arr),
        std_dev=std_dev,
        kurtosis=kurtosis,
        skewness=skewness,
        smallest=float(arr.min()),
        largest=float(arr.max()),
        obs=n,
    )


def _median(arr: np.ndarray) -> float:
    """np.median of a 1-D array of finite doubles, to the bit: its
    partition, with the last index that np.median checks for NaN, and
    np.mean's sum of the middle one or two values over their count.
    Where that sum overflows, np.median's inf, the midpoint is taken as
    the sum of their halves."""
    half = arr.size // 2
    kth = [half, -1] if arr.size % 2 else [half - 1, half, -1]
    middle = np.partition(arr, kth)[kth[0] : half + 1]
    with np.errstate(over="ignore"):
        median = float(np.add.reduce(middle) / middle.size)
    # Two middle values whose sum overflows: halve them first, which is exact.
    return float(np.add.reduce(middle / middle.size)) if math.isinf(median) else median


@dataclass(frozen=True, eq=False)
class PipelineRun:
    """Report plus the intermediate products the CLI can dump for audit; a
    bandwidth is its CdfEstimate's checked double (2 reads back as 2.0)."""

    report: EvaluationReport
    normalized: NormalizedMatrix
    bandwidths: tuple[float, ...] | None
    cdfs: tuple[CdfEstimate, ...] | None


def run_pipeline(dataset: RawDataset, options: EvaluationOptions | None = None) -> PipelineRun:
    """Normalize, estimate, weigh, and score a dataset, keeping intermediates.

    Every column runs on the calling thread, whatever options.threads
    says.  Continuous columns are first set up together, once: their
    bandwidths and CDF estimates (density._setup).  Then continuous_entropy
    runs on each column in turn, and the results are bit-identical to
    select_bandwidth, estimate_cdf and continuous_entropy on each column.
    A fault names its indicator: normalize_matrix names a column it
    cannot normalize, and _setup one it cannot estimate.  A normalized
    column is finite, with min 0 and max 1, so no entropy of it can fail.
    """
    options = options or EvaluationOptions()
    normalized = normalize_matrix(dataset)
    names = dataset.schema.names
    m = len(names)
    if options.method == "discrete":
        values = [discrete_entropy(normalized.values[:, j]) for j in range(m)]
        bandwidths = cdfs = None
    else:
        points = options.quadrature.points
        cdfs = _setup(normalized.values, names, options.bandwidth, options.boundary_correction, points)
        bandwidths = tuple(cdf.bandwidth for cdf in cdfs)
        values = [continuous_entropy(cdf, options.quadrature) for cdf in cdfs]

    entropies = EntropyVector(np.array(values, dtype=np.float64))
    weights = compute_weights(entropies, options.weight_rule)
    scores = composite_scores(normalized, weights, options.scale)
    report = EvaluationReport(
        entropies=entropies,
        weights=weights,
        scores=scores,
        ranking=rank(scores),
        stats=describe(scores),
        scale=options.scale,
    )
    return PipelineRun(report, normalized, bandwidths, cdfs)


def evaluate(dataset: RawDataset, options: EvaluationOptions | None = None) -> EvaluationReport:
    """Run the full pipeline and return just the evaluation report."""
    return run_pipeline(dataset, options).report
