"""Composite scores, rankings, descriptive statistics, and the end-to-end
evaluation pipeline.

The integrated score of an entity is the weight-blended sum of its
normalized indicators, magnified onto [0, scale] (scale defaults to 100
so scores read as percentages).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .density import CdfEstimate, _below_fast_path, estimate_cdf, select_bandwidth
from .entropy import (
    WEIGHT_RULES,
    QuadratureConfig,
    _check_quadrature,
    compute_weights,
    continuous_entropy,
    discrete_entropy,
)
from .errors import DimensionMismatchError, EntroscoreError, InvariantError

# Not called: normalize_matrix holds the pipeline's one column check.  The
# name stays importable here because bench/tracer.py hooks scoring.validate.
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

# _pool_pays starts the continuous-column pool where rows + points /
# _POOL_POINTS_PER_ROW reaches _POOL_ROWS: from 550 rows at 10001 points,
# 730 at 1001, and at any length from 37501 points.  Fitted to the
# break-even points of the README's 2-core table.
_POOL_POINTS_PER_ROW = 50
_POOL_ROWS = 750

# Above this max|score|, describe takes the moments on scores / max|score|:
# squares of such scores overflow float64.
_HUGE_SCORE = 1e150


@dataclass(frozen=True)
class EvaluationOptions:
    """Knobs for one evaluation run.

    bandwidth None selects Silverman's rule per indicator; a positive
    real fixes one bandwidth for every indicator.  bandwidth and scale
    must be real numbers, not bools, above 0 and finite as a double, and
    boundary_correction a bool or numpy bool: model's checks, which every
    taker of these arguments shares, raise InvariantError otherwise, as
    does a quadrature that is not a QuadratureConfig.  threads, an int,
    caps the number of continuous indicator columns processed concurrently.
    run_pipeline starts a pool of that size only where it pays: for long
    columns, fine quadrature grids or bandwidths on the exact kernel-CDF
    path, and otherwise runs the columns one after another, as it always
    does discrete ones.  Results are identical for any thread count.
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
        if self.weight_rule not in WEIGHT_RULES:
            raise InvariantError(
                f"unknown weight rule {self.weight_rule!r}; expected one of {WEIGHT_RULES}"
            )
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
    0 and finite as a double, else InvariantError.  Scores are clipped
    into [0, scale] to absorb last-ulp rounding of the weight sum.
    """
    scale = _check_positive_real(scale, "scale")
    values = matrix.values if isinstance(matrix, NormalizedMatrix) else np.asarray(matrix, dtype=np.float64)
    w = weights.weights if isinstance(weights, WeightVector) else np.asarray(weights, dtype=np.float64)
    if values.ndim != 2 or w.ndim != 1 or values.shape[1] != w.size:
        raise DimensionMismatchError(
            f"matrix has {values.shape[1] if values.ndim == 2 else '?'} columns "
            f"but weight vector has {w.size}"
        )
    scores = scale * np.sum(values * w, axis=1)
    return np.clip(scores, 0.0, scale)


def rank(scores) -> np.ndarray:
    """Indices sorted by score descending; ties keep input order."""
    arr = np.asarray(scores, dtype=np.float64)
    return np.argsort(-arr, kind="stable")


def describe(scores) -> DescriptiveStats:
    """Descriptive statistics of a score list.

    Standard deviation uses the n - 1 denominator; skewness and excess
    kurtosis carry the usual small-sample bias corrections and are NaN
    whenever n < 4 or the variance is zero.  Like scipy.stats, the
    variance counts as zero when the second central moment is at most
    (eps * mean)**2, where it is rounding noise of the mean.  When
    max|score| is above 1e150, where squares and sums can overflow, the
    moments are taken on scores / max|score| and the mean and standard
    deviation scaled back.
    """
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise InvariantError("describe needs a non-empty 1-D score list")
    n = arr.size
    unit = arr
    magnitude = float(np.max(np.abs(arr)))
    if _HUGE_SCORE < magnitude < math.inf:
        unit = arr / magnitude
    mean = np.mean(unit)
    std_dev = float(np.std(unit, ddof=1)) if n >= 2 else float("nan")
    skewness = kurtosis = float("nan")
    if n >= 4 and std_dev > 0.0:
        dev = unit - mean
        m2 = np.mean(dev**2)
        if m2 > (np.finfo(np.float64).eps * mean) ** 2:
            # Same operations in the same order as scipy.stats.skew and
            # kurtosis with bias=False, so the bits match; this includes
            # the (g + 3) - 3 of its excess kurtosis.
            m3 = np.mean(dev**2 * dev)
            m4 = np.mean((dev**2) ** 2)
            skewness = float(((n - 1.0) * n) ** 0.5 / (n - 2.0) * m3 / m2**1.5)
            g = 1.0 / (n - 2) / (n - 3) * ((n**2 - 1.0) * m4 / m2**2.0 - 3 * (n - 1) ** 2.0)
            kurtosis = float(g + 3.0 - 3.0)
    if unit is not arr:
        mean *= magnitude
        std_dev *= magnitude
    return DescriptiveStats(
        mean=float(mean),
        median=float(np.median(arr)),
        std_dev=std_dev,
        kurtosis=kurtosis,
        skewness=skewness,
        smallest=float(np.min(arr)),
        largest=float(np.max(arr)),
        obs=n,
    )


@dataclass(frozen=True, eq=False)
class PipelineRun:
    """Report plus the intermediate products the CLI can dump for audit."""

    report: EvaluationReport
    normalized: NormalizedMatrix
    bandwidths: tuple[float, ...] | None
    cdfs: tuple[CdfEstimate, ...] | None


def _continuous_column(column: np.ndarray, h: float, options: EvaluationOptions):
    """Entropy and CDF estimate of one normalized column at bandwidth h."""
    cdf = estimate_cdf(column, h, options.boundary_correction)
    return continuous_entropy(cdf, options.quadrature), cdf


def _pool_pays(rows: int, points: int, bandwidths: tuple[float, ...]) -> bool:
    """Whether continuous columns of this shape finish sooner on a thread pool.

    A column's work is numpy calls, which release the interpreter lock
    only inside their loops, so two columns overlap only where those
    loops are long: for long columns, fine grids, or a bandwidth below
    the fast kernel CDF's reach, whose exact sum runs O(points * rows)
    in ndtr.  Where the calls are short, workers contend for the lock
    and one worker is faster.  The constants are fitted to the 2-core
    measurement table in the README.
    """
    if rows + points / _POOL_POINTS_PER_ROW >= _POOL_ROWS:
        return True
    return any(_below_fast_path(h, points) for h in bandwidths)


def run_pipeline(dataset: RawDataset, options: EvaluationOptions | None = None) -> PipelineRun:
    """Normalize, estimate, weigh, and score a dataset, keeping intermediates.

    Indicator columns are independent.  Every bandwidth is picked first,
    in column order, on the calling thread.  Continuous columns then run
    on a pool of at most options.threads workers, but only where
    _pool_pays finds that a pool beats one worker for their length, grid
    and bandwidths.  Results are assembled in column order and are
    bit-identical to a sequential run.  A column that cannot be
    normalized raises the error normalize_matrix names it with; any
    later fault names its indicator too.
    """
    options = options or EvaluationOptions()
    normalized = normalize_matrix(dataset)
    names = dataset.schema.names
    m = len(names)

    def named(j: int, job, *args):
        """job(column j, *args), with any fault naming indicator j."""
        try:
            return job(normalized.values[:, j], *args)
        except EntroscoreError as exc:
            raise type(exc)(f"indicator '{names[j]}': {exc}") from None

    if options.method == "discrete":
        values = [named(j, discrete_entropy) for j in range(m)]
        bandwidths = cdfs = None
    else:
        if options.bandwidth is None:
            bandwidths = tuple(named(j, select_bandwidth) for j in range(m))
        else:
            bandwidths = (options.bandwidth,) * m

        def column_job(j: int):
            return named(j, _continuous_column, bandwidths[j], options)

        rows = normalized.values.shape[0]
        if options.threads > 1 and m > 1 and _pool_pays(rows, options.quadrature.points, bandwidths):
            with ThreadPoolExecutor(max_workers=options.threads) as pool:
                results = list(pool.map(column_job, range(m)))
        else:
            results = [column_job(j) for j in range(m)]
        values, cdfs = zip(*results)

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
