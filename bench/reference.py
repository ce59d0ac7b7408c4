"""Independent reference results and the per-op output checks.

The reference re-derives every number from the generated data with its
own numpy code and never imports entroscore: min-max normalization,
Silverman's bandwidth, the exact Gaussian-kernel CDF (scipy's ndtr) with
boundary correction and clipping, the 1e-12 cutoff and Simpson's rule on
10001 points, or the normalized Shannon entropy for the discrete method.
A fast path that trades accuracy for speed therefore shows up as failed
ops, not as a gain.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

SIMPSON_POINTS = 10001
EPSILON = 1e-12
ENTROPY_TOL = 1e-6  # entropies and weights against the reference
WEIGHT_SUM_TOL = 1e-9
SCORE_TOL = 1e-9  # scores against 100 * sum(w * s) on the reference matrix
SCALE = 100.0
# Elements of the (grid x samples) kernel matrix per block.
_BLOCK = 2_000_000
_ID = re.compile(r"E\d{6}")


def simpson_entropy(phi: np.ndarray) -> float:
    """H = -e * integral of phi ln phi on [0, 1], Simpson on a uniform grid."""
    f = np.zeros_like(phi)
    live = phi > EPSILON
    f[live] = phi[live] * np.log(phi[live])
    step = 1.0 / (phi.size - 1)
    weights = np.full(phi.size, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    value = -math.e * (step / 3.0) * float(weights @ f)
    return min(max(value, 0.0), 1.0)


def check_quadrature() -> None:
    """The reference's quadrature must reproduce the closed-form anchors."""
    grid = np.linspace(0.0, 1.0, SIMPSON_POINTS)
    for phi, exact in ((grid, math.e / 4), (grid**2, 2 * math.e / 9)):
        got = simpson_entropy(phi)
        if abs(got - exact) > 1e-6:
            raise RuntimeError(f"reference quadrature gives {got!r}, expected {exact!r}")


def _quantile(sorted_x: np.ndarray, p: float) -> float:
    """Linear-interpolation quantile of sorted data."""
    k = p * (sorted_x.size - 1)
    lo = math.floor(k)
    hi = min(lo + 1, sorted_x.size - 1)
    return float(sorted_x[lo] + (k - lo) * (sorted_x[hi] - sorted_x[lo]))


def silverman(x: np.ndarray) -> float:
    """0.9 * min(std, IQR/1.34) * n^-0.2; the other spread if one is 0."""
    s = np.sort(x)
    std = float(np.std(s, ddof=1))
    iqr = (_quantile(s, 0.75) - _quantile(s, 0.25)) / 1.34
    spread = min(std, iqr) or max(std, iqr)
    return 0.9 * spread * s.size ** -0.2


def kernel_cdf(samples: np.ndarray, h: float, grid: np.ndarray) -> np.ndarray:
    """Exact boundary-corrected Gaussian-kernel CDF on grid, clipped to [0, 1]."""
    s = np.sort(samples)

    def raw(x):
        out = np.empty(x.size)
        block = max(1, _BLOCK // s.size)
        for a in range(0, x.size, block):
            out[a : a + block] = ndtr((x[a : a + block, None] - s) / h).mean(axis=1)
        return out

    ends = raw(np.array([0.0, 1.0]))
    return np.clip((raw(grid) - ends[0]) / (ends[1] - ends[0]), 0.0, 1.0)


def shannon_entropy(col: np.ndarray) -> float:
    p = col / col.sum()
    p = p[p > 0]
    return min(max(-float(np.sum(p * np.log(p))) / math.log(col.size), 0.0), 1.0)


@dataclass(frozen=True)
class Reference:
    normalized: np.ndarray
    entropies: np.ndarray
    weights: np.ndarray
    names: tuple[str, ...]
    kept_ids: tuple[str, ...]
    dropped_ids: tuple[str, ...]


def build(inputs, method: str) -> Reference:
    """Reference result for generated inputs (see workloads.Inputs)."""
    x = inputs.clean
    lo, hi = x.min(axis=0), x.max(axis=0)
    s = np.where(inputs.inverse, (hi - x) / (hi - lo), (x - lo) / (hi - lo))
    grid = np.linspace(0.0, 1.0, SIMPSON_POINTS)
    if method == "discrete":
        h = [shannon_entropy(s[:, j]) for j in range(s.shape[1])]
    else:
        h = [simpson_entropy(kernel_cdf(c, silverman(c), grid)) for c in s.T]
    entropies = np.array(h)
    return Reference(
        s, entropies, entropies / entropies.sum(), inputs.names, inputs.kept_ids, inputs.dropped_ids
    )


def _check_weights(ref: Reference, names, entropies, weights) -> list[str]:
    problems = []
    if list(names) != list(ref.names) or not len(entropies) == len(weights) == len(ref.names):
        return ["indicators differ from the schema"]
    for what, got, want in (("entropy", entropies, ref.entropies), ("weight", weights, ref.weights)):
        if not _off(got, want) <= ENTROPY_TOL:
            problems.append(f"{what} off by {_off(got, want):.3g}")
    if not _off(np.sum(weights), 1.0) <= WEIGHT_SUM_TOL:
        problems.append(f"weights sum to {float(np.sum(weights))!r}")
    return problems


def _off(got, want) -> float:
    """Largest absolute difference; NaN if any value is NaN, which fails every check."""
    return float(np.max(np.abs(np.asarray(got) - want)))


def _check_scores(ref: Reference, weights, scores, ranks) -> list[str]:
    """ranks: each row's 1-based rank, in input row order."""
    expected = np.clip(SCALE * (ref.normalized @ weights), 0.0, SCALE)
    if scores.shape != expected.shape:
        return [f"{scores.size} scores for {expected.size} rows"]
    problems = []
    if not _off(scores, expected) <= SCORE_TOL:
        problems.append(f"score off by {_off(scores, expected):.3g}")
    position = np.empty(scores.size, dtype=np.intp)
    position[np.argsort(-scores, kind="stable")] = np.arange(scores.size)
    if not np.array_equal(ranks, position + 1):
        problems.append("ranks disagree with the scores")
    return problems


def _table(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def check_cli(ref: Reference, outcome) -> list[str]:
    """Problems with one CLI op's exit code, CSVs and drop note; [] if none."""
    if outcome.exit_code != 0:
        return [f"exit code {outcome.exit_code}: {outcome.stderr.strip()[:200]}"]
    try:
        w = _table(outcome.files["weights.csv"])
        sc = _table(outcome.files["scores.csv"])
        names = [r["indicator"] for r in w]
        entropies = np.array([float(r["entropy"]) for r in w])
        weights = np.array([float(r["weight"]) for r in w])
        ids = tuple(r["entity_id"] for r in sc)
        scores = np.array([float(r["score"]) for r in sc])
        ranks = np.array([int(r["rank"]) for r in sc])
    except (KeyError, ValueError) as exc:
        return [f"unreadable output CSV: {exc!r}"]
    problems = _check_weights(ref, names, entropies, weights)
    if ids != ref.kept_ids:
        problems.append("retained ids differ from the generated ones")
        return problems
    if set(_ID.findall(outcome.stderr)) != set(ref.dropped_ids):
        problems.append("stderr does not name exactly the corrupted rows as dropped")
    return problems + _check_scores(ref, weights, scores, ranks)


def check_lib(ref: Reference, outcome) -> list[str]:
    """Problems with one library op's EvaluationReport; [] if none."""
    r = outcome.report
    entropies = np.asarray(r.entropies.entropies)
    weights = np.asarray(r.weights.weights)
    scores = np.asarray(r.scores)
    problems = _check_weights(ref, ref.names, entropies, weights)
    ranks = np.empty(scores.size, dtype=np.intp)
    ranks[np.asarray(r.ranking)] = np.arange(1, scores.size + 1)
    return problems + _check_scores(ref, weights, scores, ranks)
