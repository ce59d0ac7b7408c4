"""Direction-aware min-max non-dimensionalization.

Each indicator column is rescaled into [0, 1] using the spread between
its per-column minimum and maximum, so every column attains both
endpoints exactly.  Positive indicators map their maximum to 1; inverse
indicators map their minimum to 1.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateColumnError,
    EntroscoreError,
    NonFiniteInputError,
    _named,
)
from .model import Direction, NormalizedMatrix, RawDataset, _real_array

__all__ = ["normalize_positive", "normalize_inverse", "normalize_matrix"]


def _column_fault(
    col: np.ndarray, ids: Sequence[str] | None = None
) -> tuple[type[EntroscoreError], str] | None:
    """Why a raw 1-D float64 column cannot be min-max normalized, or None.

    The one home of the non-finite and degenerate-column checks:
    ingest.validate reports the fault and the normalizers raise it.  ids,
    when given, label the entries so a non-finite fault names them.
    """
    if col.size < 2:
        return DegenerateColumnError, "column needs at least two entries"
    bad = ~np.isfinite(col)
    if bad.any():
        if ids is None:
            return NonFiniteInputError, "column contains NaN or infinite values"
        offenders = ", ".join(ids[i] for i in np.flatnonzero(bad))
        return NonFiniteInputError, f"non-finite value for entities: {offenders}"
    lo, hi = float(col.min()), float(col.max())
    if hi == lo:
        return DegenerateColumnError, "fewer than two distinct finite values"
    # Python float arithmetic overflows to inf without a numpy warning.
    if not math.isfinite(hi - lo):
        return NonFiniteInputError, f"range {lo!r} to {hi!r} overflows float64"
    return None


def _rescale(column, inverse: bool, ids: Sequence[str] | None = None) -> np.ndarray:
    col = _real_array(column, "column", least=0)
    fault = _column_fault(col, ids)
    if fault is not None:
        error, detail = fault
        raise error(detail)
    lo, hi = col.min(), col.max()
    return (hi - col) / (hi - lo) if inverse else (col - lo) / (hi - lo)


def normalize_positive(column) -> np.ndarray:
    """Rescale a higher-is-better column: (x - min) / (max - min)."""
    return _rescale(column, inverse=False)


def normalize_inverse(column) -> np.ndarray:
    """Rescale a lower-is-better column: (max - x) / (max - min)."""
    return _rescale(column, inverse=True)


def normalize_matrix(dataset: RawDataset) -> NormalizedMatrix:
    """Normalize every column of a dataset per its schema direction.

    Column errors are raised with the offending indicator named, and a
    non-finite value with the offending entity ids.  Every column's min
    and max are taken once, for all columns together: a column holding
    NaN or +-inf, or whose range is 0 or overflows, has no positive
    finite range, and the first such column in schema order raises the
    fault _column_fault names.  The arithmetic is _rescale's, so every
    column gets its bits.
    """
    values = dataset.values
    lo, hi = values.min(axis=0), values.max(axis=0)
    # inf - inf is NaN and a finite range can overflow: both are screened.
    with np.errstate(over="ignore", invalid="ignore"):
        span = hi - lo
    for j in np.flatnonzero(~((span > 0.0) & (span < math.inf)))[:1]:
        error, detail = _column_fault(values[:, j], dataset.entity_ids)
        raise _named(error(detail), dataset.schema.names[j])
    out = np.subtract(values, lo, out=np.empty(values.shape))
    inverse = [j for j, spec in enumerate(dataset.schema) if spec.direction is Direction.INVERSE]
    out[:, inverse] = hi[inverse] - values[:, inverse]
    out /= span
    return NormalizedMatrix._adopt(out, dataset.schema)
