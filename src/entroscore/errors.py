"""Exception hierarchy for the entroscore pipeline.

Every failure the library raises on bad data or bad configuration derives
from :class:`EntroscoreError`, so callers (notably the CLI) can separate
data problems from genuine bugs with a single except clause.
"""

from __future__ import annotations

__all__ = [
    "EntroscoreError",
    "InvariantError",
    "HeaderMismatchError",
    "EmptyInputError",
    "TooFewRowsError",
    "DuplicateEntityIdError",
    "DegenerateColumnError",
    "NonFiniteInputError",
    "AllSamplesEqualError",
    "InvalidBandwidthError",
    "QuadratureOutOfRangeError",
    "ZeroColumnError",
    "AllZeroEntropyError",
    "DimensionMismatchError",
]


class EntroscoreError(Exception):
    """Base class for all entroscore data and configuration errors."""


class InvariantError(EntroscoreError, ValueError):
    """A domain type was constructed with an invariant violation."""


class HeaderMismatchError(EntroscoreError):
    """CSV header does not line up with the indicator schema."""


class EmptyInputError(EntroscoreError):
    """Input contains a header but no data rows."""


class TooFewRowsError(EntroscoreError):
    """Fewer than two usable rows remain after missing-data removal."""


class DuplicateEntityIdError(EntroscoreError):
    """An entity identifier is blank, or two retained rows share one."""


class DegenerateColumnError(EntroscoreError):
    """An indicator column has no spread (max equals min)."""


class NonFiniteInputError(EntroscoreError):
    """An input value is NaN or infinite where a finite real is required."""


class AllSamplesEqualError(EntroscoreError):
    """Bandwidth selection failed: both the std dev and the IQR are zero."""


class InvalidBandwidthError(EntroscoreError):
    """Kernel bandwidth is not a positive finite real."""


class QuadratureOutOfRangeError(EntroscoreError):
    """Entropy quadrature left [0, 1] by more than numerical noise."""


class ZeroColumnError(EntroscoreError):
    """Discrete entropy is undefined for an all-zero column."""


class AllZeroEntropyError(EntroscoreError):
    """No indicator carries information: the weight denominator is zero."""


class DimensionMismatchError(EntroscoreError):
    """Matrix and weight dimensions do not agree."""
