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
    "MalformedCsvError",
    "EmptyInputError",
    "TooFewRowsError",
    "DuplicateEntityIdError",
    "DegenerateColumnError",
    "NonFiniteInputError",
    "InvalidBandwidthError",
    "QuadratureOutOfRangeError",
    "AllZeroEntropyError",
    "DimensionMismatchError",
    "OutputNameError",
]


class EntroscoreError(Exception):
    """Base class for all entroscore data and configuration errors."""


class InvariantError(EntroscoreError, ValueError):
    """A domain type was constructed with an invariant violation."""


class HeaderMismatchError(EntroscoreError):
    """CSV header does not line up with the indicator schema."""


class MalformedCsvError(EntroscoreError):
    """A CSV line cannot be read, such as one whose field exceeds the csv field size limit."""


class EmptyInputError(EntroscoreError):
    """Input contains a header but no data rows."""


class TooFewRowsError(EntroscoreError):
    """Fewer than two usable rows remain after missing-data removal."""


class DuplicateEntityIdError(EntroscoreError):
    """An entity identifier is blank, or two retained rows share one."""


class DegenerateColumnError(EntroscoreError):
    """A column has no spread: max equals min, or its spread underflows to 0."""


class NonFiniteInputError(EntroscoreError):
    """An input value is NaN or infinite where a finite real is required."""


class InvalidBandwidthError(EntroscoreError):
    """Kernel bandwidth is not a positive finite real."""


class QuadratureOutOfRangeError(EntroscoreError):
    """Entropy quadrature left [0, 1] by more than numerical noise."""


class AllZeroEntropyError(EntroscoreError):
    """No indicator carries information: the weight denominator is zero."""


class DimensionMismatchError(EntroscoreError):
    """Matrix and weight dimensions do not agree."""


class OutputNameError(EntroscoreError):
    """An indicator name cannot go into an output file's name: it holds a NUL
    or a path separator, or is . or .."""


def _named(exc: EntroscoreError, indicator: str | None) -> EntroscoreError:
    """An error of exc's type whose message names the indicator it is about;
    exc itself where there is no indicator."""
    return exc if indicator is None else type(exc)(f"indicator '{indicator}': {exc}")
