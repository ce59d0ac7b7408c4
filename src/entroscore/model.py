"""Shared domain types and the built-in indicator schema.

The types here carry no computation beyond invariant checks: every
constructor rejects invalid states so the pipeline stages can trust their
inputs.  All instances are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import EntroscoreError, InvariantError, NonFiniteInputError

__all__ = [
    "Direction",
    "IndicatorSpec",
    "Schema",
    "RawDataset",
    "NormalizedMatrix",
    "EntropyVector",
    "WeightVector",
    "DescriptiveStats",
    "EvaluationReport",
    "default_schema",
    "load_schema",
    "save_schema",
    "SCHEMA_FORMAT_VERSION",
]

SCHEMA_FORMAT_VERSION = 1

WEIGHT_SUM_TOLERANCE = 1e-12


class Direction(str, Enum):
    """Orientation of an indicator.

    POSITIVE means higher raw values are better; INVERSE means lower raw
    values are better.  The direction selects the normalization formula.
    """

    POSITIVE = "positive"
    INVERSE = "inverse"


def _frozen_array(values, what: str, integers: bool = False, **checks) -> np.ndarray:
    """A read-only copy of values, which _real_array checks (checks: its least and finite) and converts."""
    arr = np.array(_real_array(values, what, integers, **checks))
    arr.flags.writeable = False
    return arr


def _check_count(value, name: str) -> None:
    """Raise InvariantError unless value is an int; a bool, float or string is not."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvariantError(f"{name} must be an integer, got {value!r}")


def _check_positive_real(value, name: str, error: type[EntroscoreError] = InvariantError) -> float:
    """value as a double, checked to be a real number above 0 and finite as a double.

    The one check of every bandwidth and scale; error is the caller's.  A
    bool, numpy bool or string is not a real number, and an int too large
    for a double is not finite as one: float() raises OverflowError on it.
    """
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise error(f"{name} must be a real number, got {value!r}")
    try:
        double = float(value)
    except OverflowError:
        double = math.inf if value > 0 else -math.inf
    if not 0.0 < double < math.inf:
        raise error(f"{name} must be positive and finite as a double, got {double!r}")
    return double


def _check_flag(value, name: str) -> bool:
    """value as a bool, checked to be a bool or numpy bool; 0, "no" and None are not."""
    if not isinstance(value, (bool, np.bool_)):
        raise InvariantError(f"{name} must be True or False, got {value!r}")
    return bool(value)


def _real_array(
    values, what: str, integers: bool = False, *, least: int | None = None, finite: bool = False
) -> np.ndarray:
    """values as float64, checked to be an array of bool, integer or floating
    values: strings, complex numbers, objects (None among them) and ragged
    sequences raise InvariantError, named by what.  With integers, values
    must be integers, not bools or floats, and come back as intp.  With
    least, values must be 1-D and hold at least least entries, else
    InvariantError; with finite, no NaN or inf, else NonFiniteInputError.
    The library's one check of an array's kind, shape and finiteness, in
    that order.
    """
    kinds, dtype, noun = ("iu", np.intp, "integers") if integers else ("biuf", np.float64, "real numbers")
    try:
        x = np.asarray(values)
    except ValueError:  # a ragged sequence
        raise InvariantError(f"{what} must be an array of {noun}") from None
    if x.dtype.kind not in kinds:
        raise InvariantError(f"{what} must be {noun}, got dtype {x.dtype}")
    x = x.astype(dtype, copy=False)
    if least is not None and (x.ndim != 1 or x.size < least):
        raise InvariantError(f"{what} must be 1-D" + (f" and at least {least} long" if least else ""))
    if finite and not np.isfinite(x).all():
        raise NonFiniteInputError(f"{what} must be finite")
    return x


@dataclass(frozen=True)
class IndicatorSpec:
    """Name, category, and direction of one indicator column.

    The category is free-form grouping metadata, never used in computation.
    """

    name: str
    category: str
    direction: Direction

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise InvariantError("indicator name must be a non-empty string")
        if not isinstance(self.category, str) or not self.category:
            raise InvariantError("indicator category must be a non-empty string")
        # Accept plain strings for convenience when parsing config files.
        try:
            object.__setattr__(self, "direction", Direction(self.direction))
        except ValueError:
            raise InvariantError(f"unknown direction {self.direction!r}") from None

    @property
    def label(self) -> str:
        """Human-readable label derived from the machine name."""
        return self.name.replace("_", " ").capitalize()


@dataclass(frozen=True)
class Schema:
    """Ordered collection of indicator specs with pairwise-distinct names;
    indicators must be an iterable of IndicatorSpec, else InvariantError."""

    indicators: tuple[IndicatorSpec, ...]

    def __post_init__(self) -> None:
        given = self.indicators
        object.__setattr__(self, "indicators", tuple(given) if isinstance(given, Iterable) else (given,))
        for spec in self.indicators:
            if not isinstance(spec, IndicatorSpec):
                raise InvariantError(f"schema indicators must be IndicatorSpecs, got {spec!r}")
        if len(self.indicators) < 1:
            raise InvariantError("schema needs at least one indicator")
        names = [spec.name for spec in self.indicators]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise InvariantError(f"duplicate indicator names: {', '.join(dupes)}")

    def __len__(self) -> int:
        return len(self.indicators)

    def __iter__(self) -> Iterator[IndicatorSpec]:
        return iter(self.indicators)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(spec.name for spec in self.indicators)

    @property
    def directions(self) -> tuple[Direction, ...]:
        return tuple(spec.direction for spec in self.indicators)

    def to_records(self) -> list[dict[str, str]]:
        """One plain dict per indicator, ready for serialization."""
        return [
            {
                "name": spec.name,
                "category": spec.category,
                "direction": spec.direction.value,
            }
            for spec in self.indicators
        ]

    @classmethod
    def from_records(cls, records: list[dict[str, str]]) -> "Schema":
        return cls(
            tuple(
                IndicatorSpec(rec["name"], rec["category"], rec["direction"])
                for rec in records
            )
        )


def save_schema(schema: Schema, path: str | Path) -> None:
    """Write a schema to a JSON config file, one record per indicator."""
    payload = {"version": SCHEMA_FORMAT_VERSION, "indicators": schema.to_records()}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _read_json(path: str | Path, what: str):
    """The JSON value in the file at path, which must be UTF-8.

    A file that is not UTF-8 JSON raises InvariantError naming what and
    path; one that cannot be read raises its OSError.
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvariantError(f"{what} {path} is not valid JSON: {exc}") from exc


def load_schema(path: str | Path) -> Schema:
    """Read a schema from the JSON config format written by save_schema."""
    payload = _read_json(path, "schema file")
    if not isinstance(payload, dict) or "indicators" not in payload:
        raise InvariantError(f"schema file {path} lacks an 'indicators' list")
    version = payload.get("version")
    if version != SCHEMA_FORMAT_VERSION:
        raise InvariantError(
            f"schema file {path} has format version {version!r}; "
            f"this build reads version {SCHEMA_FORMAT_VERSION}"
        )
    try:
        return Schema.from_records(payload["indicators"])
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InvariantError):
            raise
        raise InvariantError(f"schema file {path} has a malformed record: {exc}") from exc


_DEFAULT_ROWS: tuple[tuple[str, str, Direction], ...] = (
    ("operating_profit_ratio", "profitability", Direction.POSITIVE),
    ("return_on_assets", "profitability", Direction.POSITIVE),
    ("return_on_invested_capital", "profitability", Direction.POSITIVE),
    ("debt_coverage_ratio", "solvency", Direction.POSITIVE),
    ("current_ratio", "solvency", Direction.POSITIVE),
    ("operating_cash_flow_to_operating_profit_ratio", "solvency", Direction.POSITIVE),
    ("debt_asset_ratio", "solvency", Direction.INVERSE),
    ("sustainable_growth_rate", "sustainable_development", Direction.POSITIVE),
    ("hedging_and_proliferating_ratios", "sustainable_development", Direction.POSITIVE),
    ("total_assets_growth_rate", "sustainable_development", Direction.POSITIVE),
    ("revenue_growth_rate", "sustainable_development", Direction.POSITIVE),
    ("net_profit_growth_rate", "sustainable_development", Direction.POSITIVE),
    ("receivables_turnover", "operation", Direction.POSITIVE),
    ("inventory_turnover", "operation", Direction.POSITIVE),
    ("total_assets_turnover", "operation", Direction.POSITIVE),
    ("rate_of_cost_profit", "operation", Direction.POSITIVE),
    ("capital_intensity", "operation", Direction.INVERSE),
)


def default_schema() -> Schema:
    """The built-in 17-indicator financial competitiveness schema.

    Covers profitability, solvency, sustainable development, and operation
    capacity.  `debt_asset_ratio` and `capital_intensity` are inverse
    indicators (lower is better); all others are positive.
    """
    return Schema(tuple(IndicatorSpec(*row) for row in _DEFAULT_ROWS))


@dataclass(frozen=True, eq=False)
class RawDataset:
    """Entity identifiers plus the raw n x m indicator matrix.

    Missing values are carried as NaN, not None; a dataset fed to the
    pipeline must be complete and finite (see ingest.validate).  entity_ids
    must be an iterable and schema a Schema, else InvariantError.
    """

    entity_ids: tuple[str, ...]
    values: np.ndarray
    schema: Schema

    def __post_init__(self) -> None:
        if not isinstance(self.entity_ids, Iterable):
            raise InvariantError(f"entity ids must be an iterable, got {self.entity_ids!r}")
        if not isinstance(self.schema, Schema):
            raise InvariantError(f"dataset schema must be of type Schema, got {type(self.schema).__name__}")
        object.__setattr__(self, "entity_ids", tuple(self.entity_ids))
        object.__setattr__(self, "values", _frozen_array(self.values, "dataset values"))
        if self.values.ndim != 2:
            raise InvariantError("dataset values must form a 2-D grid")
        n, m = self.values.shape
        if n != len(self.entity_ids):
            raise InvariantError(
                f"{len(self.entity_ids)} entity ids but {n} value rows"
            )
        if m != len(self.schema):
            raise InvariantError(
                f"schema has {len(self.schema)} indicators but grid has {m} columns"
            )
        if n < 2:
            raise InvariantError("dataset needs at least two rows")

    @property
    def n_entities(self) -> int:
        return self.values.shape[0]

    @property
    def n_indicators(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class NormalizedMatrix:
    """Dimensionless matrix with every entry in [0, 1].

    Each column is the min-max image of a raw indicator column, so it
    attains both endpoints 0 and 1 exactly.  The constructor keeps a
    read-only copy of values.
    """

    values: np.ndarray
    schema: Schema

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _frozen_array(self.values, "normalized values"))
        self._check()

    @classmethod
    def _adopt(cls, values: np.ndarray, schema: Schema) -> NormalizedMatrix:
        """The matrix of a float64 array that no one else holds, without the
        constructor's copy: values is made read-only and checked as the
        constructor checks its copy."""
        self = cls.__new__(cls)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "schema", schema)
        self._check()
        return self

    def _check(self) -> None:
        if not isinstance(self.schema, Schema):
            raise InvariantError(f"normalized schema must be of type Schema, got {type(self.schema).__name__}")
        if self.values.ndim != 2:
            raise InvariantError("normalized values must form a 2-D grid")
        if self.values.shape[1] != len(self.schema):
            raise InvariantError("normalized grid width does not match schema")
        if not np.all((self.values >= 0.0) & (self.values <= 1.0)):
            raise InvariantError("normalized entries must lie in [0, 1]")
        mins = self.values.min(axis=0)
        maxs = self.values.max(axis=0)
        if not (np.all(mins == 0.0) and np.all(maxs == 1.0)):
            raise InvariantError("every normalized column must attain 0 and 1")


@dataclass(frozen=True, eq=False)
class EntropyVector:
    """Per-indicator entropies, each within [0, 1]."""

    entropies: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "entropies", _frozen_array(self.entropies, "entropies", least=1, finite=True))
        if np.any(self.entropies < 0.0) or np.any(self.entropies > 1.0):
            raise InvariantError("entropies must lie in [0, 1]")

    def __len__(self) -> int:
        return int(self.entropies.size)


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Non-negative indicator weights summing to one."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _frozen_array(self.weights, "weights", least=1, finite=True))
        if np.any(self.weights < 0.0):
            raise InvariantError("weights must be non-negative")
        with np.errstate(over="ignore"):  # weights near the largest double, refused below
            total = float(np.sum(self.weights))
        if abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
            raise InvariantError(f"weights sum to {total!r}, not 1")

    def __len__(self) -> int:
        return int(self.weights.size)


@dataclass(frozen=True)
class DescriptiveStats:
    """Summary statistics of the score distribution.

    kurtosis and skewness are NaN when undefined (fewer than four
    observations or zero variance); kurtosis is the excess form, so a
    normal distribution scores 0.  The statistics must be real numbers and
    obs an int, else InvariantError.
    """

    mean: float
    median: float
    std_dev: float
    kurtosis: float
    skewness: float
    smallest: float
    largest: float
    obs: int

    def __post_init__(self) -> None:
        moments = (self.mean, self.median, self.std_dev, self.kurtosis, self.skewness, self.smallest, self.largest)
        _real_array(moments, "descriptive statistics", least=0)
        _check_count(self.obs, "obs")
        if self.obs < 1:
            raise InvariantError("obs must be positive")
        if not (self.smallest <= self.median <= self.largest):
            raise InvariantError("expected smallest <= median <= largest")


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    """Entropies, weights, scores, ranking, and descriptive statistics.

    scores live on [0, scale] (scale defaults to 100); ranking is the
    permutation of row indices, as integers, that sorts scores in
    non-increasing order.  entropies, weights and stats must be an
    EntropyVector, a WeightVector of the same length and a
    DescriptiveStats, else InvariantError.
    """

    entropies: EntropyVector
    weights: WeightVector
    scores: np.ndarray
    ranking: np.ndarray
    stats: DescriptiveStats
    scale: float = 100.0

    def __post_init__(self) -> None:
        for field, kind in (("entropies", EntropyVector), ("weights", WeightVector), ("stats", DescriptiveStats)):
            value = getattr(self, field)
            if not isinstance(value, kind):
                raise InvariantError(f"{field} must be of type {kind.__name__}, got {type(value).__name__}")
        if len(self.entropies) != len(self.weights):
            raise InvariantError(f"{len(self.entropies)} entropies but {len(self.weights)} weights")
        object.__setattr__(self, "scores", _frozen_array(self.scores, "scores", least=0))
        object.__setattr__(self, "ranking", _frozen_array(self.ranking, "ranking", integers=True))
        scale = _check_positive_real(self.scale, "scale")
        # A NaN fails both comparisons, so it is refused with the rest.
        if not np.all((self.scores >= 0.0) & (self.scores <= scale)):
            raise InvariantError(f"scores must lie in [0, {self.scale}]")
        n = self.scores.size
        if self.ranking.shape != (n,) or not np.array_equal(np.sort(self.ranking), np.arange(n)):
            raise InvariantError("ranking must be a permutation of row indices")
        ordered = self.scores[self.ranking]
        if np.any(np.diff(ordered) > 0.0):
            raise InvariantError("scores along the ranking must be non-increasing")
        if self.stats.obs != n:
            raise InvariantError("stats.obs must equal the number of scores")
