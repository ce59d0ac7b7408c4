"""entroscore: entropy-weighted composite scoring of tabular indicators.

Pipeline: direction-aware min-max normalization, Gaussian-kernel CDF
estimation per indicator, continuous entropy by Simpson quadrature,
entropy-proportional weights, and weighted composite scores with
rankings and descriptive statistics.
"""

from .density import CdfEstimate, estimate_cdf, select_bandwidth
from .entropy import (
    DEFAULT_QUADRATURE,
    QuadratureConfig,
    compute_weights,
    continuous_entropy,
    discrete_entropy,
)
from .errors import (
    AllZeroEntropyError,
    DegenerateColumnError,
    DimensionMismatchError,
    DuplicateEntityIdError,
    EmptyInputError,
    EntroscoreError,
    HeaderMismatchError,
    InvalidBandwidthError,
    InvariantError,
    MalformedCsvError,
    NonFiniteInputError,
    QuadratureOutOfRangeError,
    TooFewRowsError,
)
from .ingest import IngestReport, ValidationFinding, parse_csv, validate
from .model import (
    DescriptiveStats,
    Direction,
    EntropyVector,
    EvaluationReport,
    IndicatorSpec,
    NormalizedMatrix,
    RawDataset,
    Schema,
    WeightVector,
    default_schema,
    load_schema,
    save_schema,
)
from .normalize import normalize_inverse, normalize_matrix, normalize_positive
from .scoring import (
    EvaluationOptions,
    PipelineRun,
    composite_scores,
    describe,
    evaluate,
    rank,
    run_pipeline,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
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
    # ingest
    "parse_csv",
    "validate",
    "IngestReport",
    "ValidationFinding",
    # normalize
    "normalize_positive",
    "normalize_inverse",
    "normalize_matrix",
    # density
    "select_bandwidth",
    "estimate_cdf",
    "CdfEstimate",
    # entropy
    "QuadratureConfig",
    "DEFAULT_QUADRATURE",
    "continuous_entropy",
    "discrete_entropy",
    "compute_weights",
    # scoring
    "EvaluationOptions",
    "PipelineRun",
    "composite_scores",
    "rank",
    "describe",
    "run_pipeline",
    "evaluate",
    # errors
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
]
