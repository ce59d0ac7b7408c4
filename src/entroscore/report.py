"""Text tables and CSV emission for evaluation results.

Text output is meant for humans (scores to 2 decimals, entropies and
weights to 6); the CSV files keep full precision via shortest
round-trip float formatting.  All numeric output uses '.' as the
decimal separator regardless of locale, so emitted bytes are stable.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence

import numpy as np

from .density import CdfEstimate
from .model import DescriptiveStats, EntropyVector, NormalizedMatrix, Schema, WeightVector

__all__ = [
    "CATEGORY_LABELS",
    "weights_table",
    "ranking_table",
    "stats_block",
    "write_weights_csv",
    "write_scores_csv",
    "write_normalized_csv",
    "write_cdf_csv",
    "CDF_GRID_POINTS",
]

# Display labels of the built-in schema's categories; any other category
# prints verbatim.
CATEGORY_LABELS = {
    "profitability": "Profitability capability",
    "solvency": "Solvency",
    "sustainable_development": "Capacity for sustainable development",
    "operation": "Operation capacity",
}

CDF_GRID_POINTS = 101


def _full(value: float) -> str:
    """Shortest decimal string that round-trips the float."""
    if value != value:  # NaN
        return "NA"
    return repr(float(value))


def _fixed(value: float, places: int) -> str:
    if value != value:
        return "NA"
    return f"{value:.{places}f}"


def _aligned_columns(headers: Sequence[str], columns: Sequence[Sequence], numeric: Sequence[bool]) -> str:
    """Header, dashes, and one line per row of the equal-length columns.

    A cell prints as str() does, padded to its column's width: right
    aligned where numeric, else left; each line loses its trailing blanks.
    """
    widths = [
        max(len(header), max(map(len, map(str, column)), default=0))
        for header, column in zip(headers, columns)
    ]
    row_format = "  ".join(
        f"%{'' if right else '-'}{width}s" for width, right in zip(widths, numeric)
    )
    lines = [
        "  ".join(h.ljust(width) for h, width in zip(headers, widths)).rstrip(),
        "  ".join("-" * width for width in widths),
    ]
    lines.extend(map(str.rstrip, map(row_format.__mod__, zip(*columns))))
    lines.append("")  # the closing newline, with no copy of the joined text
    return "\n".join(lines)


def weights_table(schema: Schema, entropies: EntropyVector, weights: WeightVector) -> str:
    """Aligned category / indicator / entropy / weight table."""
    return _aligned_columns(
        ("Category", "Indicator", "Entropy", "Weight"),
        (
            [CATEGORY_LABELS.get(spec.category, spec.category) for spec in schema],
            [spec.label for spec in schema],
            [_fixed(value, 6) for value in entropies.entropies.tolist()],
            [_fixed(value, 6) for value in weights.weights.tolist()],
        ),
        (False, False, True, True),
    )


def ranking_table(entity_ids: Sequence[str], scores: np.ndarray, ranking: np.ndarray) -> str:
    """Aligned ranking / entity / score table, best entity first."""
    return _aligned_columns(
        ("Ranking", "Entity", "Score"),
        (
            range(1, len(ranking) + 1),
            [entity_ids[idx] for idx in ranking.tolist()],
            ["NA" if score != score else f"{score:.2f}" for score in scores[ranking].tolist()],
        ),
        (True, False, True),
    )


def stats_block(stats: DescriptiveStats) -> str:
    """Aligned label/value block of the score distribution statistics."""
    entries = [
        ("Mean", _fixed(stats.mean, 8)),
        ("median", _fixed(stats.median, 8)),
        ("Std. Dev", _fixed(stats.std_dev, 8)),
        ("Kurtosis", _fixed(stats.kurtosis, 8)),
        ("Skewness", _fixed(stats.skewness, 8)),
        ("Smallest", _fixed(stats.smallest, 2)),
        ("Largest", _fixed(stats.largest, 2)),
        ("Obs", str(stats.obs)),
    ]
    width = max(len(label) for label, _ in entries)
    return "\n".join(f"{label.ljust(width)}  {value}" for label, value in entries) + "\n"


# Characters that make csv.writer quote a field.  It writes a NUL bare,
# as the one-format-call path does.
_QUOTED = ',"\r\n'


def _write_csv(
    path: Path, header: Sequence[str], text: Sequence[Sequence[str]], numbers: Sequence[np.ndarray]
) -> None:
    """Write header, then row i of every text column and of every numeric column.

    A float prints as its shortest round-trip decimal, an int as an int.
    Where no text cell, header included, holds a character of _QUOTED and
    no float is NaN, each row is written with one format call, which
    writes a NUL bare, as csv.writer does; csv.writer writes any other
    file, NaN as NA.  csv quotes a field that holds the line terminator
    but not one that holds a lone carriage return, which a reader splits
    the row at, so when some text cell holds one, every field of the file
    is quoted.
    """
    cells = "".join(map("".join, (header, *text)))
    floats = [column.dtype.kind == "f" for column in numbers]
    plain = not any(ch in cells for ch in _QUOTED) and not any(
        np.isnan(column).any() for column, is_float in zip(numbers, floats) if is_float
    )
    numbers = [column.tolist() for column in numbers]  # %r of a numpy float is np.float64(...)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if plain:
            row = ",".join(["%s"] * len(text) + ["%r" if is_float else "%d" for is_float in floats]) + "\n"
            fh.write(",".join(header) + "\n")
            fh.writelines(map(row.__mod__, zip(*text, *numbers)))
            return
        quoting = csv.QUOTE_ALL if "\r" in cells else csv.QUOTE_MINIMAL
        out = csv.writer(fh, lineterminator="\n", quoting=quoting)
        out.writerow(header)
        out.writerows(zip(*text, *(
            map(_full, column) if is_float else column for column, is_float in zip(numbers, floats)
        )))


def write_weights_csv(path: Path, schema: Schema, entropies: EntropyVector, weights: WeightVector) -> None:
    _write_csv(
        path,
        ("category", "indicator", "entropy", "weight"),
        ([spec.category for spec in schema], schema.names),
        (entropies.entropies, weights.weights),
    )


def write_scores_csv(path: Path, entity_ids: Sequence[str], scores: np.ndarray, ranking: np.ndarray) -> None:
    """Scores in input row order, with each entity's 1-based rank."""
    position = np.empty(len(ranking), dtype=np.intp)
    position[ranking] = np.arange(1, len(ranking) + 1)
    _write_csv(
        path,
        ("entity_id", "score", "rank"),
        (entity_ids,),
        (np.asarray(scores, dtype=np.float64), position),
    )


def write_normalized_csv(path: Path, entity_ids: Sequence[str], normalized: NormalizedMatrix) -> None:
    _write_csv(path, ("entity_id", *normalized.schema.names), (entity_ids,), normalized.values.T)


def write_cdf_csv(path: Path, cdf: CdfEstimate, points: int = CDF_GRID_POINTS) -> None:
    """Uniform-grid (x, phi(x)) pairs for one indicator."""
    grid = np.linspace(0.0, 1.0, points)
    _write_csv(path, ("x", "phi"), (), (grid, cdf(grid)))
