"""Text tables and CSV emission for evaluation results.

Text output is meant for humans (scores to 2 decimals, entropies and
weights to 6); the CSV files keep full precision via shortest
round-trip float formatting.  All numeric output uses '.' as the
decimal separator regardless of locale, so emitted bytes are stable.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import IO, Sequence

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


def _aligned(headers: Sequence[str], rows: list[Sequence[str]], numeric: Sequence[bool]) -> str:
    columns = [column[1:] for column in zip(headers, *rows)]
    return _aligned_columns(headers, columns, numeric)


def weights_table(schema: Schema, entropies: EntropyVector, weights: WeightVector) -> str:
    """Aligned category / indicator / entropy / weight table."""
    rows = [
        (
            CATEGORY_LABELS.get(spec.category, spec.category),
            spec.label,
            _fixed(float(entropies.entropies[j]), 6),
            _fixed(float(weights.weights[j]), 6),
        )
        for j, spec in enumerate(schema)
    ]
    return _aligned(
        ("Category", "Indicator", "Entropy", "Weight"),
        rows,
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


def _writer(stream: IO[str], entity_ids: Sequence[str] = ()) -> "csv.writer":
    """CSV writer ending lines with a bare newline.

    csv quotes a field that holds the line terminator but not one that
    holds a lone carriage return, which a reader splits the row at.  So
    when some entity id holds one, every field of the file is quoted.
    """
    quoting = csv.QUOTE_ALL if "\r" in "".join(entity_ids) else csv.QUOTE_MINIMAL
    return csv.writer(stream, lineterminator="\n", quoting=quoting)


def write_weights_csv(path: Path, schema: Schema, entropies: EntropyVector, weights: WeightVector) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = _writer(fh)
        out.writerow(["category", "indicator", "entropy", "weight"])
        for j, spec in enumerate(schema):
            out.writerow(
                [
                    spec.category,
                    spec.name,
                    _full(float(entropies.entropies[j])),
                    _full(float(weights.weights[j])),
                ]
            )


def write_scores_csv(path: Path, entity_ids: Sequence[str], scores: np.ndarray, ranking: np.ndarray) -> None:
    """Scores in input row order, with each entity's 1-based rank.

    Where no id needs quoting or holds a NUL (which csv.writer handles
    differently before Python 3.11) and no score is NaN, each row is
    written with one format call; csv.writer writes any other file.
    """
    position = np.empty(len(ranking), dtype=np.intp)
    position[ranking] = np.arange(1, len(ranking) + 1)
    scores = np.asarray(scores, dtype=np.float64)
    ids = "".join(entity_ids)
    plain = not any(ch in ids for ch in ',"\r\n\0') and not np.isnan(scores).any()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if plain:
            fh.write("entity_id,score,rank\n")
            fh.writelines(map("%s,%r,%d\n".__mod__, zip(entity_ids, scores.tolist(), position.tolist())))
            return
        out = _writer(fh, entity_ids)
        out.writerow(["entity_id", "score", "rank"])
        out.writerows(zip(entity_ids, map(_full, scores.tolist()), position.tolist()))


def write_normalized_csv(path: Path, entity_ids: Sequence[str], normalized: NormalizedMatrix) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = _writer(fh, entity_ids)
        out.writerow(["entity_id", *normalized.schema.names])
        out.writerows(
            [entity_id, *map(_full, row)]
            for entity_id, row in zip(entity_ids, normalized.values.tolist())
        )


def write_cdf_csv(path: Path, cdf: CdfEstimate, points: int = CDF_GRID_POINTS) -> None:
    """Uniform-grid (x, phi(x)) pairs for one indicator."""
    grid = np.linspace(0.0, 1.0, points)
    values = cdf(grid)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = _writer(fh)
        out.writerow(["x", "phi"])
        for x, phi in zip(grid, values):
            out.writerow([_full(float(x)), _full(float(phi))])
