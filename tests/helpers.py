"""Small builders shared across the test modules."""

from __future__ import annotations

import csv
import io
import sys
from pathlib import Path

import numpy as np

import entroscore as es
from entroscore import density

# Text drawn for a CSV file holds the characters that make csv quote a
# field, and a NUL.
CSV_SPECIALS = ',"\r\n\0'


def simple_schema(m: int, inverse: tuple[int, ...] = ()) -> es.Schema:
    """m generated indicators, the listed column indices marked inverse."""
    specs = tuple(
        es.IndicatorSpec(
            f"ind_{j:02d}",
            "operation",
            "inverse" if j in inverse else "positive",
        )
        for j in range(m)
    )
    return es.Schema(specs)


def random_dataset(rng, n: int, m: int, inverse: tuple[int, ...] = (),
                   low: float = 0.0, high: float = 10.0) -> es.RawDataset:
    values = rng.uniform(low, high, size=(n, m))
    ids = tuple(f"row{i:04d}" for i in range(n))
    return es.RawDataset(ids, values, simple_schema(m, inverse))


def bench_dataset(rows: int, seed: int) -> es.RawDataset:
    """bench/workloads.generate's library data at rows x 17."""
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    if bench not in sys.path:
        sys.path.append(bench)
    import workloads

    shape = workloads.Spec("lib", "continuous", rows=rows, indicators=17, drop_share=0.0, threads=1)
    inputs = workloads.generate(shape, seed)
    specs = tuple(
        es.IndicatorSpec(name, category, "inverse" if inverse else "positive")
        for name, category, inverse in zip(inputs.names, inputs.categories, inputs.inverse)
    )
    return es.RawDataset(inputs.kept_ids, inputs.clean, es.Schema(specs))


def record_spectra(monkeypatch) -> list:
    """Make density._spectra log (rows, spectrum length) of every call into the returned list."""
    calls = []
    spectra = density._spectra

    def recorded(moments, kernels, rows):
        calls.append((rows, kernels.shape[1]))
        return spectra(moments, kernels, rows)

    monkeypatch.setattr(density, "_spectra", recorded)
    return calls


def csv_bytes(header, rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue().encode("utf-8")


def read_records(path) -> list[list[str]]:
    """Every record of a CSV file, as csv.reader reads it."""
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def dataset_csv_bytes(dataset: es.RawDataset) -> bytes:
    header = ["entity_id"] + list(dataset.schema.names)
    rows = [
        [dataset.entity_ids[i]] + [repr(v) for v in dataset.values[i]]
        for i in range(len(dataset.entity_ids))
    ]
    return csv_bytes(header, rows)
