"""Small builders shared across the test modules."""

from __future__ import annotations

import csv
import io

import numpy as np

import entroscore as es
from entroscore import scoring


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


def record_pool_starts(monkeypatch) -> list:
    """Make scoring's thread pools log their max_workers into the returned list."""
    started = []

    class Recording(scoring.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(scoring, "ThreadPoolExecutor", Recording)
    return started


def csv_bytes(header, rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue().encode("utf-8")


def dataset_csv_bytes(dataset: es.RawDataset) -> bytes:
    header = ["entity_id"] + list(dataset.schema.names)
    rows = [
        [dataset.entity_ids[i]] + [repr(v) for v in dataset.values[i]]
        for i in range(len(dataset.entity_ids))
    ]
    return csv_bytes(header, rows)
