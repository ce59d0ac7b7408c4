"""Small builders shared across the test modules."""

from __future__ import annotations

import contextlib
import csv
import io
import math
import sys
from pathlib import Path
from unittest import mock

import numpy as np

import entroscore as es
from entroscore import density, entropy

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


def exact_entropy(cdf, config: es.QuadratureConfig = es.DEFAULT_QUADRATURE) -> float:
    """continuous_entropy(cdf, config) on cdf's exact values, as it comes
    out where a checked value is off: where grid_values' plan takes c >= 2,
    the Gauss-Legendre panel sum on cdf at the panel nodes, else Simpson's
    sum on cdf at the grid nodes."""
    plan = density._plan(config.points, cdf.bandwidth, cdf._span)
    if plan.kind != "fft" or plan.c < 2:
        return es.continuous_entropy(lambda grid: cdf(grid), config)
    layout = density._panels(plan.c, config.points)
    integrand = entropy._phi_log_phi(cdf(layout.nodes))
    integrand *= layout.weights
    value = float(-math.e * np.add.reduce(integrand))
    return min(max(value, 0.0), 1.0) + 0.0


# The builders of a column's coarse spectrum: _spectra's P rows at c > 1,
# _binned_spectrum's one row at c = 1.  Each returns a (rows, length) block.
SPECTRUM_BUILDERS = ("_spectra", "_binned_spectrum")


def record_spectra(monkeypatch) -> list:
    """Make density log (rows, spectrum length) of every coarse spectrum it
    builds, at c = 1 too, into the returned list."""
    calls = []

    def logged(build):
        def call(*args):
            out = build(*args)
            calls.append(out.shape)
            return out

        return call

    for name in SPECTRUM_BUILDERS:
        monkeypatch.setattr(density, name, logged(getattr(density, name)))
    return calls


@contextlib.contextmanager
def wrapped_spectra(wrap):
    """Within the block, density builds every coarse spectrum by wrap(builder)."""
    with contextlib.ExitStack() as stack:
        for name in SPECTRUM_BUILDERS:
            stack.enter_context(mock.patch.object(density, name, wrap(getattr(density, name))))
        yield


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
