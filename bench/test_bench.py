"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "cli_kde": replace(workloads.WORKLOADS["cli_kde"], rows=20, indicators=6),
    "cli_ingest": replace(workloads.WORKLOADS["cli_ingest"], rows=300, indicators=6),
    "lib_wide": replace(workloads.WORKLOADS["lib_wide"], rows=12, indicators=8),
}


def _op(name: str, tmp_path: Path, seed: int = 5):
    spec = TINY[name]
    inputs = workloads.generate(spec, seed)
    op = workloads.make_op(workloads.write_inputs(spec, inputs, tmp_path))
    ref = reference.build(inputs, spec.method)
    check = reference.check_cli if spec.kind == "cli" else reference.check_lib
    return op, ref, check


def _run(op):
    op.reset()
    return op.collect(op.run())


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_runs_clean_at_tiny_size(name, trace):
    result, record = run.run_workload(name, 7, 0.0, trace, spec=TINY[name], min_ops=3, setup_repeats=1)
    assert result["correct"] and result["failed"] == 0 and record["error_rate"] == 0
    expected = tracer.METRICS if trace else run.END_TO_END
    assert list(result["metrics"]) == list(expected)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert record["trace_absent"] == []


def test_generator_is_seeded_and_drops_only_corrupted_rows():
    spec = TINY["cli_ingest"]
    a, b = workloads.generate(spec, 3), workloads.generate(spec, 3)
    assert a.csv_text == b.csv_text and a.kept_ids == b.kept_ids
    assert workloads.generate(spec, 4).csv_text != a.csv_text
    assert len(a.dropped_ids) == 3 and not set(a.dropped_ids) & set(a.kept_ids)


def test_reference_quadrature_reproduces_closed_forms():
    reference.check_quadrature()


def test_checker_catches_perturbed_weights_and_swapped_rank(tmp_path):
    op, ref, check = _op("cli_kde", tmp_path)
    good = _run(op)
    assert check(ref, good) == []

    weights = good.files["weights.csv"].decode().splitlines()
    cells = weights[1].split(",")
    cells[3] = repr(float(cells[3]) + 1e-5)
    bad = replace(good, files={**good.files, "weights.csv": "\n".join([weights[0], ",".join(cells), *weights[2:]]).encode()})
    assert any("weight" in p for p in check(ref, bad))

    rows = good.files["scores.csv"].decode().splitlines()
    first, second = (r.split(",") for r in rows[1:3])
    first[2], second[2] = second[2], first[2]
    swapped = "\n".join([rows[0], ",".join(first), ",".join(second), *rows[3:]]) + "\n"
    bad = replace(good, files={**good.files, "scores.csv": swapped.encode()})
    assert "ranks disagree with the scores" in check(ref, bad)


def test_checker_catches_swapped_library_ranking(tmp_path):
    op, ref, check = _op("lib_wide", tmp_path)
    good = _run(op)
    assert check(ref, good) == []
    ranking = good.report.ranking.copy()
    ranking[[0, 1]] = ranking[[1, 0]]

    report = SimpleNamespace(**{k: getattr(good.report, k) for k in ("entropies", "weights", "scores")})
    report.ranking = ranking
    assert "ranks disagree with the scores" in check(ref, replace(good, report=report))


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_op_output_is_byte_identical(name, tmp_path):
    op, ref, check = _op(name, tmp_path)
    plain = _run(op)
    t = tracer.Tracer()
    t.install(0)
    try:
        traced = _run(op)
    finally:
        t.uninstall()
    assert traced.fingerprint() == plain.fingerprint()
    assert check(ref, traced) == []
    names = {s.name for s in t.spans}
    assert tracer.PIPELINE in names
    assert ("density.cdf_eval" in names) == (TINY[name].method == "continuous")


def test_uninstall_restores_every_target():
    import entroscore
    from entroscore import cli, density, scoring

    before = (cli.run, cli.parse_csv, scoring.select_bandwidth, entroscore.run_pipeline,
              vars(density.CdfEstimate)["__call__"])
    t = tracer.Tracer()
    t.install(0)
    assert cli.run is not before[0]
    t.uninstall()
    after = (cli.run, cli.parse_csv, scoring.select_bandwidth, entroscore.run_pipeline,
             vars(density.CdfEstimate)["__call__"])
    assert after == before


def test_missing_hook_target_is_absent_not_fatal(tmp_path):
    op, ref, check = _op("cli_kde", tmp_path)
    targets = tracer.TARGETS + (
        ("entroscore.cli", "no_such_function", "cli.gone"),
        ("entroscore.no_such_module", "f", "ingest.gone"),
        ("entroscore.density", "NoSuchClass.__call__", "density.gone"),
    )
    t = tracer.Tracer(targets)
    assert t.absent == [
        "entroscore.cli:no_such_function",
        "entroscore.no_such_module:f",
        "entroscore.density:NoSuchClass.__call__",
    ]
    t.install(0)
    try:
        outcome = _run(op)
    finally:
        t.uninstall()
    assert check(ref, outcome) == []
    t.op_walls[0] = 1.0
    metrics = t.metrics(untraced_p50=1.0)
    assert set(metrics) == set(tracer.METRICS)


def test_self_times_on_blocking_path_sum_to_op_wall(tmp_path):
    op, _, _ = _op("cli_kde", tmp_path)
    t = tracer.Tracer()
    t.install(0)
    try:
        t0 = time.perf_counter()
        _run(op)
        wall = time.perf_counter() - t0
    finally:
        t.uninstall()
    m = t.op_metrics(0, wall)
    assert 0 <= m["trace.unattributed_s"] < 0.05 * wall + 0.005
    assert m["density.cdf_eval.calls"] == TINY["cli_kde"].indicators
    assert m["ingest.rows_read"] == TINY["cli_kde"].rows
    assert m["ingest.rows_dropped"] == 1
    assert m["ingest.bytes_in"] > 0 and m["report.bytes_out"] > 0


def test_union_of_intervals():
    assert tracer._union([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert tracer._union([(0, 2), (1, 3)], 1.5, 2.5) == 1
