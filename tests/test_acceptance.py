"""Acceptance gate for the scoring pipeline.

Nine criteria, each printing one PASS/FAIL line with its measured
numbers so a full run reads as a checklist.  Tolerances and runtime
budgets are part of the contract and are asserted, not just reported.
"""

from __future__ import annotations

import functools
import math
import time
import tracemalloc

import numpy as np
import pytest

import entroscore as es
from entroscore.cli import run as cli_run
from helpers import bench_dataset, csv_bytes, random_dataset, simple_schema

# Reference six-decimal entropy/weight table for the bundled financial
# indicator set, in default schema order.  The weights are what the
# proportional rule must reproduce from the entropies.
REFERENCE_ENTROPIES = np.array([
    0.586623, 0.661265, 0.519275, 0.571995, 0.513314, 0.621726,
    0.648959, 0.646658, 0.593187, 0.682999, 0.377522, 0.437174,
    0.275741, 0.410767, 0.673957, 0.476807, 0.727118,
])
REFERENCE_WEIGHTS = np.array([
    0.062241, 0.070160, 0.055095, 0.060689, 0.054463, 0.065965,
    0.068854, 0.068610, 0.062937, 0.072466, 0.040055, 0.046384,
    0.029256, 0.043582, 0.071507, 0.050589, 0.077147,
])
REFERENCE_ENTROPY_SUM = 9.425087


def check(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def best_time(fn, repeats):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_c1_weight_formula_reproduces_reference_table(capsys):
    assert abs(REFERENCE_ENTROPIES.sum() - REFERENCE_ENTROPY_SUM) < 1e-9
    weights = es.compute_weights(REFERENCE_ENTROPIES).weights
    err = float(np.max(np.abs(weights - REFERENCE_WEIGHTS)))
    elapsed = best_time(lambda: es.compute_weights(REFERENCE_ENTROPIES), 10)
    check(
        capsys,
        "weight formula vs reference table",
        err <= 5e-6 and elapsed < 1e-3,
        f"max abs err {err:.3e} (tol 5e-6), best {elapsed * 1e3:.3f} ms (< 1 ms)",
    )


def test_c2_closed_form_entropy_anchors(capsys):
    cfg = es.QuadratureConfig(points=10001)
    identity = lambda x: np.asarray(x, dtype=np.float64)
    square = lambda x: np.asarray(x, dtype=np.float64) ** 2
    degenerate = lambda x: np.ones_like(np.asarray(x, dtype=np.float64))

    err_lin = abs(es.continuous_entropy(identity, cfg) - math.e / 4)
    err_sq = abs(es.continuous_entropy(square, cfg) - 2 * math.e / 9)
    flat = es.continuous_entropy(degenerate, cfg)
    t_lin = best_time(lambda: es.continuous_entropy(identity, cfg), 5)
    t_sq = best_time(lambda: es.continuous_entropy(square, cfg), 5)
    ok = (
        err_lin <= 1e-6
        and err_sq <= 1e-6
        and flat == 0.0
        and math.copysign(1.0, flat) == 1.0
        and t_lin < 1e-2
        and t_sq < 1e-2
    )
    check(
        capsys,
        "closed-form entropy anchors",
        ok,
        f"|H(x)-e/4| {err_lin:.2e}, |H(x^2)-2e/9| {err_sq:.2e}, "
        f"H(1) {flat!r}, best {max(t_lin, t_sq) * 1e3:.2f} ms (< 10 ms each)",
    )


def test_c3_entropy_bounds_over_random_datasets(capsys):
    rng = np.random.default_rng(100)
    worst_sum_gap = 0.0
    lo, hi = math.inf, -math.inf
    for _ in range(200):
        n = int(rng.integers(10, 201))
        m = int(rng.integers(1, 21))
        inverse = tuple(j for j in range(m) if rng.uniform() < 0.3)
        ds = random_dataset(rng, n, m, inverse=inverse)
        report = es.evaluate(ds)
        h = report.entropies.entropies
        lo = min(lo, float(h.min()))
        hi = max(hi, float(h.max()))
        worst_sum_gap = max(
            worst_sum_gap, abs(float(report.weights.weights.sum()) - 1.0)
        )
    ok = lo >= 0.0 and hi <= 1.0 and worst_sum_gap <= 1e-12
    check(
        capsys,
        "entropy bounds over 200 random datasets",
        ok,
        f"entropy range [{lo:.4f}, {hi:.4f}] within [0, 1], "
        f"worst weight-sum gap {worst_sum_gap:.2e} (tol 1e-12)",
    )


def test_c4_kernel_cdf_fidelity_on_uniform_data(capsys):
    rng = np.random.default_rng(42)
    samples = rng.uniform(size=1000)
    cfg = es.QuadratureConfig()
    es.estimate_cdf(samples[:50], 0.1)(0.5)  # warm the kernel path

    t0 = time.perf_counter()
    bandwidth = es.select_bandwidth(samples)
    cdf = es.estimate_cdf(samples, bandwidth, boundary_correction=True)
    grid = np.linspace(0.0, 1.0, cfg.points)
    sup = float(np.max(np.abs(cdf(grid) - grid)))
    entropy = es.continuous_entropy(cdf, cfg)
    elapsed = time.perf_counter() - t0

    gap = abs(entropy - math.e / 4)
    ok = sup <= 0.05 and gap <= 0.03 and elapsed < 1.0
    check(
        capsys,
        "kernel CDF fidelity on 1000 uniform samples",
        ok,
        f"sup|phi - x| {sup:.4f} (tol 0.05), |H - e/4| {gap:.4f} (tol 0.03), "
        f"{elapsed * 1e3:.0f} ms (< 1 s)",
    )


def test_c5_pipeline_invariance_suite(capsys):
    rng = np.random.default_rng(500)
    instances = 100

    # Positive-affine rescaling of raw columns.  Integer-valued data and
    # integer coefficients keep every intermediate exact in float64, so
    # the normalized matrices, and everything computed from them, must
    # agree to the bit.
    affine_ok = 0
    for _ in range(instances):
        n = int(rng.integers(10, 41))
        m = int(rng.integers(1, 6))
        inverse = tuple(j for j in range(m) if rng.uniform() < 0.3)
        schema = simple_schema(m, inverse)
        values = rng.integers(-1000, 1000, size=(n, m)).astype(np.float64)
        values += np.arange(n)[:, None]  # spread keeps columns non-degenerate
        ids = tuple(f"e{i}" for i in range(n))
        base = es.evaluate(es.RawDataset(ids, values, schema))
        a = rng.integers(1, 20, size=m).astype(np.float64)
        b = rng.integers(-100, 100, size=m).astype(np.float64)
        moved = es.evaluate(es.RawDataset(ids, values * a + b, schema))
        if np.array_equal(moved.scores, base.scores) and np.array_equal(
            moved.weights.weights, base.weights.weights
        ):
            affine_ok += 1

    # Row permutations permute scores, bit for bit.
    perm_ok = 0
    for _ in range(instances):
        n = int(rng.integers(10, 41))
        m = int(rng.integers(1, 6))
        ds = random_dataset(rng, n, m)
        base = es.evaluate(ds)
        perm = rng.permutation(n)
        shuffled = es.RawDataset(
            tuple(ds.entity_ids[i] for i in perm), ds.values[perm], ds.schema
        )
        if np.array_equal(es.evaluate(shuffled).scores, base.scores[perm]):
            perm_ok += 1

    # The two normalization directions mirror each other exactly.
    mirror_ok = 0
    for _ in range(instances):
        col = rng.normal(scale=rng.uniform(0.5, 1e3), size=rng.integers(2, 120))
        if np.array_equal(es.normalize_inverse(col), es.normalize_positive(-col)):
            mirror_ok += 1

    # A row strictly better on every indicator must outscore the row it
    # dominates.
    dom_ok = 0
    for _ in range(instances):
        n = int(rng.integers(10, 41))
        m = int(rng.integers(1, 6))
        inverse = tuple(j for j in range(m) if rng.uniform() < 0.3)
        ds = random_dataset(rng, n, m, inverse=inverse)
        values = ds.values.copy()
        worse, better = 0, 1
        margin = rng.uniform(0.5, 2.0, size=m)
        step = np.where([j in inverse for j in range(m)], -margin, margin)
        values[better] = values[worse] + step
        dominated = es.RawDataset(ds.entity_ids, values, ds.schema)
        report = es.evaluate(dominated)
        if report.scores[better] > report.scores[worse]:
            dom_ok += 1

    ok = affine_ok == perm_ok == mirror_ok == dom_ok == instances
    check(
        capsys,
        "pipeline invariance suite",
        ok,
        f"affine {affine_ok}/{instances}, permutation {perm_ok}/{instances}, "
        f"mirror {mirror_ok}/{instances}, dominance {dom_ok}/{instances}",
    )


def test_c6_composite_score_brute_force_oracle(capsys):
    rng = np.random.default_rng(600)
    worst = 0.0
    for _ in range(200):
        values = rng.uniform(size=(5, 3))
        w = rng.uniform(0.05, 1.0, size=3)
        w /= w.sum()
        scores = es.composite_scores(values, w)
        for i in range(5):
            acc = 0.0
            for j in range(3):
                acc += w[j] * values[i, j]
            worst = max(worst, abs(float(scores[i]) - 100.0 * acc))
    check(
        capsys,
        "composite score brute-force oracle",
        worst <= 1e-12,
        f"worst abs diff {worst:.3e} over 200 random 5x3 instances (tol 1e-12)",
    )


def test_c7_missing_row_policy(capsys):
    rng = np.random.default_rng(700)
    schema = es.default_schema()
    names = list(schema.names)
    rows = []
    for i in range(108):
        rows.append([f"c{i:03d}"] + [f"{rng.uniform(0.5, 9.5):.6f}" for _ in names])
    rows[12][3] = "na"      # one missing cell each; the whole row goes
    rows[47][9] = ""
    rows[88][14] = "n/a-ish"
    payload = csv_bytes(["entity_id"] + names, rows)

    dataset, report = es.parse_csv(payload, schema)
    evaluation = es.evaluate(dataset)
    ok = (
        report.rows_read == 108
        and report.rows_dropped == 3
        and report.rows_retained == 105
        and len(dataset.entity_ids) == 105
        and set(report.dropped_ids) == {"c012", "c047", "c088"}
        and evaluation.stats.obs == 105
    )
    check(
        capsys,
        "missing-row policy",
        ok,
        f"read {report.rows_read}, dropped {report.rows_dropped} "
        f"({', '.join(report.dropped_ids)}), evaluated {evaluation.stats.obs}",
    )


def test_c8_thread_count_byte_determinism(capsys, tmp_path):
    rng = np.random.default_rng(800)
    schema = es.default_schema()
    names = list(schema.names)
    rows = [
        [f"c{i:03d}"] + [f"{rng.uniform(0.5, 9.5):.6f}" for _ in names]
        for i in range(60)
    ]
    csv_path = tmp_path / "data.csv"
    csv_path.write_bytes(csv_bytes(["entity_id"] + names, rows))

    outputs = {}
    stdouts = {}
    for threads in ("1", "8"):
        out_dir = tmp_path / f"t{threads}"
        code = cli_run([
            "evaluate", "--input", str(csv_path),
            "--out-dir", str(out_dir),
            "--dump-normalized", "--dump-cdf",
            "--threads", threads,
        ])
        assert code == 0
        stdouts[threads] = capsys.readouterr().out
        outputs[threads] = {
            p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
        }

    same_names = sorted(outputs["1"]) == sorted(outputs["8"])
    same_bytes = same_names and all(
        outputs["1"][name] == outputs["8"][name] for name in outputs["1"]
    )
    same_stdout = stdouts["1"] == stdouts["8"]
    ok = same_bytes and same_stdout and len(outputs["1"]) == 3 + len(names)
    check(
        capsys,
        "thread-count byte determinism",
        ok,
        f"{len(outputs['1'])} report files byte-identical across --threads 1/8, "
        f"stdout identical: {same_stdout}",
    )


# C9's budget.  A 2-core VM (Python 3.11, numpy 2.4) ran it in 1.0-1.1 s,
# where a kernel CDF that left bandwidths under three grid steps to the
# exact O(points * rows) sum took 46 s; the budget leaves room for a
# slower host.
LARGE_RUN_BUDGET_S = 5.0

# C9's memory bound, as a multiple of the raw matrix's bytes.  The run
# holds two matrix-sized arrays throughout, the normalized matrix and the
# estimates' sorted copy of it; the set-up's and the scores' blocks and a
# column's scratch must fit in the other half matrix.  A run that copied
# the normalized matrix again, or formed a matrix-sized temporary, peaked
# at 3.06 times the data (41.6 MB).
LARGE_RUN_PEAK_RATIO = 2.5


@functools.lru_cache(maxsize=1)
def _large_dataset() -> es.RawDataset:
    # bench/workloads.generate's column shapes at 100000 x 17, where three
    # lognormal columns have a Silverman h of about two grid steps.
    return bench_dataset(100_000, 11)


def test_c9_large_run_finishes_in_seconds(capsys):
    ds = _large_dataset()
    es.run_pipeline(bench_dataset(70, 11))  # imports and caches out of the timed run
    t0 = time.perf_counter()
    run = es.run_pipeline(ds, es.EvaluationOptions(threads=1))
    elapsed = time.perf_counter() - t0
    weights = run.report.weights.weights
    ok = elapsed < LARGE_RUN_BUDGET_S and abs(float(weights.sum()) - 1.0) <= 1e-12
    check(
        capsys,
        "100000 x 17 continuous run on one thread",
        ok,
        f"{elapsed:.2f} s (< {LARGE_RUN_BUDGET_S:g} s), weight sum {float(weights.sum())!r}",
    )


def test_c9_large_run_holds_few_copies_of_its_data(capsys):
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing; its peak is not this test's")
    ds = _large_dataset()
    es.run_pipeline(bench_dataset(70, 11))  # imports and caches out of the measured run
    tracemalloc.start()
    try:
        es.run_pipeline(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ratio = peak / ds.values.nbytes
    check(
        capsys,
        "100000 x 17 continuous run's peak memory",
        ratio <= LARGE_RUN_PEAK_RATIO,
        f"{peak / 1e6:.1f} MB, {ratio:.2f} times the data (<= {LARGE_RUN_PEAK_RATIO:g})",
    )
