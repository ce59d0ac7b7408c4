"""entroscore benchmark: seeded, single-process, closed-loop (one client;
each op starts when the previous one ends).  One op is one whole
evaluation; every op's output is checked against an independent
reference (reference.py).

Usage, from the repository root:

    python3 bench/run.py --workload cli_kde --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

--trace 0 reports the end-to-end metrics, timed with tracing off.  Each
timed op follows a fixed calibration computation, and op times are also
reported in units of it (the *_rel metrics), which cancels the drift in
machine speed that a shared host shows from minute to minute.
--trace 1 alternates untraced and traced ops and reports the per-layer
metrics from the traced ones (tracer.py).  The last stdout line is one JSON
object {correct, attempted, failed, metrics}; the lines before it are a
readable summary and the run record.  Scratch files, the run record and
the span log go to .bench_work/ under the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np
import scipy
from scipy.special import ndtr

import reference
import workloads
from tracer import METRICS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_TIMED_OPS = 100  # ten samples beyond the 90th percentile
MIN_TRACED_PAIRS = 10
MAX_LOOP_S = 120.0  # keeps a slow machine inside the 180 s run limit
SETUP_REPEATS = 4

# Bounded end-to-end metrics: the last stdout line carries exactly these.
END_TO_END = {
    "setup_s": "s",
    "eval_p50_rel": "ratio",
    "op_peak_mb": "MB",
}
# Printed and kept in the run record, but not bounded.  On a shared 2-core
# VM the CPU itself slows by up to 1.7x for seconds to minutes at a time
# (an op's thread CPU time slows with its wall time, so this is not
# descheduling).  Over ten 30 s runs per workload spread over 20 minutes,
# the quartile spread of the 10th, 50th and 90th percentile op time in
# seconds reached 22-27% of the median on some workload; divided by the
# calibration before each op, the median stayed within 5%, and the 90th
# percentile reached 12.4%, too close to a 25% bound to carry one.
UNBOUNDED = {"eval_p90_rel": "ratio", "eval_p50_s": "s", "eval_p90_s": "s", "cells_per_s": "cells/s"}
CAL_LOOP = 150_000
CAL_CHUNKS = 8
CAL_POINTS = 50_000  # per chunk


class Tally:
    """Attempted and failed ops, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append("; ".join(problems))


def attempt(op, check):
    """Run one op; return (wall seconds, outcome or None, problems)."""
    op.reset()
    gc.collect()
    t0 = time.perf_counter()
    try:
        outcome = op.run()
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        return time.perf_counter() - t0, None, [f"raised {exc!r}"]
    wall = time.perf_counter() - t0
    try:
        problems = check(op.collect(outcome))
    except Exception as exc:  # output too malformed for the checker to read
        problems = [f"output check raised {exc!r}"]
    return wall, outcome, problems


def calibration_s(cal_map) -> float:
    """Wall time of a fixed computation that mixes the program's two kinds
    of work: interpreted Python (CSV parsing, report formatting) and scipy's
    ndtr over freshly allocated arrays (the kernel CDF).  The ndtr chunks go
    through cal_map: the builtin map for a one-thread op, or a pool with as
    many threads as the op's, so the calibration runs on the CPUs the op
    runs on.  It depends on no entroscore code, so only the machine's speed
    moves it."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOP):
        acc += i * i % 7
    list(cal_map(_cal_chunk, [CAL_POINTS] * CAL_CHUNKS))
    return time.perf_counter() - t0


def _cal_chunk(points: int) -> float:
    return float(ndtr(np.linspace(-3.0, 3.0, points)).mean())


def peak_mb(op, check, tally: Tally) -> float:
    """tracemalloc peak of one untimed op, in MB (numpy reports its buffers)."""
    tracemalloc.start()
    try:
        _, _, problems = attempt(op, check)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tally.add(problems)
    return peak / 1e6


def setup_probe(op_file: Path, tally: Tally) -> float | None:
    """import entroscore.cli plus the first op, in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), str(op_file)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    if proc.returncode != 0:
        tally.add([f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}"])
        return None
    rec = json.loads(proc.stdout.splitlines()[-1])
    tally.add([] if rec["exit_code"] == 0 else [f"set-up op exited {rec['exit_code']}"])
    return rec["import_s"] + rec["first_op_s"]


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    spec: workloads.Spec | None = None,
    min_ops: int = MIN_TIMED_OPS,
    setup_repeats: int = SETUP_REPEATS,
) -> tuple[dict, dict]:
    """Run one workload; return (result object, run record)."""
    spec = spec or workloads.WORKLOADS[name]
    workdir = WORK / f"{name}-s{seed}-t{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    inputs = workloads.generate(spec, seed)
    desc = workloads.write_inputs(spec, inputs, workdir)
    op_file = workdir / "op.json"
    op_file.write_text(json.dumps(desc), encoding="utf-8")
    try:
        # The reference is computed once, outside every timed interval.
        reference.check_quadrature()
        ref = reference.build(inputs, spec.method)
        check_fn = reference.check_cli if spec.kind == "cli" else reference.check_lib

        def check(outcome):
            return check_fn(ref, outcome)

        tally = Tally()
        op = workloads.make_op(desc)
        if trace:
            metrics, pairs, absent = _traced(op, check, tally, seconds, workdir)
            ops = {"traced": pairs}
            extra = {"trace_absent": absent}
            units = METRICS
        else:
            threads = min(spec.threads, workloads.nproc())
            metrics, times, cals = _untraced(
                op, op_file, check, tally, seconds, min_ops, setup_repeats, inputs.cells, threads
            )
            ops = {"setup_probes": setup_repeats, "timed": len(times)}
            extra = {"op_times_s": times, "calibration_s": cals}
            units = END_TO_END
    finally:
        for leftover in ("input.csv", "dataset.npz", "out"):
            path = workdir / leftover
            shutil.rmtree(path) if path.is_dir() else path.unlink(missing_ok=True)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": workloads.nproc(),
        "spec": asdict(spec),
        "shape": {
            "rows": spec.rows,
            "retained": len(inputs.kept_ids),
            "dropped": len(inputs.dropped_ids),
            "indicators": spec.indicators,
        },
        "ops": ops,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.failed / tally.attempted,
        "problems": tally.problems,
        "unbounded": {k: {"value": float(metrics[k]), "unit": u} for k, u in UNBOUNDED.items() if k in metrics},
        **extra,
    }
    (workdir / "record.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return result, record


def _untraced(op, op_file, check, tally: Tally, seconds, min_ops, setup_repeats, cells, threads):
    """Timed closed loop, with the set-up probes spread evenly over it.

    A shared VM can drift between fast and slow phases lasting tens of
    seconds; probes spread over the run see the same mix as the timed ops.
    Probe time is kept off the loop's clock.  Each timed op follows a
    calibration (calibration_s), and *_rel divides the op's time by it:
    the two run within a fraction of a second of each other, so the ratio
    keeps the program's cost and drops most of the machine's drift.
    """
    setups = [setup_probe(op_file, tally)]
    _, _, problems = attempt(op, check)  # warm-up, excluded from eval_*
    tally.add(problems)
    peak = peak_mb(op, check, tally)
    times, cals = [], []
    paused = 0.0
    with ThreadPoolExecutor(max_workers=threads) as pool:
        cal_map = pool.map if threads > 1 else map
        start = time.perf_counter()
        while True:
            clock = time.perf_counter() - start - paused
            if len(setups) < setup_repeats and clock >= seconds * len(setups) / setup_repeats:
                t0 = time.perf_counter()
                setups.append(setup_probe(op_file, tally))
                paused += time.perf_counter() - t0
            elif (len(times) < min_ops or clock < seconds) and clock < MAX_LOOP_S:
                cal = calibration_s(cal_map)
                wall, _, problems = attempt(op, check)
                tally.add(problems)
                times.append(wall)
                cals.append(cal)
            else:
                break
    setups = [s for s in setups if s is not None]
    if not setups:
        raise RuntimeError("every set-up probe failed")
    ratios = [t / c for t, c in zip(times, cals)]
    metrics = {
        "setup_s": statistics.median(setups),
        "eval_p50_rel": statistics.median(ratios),
        "eval_p90_rel": _p90(ratios),
        "eval_p50_s": statistics.median(times),
        "eval_p90_s": _p90(times),
        "cells_per_s": cells * len(times) / sum(times),
        "op_peak_mb": peak,
    }
    return metrics, times, cals


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]


def _traced(op, check, tally: Tally, seconds: float, workdir: Path):
    """Alternate untraced and traced ops; per-layer medians of the traced."""
    _, _, problems = attempt(op, check)  # warm-up
    tally.add(problems)
    tracer = Tracer()
    untraced = []
    pairs = 0
    start = time.perf_counter()
    while (pairs < MIN_TRACED_PAIRS or time.perf_counter() - start < seconds) and (
        time.perf_counter() - start < MAX_LOOP_S
    ):
        wall, plain, problems = attempt(op, check)
        tally.add(problems)
        untraced.append(wall)
        tracer.install(pairs)
        try:
            wall, traced, problems = attempt(op, check)
        finally:
            tracer.uninstall()
        if plain is not None and traced is not None and plain.fingerprint() != traced.fingerprint():
            problems = problems + ["traced op output differs from the untraced op"]
        tally.add(problems)
        tracer.op_walls[pairs] = wall
        pairs += 1
    tracer.write(workdir / "spans.jsonl")
    return tracer.metrics(statistics.median(untraced)), pairs, tracer.absent


def summary(result: dict, record: dict) -> str:
    ops = ", ".join(f"{k} {v}" for k, v in record["ops"].items())
    lines = [f"{record['workload']}  seed {record['seed']}  shape {record['shape']}  ops: {ops}"]
    for name, m in {**result["metrics"], **record["unbounded"]}.items():
        lines.append(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    lines.append(
        f"  {'error_rate':<36} {record['error_rate']:.6g} ratio "
        f"({record['failed']} failed / {record['attempted']} attempted)"
    )
    for problem in record["problems"]:
        lines.append(f"  failure: {problem}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "entroscore" / "__init__.py").is_file():
        print(f"error: no entroscore sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import entroscore

    if Path(entroscore.__file__).resolve().parent != (SRC / "entroscore").resolve():
        print(f"error: entroscore imported from {entroscore.__file__}, not {SRC}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(summary(result, record))
        print("record " + json.dumps(record))
        results[name] = result
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
