"""Seeded workload inputs and the one-operation runners the benchmark times.

Every input is generated from the run's seed; the program under test sees
only the generated files (CLI workloads) or the generated RawDataset
(library workload).  One operation is one whole evaluation.

Column shapes cycle through a mix chosen to hit the kernel-CDF code in
different regimes: uniform, normal, heavy-tailed lognormal (small
Silverman bandwidth), integer-valued with ties, bimodal, and
mostly-constant with outliers (IQR 0, so Silverman's rule takes its
fallback branch).  CLI inputs also carry rows with one bad cell, which
the ingest drop policy must remove.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtri

SHAPES = ("uniform", "normal", "lognormal", "integer", "bimodal", "spiky")
CATEGORIES = ("profitability", "solvency", "sustainable_development", "operation")
# Column indices marked as lower-is-better in every generated schema.
INVERSE_COLUMNS = (1, 4)
# Cells that the drop policy treats as missing ("", na, nan in any case)
# or as unparseable.  None of them parses to a float, so none can turn
# into an inf that would fail validation instead of dropping the row.
BAD_CELLS = ("", " ", "na", "NA", "Na", "nan", "NaN", "NAN", "n/a", "?", "1.2.3", "abc", "--", "0x1F")
TRUNCATED = "<truncated>"


@dataclass(frozen=True)
class Spec:
    """Shape and call path of one workload."""

    kind: str  # "cli" runs `entroscore evaluate` in-process; "lib" calls run_pipeline
    method: str
    rows: int  # data rows, corrupted ones included
    indicators: int
    drop_share: float  # share of rows given one bad cell
    threads: int  # --threads for the CLI; the library workload keeps the default


# Op sizes keep one op near 0.12-0.2 s on a 2-core machine, so a 30 s run
# holds the >= 100 timed ops that a 10th or 90th percentile with ten
# samples beyond it needs.
WORKLOADS = {
    # density.cdf_eval is ~95% of the op; the thread pool is live.
    "cli_kde": Spec("cli", "continuous", rows=70, indicators=17, drop_share=0.01, threads=2),
    # density is never called; CSV parsing and report writing dominate.
    "cli_ingest": Spec("cli", "discrete", rows=4000, indicators=17, drop_share=0.01, threads=2),
    # Short columns through the library default (one thread, no CSV), so
    # the fixed per-column cost shows next to the kernel CDF.
    "lib_wide": Spec("lib", "continuous", rows=40, indicators=16, drop_share=0.0, threads=1),
}


@dataclass(frozen=True)
class Inputs:
    """Generated data plus what the program must make of it."""

    names: tuple[str, ...]
    categories: tuple[str, ...]
    inverse: np.ndarray  # bool mask over indicators
    clean: np.ndarray  # retained rows x indicators, file order
    kept_ids: tuple[str, ...]
    dropped_ids: tuple[str, ...]
    csv_text: str | None

    @property
    def cells(self) -> int:
        return self.clean.size


def _column(shape: str, n: int, rng: np.random.Generator) -> np.ndarray:
    # Stratified draws: one point from the middle half of each of n equal
    # probability strata, in random order.  Each seed gets a different
    # sample of the same distribution, but the tails, and with them the
    # bandwidth and the kernel's cost, vary little from seed to seed.
    u = (rng.permutation(n) + 0.25 + 0.5 * rng.random(n)) / n
    if shape == "uniform":
        x = -5.0 + 10.0 * u
    elif shape == "normal":
        x = 100.0 + 15.0 * ndtri(u)
    elif shape == "lognormal":
        x = np.exp(1.5 * ndtri(u))
    elif shape == "integer":
        x = np.floor(6.0 * u)
    elif shape == "bimodal":
        x = np.where(u < 0.5, -2.0 + 0.5 * ndtri(2.0 * u), 2.0 + 0.5 * ndtri(2.0 * u - 1.0))
    else:  # spiky: at most 1 in 20 values off the constant, so the IQR is 0
        x = np.full(n, 3.0)
        k = max(1, n // 20)
        size = 1.0 + 49.0 * (rng.permutation(k) + rng.random(k)) / k
        x[rng.choice(n, size=k, replace=False)] += size * np.where(np.arange(k) % 2, -1.0, 1.0)
    if x.max() == x.min():  # a degenerate column would fail the run
        x[0] += 1.0
    return x


def generate(spec: Spec, seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    m = spec.indicators
    shapes = [SHAPES[j % len(SHAPES)] for j in range(m)]
    names = tuple(f"{shape}_{j:03d}" for j, shape in enumerate(shapes))
    categories = tuple(CATEGORIES[j % len(CATEGORIES)] for j in range(m))
    inverse = np.array([j in INVERSE_COLUMNS for j in range(m)])

    n_drop = int(round(spec.rows * spec.drop_share))
    if spec.drop_share > 0:
        n_drop = max(1, n_drop)
    n_keep = spec.rows - n_drop
    clean = np.column_stack([_column(shape, n_keep, rng) for shape in shapes])
    ids = [f"E{i:06d}" for i in range(spec.rows)]
    drop_at = set(rng.choice(spec.rows, size=n_drop, replace=False).tolist())
    kept_ids = tuple(eid for i, eid in enumerate(ids) if i not in drop_at)
    dropped_ids = tuple(eid for i, eid in enumerate(ids) if i in drop_at)

    csv_text = None
    if spec.kind == "cli":
        lines = ["entity_id," + ",".join(names)]
        k = 0
        for i, eid in enumerate(ids):
            if i in drop_at:
                cells = [repr(float(v)) for v in rng.uniform(0.0, 1.0, m)]
                bad = BAD_CELLS + (TRUNCATED,) * 4  # about 1 drop in 5 is a short row
                token = bad[rng.integers(len(bad))]
                at = int(rng.integers(m))
                if token == TRUNCATED:
                    cells = cells[:at]
                else:
                    cells[at] = token
                lines.append(",".join([eid, *cells]))
            else:
                lines.append(",".join([eid, *(repr(float(v)) for v in clean[k])]))
                k += 1
        csv_text = "\n".join(lines) + "\n"
    return Inputs(names, categories, inverse, clean, kept_ids, dropped_ids, csv_text)


@dataclass
class Outcome:
    """Everything one op produced, for checking and byte comparison."""

    exit_code: int
    stdout: str = ""
    stderr: str = ""
    files: dict | None = None  # CSV name -> bytes (CLI)
    report: object = None  # EvaluationReport (library)

    def fingerprint(self) -> bytes:
        """Bytes that traced and untraced ops must reproduce exactly."""
        parts = [self.stdout.encode(), self.stderr.encode()]
        for name in sorted(self.files or {}):
            parts += [name.encode(), self.files[name]]
        if self.report is not None:
            r = self.report
            for arr in (r.entropies.entropies, r.weights.weights, r.scores, r.ranking):
                parts.append(np.ascontiguousarray(arr).tobytes())
        return b"\0".join(parts)


OUTPUT_FILES = ("weights.csv", "scores.csv")


class CliOp:
    """`entroscore evaluate` through cli.run, stdout and stderr captured."""

    def __init__(self, argv: list[str], out_dir: Path):
        self.argv = argv
        self.out_dir = out_dir

    def reset(self) -> None:
        for name in OUTPUT_FILES:
            with contextlib.suppress(FileNotFoundError):
                (self.out_dir / name).unlink()

    def run(self) -> Outcome:
        from entroscore import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(self.argv)
        return Outcome(code, out.getvalue(), err.getvalue())

    def collect(self, outcome: Outcome) -> Outcome:
        """Read the CSVs the op wrote (kept out of the timed interval)."""
        outcome.files = {}
        for name in OUTPUT_FILES:
            path = self.out_dir / name
            outcome.files[name] = path.read_bytes() if path.exists() else b""
        return outcome


class LibOp:
    """entroscore.run_pipeline on an in-memory dataset, default options."""

    def __init__(self, dataset):
        self.dataset = dataset

    def reset(self) -> None:
        pass

    def run(self) -> Outcome:
        import entroscore

        return Outcome(0, report=entroscore.run_pipeline(self.dataset).report)

    def collect(self, outcome: Outcome) -> Outcome:
        return outcome


def write_inputs(spec: Spec, inputs: Inputs, workdir: Path) -> dict:
    """Write the op's inputs under workdir; return a JSON-able op description."""
    workdir.mkdir(parents=True, exist_ok=True)
    if spec.kind == "cli":
        schema = {
            "version": 1,
            "indicators": [
                {"name": n, "category": c, "direction": "inverse" if inv else "positive"}
                for n, c, inv in zip(inputs.names, inputs.categories, inputs.inverse)
            ],
        }
        (workdir / "schema.json").write_text(json.dumps(schema, indent=2) + "\n", encoding="utf-8")
        (workdir / "input.csv").write_text(inputs.csv_text, encoding="utf-8", newline="")
        threads = min(spec.threads, nproc())
        argv = [
            "evaluate",
            "--input", str(workdir / "input.csv"),
            "--schema", str(workdir / "schema.json"),
            "--method", spec.method,
            "--threads", str(threads),
            "--out-dir", str(workdir / "out"),
        ]
        return {"kind": "cli", "argv": argv, "out_dir": str(workdir / "out")}
    np.savez(
        workdir / "dataset.npz",
        values=inputs.clean,
        ids=np.array(inputs.kept_ids),
        names=np.array(inputs.names),
        categories=np.array(inputs.categories),
        inverse=inputs.inverse,
    )
    return {"kind": "lib", "npz": str(workdir / "dataset.npz")}


def make_op(desc: dict):
    """Build the op from write_inputs' description; imports entroscore."""
    if desc["kind"] == "cli":
        return CliOp(list(desc["argv"]), Path(desc["out_dir"]))
    import entroscore as es

    with np.load(desc["npz"]) as z:
        specs = tuple(
            es.IndicatorSpec(str(n), str(c), "inverse" if inv else "positive")
            for n, c, inv in zip(z["names"], z["categories"], z["inverse"])
        )
        dataset = es.RawDataset(tuple(str(i) for i in z["ids"]), z["values"], es.Schema(specs))
    return LibOp(dataset)


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
