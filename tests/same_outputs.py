"""Compare this checkout's outputs with a git revision's, byte for byte.

Usage, from anywhere in the repository:

    python tests/same_outputs.py REF

REF is any revision git names (HEAD, a branch, a commit); its tree is
extracted with `git archive` into a temporary directory, so a run leaves
nothing behind in the repository.  Both trees run the same inputs, which
this checkout's bench/workloads.py generates:

- `entroscore evaluate ... --out-dir --dump-normalized --dump-cdf`, through
  cli.run, on the cli_kde and cli_ingest inputs of seeds 1-3, at --threads 1
  and 2: stdout, stderr, the exit code and every file the run writes;
- the same on the cli_kde seed-1 input at fixed bandwidths, one for each
  rung of CdfEstimate.grid_values' ladder (the Silverman bandwidths above
  take its coarsest, c = 64, but on the lognormal columns, which take
  c = 32): --bandwidth 1.5e-4 (the exact sum), 4e-4 (c = 1, with and
  without --no-boundary-correction), 1.2e-3 (c = 2), 8e-3 (c = 16) and
  2e-2 (c = 32 at order 10, where c = 64 would need an order above its
  top, 11); --bandwidth 100 for the ladder's other two exits, where the
  correction's small span sends every column to the exact sum, and with
  --no-boundary-correction, where every column takes c = 64 at order 3;
  and the Silverman bandwidths at --quadrature-points 100001, where every
  column takes c = 64;
- on the cli_kde seed-1 input, `weights --out-dir`, `validate`, `evaluate
  --config` with a file that gives every option key, the input and the
  schema, the same with two of its keys overridden by flags, and a config
  with one bad value, whose exit code and stderr are compared;
- on the cli_ingest seed-1 input rewritten as users' files come (the
  indicator columns in reverse order, CR line ends, a BOM, one id quoted
  with a comma in it and one non-ASCII id), `evaluate --method discrete
  --out-dir --dump-normalized` and `validate`; and the same file with one
  byte that is not UTF-8 in a kept row's cell, whose exit code and
  stderr are compared;
- run_pipeline, default options, on the lib_wide datasets of seeds 1-3: the
  normalized values, bandwidths, entropies, weights, scores, ranking and
  statistics;
- the library's one-column calls on each normalized column of the lib_wide
  seed-1 dataset, which run_pipeline never makes: select_bandwidth, and
  estimate_cdf at the column's Silverman bandwidth, at 4e-4 (c = 1) and at
  100 (the exact sum with the correction), each with the correction on
  and off, whose sorted samples, bandwidth, raw_lo and span, values on
  101 nodes, grid_values(10001) and continuous_entropy (as its float.hex,
  so each rule's plans show apart: the Silverman bandwidths plan c = 64
  or 32, 4e-4 plans c = 1, and 100 the exact sum with the correction and
  c = 64 without it) are compared; and estimate_cdf on pairs of bad
  arguments, whose error class and message are compared.

Each tree runs in its own interpreter with its own src/ first on sys.path,
and writes to the same paths, so no output differs by where it was written.
Every output is hashed; each that differs is printed with how much (an
array's largest absolute difference, a text's count of differing lines).
The exit code is 1 on any difference, else 0.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
CLI_WORKLOADS = ("cli_kde", "cli_ingest")
THREADS = (1, 2)
# (job name suffix, extra evaluate options) on the cli_kde seed-1 input.
RUNGS = (
    ("exact", ("--bandwidth", "1.5e-4")),
    ("c1", ("--bandwidth", "4e-4")),
    ("c1-raw", ("--bandwidth", "4e-4", "--no-boundary-correction")),
    ("c2", ("--bandwidth", "1.2e-3")),
    ("c16", ("--bandwidth", "8e-3")),
    ("c32", ("--bandwidth", "2e-2")),
    ("wide-exact", ("--bandwidth", "100")),
    ("wide-raw-c64", ("--bandwidth", "100", "--no-boundary-correction")),
    ("fine-c64", ("--quadrature-points", "100001")),
)
# A --config value for every option key, none of them its default.
CONFIG = {
    "method": "continuous",
    "weight_rule": "classic",
    "bandwidth": 0.05,
    "boundary_correction": False,
    "quadrature_points": 2001,
    "scale": 10,
    "threads": 2,
}
# estimate_cdf's fixed bandwidths in the library jobs, beside each column's
# Silverman bandwidth.
LIBRARY_BANDWIDTHS = (("c1", 4e-4), ("wide-exact", 100.0))
# (samples, bandwidth, flag), two of them bad: the first bad one in the
# constructor's order (samples, their range, bandwidth, flag) is refused.
BAD_ARGUMENTS = (
    ([-0.1, 0.5], 0.0, True),
    ([0.2, 0.8], "0.1", 0),
    ([0.2, 0.8], 1e20, 0),
    ([float("nan"), 0.5], 0.0, True),
)


def _jobs(inputs: Path) -> list[dict]:
    """Write every job's inputs under inputs; return the jobs, JSON-able."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    jobs = []
    for name in (*CLI_WORKLOADS, "lib_wide"):
        spec = workloads.WORKLOADS[name]
        for seed in SEEDS:
            where = inputs / f"{name}-{seed}"
            generated = workloads.generate(spec, seed)
            desc = workloads.write_inputs(spec, generated, where)
            if desc["kind"] == "lib":
                jobs.append({"name": f"{name}-{seed}", "kind": "lib", "desc": desc})
                if seed == 1:
                    jobs.append({"name": f"{name}-{seed}-library", "kind": "library", "desc": desc})
                continue
            argv = [
                "evaluate",
                "--input", str(where / "input.csv"),
                "--schema", str(where / "schema.json"),
                "--method", spec.method,
                "--dump-normalized",
                "--dump-cdf",
            ]
            runs = [(f"t{threads}", ("--threads", str(threads))) for threads in THREADS]
            if name == "cli_kde" and seed == 1:
                runs += RUNGS
                jobs += _command_jobs(f"{name}-{seed}", where)
            if name == "cli_ingest" and seed == 1:
                jobs += _rewritten_jobs(f"{name}-{seed}", where, generated.kept_ids)
            for suffix, extra in runs:
                jobs.append({"name": f"{name}-{seed}-{suffix}", "kind": "cli", "argv": [*argv, *extra]})
    return jobs


def _command_jobs(prefix: str, where: Path) -> list[dict]:
    """weights, validate, and evaluate through --config files, on the input under where.

    The config files are named relative to where's grandparent, the
    directory the runs start in, so that the bad one's stderr names no
    temporary directory.
    """
    paths = {"input": str(where / "input.csv"), "schema": str(where / "schema.json")}
    files = ["--input", paths["input"], "--schema", paths["schema"]]
    (where / "config.json").write_text(json.dumps({**CONFIG, **paths}))
    (where / "bad_config.json").write_text(json.dumps({**CONFIG, **paths, "scale": -1}))
    config, bad = (str((where / name).relative_to(where.parents[1])) for name in ("config.json", "bad_config.json"))
    dumps = ["--dump-normalized", "--dump-cdf"]
    return [
        {"name": f"{prefix}-weights", "kind": "cli", "argv": ["weights", *files]},
        {"name": f"{prefix}-validate", "kind": "cli", "argv": ["validate", *files], "out_dir": False},
        {"name": f"{prefix}-config", "kind": "cli", "argv": ["evaluate", "--config", str(config), *dumps]},
        {
            "name": f"{prefix}-config-flags",
            "kind": "cli",
            "argv": ["evaluate", "--config", str(config), "--bandwidth", "silverman", "--weight-rule", "paper", *dumps],
        },
        {"name": f"{prefix}-config-bad", "kind": "cli", "argv": ["evaluate", "--config", str(bad)]},
    ]


def _rewritten_jobs(prefix: str, where: Path, kept_ids) -> list[dict]:
    """evaluate and validate on the input under where, rewritten as users' files come.

    The rewrite lists the indicator columns in reverse order, ends its
    lines with CR, starts with a BOM, quotes one kept row's id, which
    gains a comma, and gives another a non-ASCII id.  A copy with one
    byte that is not UTF-8 in a third kept row's cell fails the run; its
    exit code and stderr are compared.  Files are named relative to
    where's grandparent, as in _command_jobs.
    """
    with open(where / "input.csv", encoding="utf-8", newline="") as fh:
        records = list(csv.reader(fh))
    first, second, third = kept_ids[:3]
    renamed = {first: f"{first},q", second: f"{second}\u00e9"}
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\r")
    writer.writerows([renamed.get(record[0], record[0]), *reversed(record[1:])] for record in records)
    data = text.getvalue().encode("utf-8-sig")
    at = data.index(f"\r{third},".encode()) + len(third) + 2
    (where / "rewritten.csv").write_bytes(data)
    (where / "rewritten_bad.csv").write_bytes(data[:at] + b"\xe9" + data[at:])
    good, bad, schema = (
        str((where / name).relative_to(where.parents[1]))
        for name in ("rewritten.csv", "rewritten_bad.csv", "schema.json")
    )
    evaluate = ["evaluate", "--schema", schema, "--method", "discrete"]
    validate = ["validate", "--input", good, "--schema", schema]
    return [
        {"name": f"{prefix}-rewritten", "kind": "cli", "argv": [*evaluate, "--input", good, "--dump-normalized"]},
        {"name": f"{prefix}-rewritten-validate", "kind": "cli", "argv": validate, "out_dir": False},
        {"name": f"{prefix}-rewritten-bad-byte", "kind": "cli", "argv": [*evaluate, "--input", bad], "out_dir": False},
    ]


def _run_jobs(src: str, jobs_file: str, out: str) -> None:
    """Run every job on the entroscore under src, writing its outputs under out."""
    sys.path.insert(0, src)
    sys.path.insert(1, str(ROOT / "bench"))
    import numpy as np

    import workloads
    from entroscore import cli, normalize_matrix, run_pipeline

    for job in json.loads(Path(jobs_file).read_text()):
        where = Path(out) / job["name"]
        where.mkdir(parents=True)
        if job["kind"] == "cli":
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                out_dir = ["--out-dir", str(where / "files")] if job.get("out_dir", True) else []
                code = cli.run([*job["argv"], *out_dir])
            (where / "stdout.txt").write_text(stdout.getvalue())
            (where / "stderr.txt").write_text(stderr.getvalue())
            (where / "exit_code.txt").write_text(f"{code}\n")
            continue
        dataset = workloads.make_op(job["desc"]).dataset
        if job["kind"] == "library":
            _library_outputs(normalize_matrix(dataset).values.T, where)
            continue
        run = run_pipeline(dataset)
        report = run.report
        stats = report.stats
        arrays = {
            "normalized": run.normalized.values,
            "bandwidths": np.array(run.bandwidths),
            "entropies": report.entropies.entropies,
            "weights": report.weights.weights,
            "scores": report.scores,
            "ranking": report.ranking,
            "stats": np.array([getattr(stats, f) for f in stats.__dataclass_fields__], dtype=np.float64),
        }
        for name, array in arrays.items():
            np.save(where / f"{name}.npy", np.ascontiguousarray(array))


def _library_outputs(columns, where: Path) -> None:
    """The library jobs' outputs on each of columns, and the refusals, under where."""
    import numpy as np

    from entroscore import EntroscoreError, continuous_entropy, estimate_cdf, select_bandwidth

    nodes = np.linspace(0.0, 1.0, 101)
    for j, column in enumerate(columns):
        silverman = select_bandwidth(column)
        np.save(where / f"column{j:02d}-silverman.npy", np.array([silverman]))
        for label, h in (("silverman", silverman), *LIBRARY_BANDWIDTHS):
            for correct in (True, False):
                cdf = estimate_cdf(column, h, correct)
                arrays = {
                    "samples": cdf.support_samples,
                    "scalars": np.array([cdf.bandwidth, cdf._raw_lo, cdf._span]),
                    "cdf": cdf(nodes),
                    "grid": cdf.grid_values(10001),
                }
                stem = f"column{j:02d}-{label}-{'on' if correct else 'off'}"
                for name, array in arrays.items():
                    np.save(where / f"{stem}-{name}.npy", array)
                (where / f"{stem}-entropy.txt").write_text(continuous_entropy(cdf).hex() + "\n")
    refusals = []
    for samples, h, flag in BAD_ARGUMENTS:
        try:
            estimate_cdf(samples, h, flag)
            refusals.append("accepted")
        except EntroscoreError as exc:
            refusals.append(f"{type(exc).__name__}: {exc}")
    (where / "refusals.txt").write_text("\n".join(refusals) + "\n")


def _outputs(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _how_much(name: str, ref: bytes, new: bytes) -> str:
    """What differs between two versions of one output, in a few words."""
    if name.endswith(".npy"):
        import numpy as np

        a, b = (np.load(io.BytesIO(data)) for data in (ref, new))
        if a.shape != b.shape or a.dtype != b.dtype:
            return f"shape/dtype {a.shape} {a.dtype} -> {b.shape} {b.dtype}"
        both = np.isfinite(a) & np.isfinite(b)
        unequal = ~((a == b) | (np.isnan(a) & np.isnan(b))) if a.dtype.kind == "f" else a != b
        gap = float(np.max(np.abs(a[both] - b[both]), initial=0.0))
        return f"{int(unequal.sum())} of {a.size} values differ, by up to {gap:.3g}"
    old_lines, new_lines = (data.decode(errors="replace").splitlines() for data in (ref, new))
    changed = [i for i, pair in enumerate(zip(old_lines, new_lines)) if pair[0] != pair[1]]
    summary = f"{len(changed)} of {len(old_lines)} lines differ, {len(new_lines) - len(old_lines):+d} lines"
    if changed:
        i = changed[0]
        summary += f"; first at line {i + 1}: {old_lines[i]!r} -> {new_lines[i]!r}"
    return summary


def main(argv: list[str]) -> int:
    if len(argv) == 4 and argv[0] == "--run":
        _run_jobs(*argv[1:])
        return 0
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    [ref] = argv
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref], capture_output=True, check=False)
        if archive.returncode:
            print(archive.stderr.decode(errors="replace"), file=sys.stderr, end="")
            return 2
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp / "tree", filter="data")
        jobs_file = tmp / "jobs.json"
        jobs_file.write_text(json.dumps(_jobs(tmp / "inputs")))
        results = {}
        for side, src in (("ref", tmp / "tree" / "src"), ("this", ROOT / "src")):
            # Both sides write to the same paths, then the outputs move aside.
            subprocess.run(
                [sys.executable, __file__, "--run", str(src), str(jobs_file), str(tmp / "out")], check=True, cwd=tmp
            )
            shutil.move(tmp / "out", tmp / f"out-{side}")
            results[side] = _outputs(tmp / f"out-{side}")

    ref_out, new_out = results["ref"], results["this"]
    differ = 0
    for name in sorted(ref_out.keys() | new_out.keys()):
        old, new = ref_out.get(name), new_out.get(name)
        if old == new:
            continue
        differ += 1
        if old is None or new is None:
            print(f"{name}: only in {'this checkout' if old is None else ref}")
        else:
            digests = " -> ".join(hashlib.sha256(data).hexdigest()[:12] for data in (old, new))
            print(f"{name}: sha256 {digests}: {_how_much(name, old, new)}")
    digest = hashlib.sha256(b"".join(k.encode() + b"\0" + v for k, v in sorted(new_out.items())))
    compared = len(ref_out.keys() | new_out.keys())
    print(f"{compared} outputs compared with {ref}, {differ} differ; sha256 of all {digest.hexdigest()[:16]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
