"""Command-line front end: configuration, ingestion, evaluation, reports.

Exit codes: 0 on success, 1 on data errors (the offending file, indicator,
or row is named on stderr), 2 on usage errors.  Output bytes are fully
determined by argv plus the input file bytes.

Configuration precedence: command-line flags override values from a
--config JSON file, which override built-in defaults.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .entropy import WEIGHT_RULES, QuadratureConfig
from .errors import EntroscoreError, InvariantError
from .ingest import parse_csv, validate
from .model import SCHEMA_FORMAT_VERSION, Schema, _read_json, default_schema, load_schema
from .report import (
    ranking_table,
    stats_block,
    weights_table,
    write_cdf_csv,
    write_normalized_csv,
    write_scores_csv,
    write_weights_csv,
)
from .scoring import METHODS, EvaluationOptions, run_pipeline

__all__ = ["build_parser", "run", "main"]

# Marker for dump flags given without a path: resolve against --out-dir.
_USE_OUT_DIR = ""

# The JSON type each --config key must hold.  A bool is never accepted as
# a number, and "bandwidth" may also be the string "silverman".
_CONFIG_TYPES = {
    "input": str,
    "schema": str,
    "method": str,
    "weight_rule": str,
    "bandwidth": float,
    "boundary_correction": bool,
    "quadrature_points": int,
    "scale": float,
    "out_dir": str,
    "threads": int,
}
_JSON_TYPE_NAMES = {str: "a string", bool: "true or false", int: "an integer", float: "a number"}


class RunPaths(NamedTuple):
    """Files one CLI invocation reads and writes."""

    input: Path
    schema: str
    out_dir: Path | None
    dump_normalized: Path | None
    dump_cdf_dir: Path | None


def _bandwidth_arg(text: str) -> float | str:
    if text == "silverman":
        return text
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is neither a number nor 'silverman'") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entroscore",
        description="Score and rank entities by entropy-weighted composite indicators.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"entroscore {__version__} (schema format v{SCHEMA_FORMAT_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", metavar="PATH", help="input CSV file")
    common.add_argument(
        "--schema",
        metavar="PATH",
        help="indicator schema JSON file, or 'default' for the built-in schema",
    )
    common.add_argument("--config", metavar="PATH", help="JSON file with default option values")

    pipeline = argparse.ArgumentParser(add_help=False)
    pipeline.add_argument(
        "--method",
        metavar="{" + ",".join(METHODS) + "}",
        help="entropy method (default continuous)",
    )
    pipeline.add_argument(
        "--weight-rule",
        metavar="{" + ",".join(WEIGHT_RULES) + "}",
        help="weights proportional to entropy (paper) or to 1 - entropy (classic)",
    )
    pipeline.add_argument(
        "--bandwidth",
        type=_bandwidth_arg,
        metavar="H",
        help="kernel bandwidth: a positive real, or 'silverman' (default)",
    )
    pipeline.add_argument(
        "--no-boundary-correction",
        action="store_true",
        default=None,
        help="use the raw clamped kernel CDF instead of the endpoint-pinned one",
    )
    pipeline.add_argument(
        "--quadrature-points",
        type=int,
        metavar="N",
        help="odd Simpson grid size on [0, 1] (default 10001)",
    )
    pipeline.add_argument("--threads", type=int, metavar="N", help="max worker threads")
    pipeline.add_argument("--out-dir", metavar="DIR", help="directory for machine-readable CSVs")

    p_eval = sub.add_parser(
        "evaluate",
        parents=[common, pipeline],
        help="score and rank all entities, print the full report",
    )
    p_eval.add_argument("--scale", type=float, help="score magnification (default 100)")
    p_eval.add_argument(
        "--dump-normalized",
        nargs="?",
        const=_USE_OUT_DIR,
        metavar="PATH",
        help="write the normalized matrix as CSV (default <out-dir>/normalized.csv)",
    )
    p_eval.add_argument(
        "--dump-cdf",
        nargs="?",
        const=_USE_OUT_DIR,
        metavar="DIR",
        help="write per-indicator CDF grids as cdf_<indicator>.csv (default into --out-dir)",
    )

    sub.add_parser(
        "weights",
        parents=[common, pipeline],
        help="print the per-indicator entropy and weight table",
    )

    sub.add_parser(
        "validate",
        parents=[common],
        help="check the input for degenerate or non-finite indicator columns",
    )
    return parser


def _load_config_file(path: str, parser: argparse.ArgumentParser) -> dict:
    try:
        payload = _read_json(path, "config")
    except OSError as exc:
        parser.error(f"cannot read config {path}: {exc}")
    except InvariantError as exc:
        parser.error(str(exc))
    if not isinstance(payload, dict):
        parser.error(f"config {path} must hold a JSON object")
    unknown = sorted(set(payload) - set(_CONFIG_TYPES))
    if unknown:
        parser.error(f"config {path} has unknown keys: {', '.join(unknown)}")
    for key, value in payload.items():
        if value is None or (key == "bandwidth" and value == "silverman"):
            continue  # null leaves the default
        want = _CONFIG_TYPES[key]
        accepted = (int, float) if want is float else want
        if isinstance(value, bool) is not (want is bool) or not isinstance(value, accepted):
            parser.error(f"config {path}: {key} must be {_JSON_TYPE_NAMES[want]}, got {value!r}")
    return payload


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_config(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> tuple[RunPaths, EvaluationOptions]:
    """Merge flags over config-file values over built-in defaults.

    EvaluationOptions is the only judge of option values; its
    InvariantError is a usage error, as is any other bad flag or config
    value.
    """
    file_values = _load_config_file(args.config, parser) if args.config else {}

    def pick(key, default):
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            return flag_value
        file_value = file_values.get(key)
        return default if file_value is None else file_value

    input_path = pick("input", None)
    if input_path is None:
        parser.error("--input is required")

    defaults = EvaluationOptions()
    bandwidth = pick("bandwidth", defaults.bandwidth)
    if getattr(args, "no_boundary_correction", None):
        boundary_correction = False
    else:
        boundary_correction = pick("boundary_correction", defaults.boundary_correction)
    try:
        options = EvaluationOptions(
            method=pick("method", defaults.method),
            weight_rule=pick("weight_rule", defaults.weight_rule),
            bandwidth=None if bandwidth == "silverman" else bandwidth,
            boundary_correction=boundary_correction,
            quadrature=QuadratureConfig(points=pick("quadrature_points", defaults.quadrature.points)),
            scale=pick("scale", defaults.scale),
            threads=pick("threads", _usable_cpus()),
        )
    except InvariantError as exc:
        parser.error(str(exc))

    out_dir = pick("out_dir", None)
    out_dir = Path(out_dir) if out_dir is not None else None

    def resolve_dump(raw, default_name: str | None, flag: str):
        if raw is None:
            return None
        if raw == _USE_OUT_DIR:
            if out_dir is None:
                parser.error(f"{flag} without a path requires --out-dir")
            return out_dir / default_name if default_name else out_dir
        return Path(raw)

    paths = RunPaths(
        input=Path(input_path),
        schema=pick("schema", "default"),
        out_dir=out_dir,
        dump_normalized=resolve_dump(
            getattr(args, "dump_normalized", None), "normalized.csv", "--dump-normalized"
        ),
        dump_cdf_dir=resolve_dump(getattr(args, "dump_cdf", None), None, "--dump-cdf"),
    )
    return paths, options


def _resolve_schema(paths: RunPaths) -> Schema:
    if paths.schema == "default":
        return default_schema()
    return load_schema(paths.schema)


def _read_dataset(paths: RunPaths, schema: Schema):
    with open(paths.input, "rb") as fh:
        return parse_csv(fh, schema)


def _note_drops(report) -> None:
    if report.rows_dropped:
        ids = ", ".join(report.dropped_ids)
        print(
            f"note: dropped {report.rows_dropped} incomplete row(s): {ids}",
            file=sys.stderr,
        )


def _cmd_validate(paths: RunPaths, options: EvaluationOptions) -> int:
    schema = _resolve_schema(paths)
    dataset, report = _read_dataset(paths, schema)
    _note_drops(report)
    findings = validate(dataset)
    if findings:
        for finding in findings:
            print(str(finding), file=sys.stderr)
        return 1
    print(
        f"ok: {dataset.n_entities} entities, {dataset.n_indicators} indicators, "
        f"{report.rows_dropped} row(s) dropped"
    )
    return 0


def _cmd_weights(paths: RunPaths, options: EvaluationOptions) -> int:
    schema = _resolve_schema(paths)
    dataset, report = _read_dataset(paths, schema)
    _note_drops(report)
    result = run_pipeline(dataset, options)
    sys.stdout.write(weights_table(schema, result.report.entropies, result.report.weights))
    if paths.out_dir is not None:
        paths.out_dir.mkdir(parents=True, exist_ok=True)
        write_weights_csv(paths.out_dir / "weights.csv", schema, result.report.entropies, result.report.weights)
    return 0


def _cmd_evaluate(paths: RunPaths, options: EvaluationOptions) -> int:
    schema = _resolve_schema(paths)
    dataset, ingest_report = _read_dataset(paths, schema)
    _note_drops(ingest_report)
    result = run_pipeline(dataset, options)
    report = result.report

    sys.stdout.write(ranking_table(dataset.entity_ids, report.scores, report.ranking))
    sys.stdout.write("\n")
    sys.stdout.write(weights_table(schema, report.entropies, report.weights))
    sys.stdout.write("\n")
    sys.stdout.write(stats_block(report.stats))

    if paths.out_dir is not None:
        paths.out_dir.mkdir(parents=True, exist_ok=True)
        write_weights_csv(paths.out_dir / "weights.csv", schema, report.entropies, report.weights)
        write_scores_csv(paths.out_dir / "scores.csv", dataset.entity_ids, report.scores, report.ranking)
    if paths.dump_normalized is not None:
        paths.dump_normalized.parent.mkdir(parents=True, exist_ok=True)
        write_normalized_csv(paths.dump_normalized, dataset.entity_ids, result.normalized)
    if paths.dump_cdf_dir is not None:
        if result.cdfs is None:
            print("note: --dump-cdf has no effect with --method discrete", file=sys.stderr)
        else:
            paths.dump_cdf_dir.mkdir(parents=True, exist_ok=True)
            for spec, cdf in zip(schema, result.cdfs):
                write_cdf_csv(paths.dump_cdf_dir / f"cdf_{spec.name}.csv", cdf)
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "weights": _cmd_weights,
    "evaluate": _cmd_evaluate,
}


def run(argv: list[str] | None = None) -> int:
    """Parse argv, execute the requested subcommand, return the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        paths, options = resolve_config(args, parser)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](paths, options)
    except EntroscoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # never leak a stack trace to the terminal
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
