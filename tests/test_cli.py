"""Command-line behavior: exit codes, output routing, and config precedence.

Everything runs in-process through cli.run so the tests see exit codes
directly and capsys sees the streams, except where a fresh interpreter
is the point: imports, and the environment OpenBLAS reads at start-up.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import entroscore as es
from entroscore import cli
from entroscore.cli import run
from helpers import csv_bytes


@pytest.fixture
def small_csv(tmp_path):
    """Thirty well-behaved rows over two generated indicators."""
    rng = np.random.default_rng(44)
    schema_path = tmp_path / "schema.json"
    es.save_schema(
        es.Schema((
            es.IndicatorSpec("speed", "operation", "positive"),
            es.IndicatorSpec("cost", "operation", "inverse"),
        )),
        schema_path,
    )
    rows = [
        [f"e{i:02d}", f"{rng.uniform(1, 9):.4f}", f"{rng.uniform(1, 9):.4f}"]
        for i in range(30)
    ]
    csv_path = tmp_path / "data.csv"
    csv_path.write_bytes(csv_bytes(["entity_id", "speed", "cost"], rows))
    return csv_path, schema_path


def base_args(small_csv):
    csv_path, schema_path = small_csv
    return ["--input", str(csv_path), "--schema", str(schema_path)]


def fresh_python(args, **env):
    """Run a new interpreter that imports this entroscore, env added."""
    src = str(Path(es.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True,
        check=False,
    )


class TestExitCodes:
    def test_version(self, capsys):
        assert run(["--version"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("entroscore ")
        assert "schema format v1" in out

    def test_no_subcommand_is_usage_error(self, capsys):
        assert run([]) == 2

    def test_missing_input_is_usage_error(self, capsys):
        assert run(["evaluate"]) == 2
        assert "--input is required" in capsys.readouterr().err

    def test_unreadable_input_is_runtime_error(self, tmp_path, capsys):
        assert run(["evaluate", "--input", str(tmp_path / "nope.csv")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("method", ["discrete", "continuous"])
    def test_overlong_field_is_a_data_error(self, small_csv, method, capsys):
        csv_path, _ = small_csv
        limit = csv.field_size_limit()
        lines = csv_path.read_bytes().splitlines(keepends=True)
        lines[3] = b"e02," + b"9" * (limit + 69_000) + b",1\n"
        csv_path.write_bytes(b"".join(lines))
        assert run(["evaluate", *base_args(small_csv), "--method", method]) == 1
        assert capsys.readouterr().err == (
            f"error: line 4: field larger than field limit ({limit})\n"
        )
        assert csv.field_size_limit() == limit

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--quadrature-points", "10"),
            ("--quadrature-points", "-5"),
            ("--threads", "0"),
            ("--bandwidth", "junk"),
            ("--method", "magic"),
            ("--weight-rule", "softmax"),
            ("--scale", "0"),
            ("--bandwidth", "-1"),
            ("--bandwidth", "inf"),
        ],
    )
    def test_bad_flag_values_are_usage_errors(self, small_csv, flag, value, capsys):
        assert run(["evaluate", *base_args(small_csv), flag, value]) == 2

    @pytest.mark.parametrize("method", ["discrete", "continuous"])
    def test_non_utf8_input_names_its_line(self, small_csv, method, capsys):
        csv_path, _ = small_csv
        rows = [[f"e{i:04d}", f"{1 + i % 7}.5", f"{1 + i % 5}.25"] for i in range(800)]
        data = csv_bytes(["entity_id", "speed", "cost"], rows)
        at = data.index(b"e0700,")  # on line 702
        assert at > 8192
        csv_path.write_bytes(data[:at] + b"\xe9" + data[at:])
        assert run(["evaluate", *base_args(small_csv), "--method", method]) == 1
        assert capsys.readouterr().err == (
            "error: line 702: not UTF-8: byte 0xe9: invalid continuation byte\n"
        )

    def test_non_utf8_schema_is_a_data_error(self, small_csv, capsys):
        _, schema_path = small_csv
        schema_path.write_bytes(schema_path.read_bytes().replace(b"speed", b"sp\xe9ed"))
        assert run(["validate", *base_args(small_csv)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: schema file {schema_path} is not valid JSON: ")

    def test_non_utf8_config_is_a_usage_error(self, small_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"method": "discr\xe9te"}')
        assert run(["validate", *base_args(small_csv), "--config", str(cfg)]) == 2
        assert f"error: config {cfg} is not valid JSON: " in capsys.readouterr().err


class TestValidate:
    def test_clean_file(self, small_csv, capsys):
        assert run(["validate", *base_args(small_csv)]) == 0
        out = capsys.readouterr().out
        assert "ok: 30 entities, 2 indicators" in out

    def test_degenerate_column_fails(self, tmp_path, capsys):
        schema_path = tmp_path / "schema.json"
        es.save_schema(
            es.Schema((es.IndicatorSpec("flat", "operation", "positive"),)),
            schema_path,
        )
        csv_path = tmp_path / "flat.csv"
        csv_path.write_bytes(
            csv_bytes(["entity_id", "flat"], [["a", "3"], ["b", "3"], ["c", "3"]])
        )
        assert run(["validate", "--input", str(csv_path),
                    "--schema", str(schema_path)]) == 1
        assert capsys.readouterr().err.startswith("DegenerateColumnError: indicator 'flat'")

    def test_never_writes_files(self, small_csv, tmp_path, capsys):
        # validate has no output flags at all; asking for one is refused
        # and nothing lands on disk.
        out_dir = tmp_path / "should_stay_empty"
        out_dir.mkdir()
        assert run(["validate", *base_args(small_csv),
                    "--out-dir", str(out_dir)]) == 2
        assert list(out_dir.iterdir()) == []

    def test_reports_dropped_rows(self, tmp_path, capsys):
        schema_path = tmp_path / "schema.json"
        es.save_schema(
            es.Schema((es.IndicatorSpec("x", "operation", "positive"),)), schema_path
        )
        csv_path = tmp_path / "gaps.csv"
        csv_path.write_bytes(csv_bytes(
            ["entity_id", "x"],
            [["a", "1"], ["hole", "na"], ["b", "2"], ["c", "3"]],
        ))
        assert run(["validate", "--input", str(csv_path),
                    "--schema", str(schema_path)]) == 0
        assert "1 row(s) dropped" in capsys.readouterr().out


    def test_overflowing_range_is_a_named_data_error(self, tmp_path, capsys):
        schema_path = tmp_path / "schema.json"
        es.save_schema(
            es.Schema((es.IndicatorSpec("huge", "operation", "positive"),)), schema_path
        )
        csv_path = tmp_path / "huge.csv"
        csv_path.write_bytes(csv_bytes(
            ["entity_id", "huge"], [["a", "-1e308"], ["b", "0"], ["c", "1e308"]]
        ))
        args = ["--input", str(csv_path), "--schema", str(schema_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["validate", *args]) == 1
            assert capsys.readouterr().err.startswith(
                "NonFiniteInputError: indicator 'huge': range -1e+308 to 1e+308 overflows"
            )
            assert run(["evaluate", *args]) == 1
            assert capsys.readouterr().err.startswith(
                "error: indicator 'huge': range -1e+308 to 1e+308 overflows"
            )


class TestWeights:
    def test_prints_table(self, small_csv, capsys):
        assert run(["weights", *base_args(small_csv)]) == 0
        out = capsys.readouterr().out
        assert "Category" in out and "Entropy" in out and "Weight" in out
        assert "Speed" in out and "Cost" in out

    def test_out_dir_gets_weights_only(self, small_csv, tmp_path, capsys):
        out_dir = tmp_path / "w"
        assert run(["weights", *base_args(small_csv),
                    "--out-dir", str(out_dir)]) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["weights.csv"]


class TestEvaluate:
    def test_stdout_report_sections(self, small_csv, capsys):
        assert run(["evaluate", *base_args(small_csv)]) == 0
        out = capsys.readouterr().out
        assert "Ranking" in out
        assert "Entropy" in out
        assert "Mean" in out and "Obs" in out

    def test_out_dir_files(self, small_csv, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert run(["evaluate", *base_args(small_csv),
                    "--out-dir", str(out_dir)]) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["scores.csv", "weights.csv"]

    def test_dump_normalized_into_out_dir(self, small_csv, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert run(["evaluate", *base_args(small_csv),
                    "--out-dir", str(out_dir), "--dump-normalized"]) == 0
        assert (out_dir / "normalized.csv").exists()

    def test_dump_normalized_explicit_path(self, small_csv, tmp_path, capsys):
        target = tmp_path / "norm.csv"
        assert run(["evaluate", *base_args(small_csv),
                    "--dump-normalized", str(target)]) == 0
        header = target.read_text().splitlines()[0]
        assert header == "entity_id,speed,cost"

    def test_bare_dump_without_out_dir_is_usage_error(self, small_csv, capsys):
        assert run(["evaluate", *base_args(small_csv), "--dump-normalized"]) == 2

    def test_dump_cdf_writes_one_file_per_indicator(self, small_csv, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert run(["evaluate", *base_args(small_csv),
                    "--out-dir", str(out_dir), "--dump-cdf"]) == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert "cdf_speed.csv" in names and "cdf_cost.csv" in names

    def test_dump_cdf_with_discrete_method_warns(self, small_csv, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert run(["evaluate", *base_args(small_csv), "--method", "discrete",
                    "--out-dir", str(out_dir), "--dump-cdf"]) == 0
        captured = capsys.readouterr()
        assert "discrete" in captured.err
        assert not [p for p in out_dir.iterdir() if p.name.startswith("cdf_")]

    def test_drop_note_on_stderr(self, tmp_path, capsys):
        schema_path = tmp_path / "schema.json"
        es.save_schema(
            es.Schema((es.IndicatorSpec("x", "operation", "positive"),)), schema_path
        )
        csv_path = tmp_path / "gaps.csv"
        csv_path.write_bytes(csv_bytes(
            ["entity_id", "x"],
            [["a", "1"], ["hole", ""], ["b", "2"], ["c", "4"]],
        ))
        assert run(["evaluate", "--input", str(csv_path),
                    "--schema", str(schema_path)]) == 0
        assert "dropped" in capsys.readouterr().err

    def test_nearly_constant_scores_leave_stderr_empty(self, tmp_path, capsys):
        # A positive and an inverse copy of one column weigh the same, so
        # every score is 50 up to a few ulps.
        schema_path = tmp_path / "schema.json"
        es.save_schema(
            es.Schema((
                es.IndicatorSpec("a", "operation", "positive"),
                es.IndicatorSpec("b", "operation", "inverse"),
            )),
            schema_path,
        )
        csv_path = tmp_path / "mirror.csv"
        csv_path.write_bytes(csv_bytes(
            ["entity_id", "a", "b"], [[f"e{i + 1}", str(i), str(i)] for i in range(5)]
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["evaluate", "--input", str(csv_path), "--schema",
                        str(schema_path), "--method", "discrete"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "Skewness  NA" in captured.out

    def test_carriage_return_ids_round_trip_through_out_dir(self, tmp_path, capsys):
        schema_path = tmp_path / "schema.json"
        es.save_schema(
            es.Schema((es.IndicatorSpec("x", "operation", "positive"),)), schema_path
        )
        csv_path = tmp_path / "cr.csv"
        csv_path.write_bytes(b'entity_id,x\n"x\ry",1\nb,2\n"p\rq",4\n')
        out_dir = tmp_path / "out"
        assert run(["evaluate", "--input", str(csv_path), "--schema", str(schema_path),
                    "--out-dir", str(out_dir), "--dump-normalized"]) == 0
        for name in ("scores.csv", "normalized.csv"):
            with open(out_dir / name, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert [r[0] for r in rows] == ["entity_id", "x\ry", "b", "p\rq"]
            assert all(len(r) == len(rows[0]) for r in rows)

    @pytest.mark.parametrize("bandwidth", ["1e-300", "1e-310"])
    def test_tiny_bandwidth_evaluates_exactly_and_quietly(self, small_csv, bandwidth, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["evaluate", *base_args(small_csv), "--bandwidth", bandwidth]) == 0
        assert capsys.readouterr().err == ""
        csv_path, schema_path = small_csv
        dataset, _ = es.parse_csv(csv_path.read_bytes(), es.load_schema(schema_path))
        options = es.EvaluationOptions(bandwidth=float(bandwidth))
        grid = np.linspace(0.0, 1.0, options.quadrature.points)
        for cdf in es.run_pipeline(dataset, options).cdfs:
            assert np.array_equal(cdf.grid_values(grid.size), cdf(grid))

    def test_only_continuous_runs_import_scipy(self, small_csv):
        script = """
import sys
from entroscore.cli import run
data = ["--input", sys.argv[1], "--schema", sys.argv[2]]
for argv in (["evaluate", *data, "--method", "discrete"],
             ["weights", *data, "--method", "discrete"], ["validate", *data]):
    assert run(argv) == 0 and "scipy" not in sys.modules, argv
assert run(["evaluate", *data]) == 0 and "scipy.special" in sys.modules
"""
        proc = fresh_python(["-c", script, *map(str, small_csv)])
        assert proc.returncode == 0, proc.stderr.decode()

    def test_default_schema_used_without_schema_flag(self, tmp_path, capsys):
        rng = np.random.default_rng(45)
        names = list(es.default_schema().names)
        rows = [
            [f"e{i:02d}"] + [f"{rng.uniform(1, 9):.4f}" for _ in names]
            for i in range(12)
        ]
        csv_path = tmp_path / "full.csv"
        csv_path.write_bytes(csv_bytes(["entity_id"] + names, rows))
        assert run(["evaluate", "--input", str(csv_path)]) == 0
        assert "Capital intensity" in capsys.readouterr().out


class TestSchemaCategories:
    def test_free_category_loads_and_prints_verbatim(self, tmp_path, capsys):
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(json.dumps({
            "version": 1,
            "indicators": [
                {"name": "jobs", "category": "throughput", "direction": "positive"},
                {"name": "cost", "category": "operation", "direction": "inverse"},
            ],
        }))
        csv_path = tmp_path / "data.csv"
        csv_path.write_bytes(csv_bytes(
            ["entity_id", "jobs", "cost"],
            [["a", "1", "9"], ["b", "4", "2"], ["c", "3", "5"], ["d", "7", "1"]],
        ))
        assert run(["weights", "--input", str(csv_path),
                    "--schema", str(schema_path)]) == 0
        out = capsys.readouterr().out
        assert "\nthroughput          Jobs" in out
        assert "\nOperation capacity  Cost" in out


class TestConfigPrecedence:
    def test_config_file_supplies_defaults(self, small_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "discrete"}))
        assert run(["weights", *base_args(small_csv), "--config", str(cfg)]) == 0

    def test_flag_beats_config(self, small_csv, tmp_path, capsys):
        csv_path, schema_path = small_csv
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"input": "/bogus/path.csv"}))
        # The explicit --input must win over the config value.
        assert run(["validate", "--input", str(csv_path), "--schema",
                    str(schema_path), "--config", str(cfg)]) == 0

    def test_config_alone_can_supply_input(self, small_csv, tmp_path, capsys):
        csv_path, schema_path = small_csv
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"input": str(csv_path), "schema": str(schema_path)}))
        assert run(["validate", "--config", str(cfg)]) == 0

    def test_unknown_config_key_is_usage_error(self, small_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"quadrature": 5}))
        assert run(["validate", *base_args(small_csv), "--config", str(cfg)]) == 2
        assert "quadrature" in capsys.readouterr().err

    def test_non_object_config_is_usage_error(self, small_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2, 3]")
        assert run(["validate", *base_args(small_csv), "--config", str(cfg)]) == 2

    def test_config_value_validated_like_flags(self, small_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"quadrature_points": 10}))
        assert run(["weights", *base_args(small_csv), "--config", str(cfg)]) == 2


    @pytest.mark.parametrize(
        "key,value",
        [
            ("boundary_correction", "false"),
            ("boundary_correction", 0),
            ("threads", 2.7),
            ("threads", True),
            ("quadrature_points", "101"),
            ("quadrature_points", 101.0),
            ("scale", "100"),
            ("scale", False),
            ("bandwidth", "0.5"),
            ("method", 1),
            ("schema", 5),
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "weights"])
    def test_config_value_types_are_strict(self, small_csv, tmp_path, capsys,
                                           command, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert run([command, *base_args(small_csv), "--config", str(cfg)]) == 2
        assert f"{key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload", [{"threads": 0}, {"scale": -1}, {"bandwidth": 0}, {"scale": 10**400}]
    )
    def test_config_value_out_of_range_fails_validate_too(self, small_csv, tmp_path,
                                                          capsys, payload):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        assert run(["validate", *base_args(small_csv), "--config", str(cfg)]) == 2

    def test_config_scale_too_large_for_a_double(self, small_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"scale": 1' + "0" * 399 + "}")
        assert run(["evaluate", *base_args(small_csv), "--config", str(cfg)]) == 2
        assert "error: scale must be positive and finite as a double, got inf\n" in (
            capsys.readouterr().err
        )

    def test_json_int_values_run_like_float_flags(self, small_csv, tmp_path, capsys):
        # The config's ints reach EvaluationOptions as ints, unconverted.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scale": 100, "bandwidth": 1}))
        outputs = []
        for i, extra in enumerate((["--config", str(cfg)], ["--scale", "100.0", "--bandwidth", "1.0"])):
            out_dir = tmp_path / f"out{i}"
            argv = ["evaluate", *base_args(small_csv), *extra,
                    "--out-dir", str(out_dir), "--dump-normalized", "--dump-cdf"]
            assert run(argv) == 0
            files = {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}
            outputs.append((capsys.readouterr(), files))
        assert len(outputs[0][1]) == 5
        assert outputs[0] == outputs[1]

    def test_config_values_of_the_right_types_are_used(self, small_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "boundary_correction": False, "threads": 2, "scale": 50,
            "bandwidth": 0.25, "quadrature_points": 101, "method": None,
        }))
        assert run(["evaluate", *base_args(small_csv), "--config", str(cfg)]) == 0
        from_config = capsys.readouterr().out
        assert run(["evaluate", *base_args(small_csv), "--no-boundary-correction",
                    "--threads", "2", "--scale", "50", "--bandwidth", "0.25",
                    "--quadrature-points", "101"]) == 0
        assert capsys.readouterr().out == from_config


class TestDefaultThreads:
    @staticmethod
    def default_threads(small_csv):
        parser = cli.build_parser()
        args = parser.parse_args(["weights", *base_args(small_csv)])
        return cli.resolve_config(args, parser)[1].threads

    def test_default_threads_count_the_cpus_this_process_may_use(self, small_csv, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert self.default_threads(small_csv) == 3
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1}, raising=False)
        assert self.default_threads(small_csv) == 1

    def test_default_threads_fall_back_to_the_cpu_count(self, small_csv, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert self.default_threads(small_csv) == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert self.default_threads(small_csv) == 1

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity on this OS")
    def test_default_threads_match_the_real_affinity(self, small_csv):
        assert self.default_threads(small_csv) == len(os.sched_getaffinity(0))


class TestDeterminism:
    def test_repeat_runs_print_identical_reports(self, small_csv, capsys):
        args = ["evaluate", *base_args(small_csv)]
        assert run(args) == 0
        first = capsys.readouterr().out
        assert run(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_blas_thread_count_does_not_change_output(self, small_csv, tmp_path):
        # The pipeline makes no BLAS call, so OpenBLAS's thread count, read
        # once at start-up, cannot reach the output.
        outputs = []
        for blas_threads in ("1", "2"):
            out_dir = tmp_path / f"blas{blas_threads}"
            argv = ["evaluate", *base_args(small_csv), "--threads", "2", "--out-dir", str(out_dir)]
            proc = fresh_python(["-m", "entroscore.cli", *argv], OPENBLAS_NUM_THREADS=blas_threads)
            assert proc.returncode == 0 and proc.stderr == b""
            files = [(out_dir / name).read_bytes() for name in ("weights.csv", "scores.csv")]
            outputs.append([proc.stdout, *files])
        assert outputs[0] == outputs[1]

    def test_thread_flag_does_not_change_stdout(self, small_csv, capsys):
        assert run(["evaluate", *base_args(small_csv), "--threads", "1"]) == 0
        single = capsys.readouterr().out
        assert run(["evaluate", *base_args(small_csv), "--threads", "8"]) == 0
        pooled = capsys.readouterr().out
        assert single == pooled
