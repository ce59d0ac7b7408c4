"""Command-line behavior: exit codes, output routing, and config precedence.

Everything runs in-process through cli.run so the tests see exit codes
directly and capsys sees the streams.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

import entroscore as es
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
        assert "flat" in capsys.readouterr().err

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
                "NonFiniteValue: indicator 'huge': range -1e+308 to 1e+308 overflows"
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


class TestDeterminism:
    def test_repeat_runs_print_identical_reports(self, small_csv, capsys):
        args = ["evaluate", *base_args(small_csv)]
        assert run(args) == 0
        first = capsys.readouterr().out
        assert run(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_thread_flag_does_not_change_stdout(self, small_csv, capsys):
        assert run(["evaluate", *base_args(small_csv), "--threads", "1"]) == 0
        single = capsys.readouterr().out
        assert run(["evaluate", *base_args(small_csv), "--threads", "8"]) == 0
        pooled = capsys.readouterr().out
        assert single == pooled
