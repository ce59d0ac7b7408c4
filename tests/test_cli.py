"""Command-line behavior: exit codes, output routing, and config precedence.

Everything runs in-process through cli.run so the tests see exit codes
directly and capsys sees the streams, except where a fresh interpreter
is the point: imports, and the environment OpenBLAS reads at start-up.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entroscore as es
from entroscore.cli import build_parser, resolve_config, run
from entroscore.report import CDF_GRID_POINTS
from helpers import CSV_SPECIALS, csv_bytes, read_records


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

    @pytest.mark.parametrize(
        "head,message",
        [
            (b"id,speed,cost\n", "error: first column must be 'entity_id', got 'id'\n"),
            (b"entity_id,speed,cost\n,1,2\n", "error: line 2: blank entity id\n"),
        ],
        ids=["header", "blank-id"],
    )
    def test_an_earlier_fault_than_a_bad_byte_is_named(self, small_csv, head, message, capsys):
        csv_path, _ = small_csv
        rows = b"".join(b"e%d,%d.5,1.25\n" % (i, i) for i in range(20))
        csv_path.write_bytes(head + rows + b"x\xff,1,2\n")
        assert run(["evaluate", *base_args(small_csv)]) == 1
        assert capsys.readouterr().err == message

    def test_a_grid_past_the_cap_is_a_usage_error(self, small_csv, capsys):
        # Refused before any grid exists: a billion points would take tens
        # of GB a column.
        if tracemalloc.is_tracing():
            pytest.skip("tracemalloc is already tracing; its peak is not this test's")
        tracemalloc.start()
        try:
            code = run(["evaluate", *base_args(small_csv), "--quadrature-points", "1000000001"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and peak < 4e6
        assert "quadrature points must be at most 1000001" in capsys.readouterr().err

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

    def test_unreadable_config_is_a_usage_error(self, small_csv, tmp_path, capsys):
        cfg = tmp_path / "missing.json"
        assert run(["validate", *base_args(small_csv), "--config", str(cfg)]) == 2
        assert f"error: cannot read config {cfg}: " in capsys.readouterr().err


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

    @pytest.mark.parametrize("name", ["a\0b", "a/b", ".", ".."])
    def test_dump_cdf_refuses_a_name_no_file_can_carry(self, tmp_path, capsys, name):
        schema_path = tmp_path / "schema.json"
        es.save_schema(
            es.Schema((
                es.IndicatorSpec("speed", "operation", "positive"),
                es.IndicatorSpec(name, "operation", "positive"),
            )),
            schema_path,
        )
        csv_path = tmp_path / "data.csv"
        rows = "".join(f"e{i:02d},{i % 7 + 1},{i % 5 + 1}\n" for i in range(12))
        csv_path.write_text(f"entity_id,speed,{name}\n{rows}", encoding="utf-8")
        out_dir = tmp_path / "out"
        argv = ["evaluate", "--input", str(csv_path), "--schema", str(schema_path),
                "--out-dir", str(out_dir), "--dump-cdf"]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --dump-cdf cannot name a file after indicator ")
        assert repr(name) in captured.err and captured.err.count("\n") == 1
        assert not out_dir.exists()

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

    def test_silverman_bandwidth_flag_is_the_default(self, small_csv, capsys):
        outputs = []
        for extra in ([], ["--bandwidth", "silverman"]):
            assert run(["evaluate", *base_args(small_csv), *extra]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].out

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


def _text(quoted: str, forbidden: str = ""):
    """Non-blank text with no outer whitespace, as parse_csv keeps ids and header cells."""
    chars = st.characters(blacklist_categories=("Cs",), blacklist_characters=forbidden)
    return st.text(chars | st.sampled_from(quoted), min_size=1, max_size=8).filter(
        lambda text: text == text.strip()
    )


class TestCsvRoundTrip:
    """Every CSV of `evaluate` reads back with csv.reader as the run's ids, names and values.

    Ids and categories hold the characters that make csv quote a field and
    a NUL; a name names its cdf_<name>.csv too, so it holds no NUL or '/'
    and is not '.' or '..', which --dump-cdf refuses.
    """

    @settings(max_examples=25, deadline=None, database=None)
    @given(
        st.lists(_text(CSV_SPECIALS), min_size=3, max_size=6, unique=True),
        st.lists(
            _text(',"\r\n', forbidden="\0/").filter(lambda name: name not in (".", "..")),
            min_size=1, max_size=3, unique=True,
        ),
        st.data(),
    )
    def test_every_csv_reads_back(self, tmp_path_factory, ids, names, data):
        categories = data.draw(st.lists(
            _text(CSV_SPECIALS), min_size=len(names), max_size=len(names)
        ))
        values = np.array(data.draw(st.lists(
            st.lists(st.floats(0.0, 100.0), min_size=len(names), max_size=len(names)),
            min_size=len(ids), max_size=len(ids),
        )))
        values[0], values[1] = 0.0, 1.0  # two distinct values in every column
        schema = es.Schema(tuple(
            es.IndicatorSpec(name, category, "positive") for name, category in zip(names, categories)
        ))
        work = tmp_path_factory.mktemp("round_trip")
        es.save_schema(schema, work / "schema.json")
        # The excel dialect ends rows with "\r\n", so it quotes a cell holding a lone CR.
        buf = io.StringIO()
        csv.writer(buf).writerows([["entity_id", *names], *([eid, *map(repr, row)] for eid, row in zip(ids, values.tolist()))])
        (work / "data.csv").write_bytes(buf.getvalue().encode("utf-8"))
        out = work / "out"
        argv = ["evaluate", "--input", str(work / "data.csv"), "--schema", str(work / "schema.json"),
                "--out-dir", str(out), "--dump-normalized", "--dump-cdf"]
        assert run(argv) == 0

        result = es.run_pipeline(es.RawDataset(tuple(ids), values, schema))
        report = result.report
        position = np.empty(len(ids), dtype=int)
        position[report.ranking] = np.arange(1, len(ids) + 1)
        scores = zip(ids, map(repr, report.scores.tolist()), map(str, position.tolist()))
        assert read_records(out / "scores.csv") == [["entity_id", "score", "rank"], *map(list, scores)]
        weights = zip(
            categories, names, map(repr, report.entropies.entropies.tolist()), map(repr, report.weights.weights.tolist())
        )
        assert read_records(out / "weights.csv") == [["category", "indicator", "entropy", "weight"], *map(list, weights)]
        normalized = ([eid, *map(repr, row)] for eid, row in zip(ids, result.normalized.values.tolist()))
        assert read_records(out / "normalized.csv") == [["entity_id", *names], *normalized]
        grid = np.linspace(0.0, 1.0, CDF_GRID_POINTS)
        for name, cdf in zip(names, result.cdfs):
            phi = zip(map(repr, grid.tolist()), map(repr, cdf(grid).tolist()))
            assert read_records(out / f"cdf_{name}.csv") == [["x", "phi"], *map(list, phi)]


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


# Each option key: the (config value, field value) pairs a file may give,
# and the (flags, field value) pairs the command line may.
OPTION_SOURCES = {
    "method": (
        [("discrete", "discrete"), ("continuous", "continuous")],
        [(["--method", "discrete"], "discrete"), (["--method", "continuous"], "continuous")],
    ),
    "weight_rule": (
        [("classic", "classic"), ("paper", "paper")],
        [(["--weight-rule", "classic"], "classic"), (["--weight-rule", "paper"], "paper")],
    ),
    "bandwidth": (
        [(0.25, 0.25), (1, 1), ("silverman", None)],
        [(["--bandwidth", "0.5"], 0.5), (["--bandwidth", "silverman"], None)],
    ),
    "boundary_correction": ([(True, True), (False, False)], [(["--no-boundary-correction"], False)]),
    "quadrature_points": ([(101, 101), (10001, 10001)], [(["--quadrature-points", "201"], 201)]),
    "scale": ([(50, 50), (2.5, 2.5)], [(["--scale", "25"], 25.0)]),
    "threads": ([(2, 2), (1, 1)], [(["--threads", "3"], 3)]),
}


def _field(options, key):
    """The EvaluationOptions field that option key sets."""
    return options.quadrature.points if key == "quadrature_points" else getattr(options, key)


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
        name = "quadrature points" if key == "quadrature_points" else key
        assert f"error: config {cfg}: {name} must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload", [{"threads": 0}, {"scale": -1}, {"bandwidth": 0}, {"scale": 10**400}]
    )
    def test_config_value_out_of_range_fails_validate_too(self, small_csv, tmp_path,
                                                          capsys, payload):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        assert run(["validate", *base_args(small_csv), "--config", str(cfg)]) == 2
        assert f"error: config {cfg}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("payload", "flag", "message"),
        [
            ({"threads": 0}, ["--threads", "2"], "threads must be >= 1"),
            ({"scale": -1}, ["--scale", "50"], "scale must be positive"),
            ({"method": "bogus"}, ["--method", "discrete"], "unknown method 'bogus'"),
            ({"boundary_correction": 1}, ["--no-boundary-correction"], "boundary_correction must be True or False"),
        ],
    )
    def test_config_value_is_judged_where_a_flag_overrides_it(self, small_csv, tmp_path, capsys,
                                                              payload, flag, message):
        # A flag takes the place of a file value, but the file must hold a valid one.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        assert run(["evaluate", *base_args(small_csv), "--config", str(cfg), *flag]) == 2
        assert f"error: config {cfg}: {message}" in capsys.readouterr().err

    def test_config_scale_too_large_for_a_double(self, small_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"scale": 1' + "0" * 399 + "}")
        assert run(["evaluate", *base_args(small_csv), "--config", str(cfg)]) == 2
        assert f"error: config {cfg}: scale must be positive and finite as a double, got inf\n" in (
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

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.data())
    def test_flag_beats_file_beats_default(self, tmp_path_factory, data):
        defaults = es.EvaluationOptions()
        payload, argv, expected = {}, [], {}
        for key, (file_pairs, flag_pairs) in OPTION_SOURCES.items():
            where = data.draw(st.sampled_from(["file", "flag", "both", "neither"]), label=key)
            expected[key] = _field(defaults, key)
            if where in ("flag", "both"):
                flag, expected[key] = data.draw(st.sampled_from(flag_pairs), label=f"{key} flag")
                argv += flag
            if where in ("file", "both"):
                # A value that differs from the flag's, so that the winner shows.
                choices = [pair for pair in file_pairs if where == "file" or pair[1] != expected[key]]
                payload[key], value = data.draw(st.sampled_from(choices), label=f"{key} file")
                if where == "file":
                    expected[key] = value
        cfg = tmp_path_factory.mktemp("precedence") / "cfg.json"
        cfg.write_text(json.dumps(payload))
        parser = build_parser()
        args = parser.parse_args(["evaluate", "--input", "data.csv", "--config", str(cfg), *argv])
        _, options = resolve_config(args, parser)
        for key, want in expected.items():
            got = _field(options, key)
            assert (type(got), got) == (type(want), want), key

    def test_a_null_schema_in_the_file_is_the_built_in_schema(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema": None}))
        parser = build_parser()
        paths, _ = resolve_config(parser.parse_args(["validate", "--input", "data.csv", "--config", str(cfg)]), parser)
        assert paths.schema == "default"

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_an_empty_schema_path_is_not_the_built_in_schema(self, small_csv, tmp_path, capsys, source):
        # "" names no file: the run fails reading it, as for any other path.
        csv_path, _ = small_csv
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema": ""}))
        extra = ["--schema", ""] if source == "flag" else ["--config", str(cfg)]
        assert run(["validate", "--input", str(csv_path), *extra]) == 1
        assert capsys.readouterr().err.startswith("error: ")


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
        eight = capsys.readouterr().out
        assert single == eight


class TestReadme:
    def test_library_quick_start_runs_without_a_warning(self):
        # The README's quick start, as a reader would paste it, in a new
        # interpreter where every warning is an error.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Library quick start", 1)[1]
        code = section.split("```python\n", 1)[1].split("```", 1)[0]
        proc = fresh_python(["-W", "error", "-c", code])
        assert proc.returncode == 0 and proc.stderr == b"", proc.stderr.decode()
        assert len(proc.stdout.decode().splitlines()) == 3
