"""External tracer: spans around entroscore's public functions, from outside.

Install replaces each target with a wrapper where its caller looks it up
(a module global the caller reads at call time, or a class attribute) and
uninstall restores the original, so untraced ops run the program
unchanged.  Spans are kept in memory and written as JSON lines at the end.

Parenting: a span's parent is the innermost open span on its own thread;
a span opened on a thread with no open span (a thread-pool worker) is
parented to the op's open run_pipeline span.  A span's self time is its
duration minus the union of its children's intervals, across threads.

A target missing from the program (renamed or deleted by a later change)
is reported as absent, records zero calls and never fails the run.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import statistics
import threading
import time
from dataclasses import asdict, dataclass, field

PIPELINE = "scoring.run_pipeline"

# (module, attribute or Class.method, span name).  Attributes are patched
# where the caller looks them up: cli reads parse_csv, run_pipeline and the
# report functions from its own globals, run_pipeline reads the stage
# functions from scoring's globals, and the library workload calls
# entroscore.run_pipeline.
TARGETS = (
    ("entroscore.cli", "run", "cli.run"),
    ("entroscore.cli", "parse_csv", "ingest.parse_csv"),
    ("entroscore.cli", "run_pipeline", PIPELINE),
    ("entroscore", "run_pipeline", PIPELINE),
    ("entroscore.cli", "ranking_table", "report.ranking_table"),
    ("entroscore.cli", "weights_table", "report.weights_table"),
    ("entroscore.cli", "stats_block", "report.stats_block"),
    ("entroscore.cli", "write_weights_csv", "report.write_weights_csv"),
    ("entroscore.cli", "write_scores_csv", "report.write_scores_csv"),
    ("entroscore.cli", "write_normalized_csv", "report.write_normalized_csv"),
    ("entroscore.cli", "write_cdf_csv", "report.write_cdf_csv"),
    ("entroscore.scoring", "validate", "ingest.validate"),
    ("entroscore.scoring", "normalize_matrix", "normalize.normalize_matrix"),
    ("entroscore.scoring", "select_bandwidth", "density.select_bandwidth"),
    ("entroscore.scoring", "estimate_cdf", "density.estimate_cdf"),
    ("entroscore.scoring", "continuous_entropy", "entropy.continuous_entropy"),
    ("entroscore.scoring", "discrete_entropy", "entropy.discrete_entropy"),
    ("entroscore.scoring", "compute_weights", "entropy.compute_weights"),
    ("entroscore.scoring", "composite_scores", "scoring.composite_scores"),
    ("entroscore.scoring", "rank", "scoring.rank"),
    ("entroscore.scoring", "describe", "scoring.describe"),
    ("entroscore.density", "CdfEstimate.__call__", "density.cdf_eval"),
    ("entroscore.model", "RawDataset.__post_init__", "model.RawDataset"),
    ("entroscore.model", "NormalizedMatrix.__post_init__", "model.NormalizedMatrix"),
    ("entroscore.model", "EntropyVector.__post_init__", "model.EntropyVector"),
    ("entroscore.model", "WeightVector.__post_init__", "model.WeightVector"),
    ("entroscore.model", "EvaluationReport.__post_init__", "model.EvaluationReport"),
)

LAYERS = ("cli", "ingest", "model", "normalize", "density", "entropy", "scoring", "report")
# Per-column work that run_pipeline fans out (possibly onto a thread pool).
COLUMN_SPANS = (
    "density.select_bandwidth",
    "density.estimate_cdf",
    "entropy.continuous_entropy",
    "entropy.discrete_entropy",
)
FINISH_SPANS = ("scoring.composite_scores", "scoring.rank", "scoring.describe")

# Per-layer metric names and units, in reporting order.
METRICS = {
    "cli.run.self_s": "s",
    "ingest.parse_csv.s": "s",
    "ingest.validate.s": "s",
    "ingest.rows_read": "count",
    "ingest.rows_dropped": "count",
    "ingest.bytes_in": "bytes",
    "model.invariants.s": "s",
    "normalize.normalize_matrix.s": "s",
    "density.select_bandwidth.s": "s",
    "density.estimate_cdf.s": "s",
    "density.cdf_eval.s": "s",
    "density.cdf_eval.calls": "count",
    "density.cdf_eval.points": "count",
    "density.cdf_eval.pairs": "count",
    "entropy.continuous_entropy.self_s": "s",
    "entropy.discrete_entropy.s": "s",
    "entropy.compute_weights.s": "s",
    "scoring.run_pipeline.self_s": "s",
    "scoring.columns.busy_s": "s",
    "scoring.columns.span_s": "s",
    "scoring.columns.parallelism": "ratio",
    "scoring.finish.s": "s",
    "report.ranking_table.s": "s",
    "report.write_scores_csv.s": "s",
    "report.other.s": "s",
    "report.bytes_out": "bytes",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.eval_p50_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    thread: int
    error: bool = False
    counts: dict = field(default_factory=dict)


def _counts(name: str, args: tuple, result) -> dict:
    """Work counts read off a wrapped call's arguments and result."""
    if name == "density.cdf_eval":
        points = int(getattr(args[1], "size", 1))
        return {"points": points, "pairs": points * int(args[0].support_samples.size)}
    if name == "ingest.parse_csv":
        source, report = args[0], result[1]
        # The file is closed by the time parse_csv returns; size it by name.
        size = len(source) if isinstance(source, (bytes, bytearray)) else os.path.getsize(source.name)
        return {"rows_read": report.rows_read, "rows_dropped": report.rows_dropped, "bytes_in": size}
    if name.startswith("report."):
        if isinstance(result, str):
            return {"bytes_out": len(result.encode("utf-8"))}
        return {"bytes_out": os.path.getsize(args[0])}
    return {}


def _resolve(module: str, attr: str):
    """(owner, attribute name) of a target, or None if it does not exist."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, name) if callable(getattr(owner, name, None)) else None


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.op_walls: dict[int, float] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op = 0
        self._pipeline: int | None = None
        self._saved: list[tuple] = []
        self.absent = [f"{m}:{a}" for m, a, _ in targets if _resolve(m, a) is None]

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else tracer._pipeline
            span = Span(next(tracer._ids), name, 0.0, 0.0, parent, tracer._op, threading.get_ident())
            stack.append(span.id)
            outer = tracer._pipeline
            if name == PIPELINE:
                tracer._pipeline = span.id
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer._pipeline = outer
                with tracer._lock:
                    tracer.spans.append(span)
            try:
                span.counts = _counts(name, args, result)
            except (AttributeError, IndexError, TypeError, ValueError, OSError):
                pass  # a changed signature loses the counts, never the op
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, op: int) -> None:
        self._op = op
        for module, attr, name in self.targets:
            found = _resolve(module, attr)
            if found is None:
                continue
            owner, key = found
            had = key in vars(owner)
            original = getattr(owner, key)
            self._saved.append((owner, key, had, original))
            setattr(owner, key, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, key, had, original in reversed(self._saved):
            if had:
                setattr(owner, key, original)
            else:
                delattr(owner, key)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")

    def op_metrics(self, op: int, wall: float) -> dict[str, float]:
        """Per-layer metrics of one traced op, op wall time given."""
        spans = [s for s in self.spans if s.op == op]
        kids: dict[int, list[Span]] = {}
        for s in spans:
            kids.setdefault(s.parent, []).append(s)

        def self_time(s: Span) -> float:
            return (s.end - s.start) - _union([(c.start, c.end) for c in kids.get(s.id, [])], s.start, s.end)

        def busy(*names: str) -> float:
            return sum(s.end - s.start for s in spans if s.name in names)

        def own(name: str) -> float:
            return sum(self_time(s) for s in spans if s.name == name)

        def count(key: str, prefix: str = "") -> float:
            return float(sum(s.counts.get(key, 0) for s in spans if s.name.startswith(prefix)))

        pipelines = {s.id for s in spans if s.name == PIPELINE}
        columns = [s for s in spans if s.name in COLUMN_SPANS and s.parent in pipelines]
        col_busy = sum(s.end - s.start for s in columns)
        col_span = max((s.end for s in columns), default=0.0) - min((s.start for s in columns), default=0.0)
        report_names = {s.name for s in spans if s.name.startswith("report.")}
        m = {
            "cli.run.self_s": own("cli.run"),
            "ingest.parse_csv.s": busy("ingest.parse_csv"),
            "ingest.validate.s": busy("ingest.validate"),
            "ingest.rows_read": count("rows_read"),
            "ingest.rows_dropped": count("rows_dropped"),
            "ingest.bytes_in": count("bytes_in"),
            "model.invariants.s": sum(s.end - s.start for s in spans if s.name.startswith("model.")),
            "normalize.normalize_matrix.s": busy("normalize.normalize_matrix"),
            "density.select_bandwidth.s": busy("density.select_bandwidth"),
            "density.estimate_cdf.s": busy("density.estimate_cdf"),
            "density.cdf_eval.s": busy("density.cdf_eval"),
            "density.cdf_eval.calls": float(sum(s.name == "density.cdf_eval" for s in spans)),
            "density.cdf_eval.points": count("points", "density.cdf_eval"),
            "density.cdf_eval.pairs": count("pairs", "density.cdf_eval"),
            "entropy.continuous_entropy.self_s": own("entropy.continuous_entropy"),
            "entropy.discrete_entropy.s": busy("entropy.discrete_entropy"),
            "entropy.compute_weights.s": busy("entropy.compute_weights"),
            "scoring.run_pipeline.self_s": own(PIPELINE),
            "scoring.columns.busy_s": col_busy,
            "scoring.columns.span_s": col_span,
            "scoring.columns.parallelism": col_busy / col_span if col_span > 0 else 0.0,
            "scoring.finish.s": busy(*FINISH_SPANS),
            "report.ranking_table.s": busy("report.ranking_table"),
            "report.write_scores_csv.s": busy("report.write_scores_csv"),
            "report.other.s": busy(*(report_names - {"report.ranking_table", "report.write_scores_csv"})),
            "report.bytes_out": count("bytes_out", "report."),
        }
        for layer in LAYERS:
            m[f"{layer}.errors"] = float(sum(s.error for s in spans if s.name.split(".")[0] == layer))
        m["trace.unattributed_s"] = wall - blocking_path(spans, self_time)
        return m

    def metrics(self, untraced_p50: float) -> dict[str, float]:
        """Per-op medians over every traced op, plus tracing overhead."""
        per_op = [self.op_metrics(op, wall) for op, wall in sorted(self.op_walls.items())]
        out = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
        traced_p50 = statistics.median(self.op_walls.values())
        out["trace.eval_p50_s"] = traced_p50
        out["trace.overhead_s"] = traced_p50 - untraced_p50
        return out


def blocking_path(spans: list[Span], self_time) -> float:
    """Time the op's own thread spent, as attributed by the spans.

    Self times of spans on the op's thread plus the covered part of work
    it waited on elsewhere (pool spans parented across threads).
    """
    if not spans:
        return 0.0
    by_id = {s.id: s for s in spans}
    root = min(spans, key=lambda s: s.start)
    main = [s for s in spans if s.thread == root.thread]
    waited = [
        (s.start, s.end)
        for s in spans
        if s.thread != root.thread and s.parent in by_id and by_id[s.parent].thread == root.thread
    ]
    return sum(self_time(s) for s in main) + _union(waited, -float("inf"), float("inf"))


def _union(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total
