"""Span tracing around calls into wise, installed from the benchmark's side.

A traced execution replaces module-level names where their callers look
them up (``wise.pipeline.cluster`` is what ``stage_two`` calls, for
example) with wrappers that record one span per call: name, start, end,
parent and execution id.  Spans stay in memory until the run writes them
out.  Counts that need real work (bucket grouping, leaf walks) run in
hooks while the tracer's clock is paused, so they never land inside a
timed span.  Wrappers pass straight through in forked pool workers, whose
spans the parent could not see anyway.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import os
import resource
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    execution: int
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def cpu_now() -> float:
    """CPU seconds of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _bound(func, args, kwargs) -> dict:
    bound = inspect.signature(func).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# --- count hooks: each runs with the clock paused -----------------------------


def _seed_buckets(span, tracer, func, args, kwargs, result):
    """Bucket count and distinct bucket member sets of one level-1 sketch.

    Regroups the public ``cws_signatures`` output by the band layout of
    the enclosing ``silk_seed`` call, as the seeding step does.
    """
    seeding = tracer.open_ancestor("wkfreq.silk_seed")
    if seeding is None:
        return
    params = seeding.counts["_params"]
    coords, comps = result
    rows = params.lsh_rows
    if coords.shape[1] != params.lsh_tables * params.lsh_bands * rows:
        return
    keep = coords[:, 0] >= 0
    members_all = np.flatnonzero(keep)
    coords, comps = coords[keep], comps[keep]
    buckets, distinct = 0, set()
    for h in range(0, coords.shape[1], rows):
        sig = np.ascontiguousarray(
            np.concatenate([coords[:, h:h + rows], comps[:, h:h + rows]], axis=1))
        view = sig.view(np.dtype((np.void, sig.dtype.itemsize * sig.shape[1]))).ravel()
        _, inverse, sizes = np.unique(view, return_inverse=True, return_counts=True)
        order = np.argsort(inverse.ravel(), kind="stable")
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        for g in np.flatnonzero(sizes >= 2):
            buckets += 1
            distinct.add(np.sort(members_all[order[offsets[g]:offsets[g + 1]]]).tobytes())
    span.counts["buckets"] = buckets
    span.counts["bucket_sets_distinct"] = len(distinct)


def _stash_params(span, tracer, func, args, kwargs):
    span.counts["_params"] = _bound(func, args, kwargs)["params"]


def _drop_params(span, tracer, func, args, kwargs, result):
    span.counts.pop("_params", None)


def _lloyd(span, tracer, func, args, kwargs, result):
    params = _bound(func, args, kwargs)["params"]
    span.counts["lloyd_iters"] = int(result.n_iter)
    span.counts["maxiter_hits"] = int(result.n_iter >= params.max_iter)


def _forest(span, tracer, func, args, kwargs, result):
    def leaves(node) -> int:
        return 1 if node.is_leaf else leaves(node.left) + leaves(node.right)

    span.counts["trees"] = len(result.trees)
    span.counts["leaves"] = sum(leaves(t.root) for t in result.trees)


def _explained(span, tracer, func, args, kwargs, result):
    span.counts["rows_explained"] = int(result.explained_count)


def _nnz(span, tracer, func, args, kwargs, result):
    span.counts["nnz"] = int(result.matrix.nnz)


def _cpu_before(span, tracer, func, args, kwargs):
    span.counts["_cpu0"] = cpu_now() - tracer.paused
    span.counts["workers"] = max(1, int(_bound(func, args, kwargs)["workers"]))


def _cpu_after(span, tracer, func, args, kwargs, result):
    # count hooks inside the call burn CPU on a paused clock; leave them out
    span.counts["cpu_s"] = cpu_now() - tracer.paused - span.counts.pop("_cpu0")


# (module, attribute, span name, pre hook, post hook).  The module and
# attribute name where the caller looks the function up.
TARGETS = [
    ("wise.cli", "load_table", "data_model.load_table", None, None),
    ("wise.cli", "run_wise", "pipeline.run_wise", None, None),
    ("wise.cli", "evaluate", "metrics.evaluate", None, None),
    ("wise.pipeline", "encode_table", "bep.encode_table", None, _nnz),
    ("wise.pipeline", "make_views", "pipeline.make_views", _cpu_before, _cpu_after),
    ("wise.pipeline", "stage_one", "pipeline.stage_one", _cpu_before, _cpu_after),
    ("wise.pipeline", "stage_two", "pipeline.stage_two", None, None),
    ("wise.pipeline", "cluster", "wkfreq.cluster", None, _lloyd),
    ("wise.pipeline", "compute_explanations", "dfi.compute_explanations", None, None),
    ("wise.lofo", "train_forest", "forest.train_forest", None, _forest),
    ("wise.lofo", "aggregate_global", "treeshap.aggregate_global", None, _explained),
    ("wise.lofo", "greedy_select", "lofo.greedy_select", None, None),
    ("wise.lofo", "design_matrix", "data_model.design_matrix", None, None),
    ("wise.forest", "design_matrix", "data_model.design_matrix", None, None),
    ("wise.wkfreq", "silk_seed", "wkfreq.silk_seed", _stash_params, _drop_params),
    ("wise.wkfreq", "cws_signatures", "wkfreq.cws_signatures", None, _seed_buckets),
    ("wise.metrics", "swc_gower", "metrics.swc_gower", None, None),
]


class Tracer:
    """Collects spans for traced executions and owns the installed wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: set[str] = set()   # span names whose wrapped attribute is gone
        self._stack: list[Span] = []
        self.paused = 0.0
        self._saved: list[tuple[object, str, object]] = []
        self._pid = os.getpid()
        self._execution = -1

    # the clock stops while count hooks run, so spans never include them
    def now(self) -> float:
        return time.perf_counter() - self.paused

    def _hook(self, hook, *args):
        t0 = time.perf_counter()
        try:
            hook(*args)
        finally:
            self.paused += time.perf_counter() - t0

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, 0.0, parent, self._execution)
        self.spans.append(span)
        self._stack.append(span)
        span.start = self.now()
        return span

    def close(self, span: Span) -> None:
        span.end = self.now()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def open_ancestor(self, name: str) -> Span | None:
        for span in reversed(self._stack):
            if span.name == name:
                return span
        return None

    def _wrap(self, func, name, pre, post):
        tracer = self

        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return func(*args, **kwargs)
            span = tracer.open(name)
            if pre is not None:
                tracer._hook(pre, span, tracer, func, args, kwargs)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(span)
            if post is not None:
                tracer._hook(post, span, tracer, func, args, kwargs, result)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that still exists; remember the originals."""
        if self._saved:
            raise RuntimeError("wrappers already installed")
        for module_name, attr, name, pre, post in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            func = getattr(module, attr, None)
            if not callable(func):
                self.absent.add(name)
                continue
            self._saved.append((module, attr, func))
            setattr(module, attr, self._wrap(func, name, pre, post))

    def restore(self) -> None:
        for module, attr, func in reversed(self._saved):
            setattr(module, attr, func)
        self._saved.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    @contextlib.contextmanager
    def execution(self, index: int):
        """Root span of one traced execution; wrappers live only inside it."""
        self._execution = index
        self.install()
        try:
            with self.span("execution") as root:
                yield root
        finally:
            self.restore()


# --- derived figures ----------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover.

    Children are merged as intervals clipped to the parent, so overlap
    (which a single thread cannot produce) would not be counted twice.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for c in sorted(children.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    needs: tuple[str, ...]   # span names; the metric is absent if any wrapper is
    moves: str               # end-to-end metric and workloads it should move


LAYER_METRICS = [
    LayerMetric("wkfreq.seed_s", "s", "lower", ("wkfreq.silk_seed",),
                "run_s on both workloads (stage-two spans only on planted-2k-cli-w2)"),
    LayerMetric("wkfreq.signature_s", "s", "lower", ("wkfreq.cws_signatures",),
                "run_s on both workloads"),
    LayerMetric("wkfreq.buckets", "count", "lower", ("wkfreq.silk_seed", "wkfreq.cws_signatures"),
                "run_s on both workloads (seeding work per bucket)"),
    LayerMetric("wkfreq.bucket_sets_distinct", "count", "lower",
                ("wkfreq.silk_seed", "wkfreq.cws_signatures"),
                "run_s on both workloads (work left after deduplicating buckets)"),
    LayerMetric("wkfreq.bucket_useful_ratio", "ratio", "higher",
                ("wkfreq.silk_seed", "wkfreq.cws_signatures"),
                "run_s on both workloads"),
    LayerMetric("wkfreq.lloyd_s", "s", "lower", ("wkfreq.cluster", "wkfreq.silk_seed"),
                "run_s on both workloads"),
    LayerMetric("wkfreq.lloyd_iters", "count", "lower", ("wkfreq.cluster",),
                "run_s on both workloads"),
    LayerMetric("wkfreq.maxiter_hits", "count", "lower", ("wkfreq.cluster",),
                "run_s on both workloads"),
    LayerMetric("pipeline.stage_one_s", "s", "lower", ("pipeline.stage_one",),
                "run_s on both workloads"),
    LayerMetric("pipeline.stage_two_s", "s", "lower", ("pipeline.stage_two",),
                "run_s on both workloads"),
    LayerMetric("treeshap.shap_s", "s", "lower", ("treeshap.aggregate_global",),
                "run_s on deep-sense-400; a few percent on planted-2k-cli-w2, in its pool"),
    LayerMetric("treeshap.rows_explained", "count", "lower", ("treeshap.aggregate_global",),
                "run_s on deep-sense-400"),
    LayerMetric("forest.fit_s", "s", "lower", ("forest.train_forest",),
                "run_s on deep-sense-400"),
    LayerMetric("forest.trees", "count", "lower", ("forest.train_forest",),
                "run_s on deep-sense-400"),
    LayerMetric("forest.leaves", "count", "lower", ("forest.train_forest",),
                "run_s on deep-sense-400"),
    LayerMetric("lofo.sense_s", "s", "lower", ("pipeline.make_views",),
                "run_s and peak_rss_mb on deep-sense-400"),
    LayerMetric("lofo.self_s", "s", "lower", ("pipeline.make_views",),
                "run_s and peak_rss_mb on deep-sense-400"),
    LayerMetric("data_model.design_matrix_calls", "count", "lower", ("data_model.design_matrix",),
                "run_s and peak_rss_mb on deep-sense-400"),
    # CPU of the process and its reaped workers over (workers x wall); numpy's
    # BLAS threads can lift it above 1
    LayerMetric("pipeline.sense_par_eff", "ratio", "higher", ("pipeline.make_views",),
                "run_s and cpu_s on planted-2k-cli-w2"),
    LayerMetric("pipeline.stage_one_par_eff", "ratio", "higher", ("pipeline.stage_one",),
                "run_s and cpu_s on planted-2k-cli-w2"),
    LayerMetric("data_model.load_s", "s", "lower", ("data_model.load_table",),
                "run_s on planted-2k-cli-w2"),
    LayerMetric("metrics.evaluate_s", "s", "lower", ("metrics.evaluate",),
                "run_s on planted-2k-cli-w2"),
    LayerMetric("metrics.swc_s", "s", "lower", ("metrics.swc_gower",),
                "run_s on planted-2k-cli-w2"),
    LayerMetric("cli.io_s", "s", "lower",
                ("data_model.load_table", "pipeline.run_wise", "metrics.evaluate"),
                "run_s on planted-2k-cli-w2"),
    LayerMetric("bep.encode_s", "s", "lower", ("bep.encode_table",),
                "run_s on both workloads (under 0.1% today)"),
    LayerMetric("bep.nnz", "count", "lower", ("bep.encode_table",),
                "run_s on both workloads (under 0.1% today)"),
    LayerMetric("dfi.explain_s", "s", "lower", ("dfi.compute_explanations",),
                "run_s on both workloads (under 0.1% today)"),
    LayerMetric("trace.run_s", "s", "lower", (), "run_s, measured with tracing on"),
    LayerMetric("trace.overhead_s", "s", "lower", (),
                "traced minus untraced run_s of paired executions, at reference speed"),
    LayerMetric("trace.coverage", "ratio", "higher", (),
                "share of traced run_s that named layers account for"),
]


def layer_figures(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one traced execution (root span = execution)."""
    root = spans[0]
    selfs = self_times(spans)
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    for s in spans[1:]:
        total[s.name] = total.get(s.name, 0.0) + s.duration
        own[s.name] = own.get(s.name, 0.0) + selfs[s.id]
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, value in s.counts.items():
            counts[key] = counts.get(key, 0) + value

    def par_eff(name: str) -> float:
        ss = [s for s in spans if s.name == name]
        capacity = sum(s.counts["workers"] * s.duration for s in ss)
        return sum(s.counts["cpu_s"] for s in ss) / capacity if capacity > 0 else 0.0

    buckets = counts.get("buckets", 0)
    distinct = counts.get("bucket_sets_distinct", 0)
    cli_wall = total.get("cli.main", 0.0)
    return {
        "wkfreq.seed_s": total.get("wkfreq.silk_seed", 0.0),
        "wkfreq.signature_s": total.get("wkfreq.cws_signatures", 0.0),
        "wkfreq.buckets": buckets,
        "wkfreq.bucket_sets_distinct": distinct,
        "wkfreq.bucket_useful_ratio": distinct / buckets if buckets else 0.0,
        "wkfreq.lloyd_s": total.get("wkfreq.cluster", 0.0) - total.get("wkfreq.silk_seed", 0.0),
        "wkfreq.lloyd_iters": counts.get("lloyd_iters", 0),
        "wkfreq.maxiter_hits": counts.get("maxiter_hits", 0),
        "pipeline.stage_one_s": total.get("pipeline.stage_one", 0.0),
        "pipeline.stage_two_s": total.get("pipeline.stage_two", 0.0),
        "treeshap.shap_s": total.get("treeshap.aggregate_global", 0.0),
        "treeshap.rows_explained": counts.get("rows_explained", 0),
        "forest.fit_s": total.get("forest.train_forest", 0.0),
        "forest.trees": counts.get("trees", 0),
        "forest.leaves": counts.get("leaves", 0),
        "lofo.sense_s": total.get("pipeline.make_views", 0.0),
        "lofo.self_s": own.get("pipeline.make_views", 0.0),
        "data_model.design_matrix_calls": calls.get("data_model.design_matrix", 0),
        "pipeline.sense_par_eff": par_eff("pipeline.make_views"),
        "pipeline.stage_one_par_eff": par_eff("pipeline.stage_one"),
        "data_model.load_s": total.get("data_model.load_table", 0.0),
        "metrics.evaluate_s": total.get("metrics.evaluate", 0.0),
        "metrics.swc_s": total.get("metrics.swc_gower", 0.0),
        "cli.io_s": own.get("cli.main", 0.0) if cli_wall else 0.0,
        "bep.encode_s": total.get("bep.encode_table", 0.0),
        "bep.nnz": counts.get("nnz", 0),
        "dfi.explain_s": total.get("dfi.compute_explanations", 0.0),
        "trace.run_s": root.duration,
        "trace.coverage": 1.0 - selfs[root.id] / root.duration if root.duration > 0 else 0.0,
    }
