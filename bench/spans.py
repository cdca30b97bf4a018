"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded from the benchmark's side only: ``install`` replaces each
cross-module function binding in the consumer modules (``regularity``,
``dtree``, ``stablest``, ``quasirandom``, ``noise``, ``cli``), plus
``stablest.quadrant_prob``, by a wrapper that records a span around the
call.  The library's own code is not edited.  A span is named after the
function it wraps (``boolfn.wht``, ``noise.stability``, ...), whichever
module called it.  Spans stay in memory; the caller writes them out at the
end of the run.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import math
import statistics
import time

CONSUMERS = ("regularity", "dtree", "stablest", "quasirandom", "noise", "cli")
# Bound inside its own module, but a layer of its own for the metrics.
SAME_MODULE = (("stablest", "quadrant_prob"),)

INFLUENCES = ("noise.expansion_influences", "noise.all_noisy_influences",
              "noise.has_small_noisy_influences", "noise.noisy_influence")
MONTE_CARLO = ("noise.stability_mc_detail", "noise.stability_mc")
SPLITS = ("dtree.split_leaf", "dtree.split_all_leaves")
WALKS = ("dtree.leaves", "dtree.tree_depth")
DECOMPOSE = ("regularity.decompose", "regularity.decompose_homogeneous")
QUASIRANDOM = ("quasirandom.is_quasirandom", "quasirandom.max_mean_shift",
               "quasirandom.influence_quasirandom_bound")

# Per-layer metric names with their units and which way is better; every
# traced run reports all of them (a layer a workload never calls reads 0).
# fail_ratio is here, not among the end-to-end metrics, because it reads 0
# on a correct run and an end-to-end metric's bound is a share of its median.
LAYER_METRICS = {
    "boolfn.wht.calls": ("count", "lower"),
    "boolfn.wht.points": ("count", "lower"),
    "boolfn.wht.self_s": ("s", "lower"),
    "boolfn.wht.bytes_computed": ("bytes", "lower"),
    "boolfn.restrict.calls": ("count", "lower"),
    "boolfn.restrict.self_s": ("s", "lower"),
    "boolfn.load_table.self_s": ("s", "lower"),
    "boolfn.save_table.self_s": ("s", "lower"),
    "noise.influences.calls": ("count", "lower"),
    "noise.influences.self_s": ("s", "lower"),
    "noise.stability.self_s": ("s", "lower"),
    "noise.mc.samples": ("count", "lower"),
    "noise.mc.self_s": ("s", "lower"),
    "dtree.split.calls": ("count", "lower"),
    "dtree.split.self_s": ("s", "lower"),
    "dtree.walk.calls": ("count", "lower"),
    "dtree.walk.self_s": ("s", "lower"),
    "dtree.leaves": ("count", "lower"),
    "dtree.leaf_table_bytes": ("bytes", "lower"),
    "regularity.passes": ("count", "lower"),
    "regularity.self_s": ("s", "lower"),
    "regularity.leaf_transforms": ("count", "lower"),
    "regularity.transforms_per_leaf": ("ratio", "lower"),
    "quasirandom.self_s": ("s", "lower"),
    "quasirandom.restrictions": ("count", "lower"),
    "stablest.quadrant_prob.calls": ("count", "lower"),
    "stablest.quadrant_prob.self_s": ("s", "lower"),
    "stablest.leaf_transforms": ("count", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.stdout_bytes": ("bytes", "lower"),
    "cli.exit_codes": ("count", "lower"),
    "trace_overhead": ("ratio", "lower"),
    "fail_ratio": ("ratio", "lower"),
}


def _wht_counts(args: dict) -> dict:
    n = args["f"].n
    # Computed, not measured: the float64 table is read and written once by
    # the copy-in, once per butterfly stage (n stages) and once by the
    # final scaling.  Temporaries and cache misses are ignored.
    return {"points": 1 << n, "bytes": 16 * (n + 2) << n}


def _mc_counts(args: dict) -> dict:
    return {"samples": args["samples"]}


def _shift_counts(args: dict) -> dict:
    n, k = args["f"].n, args["k"]
    return {"restrictions": sum(math.comb(n, j) << j for j in range(1, k + 1))}


COUNTERS = {
    "boolfn.wht": _wht_counts,
    "noise.stability_mc_detail": _mc_counts,
    "noise.stability_mc": _mc_counts,
    "quasirandom.max_mean_shift": _shift_counts,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts", "result")

    def __init__(self, name, start, end, parent, op, counts=None, result=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index into the tracer's span list, or None
        self.op = op
        self.counts = counts or {}
        self.result = result

    def to_json(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.op, self.counts]


class Tracer:
    """Records spans while an operation is open; a no-op otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.finished: list[list[Span]] = []
        self._stack: list[int] = []
        self.op: str | None = None
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), None, parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    def take(self) -> list[Span]:
        """Hand over the spans recorded since the last call; parent indices
        are local to the returned list."""
        taken, self.spans = self.spans, []
        self.finished.append(taken)
        return taken

    def adopt(self, rows: list[list]) -> None:
        """Append spans that a traced subprocess wrote, under the open span."""
        base, parent = len(self.spans), self._stack[-1]
        for name, start, end, up, _, counts in rows:
            self.spans.append(Span(name, start, end, parent if up is None else base + up,
                                   self.op, counts))

    @contextlib.contextmanager
    def operation(self, op_id: str, name: str):
        """One benchmark operation: its root span, and the id its spans share."""
        self.op = op_id
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)
            self.op = None

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        keep_result = name in DECOMPOSE
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self._close(index)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(bound.arguments)
            if keep_result:
                span.result = result
            return result

        return traced

    def patch(self, owner, attr: str, fn) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, self.wrap(span_name(fn), fn))

    def install(self, api=None) -> None:
        """Wrap every cross-module binding in the consumer modules, and every
        library function in ``api`` (the benchmark's own bindings)."""
        for short in CONSUMERS:
            module = importlib.import_module(f"boolreg.{short}")
            for attr, value in list(vars(module).items()):
                if _library_function(value) and value.__module__ != module.__name__:
                    self.patch(module, attr, value)
        for short, attr in SAME_MODULE:
            module = importlib.import_module(f"boolreg.{short}")
            self.patch(module, attr, getattr(module, attr))
        if api is not None:
            for attr, value in list(vars(api).items()):
                if _library_function(value):
                    self.patch(api, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def _library_function(value) -> bool:
    return inspect.isfunction(value) and value.__module__.startswith("boolreg.")


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((span.end - span.start) - covered)
    return out


def leaf_stats(result) -> dict:
    """Work counters of a finished decomposition: passes, final leaves and
    the bytes their tables hold."""
    from boolreg.dtree import leaves

    final = leaves(result.tree)
    return {"passes": result.iterations, "leaves": len(final),
            "leaf_bytes": sum(leaf.fn.values.nbytes for leaf, _ in final)}


def settle(spans: list[Span]) -> None:
    """Turn kept decomposition results into counters and drop the results.
    Called after a pass, so that walking the final trees is never timed."""
    for span in spans:
        if span.result is not None:
            span.counts = leaf_stats(span.result)
            span.result = None


def pass_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics of the (settled) spans of one pass."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    leaf_transforms = 0
    mist_transforms = 0
    decomposed_at: dict[int, float] = {}  # check_quasi_mist span -> end of its decompose
    for index, span in enumerate(spans):
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + own[index]
        for key, value in span.counts.items():
            counts[key] = counts.get(key, 0) + value
        above = list(_ancestors(spans, index))
        if span.name in DECOMPOSE and above and spans[above[0]].name == "stablest.check_quasi_mist":
            decomposed_at[above[0]] = span.end
        if span.name != "boolfn.wht":
            continue
        if any(spans[a].name in DECOMPOSE for a in above):
            leaf_transforms += 1
            continue
        mist = next((a for a in above if spans[a].name == "stablest.check_quasi_mist"), None)
        if mist in decomposed_at and span.start >= decomposed_at[mist]:
            mist_transforms += 1  # a leaf transform that decompose already did

    def total(table, names):
        return sum(table.get(name, 0) for name in names)

    leaves = counts.get("leaves", 0)
    return {
        "boolfn.wht.calls": calls.get("boolfn.wht", 0),
        "boolfn.wht.points": counts.get("points", 0),
        "boolfn.wht.self_s": self_s.get("boolfn.wht", 0.0),
        "boolfn.wht.bytes_computed": counts.get("bytes", 0),
        "boolfn.restrict.calls": calls.get("boolfn.restrict", 0),
        "boolfn.restrict.self_s": self_s.get("boolfn.restrict", 0.0),
        "boolfn.load_table.self_s": self_s.get("boolfn.load_table", 0.0),
        "noise.influences.calls": total(calls, INFLUENCES),
        "noise.influences.self_s": total(self_s, INFLUENCES),
        "noise.stability.self_s": self_s.get("noise.stability", 0.0),
        "noise.mc.samples": counts.get("samples", 0),
        "noise.mc.self_s": total(self_s, MONTE_CARLO),
        "dtree.split.calls": total(calls, SPLITS),
        "dtree.split.self_s": total(self_s, SPLITS),
        "dtree.walk.calls": total(calls, WALKS),
        "dtree.walk.self_s": total(self_s, WALKS),
        "dtree.leaves": leaves,
        "dtree.leaf_table_bytes": counts.get("leaf_bytes", 0),
        "regularity.passes": counts.get("passes", 0),
        "regularity.self_s": total(self_s, DECOMPOSE),
        "regularity.leaf_transforms": leaf_transforms,
        "regularity.transforms_per_leaf": leaf_transforms / leaves if leaves else 0.0,
        "quasirandom.self_s": total(self_s, QUASIRANDOM),
        "quasirandom.restrictions": counts.get("restrictions", 0),
        "stablest.quadrant_prob.calls": calls.get("stablest.quadrant_prob", 0),
        "stablest.quadrant_prob.self_s": self_s.get("stablest.quadrant_prob", 0.0),
        "stablest.leaf_transforms": mist_transforms,
    }


def _ancestors(spans: list[Span], index: int):
    """Indices of a span's ancestors, nearest first."""
    parent = spans[index].parent
    while parent is not None:
        yield parent
        parent = spans[parent].parent


def median_metrics(per_pass: list[dict]) -> dict:
    """Median of each per-layer metric over the traced passes."""
    return {key: statistics.median(row[key] for row in per_pass) for key in per_pass[0]}
