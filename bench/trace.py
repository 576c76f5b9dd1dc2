"""Span recording for the benchmark's traced runs.

The benchmark measures the program from outside: :func:`install` swaps
the public entry point of each layer (a class method or a module-level
function) for a wrapper that records one span per call, and returns the
function that puts the originals back.  Nothing inside ``src/`` knows
it is being traced.

A span is ``(op, span_id, parent_id, layer, start, end)``.  The parent
is found through a :mod:`contextvars` variable; ``MDM._fetch_requests``
runs each pool task under a copy of the submitting context, so fetch
spans in worker threads parent to the operation that asked for them.
Calls made outside an operation are not recorded, except through a
*root* layer (``http.dispatch``), which opens an operation of its own.

Self time (:func:`summarize`) splits every instant of an operation
between the innermost spans open at that instant, so the self times of
one operation add up to its wall time even when fetches overlap in the
fetch pool.  The root span's self time is the operation's unattributed
time.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["LAYERS", "Recorder", "Totals", "install", "summarize"]

#: Innermost open span of the running operation: ``(op, span_id)``.
_CURRENT: contextvars.ContextVar[Optional[Tuple[int, int]]] = contextvars.ContextVar(
    "bench_span", default=None
)

#: ``(layer, module, attribute, kind)`` for every wrapped entry point.
#: ``kind`` picks what else is counted besides the span: ``lookup``
#: counts cache lookups and hits (a miss returns None), ``fetch`` counts
#: fetch attempts and failures, ``root`` opens an operation when none is
#: running, ``outcome`` records no span and reads the query outcome.
LAYERS: Tuple[Tuple[str, str, str, str], ...] = (
    ("rewrite", "repro.core.rewriting", "Rewriter.rewrite", "span"),
    ("rewrite_cache", "repro.core.rewrite_cache", "RewriteCache.get", "lookup"),
    ("rewrite_cache", "repro.core.rewrite_cache", "RewriteCache.put", "span"),
    ("result_cache", "repro.core.result_cache", "ResultCache.get", "lookup"),
    ("result_cache", "repro.core.result_cache", "ResultCache.put", "span"),
    ("wrapper_cache", "repro.core.wrapper_cache", "WrapperCache.lookup", "lookup"),
    ("wrapper_cache", "repro.core.wrapper_cache", "WrapperCache.put", "span"),
    ("optimizer.stage_a", "repro.relational.optimizer", "PlanOptimizer.extract_pushdown", "span"),
    ("optimizer.stage_b", "repro.relational.optimizer", "PlanOptimizer.optimize", "span"),
    ("validate", "repro.analysis.plan_checker", "check_plan", "span"),
    ("fetch", "repro.sources.wrappers", "Wrapper.fetch_request", "fetch"),
    ("source", "repro.sources.restapi", "MockRestServer.get", "span"),
    ("decode", "repro.sources.wrappers", "decode_json", "span"),
    ("decode", "repro.sources.wrappers", "decode_xml", "span"),
    ("decode", "repro.sources.wrappers", "decode_csv", "span"),
    ("execute", "repro.relational.executor", "Executor.execute", "span"),
    ("execute", "repro.relational.executor", "Executor.execute_analyzed", "span"),
    ("finalize", "repro.relational.relation", "Relation.sorted", "span"),
    ("finalize", "repro.relational.relation", "Relation.without_subsumed", "span"),
    ("lock.read", "repro.core.locking", "ReadWriteLock.acquire_read", "span"),
    ("lock.write", "repro.core.locking", "ReadWriteLock.acquire_write", "span"),
    ("impact", "repro.analysis.impact", "analyze_impact", "span"),
    ("impact.shadow", "repro.analysis.impact", "shadow_mdm", "span"),
    ("revalidate", "repro.core.registry", "QueryRegistry.revalidate", "span"),
    ("docstore.insert", "repro.docstore.store", "Collection.insert_one", "span"),
    ("http.dispatch", "repro.service.http", "Router.dispatch", "root"),
    ("query", "repro.core.mdm", "MDM.execute", "outcome"),
)

#: Layer name of the span :meth:`Recorder.op` opens around one operation.
OP = "op"


class Recorder:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, Optional[int], str, float, float]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._lock = threading.Lock()

    def add(self, key: str, n: float = 1) -> None:
        """Add ``n`` to the counter ``key`` (safe across threads)."""
        with self._lock:
            self.counts[key] += n

    @contextmanager
    def span(self, layer: str, root: bool = False) -> Iterator[bool]:
        """Record ``layer`` under the current span; yields whether it did.

        Outside an operation nothing is recorded, unless ``root`` opens a
        new operation.
        """
        current = _CURRENT.get()
        if current is None and not root:
            yield False
            return
        op = next(self._ops) if current is None else current[0]
        span_id = next(self._ids)
        token = _CURRENT.set((op, span_id))
        start = time.perf_counter()
        try:
            yield True
        finally:
            end = time.perf_counter()
            _CURRENT.reset(token)
            parent = None if current is None else current[1]
            self.spans.append((op, span_id, parent, layer, start, end))

    def op(self):
        """Open one benchmark operation (the root of its spans)."""
        return self.span(OP, root=True)

    def absorb(self, spans, counts) -> None:
        """Add another recorder's spans (renumbered) and counts."""
        ops: Dict[int, int] = defaultdict(lambda: next(self._ops))
        ids: Dict[int, int] = defaultdict(lambda: next(self._ids))
        for op, span_id, parent, layer, start, end in spans:
            parent = None if parent is None else ids[parent]
            self.spans.append((ops[op], ids[span_id], parent, layer, start, end))
        with self._lock:
            self.counts.update(counts)

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, times in ms from the first span."""
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            for op, span_id, parent, layer, start, end in self.spans:
                out.write(
                    json.dumps(
                        {
                            "op": op,
                            "id": span_id,
                            "parent": parent,
                            "layer": layer,
                            "start_ms": (start - origin) * 1000.0,
                            "end_ms": (end - origin) * 1000.0,
                        }
                    )
                    + "\n"
                )


def _traced(recorder: Recorder, layer: str, kind: str, fn: Callable) -> Callable:
    if kind == "outcome":

        @functools.wraps(fn)
        def observe(*args, **kwargs):
            outcome = fn(*args, **kwargs)
            if _CURRENT.get() is not None and outcome.result_cache != "hit":
                recorder.add("rows_fetched", outcome.profile.rows_fetched)
                recorder.add("rows_returned", outcome.profile.rows_returned)
                for meta in (outcome.pushdown or {}).get("requests", {}).values():
                    if meta["rows_source"] is not None:
                        recorder.add("rows_transferred", meta["rows_transferred"])
                        recorder.add("rows_source", meta["rows_source"])
            return outcome

        return observe

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with recorder.span(layer, root=kind == "root") as recording:
            if not recording:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if kind == "fetch":
                    recorder.add("fetch.failures")
                    recorder.add("fetch.attempts", getattr(exc, "attempts", 1))
                raise
            if kind == "lookup":
                recorder.add(f"{layer}.lookups")
                recorder.add(f"{layer}.hits", result is not None)
            elif kind == "fetch":
                recorder.add("fetch.attempts", result[1])
            return result

    return traced


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every entry point in :data:`LAYERS`; returns the undo function."""
    undo: List[Tuple[object, str, object]] = []
    for layer, module_name, attribute, kind in LAYERS:
        owner: object = importlib.import_module(module_name)
        *path, name = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = vars(owner)[name]
        undo.append((owner, name, original))
        setattr(owner, name, _traced(recorder, layer, kind, original))

    def uninstall() -> None:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return uninstall


class Totals:
    """Per-layer sums over the operations of one or more traced runs."""

    def __init__(self) -> None:
        self.ops = 0
        #: Summed wall time of the operations' root spans.
        self.op_ms = 0.0
        #: Layer → summed self time; the root layer's is unattributed time.
        self.self_ms: Dict[str, float] = defaultdict(float)
        #: Layer → summed union of its span intervals per operation.
        self.wall_ms: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()


def _union_ms(intervals: List[Tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total * 1000.0


def summarize(spans) -> Totals:
    """Self time, wall time and calls per layer, summed over operations."""
    by_op: Dict[int, list] = defaultdict(list)
    for span in spans:
        by_op[span[0]].append(span)
    totals = Totals()
    for op_spans in by_op.values():
        root = next(s for s in op_spans if s[2] is None)
        totals.ops += 1
        totals.op_ms += (root[5] - root[4]) * 1000.0
        layer_of = {s[1]: s[3] for s in op_spans}
        parent_of = {s[1]: s[2] for s in op_spans}
        intervals: Dict[str, list] = defaultdict(list)
        events = []
        for _, span_id, _, layer, start, end in op_spans:
            totals.calls[layer] += 1
            intervals[layer].append((start, end))
            events.append((start, 1, span_id))
            events.append((end, 0, span_id))
        for layer, spans_of_layer in intervals.items():
            totals.wall_ms[layer] += _union_ms(spans_of_layer)
        # Sweep the operation: between two events, the open spans with
        # no open child share the interval equally.
        events.sort()
        open_children: Counter = Counter()
        open_ids: set = set()
        innermost: set = set()
        previous = events[0][0]
        for at, opening, span_id in events:
            if innermost and at > previous:
                share = (at - previous) * 1000.0 / len(innermost)
                for open_id in innermost:
                    totals.self_ms[layer_of[open_id]] += share
            previous = at
            parent = parent_of[span_id]
            if opening:
                open_ids.add(span_id)
                innermost.add(span_id)
                if parent is not None:
                    open_children[parent] += 1
                    innermost.discard(parent)
            else:
                open_ids.discard(span_id)
                innermost.discard(span_id)
                if parent is not None:
                    open_children[parent] -= 1
                    if open_children[parent] == 0 and parent in open_ids:
                        innermost.add(parent)
    return totals
