"""Observability for the MDM pipeline: tracing, metrics, one timing path.

The governance story of the paper — stewards understanding what the
system did to their data — needs a measurement substrate.  This package
provides it without any third-party dependency:

- :mod:`repro.obs.trace` — hierarchical :class:`Span`s with explicit
  ``trace_id``/``span_id``/``parent_id``, contextvars-based current-span
  tracking (safe across ThreadPoolExecutor workers), probabilistic +
  always-on-slow sampling, and pluggable sinks (ring buffer, JSONL);
- :mod:`repro.obs.querylog` — one structured :class:`QueryLogRecord`
  per ``MDM.execute`` (correlation id, phase timings, row counts, cache
  reuse, failure status) in a ring plus optional JSONL mirror;
- :mod:`repro.obs.profile` — the per-query :class:`ResourceProfile`
  attached to ``QueryOutcome`` (phase wall times, rows, peak memory,
  per-operator self time);
- :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges and fixed-bucket histograms with Prometheus text exposition and
  p50/p95/p99 summaries;
- :mod:`repro.obs.timing` — the :func:`timed` decorator, the single
  timing code path used by scenarios and benchmarks;
- :mod:`repro.obs.selfcheck` — ``python -m repro.obs.selfcheck`` smoke
  command asserting the instrumentation end-to-end.

Tracing is zero-overhead by default: the process tracer starts disabled
and its ``span()`` returns a shared no-op singleton.  Metrics are always
on (cheap dict updates) so ``GET /metrics`` is populated after one query.

:func:`capture` swaps in a fresh enabled tracer plus empty registry for
the duration of a block — the isolation primitive tests and benchmark
harnesses use::

    with capture() as (tracer, registry):
        mdm.execute(walk, analyze=True)
    print(tracer.recent()[-1].tree())
    print(registry.render_prometheus())
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

from .metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    METRICS,
    MetricSpec,
    MetricsRegistry,
    get_metrics,
    reset_metrics,
    set_metrics,
)
from .profile import ResourceProfile
from .querylog import (
    QueryLog,
    QueryLogRecord,
    configure_query_log,
    get_query_log,
    reset_query_log,
    set_query_log,
)
from .timing import timed
from .trace import (
    JsonlSink,
    NOOP_SPAN,
    RingSink,
    Span,
    Tracer,
    current_span,
    disable_tracing,
    enable_tracing,
    get_tracer,
    set_tracer,
)

__all__ = [
    "Span",
    "Tracer",
    "RingSink",
    "JsonlSink",
    "NOOP_SPAN",
    "current_span",
    "get_tracer",
    "set_tracer",
    "enable_tracing",
    "disable_tracing",
    "QueryLog",
    "QueryLogRecord",
    "get_query_log",
    "set_query_log",
    "reset_query_log",
    "configure_query_log",
    "ResourceProfile",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricSpec",
    "METRICS",
    "DEFAULT_BUCKETS",
    "get_metrics",
    "set_metrics",
    "reset_metrics",
    "timed",
    "capture",
]


@contextmanager
def capture(
    jsonl: Optional[str] = None, ring_capacity: int = 256
) -> Iterator[Tuple[Tracer, MetricsRegistry]]:
    """Fresh enabled tracer + empty registry for the duration of a block.

    The previous process-local tracer and registry are restored on exit,
    so captures nest and never leak state into unrelated code.  The
    capture tracer samples at rate 1.0 regardless of environment
    configuration — a capture exists to observe, not to sample.
    """
    previous_tracer = get_tracer()
    previous_metrics = get_metrics()
    tracer = Tracer(
        enabled=True,
        ring_capacity=ring_capacity,
        sample_rate=1.0,
        slow_threshold_ms=None,
    )
    if jsonl:
        tracer.add_sink(JsonlSink(jsonl))
    registry = MetricsRegistry()
    set_tracer(tracer)
    set_metrics(registry)
    try:
        yield tracer, registry
    finally:
        set_tracer(previous_tracer)
        set_metrics(previous_metrics)
