"""Counters, gauges and fixed-bucket histograms with Prometheus exposition.

The profiling-style metadata the governance literature asks for (per-source
fetch latency, per-phase rewrite cost, request rates) is aggregated here in
a :class:`MetricsRegistry`.  Every ``mdm_`` metric is declared once, in
:data:`METRICS` (kind, label names and help text; DESIGN §7 says where
each is emitted), and created on first use, so an instrumented call
site names the metric only::

    get_metrics().counter("mdm_queries_total").inc()

:meth:`MetricsRegistry.render_prometheus` emits the text exposition format
(``# HELP`` / ``# TYPE`` / sample lines, cumulative ``_bucket`` series with
``le`` labels) so the ``GET /metrics`` endpoint is scrape-compatible.

Standard library only; no imports from the rest of :mod:`repro`.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

__all__ = [
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
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default latency buckets in seconds — the pipeline's hot operations run
#: in the microsecond-to-millisecond range, so the ladder starts at 10µs.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.00001,
    0.00005,
    0.0001,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


class Metric:
    """Shared bookkeeping: name, help text, label names, series map."""

    type_name = "untyped"

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str] = ()):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        if len(set(labelnames)) != len(tuple(labelnames)):
            raise ValueError(f"duplicate label names in {tuple(labelnames)}")
        self.name = name
        self.help_text = help_text
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        self._series: Dict[Tuple[str, ...], Any] = {}
        # Parallel wrapper fetches record retries/latency from worker
        # threads; read-modify-write on a series is not atomic under the
        # GIL, so every mutation takes this lock.
        self._lock = threading.Lock()

    def _key(self, labels: Mapping[str, Any]) -> Tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def _render_labels(self, key: Tuple[str, ...], extra: str = "") -> str:
        parts = [
            f'{name}="{_escape_label_value(value)}"'
            for name, value in zip(self.labelnames, key)
        ]
        if extra:
            parts.append(extra)
        return "{" + ",".join(parts) + "}" if parts else ""

    def labels_of(self, key: Tuple[str, ...]) -> Dict[str, str]:
        """The label dict a series key stands for."""
        return dict(zip(self.labelnames, key))

    def series_keys(self) -> List[Tuple[str, ...]]:
        """All label-value tuples observed so far, sorted."""
        return sorted(self._series)

    def header_lines(self) -> List[str]:
        return [
            f"# HELP {self.name} {_escape_help(self.help_text)}",
            f"# TYPE {self.name} {self.type_name}",
        ]

    def render(self) -> List[str]:
        raise NotImplementedError

    def snapshot(self) -> Dict[str, Any]:
        raise NotImplementedError


class Counter(Metric):
    """Monotonically increasing sum (per label combination)."""

    type_name = "counter"

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        """Add ``value`` (must be >= 0) to the labeled series."""
        if value < 0:
            raise ValueError("counters can only increase")
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + value

    def value(self, **labels: Any) -> float:
        """Current value of the labeled series (0.0 if never incremented)."""
        return self._series.get(self._key(labels), 0.0)

    def render(self) -> List[str]:
        lines = self.header_lines()
        for key in self.series_keys():
            lines.append(
                f"{self.name}{self._render_labels(key)} "
                f"{_format_value(self._series[key])}"
            )
        return lines

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": self.type_name,
            "help": self.help_text,
            "series": [
                {"labels": self.labels_of(key), "value": self._series[key]}
                for key in self.series_keys()
            ],
        }


class Gauge(Counter):
    """A value that can go up and down (set/inc/dec)."""

    type_name = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        """Set the labeled series to ``value``."""
        with self._lock:
            self._series[self._key(labels)] = float(value)

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + value

    def dec(self, value: float = 1.0, **labels: Any) -> None:
        self.inc(-value, **labels)


class _HistogramSeries:
    __slots__ = ("bucket_counts", "overflow", "count", "total")

    def __init__(self, n_buckets: int):
        self.bucket_counts = [0] * n_buckets
        self.overflow = 0  # observations above the last finite bucket
        self.count = 0
        self.total = 0.0


class Histogram(Metric):
    """Fixed-bucket histogram with cumulative Prometheus exposition.

    Buckets are upper bounds (``le`` semantics): an observation equal to a
    boundary lands in that boundary's bucket; observations above the last
    finite bucket count only toward ``+Inf``.
    """

    type_name = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help_text, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"buckets must be strictly increasing: {bounds}")
        self.buckets: Tuple[float, ...] = bounds

    def observe(self, value: float, **labels: Any) -> None:
        """Record one observation into the labeled series."""
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(self.buckets))
            index = bisect_left(self.buckets, value)
            if index < len(self.buckets):
                series.bucket_counts[index] += 1
            else:
                series.overflow += 1
            series.count += 1
            series.total += value

    def count(self, **labels: Any) -> int:
        """Number of observations of the labeled series."""
        series = self._series.get(self._key(labels))
        return series.count if series else 0

    def sum(self, **labels: Any) -> float:
        """Sum of observed values of the labeled series."""
        series = self._series.get(self._key(labels))
        return series.total if series else 0.0

    def cumulative_buckets(self, **labels: Any) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending with +Inf."""
        series = self._series.get(self._key(labels))
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(
            self.buckets, series.bucket_counts if series else [0] * len(self.buckets)
        ):
            running += n
            out.append((bound, running))
        out.append((float("inf"), series.count if series else 0))
        return out

    def percentile(self, q: float, **labels: Any) -> Optional[float]:
        """Estimated ``q``-th percentile (0–100) of the labeled series.

        Linear interpolation over the cumulative bucket counts — the
        standard scrape-side estimate (à la ``histogram_quantile``), so
        the resolution is bounded by the bucket ladder.  Observations in
        the ``+Inf`` bucket clamp to the last finite bound; an empty
        (or unknown) series yields ``None`` — "no data" must not be
        confusable with "p99 of zero seconds" in dashboards and
        benchmark gates.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be within [0, 100]")
        series = self._series.get(self._key(labels))
        if series is None or series.count == 0:
            return None
        target = (q / 100.0) * series.count
        running = 0
        lower = 0.0
        for bound, n in zip(self.buckets, series.bucket_counts):
            if running + n >= target and n > 0:
                fraction = (target - running) / n
                return lower + (bound - lower) * max(0.0, min(1.0, fraction))
            running += n
            lower = bound
        # Target falls in the +Inf bucket: the honest answer is "at
        # least the last finite bound".
        return self.buckets[-1]

    def percentiles(
        self, qs: Sequence[float] = (50.0, 95.0, 99.0), **labels: Any
    ) -> Dict[str, Optional[float]]:
        """``{"p50": ..., "p95": ...}`` (``None`` per empty series)."""
        return {
            f"p{int(q) if float(q).is_integer() else q}": self.percentile(
                q, **labels
            )
            for q in qs
        }

    def render(self) -> List[str]:
        lines = self.header_lines()
        for key in self.series_keys():
            series = self._series[key]
            running = 0
            for bound, n in zip(self.buckets, series.bucket_counts):
                running += n
                le = self._render_labels(key, f'le="{_format_value(bound)}"')
                lines.append(f"{self.name}_bucket{le} {running}")
            le = self._render_labels(key, 'le="+Inf"')
            lines.append(f"{self.name}_bucket{le} {series.count}")
            labels = self._render_labels(key)
            lines.append(f"{self.name}_sum{labels} {_format_value(series.total)}")
            lines.append(f"{self.name}_count{labels} {series.count}")
        return lines

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": self.type_name,
            "help": self.help_text,
            "series": [
                {
                    "labels": self.labels_of(key),
                    "count": series.count,
                    "sum": series.total,
                    "mean": (series.total / series.count) if series.count else None,
                    **self.percentiles(**self.labels_of(key)),
                }
                for key, series in sorted(self._series.items())
            ],
        }


class MetricSpec(NamedTuple):
    """One catalogued metric: what every use of its name agrees on."""

    name: str
    kind: str
    labelnames: Tuple[str, ...]
    help_text: str


def _cache_family(prefix: str) -> List[MetricSpec]:
    """The hit, miss, eviction and size series of one ``GenerationLRU``."""
    label = prefix.replace("_", " ")
    counters = [
        MetricSpec(f"mdm_{prefix}_{event}_total", "counter", (), f"{label.capitalize()} {event}.")
        for event in ("hits", "misses", "evictions")
    ]
    return counters + [
        MetricSpec(f"mdm_{prefix}_size", "gauge", (), f"Entries currently held by the {label}.")
    ]


_ROWS = [
    MetricSpec(*row)
    for row in (
        ("mdm_queries_total", "counter", (), "OMQs executed end-to-end."),
        ("mdm_execute_seconds", "histogram", (), "End-to-end OMQ execution latency."),
        ("mdm_query_partial_total", "counter", (), "OMQs answered partially after wrapper failures."),
        ("mdm_rewrite_total", "counter", (), "Walks rewritten into UCQ plans."),
        ("mdm_rewrite_seconds", "histogram", (), "End-to-end LAV rewriting latency."),
        ("mdm_rewrite_phase_seconds", "histogram", ("phase",), "Latency of each LAV rewriting phase."),
        ("mdm_lav_view_compiles_total", "counter", (), "LAV mapping views compiled."),
        ("mdm_optimizer_rules_applied_total", "counter", ("rule",),
         "Logical-optimizer rule applications, by rule name."),
        ("mdm_optimizer_failures_total", "counter", (),
         "Logical optimizations that failed and fell back to the naive plan."),
        ("mdm_plan_validation_total", "counter", ("result",),
         "Static plan schema checks run before execution."),
        ("mdm_executor_operator_seconds", "histogram", ("op",),
         "Inclusive latency of relational operators (analyzed runs)."),
        ("mdm_pushdown_requests_total", "counter", ("kind",),
         "Wrapper fetch requests by shape (pushed vs full)."),
        ("mdm_pushdown_rows_transferred_total", "counter", (),
         "Rows that crossed the wrapper boundary."),
        ("mdm_pushdown_rows_saved_total", "counter", (),
         "Rows filtered out source-side before transfer."),
        ("mdm_wrapper_fetch_seconds", "histogram", ("wrapper",), "Latency of wrapper fetches."),
        ("mdm_wrapper_rows_total", "counter", ("wrapper",), "Rows delivered by wrapper fetches."),
        ("mdm_wrapper_errors_total", "counter", ("wrapper",), "Wrapper fetches that raised."),
        ("mdm_wrapper_retry_total", "counter", ("wrapper",),
         "Wrapper fetch attempts that failed and were retried."),
        ("mdm_wrapper_failure_total", "counter", ("wrapper",),
         "Wrapper fetches that failed terminally after retries."),
        ("mdm_fetch_helpers", "gauge", (), "Fetch-pool helper threads started in this process."),
        ("mdm_impact_checks_total", "counter", ("verdict",), "Evolution-impact analyses by verdict."),
        ("mdm_lint_findings_total", "counter", ("severity",),
         "Static-analysis findings reported by mdm lint."),
        ("mdm_http_requests_total", "counter", ("method", "route", "status"),
         "HTTP-style requests dispatched, by route and status."),
        ("mdm_http_request_seconds", "histogram", ("route",),
         "Latency of HTTP-style request handling."),
        ("mdm_requests_rejected_total", "counter", (),
         "Requests refused by admission control (HTTP 429)."),
        ("mdm_http_handler_seconds", "histogram", (),
         "Time from a connection's handoff to a worker until its "
         "response is written and its socket shut down."),
        ("mdm_http_workers", "gauge", (), "Live HTTP handler threads."),
        ("mdm_traces_sampled_total", "counter", ("decision",),
         "Trace sampling decisions at root completion."),
        ("mdm_failpoint_triggers_total", "counter", ("site", "mode"),
         "Failpoint triggers by site and mode."),
        ("mdm_scenario_step_seconds", "histogram", ("step",),
         "Latency of scenario build/release steps."),
    )
] + [
    spec
    for prefix in (
        "rewrite_cache", "rewrite_inputs", "rewrite_expansions", "result_cache", "wrapper_cache"
    )
    for spec in _cache_family(prefix)
]

#: The one declaration of every ``mdm_`` metric, by name.  The registry
#: takes kind, label names and help text from here; a use of a name
#: outside the catalog, or one that disagrees with its row, raises.
METRICS: Mapping[str, MetricSpec] = MappingProxyType({row.name: row for row in _ROWS})


class MetricsRegistry:
    """Named metrics with idempotent get-or-create registration.

    A name in :data:`METRICS` gets its catalogued kind, labels and help;
    an empty help and omitted labels take the catalog's.  Any other
    ``mdm_`` name raises, and other names (tests, benchmarks) are
    declared by their first use.
    """

    def __init__(self):
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, cls, name: str, help_text: str, labelnames, **kwargs):
        spec = METRICS.get(name)
        if spec is not None:
            if cls.type_name != spec.kind:
                raise ValueError(f"metric {name!r} is a {spec.kind}, not a {cls.type_name}")
            if help_text not in ("", spec.help_text):
                raise ValueError(
                    f"metric {name!r} has the help {spec.help_text!r}, not {help_text!r}"
                )
            if labelnames is not None and tuple(labelnames) != spec.labelnames:
                raise ValueError(
                    f"metric {name!r} takes labels {spec.labelnames}, not {tuple(labelnames)}"
                )
            help_text, labelnames = spec.help_text, spec.labelnames
        elif name.startswith("mdm_"):
            raise ValueError(f"metric {name!r} is not declared in METRICS")
        labelnames = tuple(labelnames or ())
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.type_name}, not {cls.type_name}"
                )
            if labelnames != existing.labelnames:
                raise ValueError(
                    f"metric {name!r} registered with labels "
                    f"{existing.labelnames}, not {labelnames}"
                )
            return existing
        metric = cls(name, help_text, labelnames, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(
        self, name: str, help_text: str = "", labelnames: Optional[Sequence[str]] = None
    ) -> Counter:
        """Get or create a counter."""
        return self._get_or_create(Counter, name, help_text, labelnames)

    def gauge(
        self, name: str, help_text: str = "", labelnames: Optional[Sequence[str]] = None
    ) -> Gauge:
        """Get or create a gauge."""
        return self._get_or_create(Gauge, name, help_text, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Optional[Sequence[str]] = None,
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        """Get or create a histogram (buckets fixed at first creation)."""
        return self._get_or_create(
            Histogram,
            name,
            help_text,
            labelnames,
            buckets=tuple(buckets) if buckets is not None else DEFAULT_BUCKETS,
        )

    def get(self, name: str) -> Optional[Metric]:
        """The registered metric, or None."""
        return self._metrics.get(name)

    def names(self) -> List[str]:
        """Registered metric names in registration order."""
        return list(self._metrics)

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format."""
        lines: List[str] = []
        for metric in self._metrics.values():
            lines.extend(metric.render())
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> Dict[str, Any]:
        """JSON-shaped dump of every metric (reports, BENCH artifacts)."""
        return {name: metric.snapshot() for name, metric in self._metrics.items()}

    def summary(self) -> Dict[str, Any]:
        """Latency summary: per-histogram-series count/mean/p50/p95/p99.

        The at-a-glance view ``report --metrics`` and
        ``GET /metrics/summary`` serve — only histograms appear, since
        percentile summaries are meaningless for counters and gauges.
        """
        out: Dict[str, Any] = {}
        for name, metric in self._metrics.items():
            if not isinstance(metric, Histogram):
                continue
            out[name] = {
                "help": metric.help_text,
                "series": [
                    {
                        "labels": metric.labels_of(key),
                        "count": metric.count(**metric.labels_of(key)),
                        "mean": (
                            metric.sum(**metric.labels_of(key))
                            / metric.count(**metric.labels_of(key))
                            if metric.count(**metric.labels_of(key))
                            else None
                        ),
                        **metric.percentiles(**metric.labels_of(key)),
                    }
                    for key in metric.series_keys()
                ],
            }
        return out

    def reset(self) -> None:
        """Drop every registered metric."""
        self._metrics.clear()


#: The process-local default registry all instrumented paths write to.
_registry = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-local metrics registry."""
    return _registry


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the process-local registry; returns it for chaining."""
    global _registry
    _registry = registry
    return registry


def reset_metrics() -> MetricsRegistry:
    """Install a fresh empty registry (test isolation helper)."""
    return set_metrics(MetricsRegistry())
