"""Hierarchical, concurrency-safe tracing for the OMQ pipeline.

Governance is observability: a steward must be able to see *what the
system did* to a query — which rewriting phase produced which conjunctive
queries, which wrappers were hit and how long each relational operator
took.  This module is the substrate: a process-local :class:`Tracer`
handing out :class:`Span` context managers that nest, carry tags, and are
delivered to pluggable sinks (an in-memory ring buffer and an append-only
JSONL file) when their root completes.

The current span is tracked through a :mod:`contextvars` variable, not a
mutable stack, so the tracer is safe under the federated fetch pool:
:meth:`~repro.core.mdm.MDM._fetch_requests` copies the caller's context
into each worker (``contextvars.copy_context().run``), and the wrapper
fetch spans opened inside the workers parent correctly to the ``execute``
root even when eight fetches overlap.  Every span carries an explicit
``trace_id`` (shared by the whole tree), ``span_id`` and ``parent_id``.

Tracing is designed to stay on in production.  Two mechanisms bound its
cost:

- *zero overhead while disabled*: a disabled tracer's :meth:`Tracer.span`
  returns a shared no-op singleton — no allocation, no clock reads;
- *sampling while enabled*: each new trace is kept with probability
  ``sample_rate``; unsampled traces either record nothing (when no slow
  threshold is set) or are recorded but only shipped to the sinks when
  their root exceeds ``slow_threshold_ms`` (always-on-slow sampling, so
  tail latency is never invisible).  Decisions are counted in the
  ``mdm_traces_sampled_total{decision}`` metric.

Everything here is standard library only; :mod:`repro.obs` imports
nothing from the rest of the package, so any layer may import it freely.
"""

from __future__ import annotations

import contextvars
import json
import os
import random
import threading
import time
import uuid
from collections import deque
from typing import Any, Dict, Iterator, List, Optional

from .metrics import get_metrics

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
]


#: The context-local current span: None outside any trace, a :class:`Span`
#: inside a recorded trace, a :class:`_DroppedSpan` inside an unsampled one.
#: Shared across tracers — exactly one process tracer is active at a time,
#: and spans carry their owning tracer so stale entries are ignored.
_current_span: "contextvars.ContextVar[Optional[object]]" = contextvars.ContextVar(
    "mdm_current_span", default=None
)


def _new_trace_id() -> str:
    return uuid.uuid4().hex


def _new_span_id() -> str:
    return uuid.uuid4().hex[:16]


def current_span() -> Optional["Span"]:
    """The innermost open *recording* span in this context, if any."""
    span = _current_span.get()
    if isinstance(span, Span) and not span.finished:
        return span
    return None


class Span:
    """One timed, tagged node of a trace tree.

    Use as a context manager obtained from :meth:`Tracer.span`; entering
    starts the clock and installs the span as the context-local current
    span, exiting stops it and attaches the span to its parent (or ships
    the finished root to the tracer's sinks, subject to sampling).
    """

    __slots__ = (
        "name",
        "tags",
        "children",
        "trace_id",
        "span_id",
        "parent_id",
        "started_at",
        "duration_s",
        "status",
        "sampled",
        "decision",
        "_tracer",
        "_parent",
        "_t0",
        "_token",
        "_finished",
        "_lock",
    )

    #: Recording spans contribute to the trace tree (vs the no-op/dropped
    #: stand-ins, whose ``is_recording`` is False).
    is_recording = True

    def __init__(self, name: str, tags: Dict[str, Any], tracer: "Tracer"):
        self.name = name
        self.tags: Dict[str, Any] = tags
        self.children: List["Span"] = []
        self.trace_id: str = ""
        self.span_id: str = _new_span_id()
        self.parent_id: Optional[str] = None
        self.started_at: float = 0.0
        self.duration_s: Optional[float] = None
        self.status: str = "ok"
        #: Probabilistic sampling verdict taken at root creation (children
        #: inherit it); roots may still be *kept* as "slow" when False.
        self.sampled: bool = True
        #: Final sampling decision for a finished root ("sampled" /
        #: "slow" / "dropped"); None for children and open spans.
        self.decision: Optional[str] = None
        self._tracer = tracer
        self._parent: Optional["Span"] = None
        self._t0: float = 0.0
        self._token: Optional[contextvars.Token] = None
        self._finished = False
        # Children may be appended from pool workers concurrently.
        self._lock = threading.Lock()

    # -- context manager ------------------------------------------------ #

    def __enter__(self) -> "Span":
        parent = _current_span.get()
        if (
            isinstance(parent, Span)
            and not parent._finished
            and parent._tracer is self._tracer
        ):
            self._parent = parent
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
        elif not self.trace_id:
            self.trace_id = _new_trace_id()
        self._token = _current_span.set(self)
        self.started_at = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration_s = time.perf_counter() - self._t0
        if exc_type is not None:
            self.status = "error"
            self.tags.setdefault("error", f"{exc_type.__name__}: {exc}")
        self._finished = True
        if self._token is not None:
            try:
                _current_span.reset(self._token)
            except ValueError:  # token from another context (defensive)
                _current_span.set(None)
            self._token = None
        parent = self._parent
        if parent is not None and not parent._finished:
            parent._add_child(self)
        else:
            # Root (or orphaned by a mismatched exit): hand to the tracer,
            # which applies the sampling decision and ships to sinks.
            self._tracer._finish_root(self)
        return False

    def _add_child(self, child: "Span") -> None:
        with self._lock:
            self.children.append(child)

    # -- tagging & inspection ------------------------------------------- #

    @property
    def finished(self) -> bool:
        """Whether the span has exited (duration is final)."""
        return self._finished

    def set_tag(self, key: str, value: Any) -> "Span":
        """Attach (or overwrite) one tag; chainable."""
        self.tags[key] = value
        return self

    @property
    def duration_ms(self) -> float:
        """Wall time in milliseconds (0.0 while the span is still open)."""
        return (self.duration_s or 0.0) * 1000.0

    def iter_spans(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def find(self, name: str) -> Optional["Span"]:
        """The first descendant (or self) with ``name``, depth-first."""
        for span in self.iter_spans():
            if span.name == name:
                return span
        return None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-shaped rendering of the subtree (for sinks and APIs)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.started_at,
            "duration_ms": round(self.duration_ms, 6),
            "status": self.status,
            "tags": dict(self.tags),
            "children": [child.to_dict() for child in self.children],
        }

    def tree(self) -> str:
        """ASCII rendering of the span tree with durations and tags."""
        lines: List[str] = []

        def render(span: "Span", prefix: str, connector: str, child_prefix: str):
            tags = " ".join(f"{k}={v}" for k, v in span.tags.items())
            line = f"{prefix}{connector}{span.name}  [{span.duration_ms:.3f}ms]"
            if span.status != "ok":
                line += f"  !{span.status}"
            if tags:
                line += f"  {tags}"
            lines.append(line)
            for index, child in enumerate(span.children):
                last = index == len(span.children) - 1
                render(
                    child,
                    child_prefix,
                    "└─ " if last else "├─ ",
                    child_prefix + ("   " if last else "│  "),
                )

        render(self, "", "", "")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<Span {self.name!r} {self.duration_ms:.3f}ms "
            f"children={len(self.children)}>"
        )


class _NoopSpan:
    """Shared do-nothing span returned by a disabled tracer."""

    __slots__ = ()

    is_recording = False
    trace_id: Optional[str] = None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_tag(self, key: str, value: Any) -> "_NoopSpan":
        return self


#: The singleton no-op span — the entire cost of tracing-while-disabled.
NOOP_SPAN = _NoopSpan()


class _DroppedSpan:
    """Root stand-in for a trace the sampler decided not to record.

    Unlike :data:`NOOP_SPAN` it still owns a ``trace_id`` (so the query
    log keeps a correlation id even for unsampled queries) and installs
    itself as the context-local current span, so descendants — including
    ones opened in pool workers under a copied context — know they belong
    to a dropped trace and short-circuit to the no-op singleton.
    """

    __slots__ = ("trace_id", "_tracer", "_token", "_finished")

    is_recording = False

    def __init__(self, tracer: "Tracer"):
        self.trace_id = _new_trace_id()
        self._tracer = tracer
        self._token: Optional[contextvars.Token] = None
        self._finished = False

    def __enter__(self) -> "_DroppedSpan":
        self._token = _current_span.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._finished = True
        if self._token is not None:
            try:
                _current_span.reset(self._token)
            except ValueError:
                _current_span.set(None)
            self._token = None
        return False

    def set_tag(self, key: str, value: Any) -> "_DroppedSpan":
        return self


class RingSink:
    """In-memory sink keeping the most recent completed root spans."""

    def __init__(self, capacity: int = 256):
        self._ring: deque = deque(maxlen=capacity)

    def emit(self, span: Span) -> None:
        self._ring.append(span)

    def recent(self, n: int = 10) -> List[Span]:
        """The last ``n`` root spans, oldest first."""
        items = list(self._ring)
        return items[-n:] if n >= 0 else items

    def find_trace(self, trace_id: str) -> Optional[Span]:
        """The buffered root span of ``trace_id``, or None."""
        for span in reversed(list(self._ring)):
            if span.trace_id == trace_id:
                return span
        return None

    def clear(self) -> None:
        self._ring.clear()

    def __len__(self) -> int:
        return len(self._ring)


class JsonlSink:
    """Appends one JSON line per completed root span to a file.

    The file handle is opened lazily on first emit and kept open (the
    sink may receive roots from pool workers, so writes take a lock);
    call :meth:`close` — or use the sink as a context manager — to flush
    and release it.  Emitting after ``close()`` reopens the file.
    """

    def __init__(self, path):
        self.path = str(path)
        self._fh: Optional[Any] = None
        self._lock = threading.Lock()

    def emit(self, span: Span) -> None:
        line = json.dumps(span.to_dict(), sort_keys=True, default=str)
        with self._lock:
            if self._fh is None:
                self._fh = open(self.path, "a", encoding="utf-8")
            self._fh.write(line + "\n")
            self._fh.flush()

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def _env_sample_rate() -> float:
    return float(os.environ.get("MDM_TRACE_SAMPLE_RATE", "1.0"))


def _env_slow_threshold_ms() -> Optional[float]:
    raw = os.environ.get("MDM_TRACE_SLOW_MS", "").strip()
    return float(raw) if raw else None


class Tracer:
    """Process-local tracer: contextvar span tracking plus root sinks.

    Concurrency-safe by design: the current span lives in a
    :mod:`contextvars` variable (copy the context into worker threads to
    parent their spans correctly), children attach under a per-span lock,
    and span/trace ids are process-unique.  One tracer may therefore be
    shared by the service layer, the fetch pool and background work.

    ``sample_rate`` (0.0–1.0) is the probability a new trace is kept;
    ``slow_threshold_ms`` additionally keeps any unsampled trace whose
    root ran at least that long (and forces unsampled traces to be
    *recorded*, since their duration cannot be known otherwise).  Both
    default from ``MDM_TRACE_SAMPLE_RATE`` / ``MDM_TRACE_SLOW_MS``.
    """

    def __init__(
        self,
        enabled: bool = False,
        ring_capacity: int = 256,
        sample_rate: Optional[float] = None,
        slow_threshold_ms: Optional[float] = "env",  # type: ignore[assignment]
        rng=None,
    ):
        self.enabled = enabled
        self.ring = RingSink(ring_capacity)
        self._sinks: List[Any] = []
        if sample_rate is None:
            sample_rate = _env_sample_rate()
        if slow_threshold_ms == "env":
            slow_threshold_ms = _env_slow_threshold_ms()
        self.configure_sampling(sample_rate, slow_threshold_ms)
        #: Uniform [0,1) source for the sampling coin (injectable so tests
        #: can pin the decision sequence).
        self._rng = rng if rng is not None else random.random

    def configure_sampling(
        self, sample_rate: Optional[float] = None, slow_threshold_ms: Any = "keep"
    ) -> None:
        """Adjust sampling knobs in place (None/"keep" leave a knob as is)."""
        if sample_rate is not None:
            rate = float(sample_rate)
            if not 0.0 <= rate <= 1.0:
                raise ValueError("sample_rate must be within [0.0, 1.0]")
            self.sample_rate = rate
        if slow_threshold_ms != "keep":
            if slow_threshold_ms is not None:
                slow_threshold_ms = float(slow_threshold_ms)
                if slow_threshold_ms < 0:
                    raise ValueError("slow_threshold_ms must be >= 0")
            self.slow_threshold_ms = slow_threshold_ms

    def span(self, name: str, **tags: Any):
        """A new span context manager.

        Disabled tracer → the shared no-op singleton.  Enabled: a child
        span when a recording span is current in this context; inside a
        dropped trace → the no-op singleton; otherwise a *root*, where
        the sampling coin is flipped — unsampled roots become
        :class:`_DroppedSpan` stand-ins unless a slow threshold demands
        recording them anyway.
        """
        if not self.enabled:
            return NOOP_SPAN
        parent = _current_span.get()
        if isinstance(parent, Span):
            if not parent._finished and parent._tracer is self:
                return Span(name, tags, self)
            parent = None
        elif isinstance(parent, _DroppedSpan):
            if not parent._finished and parent._tracer is self:
                return NOOP_SPAN
            parent = None
        # New root: take the probabilistic sampling decision up front.
        sampled = self.sample_rate >= 1.0 or (
            self.sample_rate > 0.0 and self._rng() < self.sample_rate
        )
        if not sampled and self.slow_threshold_ms is None:
            self._count_decision("dropped")
            return _DroppedSpan(self)
        span = Span(name, tags, self)
        span.sampled = sampled
        return span

    def add_sink(self, sink) -> None:
        """Register an extra sink (``emit(span)``) for finished roots."""
        self._sinks.append(sink)

    def remove_sink(self, sink) -> bool:
        """Detach a sink registered with :meth:`add_sink`; True if found."""
        try:
            self._sinks.remove(sink)
            return True
        except ValueError:
            return False

    # -- root completion (called by Span.__exit__) ----------------------- #

    def _finish_root(self, span: Span) -> None:
        if span.sampled:
            decision = "sampled"
        elif (
            self.slow_threshold_ms is not None
            and span.duration_ms >= self.slow_threshold_ms
        ):
            decision = "slow"
        else:
            decision = "dropped"
        span.decision = decision
        self._count_decision(decision)
        if decision == "dropped":
            return
        self.ring.emit(span)
        for sink in self._sinks:
            sink.emit(span)

    @staticmethod
    def _count_decision(decision: str) -> None:
        get_metrics().counter("mdm_traces_sampled_total").inc(decision=decision)

    # -- inspection ----------------------------------------------------- #

    @property
    def current(self) -> Optional[Span]:
        """The innermost open recording span in this context, if any."""
        return current_span()

    def find_trace(self, trace_id: str) -> Optional[Span]:
        """The buffered root span with ``trace_id``, or None."""
        return self.ring.find_trace(trace_id)

    def recent(self, n: int = 10) -> List[Span]:
        """The last ``n`` completed root spans, oldest first."""
        return self.ring.recent(n)

    def clear(self) -> None:
        """Drop buffered roots (and detach this context's current span)."""
        self.ring.clear()
        _current_span.set(None)

    def sampling_config(self) -> Dict[str, Any]:
        """JSON-shaped sampling knobs (service/CLI echoes)."""
        return {
            "enabled": self.enabled,
            "sample_rate": self.sample_rate,
            "slow_threshold_ms": self.slow_threshold_ms,
        }


#: The process-local default tracer — disabled until someone opts in.
_tracer = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-local tracer used by all instrumented code paths."""
    return _tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Replace the process-local tracer; returns it for chaining."""
    global _tracer
    _tracer = tracer
    return tracer


def enable_tracing(
    jsonl: Optional[str] = None,
    ring_capacity: int = 256,
    sample_rate: Optional[float] = None,
    slow_threshold_ms: Any = "env",
) -> Tracer:
    """Install a fresh enabled tracer (optionally mirroring to JSONL)."""
    tracer = Tracer(
        enabled=True,
        ring_capacity=ring_capacity,
        sample_rate=sample_rate,
        slow_threshold_ms=slow_threshold_ms,
    )
    if jsonl:
        tracer.add_sink(JsonlSink(jsonl))
    return set_tracer(tracer)


def disable_tracing() -> Tracer:
    """Install a fresh disabled tracer (instrumentation short-circuits)."""
    return set_tracer(Tracer(enabled=False))
