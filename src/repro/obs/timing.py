"""The one timing code path: a decorator funnelling into metrics + traces.

Instead of ad-hoc ``time.perf_counter()`` pairs scattered across scenarios
and benchmarks, wrap the callable::

    @timed("mdm_scenario_step_seconds", step="supersede_build")
    def build(...): ...

Every call observes its latency into a histogram of the given name (label
names are the sorted keys of the static labels) and, when the process
tracer is enabled, emits a span named after the wrapped function.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Optional

from .metrics import METRICS, MetricsRegistry, get_metrics
from .trace import Tracer, get_tracer

__all__ = ["timed"]


def timed(
    metric: str,
    help_text: str = "",
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    **labels: Any,
):
    """Decorator timing each call into histogram ``metric`` (+ a span).

    ``labels`` are static label values attached to every observation.
    ``help_text`` defaults to the catalogued one for a name in
    :data:`~repro.obs.metrics.METRICS`, else to "Latency of <fn> calls.";
    pass ``registry``/``tracer`` to pin the destinations, otherwise the
    process-local ones are resolved at call time (so tests that swap the
    globals see the observations).
    """
    labelnames = tuple(sorted(labels))

    def decorate(fn: Callable) -> Callable:
        span_name = f"timed:{fn.__qualname__}"
        doc = help_text
        if not doc and metric not in METRICS:
            doc = f"Latency of {fn.__qualname__} calls."

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            reg = registry if registry is not None else get_metrics()
            trc = tracer if tracer is not None else get_tracer()
            histogram = reg.histogram(metric, doc, labelnames=labelnames)
            with trc.span(span_name, **labels):
                started = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    histogram.observe(time.perf_counter() - started, **labels)

        return wrapper

    return decorate
