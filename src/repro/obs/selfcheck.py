"""Smoke-check the observability wiring end-to-end.

``python -m repro.obs.selfcheck`` builds the paper's football scenario,
executes the Figure 8 OMQ under a captured tracer/registry, and asserts
that every instrumentation point fired: the three rewriting-phase spans,
wrapper fetch spans, per-operator executor stats, the Prometheus
exposition series (including the trace-sampling counter) with the
``# HELP`` and ``# TYPE`` lines of their :data:`METRICS` rows, the query-log
record, and the tracer's thread-safety invariants (a multi-threaded span
storm must yield unique span ids all parented to their thread's root).
Exit code 0 on success — wired into the tier-1 test run so a PR cannot
silently unplug the instrumentation.
"""

from __future__ import annotations

import sys
import threading
from typing import List

from . import METRICS, capture
from .querylog import get_query_log, reset_query_log, set_query_log
from .trace import Tracer

__all__ = ["main"]

REQUIRED_SPANS = (
    "execute",
    "rewrite-cache",
    "rewrite",
    "phase:expansion",
    "phase:intra-concept",
    "phase:inter-concept",
)

REQUIRED_SERIES = (
    "mdm_rewrite_phase_seconds_bucket",
    "mdm_rewrite_total",
    "mdm_wrapper_fetch_seconds_bucket",
    "mdm_executor_operator_seconds_bucket",
    "mdm_execute_seconds_bucket",
    "mdm_traces_sampled_total",
)


def _check_thread_safety(failures: List[str], threads: int = 8) -> None:
    """Span-storm the tracer from several threads at once.

    Each thread opens its own root with a nested child; afterwards every
    span id must be unique, every child parented to its own thread's
    root, and the ring must hold one root per thread — the invariants
    the contextvars design guarantees.
    """
    tracer = Tracer(enabled=True, ring_capacity=threads * 2, sample_rate=1.0)
    barrier = threading.Barrier(threads)

    def storm(index: int) -> None:
        barrier.wait()
        with tracer.span(f"storm-{index}", thread=index):
            with tracer.span(f"storm-{index}-child"):
                pass

    workers = [
        threading.Thread(target=storm, args=(i,)) for i in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    roots = tracer.recent(threads)
    if len(roots) != threads:
        failures.append(
            f"span storm recorded {len(roots)} roots, expected {threads}"
        )
        return
    span_ids = [s.span_id for root in roots for s in root.iter_spans()]
    if len(span_ids) != len(set(span_ids)):
        failures.append("span storm produced duplicate span ids")
    for root in roots:
        if len(root.children) != 1:
            failures.append(
                f"root {root.name!r} has {len(root.children)} children, "
                "expected exactly its own thread's child"
            )
            continue
        child = root.children[0]
        if child.parent_id != root.span_id or child.trace_id != root.trace_id:
            failures.append(
                f"child of {root.name!r} parented across threads "
                f"(parent_id={child.parent_id}, trace_id={child.trace_id})"
            )


def main(argv=None) -> int:
    """Run the smoke check; prints a verdict and returns the exit code."""
    from ..scenarios.football import FootballScenario

    failures: List[str] = []
    previous_log = get_query_log()
    query_log = reset_query_log()
    try:
        with capture() as (tracer, registry):
            scenario = FootballScenario.build(anchors_only=True)
            walk = scenario.walk_league_nationality()
            outcome = scenario.mdm.execute(walk, analyze=True)
            roots = tracer.recent()
    finally:
        set_query_log(previous_log)

    if not roots:
        failures.append("no root span was recorded")
    else:
        root = roots[-1]
        names = {span.name for span in root.iter_spans()}
        for required in REQUIRED_SPANS:
            if required not in names:
                failures.append(f"missing span {required!r}")
        if not any(name.startswith("fetch:") for name in names):
            failures.append("no wrapper fetch span was recorded")
        if not any(name.startswith("op:") for name in names):
            failures.append("no executor operator span was recorded")

    if outcome.operator_stats is None:
        failures.append("execute(analyze=True) returned no operator stats")
    elif outcome.operator_stats.rows_out != len(outcome.relation):
        failures.append(
            f"root operator rows_out={outcome.operator_stats.rows_out} "
            f"!= result rows={len(outcome.relation)}"
        )

    exposition = registry.render_prometheus()
    for series in REQUIRED_SERIES:
        if series not in exposition:
            failures.append(f"missing metric series {series!r} in /metrics")
    lines = set(exposition.splitlines())
    for name in registry.names():
        spec = METRICS.get(name)
        if spec is None:
            failures.append(f"metric {name!r} is not declared in METRICS")
        elif not {f"# HELP {name} {spec.help_text}", f"# TYPE {name} {spec.kind}"} <= lines:
            failures.append(f"metric {name!r} is not exposed as its METRICS row says")

    records = query_log.recent()
    if len(records) != 1:
        failures.append(
            f"query log holds {len(records)} records after one execute, "
            "expected exactly 1"
        )
    elif roots and records[0].correlation_id != roots[-1].trace_id:
        failures.append(
            "query-log correlation id does not match the trace id "
            f"({records[0].correlation_id} != {roots[-1].trace_id})"
        )

    summary = registry.summary()
    if "mdm_execute_seconds" not in summary:
        failures.append("registry.summary() is missing mdm_execute_seconds")
    elif not all(
        key in summary["mdm_execute_seconds"]["series"][0]
        for key in ("p50", "p95", "p99")
    ):
        failures.append("registry.summary() series lack p50/p95/p99")

    with capture():  # scratch registry for the storm's sampling counters
        _check_thread_safety(failures)

    if failures:
        for failure in failures:
            print(f"obs selfcheck: FAIL — {failure}")
        return 1
    print(
        "obs selfcheck: OK "
        f"(spans={sum(1 for _ in roots[-1].iter_spans())}, "
        f"metrics={len(registry.names())}, rows={len(outcome.relation)})"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main(sys.argv[1:]))
