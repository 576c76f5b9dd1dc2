"""Shared fixtures for the benchmark harness.

Each benchmark module regenerates one artifact of the paper (a figure,
the table, or a demo scenario) and times a representative operation with
pytest-benchmark.  Artifacts are printed with ``-s`` so the harness output
can be diffed against the paper; assertions pin the structural facts
(concept/feature counts, mapping intersections, result rows).

At session end the harness additionally runs the reference OMQ (league /
nationality) under the observability layer and writes
``benchmarks/BENCH_obs.json`` — per-phase rewrite latency, executor
operator histograms and wrapper fetch statistics — so successive PRs
leave a comparable perf trajectory.  The span tree is written without
its random ids and wall-clock start times, so the file only changes
where the query's shape or timings do.
"""

import json
from pathlib import Path

import pytest

from repro.obs import capture, timed
from repro.scenarios.football import FootballScenario

BENCH_OBS_PATH = Path(__file__).resolve().parent / "BENCH_obs.json"

#: How many traced executions feed the histograms in BENCH_obs.json.
_OBS_RUNS = 5

#: Span fields that differ on every run whatever the query does.
_VOLATILE_SPAN_FIELDS = ("span_id", "parent_id", "trace_id", "start")


@pytest.fixture(scope="session")
def anchors_scenario():
    """The motivational use case restricted to the paper's exact entities."""
    return FootballScenario.build(anchors_only=True)


@pytest.fixture(scope="session")
def generated_scenario():
    """The motivational use case at generated scale (seeded)."""
    return FootballScenario.build(seed=2018)


def emit(title: str, body: str) -> None:
    """Print one artifact block (visible with ``pytest -s``)."""
    bar = "=" * 72
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")


@timed("bench_obs_run_seconds", "One traced reference-OMQ execution.",
       query="league_nationality")
def _traced_reference_query(scenario):
    walk = scenario.walk_league_nationality()
    return scenario.mdm.execute(walk, analyze=True)


def _stable_span_tree(span: dict) -> dict:
    """A span dict and its children without the volatile fields."""
    kept = {k: v for k, v in span.items() if k not in _VOLATILE_SPAN_FIELDS}
    kept["children"] = [_stable_span_tree(child) for child in span["children"]]
    return kept


def _obs_summary() -> dict:
    """Run the reference OMQ under capture() and shape the registry dump."""
    scenario = FootballScenario.build(anchors_only=True)
    with capture() as (tracer, registry):
        for _ in range(_OBS_RUNS):
            outcome = _traced_reference_query(scenario)
        root = tracer.recent(1)[0]
    snapshot = registry.snapshot()

    def series(name: str) -> list:
        return snapshot.get(name, {}).get("series", [])

    rewrite_phases = {
        s["labels"]["phase"]: {
            "count": s["count"],
            "mean_s": s["mean"],
            "sum_s": s["sum"],
        }
        for s in series("mdm_rewrite_phase_seconds")
    }
    operators = {
        s["labels"]["op"]: {
            "count": s["count"],
            "mean_s": s["mean"],
            "sum_s": s["sum"],
        }
        for s in series("mdm_executor_operator_seconds")
    }
    wrappers = {
        s["labels"]["wrapper"]: {
            "count": s["count"],
            "mean_s": s["mean"],
            "sum_s": s["sum"],
        }
        for s in series("mdm_wrapper_fetch_seconds")
    }
    return {
        "query": "league_nationality",
        "runs": _OBS_RUNS,
        "ucq_size": outcome.rewrite.ucq_size,
        "rows": len(outcome.relation.rows),
        "execute_mean_s": next(
            (s["mean"] for s in series("mdm_execute_seconds")), None
        ),
        "rewrite_phases": rewrite_phases,
        "executor_operators": operators,
        "wrapper_fetches": wrappers,
        "last_span_tree": _stable_span_tree(root.to_dict()),
    }


def pytest_sessionfinish(session, exitstatus):
    """Persist the observability summary for the perf trajectory."""
    if getattr(session.config, "workerinput", None) is not None:
        return  # only the controller writes the artifact under xdist
    try:
        summary = _obs_summary()
    except Exception as exc:  # noqa: BLE001 — best-effort artifact
        summary = {"error": f"{type(exc).__name__}: {exc}"}
    BENCH_OBS_PATH.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
