"""Logical optimizer vs naive UCQ execution, plus the union-sort delta.

The optimizer's promise for the evolution story: as sources accumulate
wrapper versions, the UCQ over a concept grows one branch per version,
and the naive left-deep plan re-joins the shared dimension wrappers and
drags every source column through every join.  With selection pushdown
and projection pruning (the join order stays as written) the same UCQ
should answer at least 2× faster.  This bench
measures both modes at 2–8 alternative wrappers per concept on
pre-fetched relations (so wrapper latency does not pollute the
plan-quality signal), records rows-scanned from the EXPLAIN ANALYZE
operator tree, times the union-sort decorate-sort-undecorate rewrite
against the old per-cell key, and persists everything to
``benchmarks/BENCH_optimizer.json``.

The ≥2× speedup expectation is *logged*, not asserted — wall-clock under
CI load is not a correctness property.  Result equality is asserted.
"""

import json
import time
from pathlib import Path

import pytest

from benchmarks.conftest import emit
from repro.relational.algebra import (
    Distinct,
    NaturalJoin,
    Project,
    Scan,
    Select,
    union_all,
)
from repro.relational.executor import Executor, _union_sort_key
from repro.relational.expressions import Cmp, Col, Const
from repro.relational.optimizer import PlanOptimizer
from repro.relational.relation import Relation

BENCH_OPTIMIZER_PATH = Path(__file__).resolve().parent / "BENCH_optimizer.json"

#: Rows per alternative wrapper of the queried concept (the wide fact side).
ROWS_FACT = 4000
#: Rows in the big dimension wrapper ``b`` (every fact id matches, so the
#: naive left-deep join materializes a full-width ROWS_FACT intermediate).
ROWS_BIG_DIM = 4000
#: Rows in the small dimension wrapper ``c`` (the selective join).
ROWS_DIM = 50
#: Junk source attributes per wrapper that the query never asks for.
JUNK_COLUMNS = 10
#: UCQ widths exercised — alternative wrapper versions for one concept.
WRAPPER_COUNTS = (2, 4, 6, 8)
REPETITIONS = 3
SORT_ROWS = 20_000
SORT_WIDTH = 6


def build_relations(n_wrappers):
    """``n_wrappers`` wide fact wrappers + two shared dimension wrappers."""
    relations = {}
    fact_columns = ["id", "val"] + [f"fj{j}" for j in range(JUNK_COLUMNS)]
    for i in range(n_wrappers):
        rows = [
            dict(
                {"id": k, "val": (k * 7 + i) % 100},
                **{f"fj{j}": f"junk-{i}-{k}-{j}" for j in range(JUNK_COLUMNS)},
            )
            for k in range(ROWS_FACT)
        ]
        relations[f"a{i}"] = Relation.from_dicts(
            rows, attribute_order=fact_columns
        )
    for dim, feature, n_rows in (
        ("b", "y", ROWS_BIG_DIM),
        ("c", "z", ROWS_DIM),
    ):
        columns = ["id", feature] + [f"{dim}j{j}" for j in range(JUNK_COLUMNS)]
        rows = [
            dict(
                {"id": k, feature: k * 2},
                **{f"{dim}j{j}": f"{dim}-{k}-{j}" for j in range(JUNK_COLUMNS)},
            )
            for k in range(n_rows)
        ]
        relations[dim] = Relation.from_dicts(rows, attribute_order=columns)
    return relations


def build_ucq(n_wrappers):
    """Naive UCQ: one left-deep filtered branch per alternative wrapper."""
    branches = []
    for i in range(n_wrappers):
        joined = NaturalJoin(NaturalJoin(Scan(f"a{i}"), Scan("b")), Scan("c"))
        filtered = Select(joined, Cmp("<", Col("val"), Const(5)))
        branches.append(Project(filtered, ("id", "val", "y", "z")))
    return Distinct(union_all(branches))


def rows_scanned(stats):
    """Total rows produced across the operator tree."""
    return sum(node.rows_out for node in stats.iter_nodes())


def timed_run(relations, plan):
    """Best-of-``REPETITIONS`` analyzed execution on a fresh executor."""
    best_s, kept = float("inf"), None
    for _ in range(REPETITIONS):
        executor = Executor(dict(relations))
        started = time.perf_counter()
        relation, stats = executor.execute_analyzed(plan)
        elapsed = time.perf_counter() - started
        if elapsed < best_s:
            best_s = elapsed
            kept = (relation, stats)
    relation, stats = kept
    return best_s, relation, stats


def bench_one_width(n_wrappers):
    relations = build_relations(n_wrappers)
    plan = build_ucq(n_wrappers)

    optimizer = PlanOptimizer(
        {name: rel.schema for name, rel in relations.items()}
    )
    started = time.perf_counter()
    optimized_plan, optimization = optimizer.optimize(plan)
    optimize_s = time.perf_counter() - started

    naive_s, naive_rel, naive_stats = timed_run(relations, plan)
    opt_s, opt_rel, opt_stats = timed_run(relations, optimized_plan)

    # Same Distinct-rooted UCQ ⇒ identical bags; canonical sort ⇒ bytes.
    assert naive_rel.schema.names == opt_rel.schema.names
    assert naive_rel.sorted().rows == opt_rel.sorted().rows

    naive_scanned = rows_scanned(naive_stats)
    opt_scanned = rows_scanned(opt_stats)
    return {
        "wrappers": n_wrappers,
        "naive_s": round(naive_s, 6),
        "optimized_s": round(opt_s, 6),
        "optimize_s": round(optimize_s, 6),
        "speedup": round(naive_s / opt_s, 3) if opt_s else float("inf"),
        "rules_applied": optimization.total,
        "naive_rows_scanned": naive_scanned,
        "optimized_rows_scanned": opt_scanned,
        "rows_scanned_ratio": (
            round(naive_scanned / opt_scanned, 3) if opt_scanned else None
        ),
        "result_rows": len(opt_rel),
    }


def _old_union_sort_key(row):
    """The pre-rewrite per-cell nested key (one tuple per cell)."""
    return tuple((v is not None, str(v)) for v in row)


def bench_union_sort():
    """Flat interleaved sort key vs the old nested per-cell pairs."""
    rows = [
        tuple(
            None
            if (k + j) % 7 == 0
            else (k * 31 + j if j % 2 else f"cell-{k}-{j}")
            for j in range(SORT_WIDTH)
        )
        for k in range(SORT_ROWS)
    ]
    def best(key):
        timings = []
        for _ in range(5):
            started = time.perf_counter()
            sorted(rows, key=key)
            timings.append(time.perf_counter() - started)
        return min(timings)

    old_s = best(_old_union_sort_key)
    new_s = best(_union_sort_key)
    assert sorted(rows, key=_old_union_sort_key) == sorted(
        rows, key=_union_sort_key
    )
    return {
        "rows": SORT_ROWS,
        "width": SORT_WIDTH,
        "old_nested_key_s": round(old_s, 6),
        "flat_key_s": round(new_s, 6),
        "speedup": round(old_s / new_s, 3) if new_s else float("inf"),
    }


@pytest.mark.slow
def test_optimizer_beats_naive_ucq():
    widths = [bench_one_width(n) for n in WRAPPER_COUNTS]
    union_sort = bench_union_sort()
    worst = min(w["speedup"] for w in widths)
    summary = {
        "rows_fact": ROWS_FACT,
        "rows_big_dim": ROWS_BIG_DIM,
        "rows_dim": ROWS_DIM,
        "junk_columns": JUNK_COLUMNS,
        "repetitions": REPETITIONS,
        "widths": widths,
        "worst_speedup": worst,
        "meets_2x_target": worst >= 2.0,
        "union_sort": union_sort,
    }
    BENCH_OPTIMIZER_PATH.write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    lines = [
        f"{w['wrappers']} wrappers: naive {w['naive_s'] * 1000:.1f}ms vs "
        f"optimized {w['optimized_s'] * 1000:.1f}ms "
        f"(+{w['optimize_s'] * 1000:.1f}ms optimize) = {w['speedup']:.2f}x; "
        f"rows scanned {w['naive_rows_scanned']} → "
        f"{w['optimized_rows_scanned']}; {w['rules_applied']} rule applications"
        for w in widths
    ]
    lines.append(
        f"union sort ({SORT_ROWS} rows × {SORT_WIDTH} cols): nested "
        f"{union_sort['old_nested_key_s'] * 1000:.1f}ms vs flat "
        f"{union_sort['flat_key_s'] * 1000:.1f}ms "
        f"= {union_sort['speedup']:.2f}x"
    )
    lines.append(
        f"worst speedup {worst:.2f}x (target ≥2x: "
        f"{'MET' if worst >= 2.0 else 'MISSED — logged only'})"
    )
    emit("Logical optimizer — naive vs optimized UCQ execution", "\n".join(lines))
    # Correctness (equal results) is asserted inside bench_one_width;
    # wall-clock numbers are logged above, not asserted.
    assert BENCH_OPTIMIZER_PATH.exists()
