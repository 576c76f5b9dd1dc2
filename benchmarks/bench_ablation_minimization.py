"""Ablation H — the effect of CQ-containment minimization.

DESIGN.md decision 5 prunes UCQ branches that are contained in another
branch (classic conjunctive-query containment over each CQ's bag of join
leaves).  This ablation rewrites the same walks with minimization on and
off and compares UCQ size, rewrite latency, and — crucially — that the
*answers* are identical (the pruning is semantics-preserving).
"""

import pytest

from benchmarks.conftest import emit
from repro.core.rewriting import Rewriter
from repro.scenarios.football import FootballScenario


def rewriters(scenario):
    on = Rewriter(scenario.mdm.global_graph, scenario.mdm.mappings, minimize=True)
    off = Rewriter(scenario.mdm.global_graph, scenario.mdm.mappings, minimize=False)
    return on, off


def execute_with(scenario, rewriter, walk):
    from repro.relational.executor import Executor

    result = rewriter.rewrite(walk)
    executor = Executor()
    for name in {n for q in result.queries for n in q.wrapper_names}:
        executor.register(
            name, scenario.mdm.wrappers[name].fetch_relation()
        )
    return result, executor.execute(result.plan)


def test_minimization_shrinks_ucq_preserving_answers(benchmark):
    scenario = FootballScenario.build(anchors_only=True)
    scenario.release_players_v2()
    walk = scenario.walk_league_nationality()
    on, off = rewriters(scenario)

    result_on = benchmark(lambda: on.rewrite(walk))
    result_off = off.rewrite(walk)

    _, relation_on = execute_with(scenario, on, walk)
    _, relation_off = execute_with(scenario, off, walk)
    emit(
        "Ablation H — CQ-containment minimization",
        f"UCQ with minimization:    {result_on.ucq_size} CQs\n"
        f"UCQ without minimization: {result_off.ucq_size} CQs\n"
        f"identical answers: {set(relation_on.rows) == set(relation_off.rows)}",
    )
    # One CQ per schema version of the Players source (w1 and w1v2).
    assert result_on.ucq_size == 2
    assert result_on.ucq_size <= result_off.ucq_size
    assert set(relation_on.rows) == set(relation_off.rows)


def test_minimization_cost_on_simple_walk(benchmark):
    scenario = FootballScenario.build(anchors_only=True)
    walk = scenario.walk_player_team_names()
    on, off = rewriters(scenario)
    result_off = off.rewrite(walk)

    result_on = benchmark(lambda: on.rewrite(walk))

    # On the Figure 8 walk the containment pruning is what collapses the
    # redundant {w1, w2}-style covers down to the paper's single CQ.
    assert result_on.ucq_size == 1
    assert result_off.ucq_size >= result_on.ucq_size


@pytest.mark.parametrize("minimize", [True, False])
def test_rewrite_latency_both_modes(benchmark, minimize):
    scenario = FootballScenario.build(anchors_only=True)
    rewriter = Rewriter(
        scenario.mdm.global_graph, scenario.mdm.mappings, minimize=minimize
    )
    walk = scenario.walk_league_nationality()

    result = benchmark(lambda: rewriter.rewrite(walk))
    assert result.ucq_size >= 1
