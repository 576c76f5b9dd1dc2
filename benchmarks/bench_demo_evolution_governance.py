"""Demo scenario 3 — governance of evolution (paper §3).

"We will release a new version of one of the APIs including breaking
changes that would cause the previously defined queries to crash ...
[then] execute again the queries that were supposed to crash showing how
MDM has adapted the generated relational algebra expressions, where the
two schema versions are now fetched and yield correct results."

The benchmark times the full governance round (release + accommodation +
re-query); assertions pin the before/after behaviour for both MDM (LAV)
and the GAV baseline.
"""

from benchmarks.conftest import emit
from repro.core.errors import GavUnfoldingError
from repro.scenarios.football import FootballScenario


def governance_round():
    scenario = FootballScenario.build(anchors_only=True)
    walk = scenario.walk_player_team_names()
    before = scenario.mdm.execute(walk)
    scenario.release_players_v2(retire_v1=False)
    after = scenario.mdm.execute(walk)
    return scenario, walk, before, after


def test_demo3_lav_queries_survive(benchmark):
    scenario, walk, before, after = benchmark(governance_round)
    emit(
        "Demo scenario 3 — algebra before and after the breaking release",
        "before:\n  "
        + before.rewrite.pretty()
        + "\n\nafter (two schema versions unioned):\n  "
        + after.rewrite.pretty(),
    )
    assert before.rewrite.ucq_size == 1
    assert after.rewrite.ucq_size == 2
    assert set(after.relation.rows) == set(before.relation.rows)
    groups = {q.wrapper_names for q in after.rewrite.queries}
    assert ("w1", "w2") in groups and ("w1v2", "w2") in groups


def test_demo3_gav_crashes(benchmark):
    def gav_round():
        scenario = FootballScenario.build(anchors_only=True)
        gav = scenario.build_gav()
        walk = scenario.walk_player_team_names()
        ok_before = len(gav.execute(walk)) == 6
        scenario.release_players_v2(retire_v1=True)
        crashed = False
        try:
            gav.execute(walk)
        except GavUnfoldingError:
            crashed = True
        return ok_before, crashed, gav.migration_cost("w1")

    ok_before, crashed, cost = benchmark(gav_round)
    emit(
        "Demo scenario 3 — GAV baseline on the same release",
        f"answers before release: {ok_before}\n"
        f"crashed after release:  {crashed}\n"
        f"definitions needing manual migration: {cost}",
    )
    assert ok_before and crashed
    assert cost == 7  # 6 feature defs + 1 edge def point at w1


def test_demo3_semi_automatic_accommodation(benchmark):
    """The accommodation itself (suggestion + apply) is the steward-facing
    cost in MDM — benchmark it in isolation."""
    scenario = FootballScenario.build(anchors_only=True)
    scenario.release_players_v2()

    def accommodate():
        suggestion = scenario.mdm.suggest_mapping("w1v2")
        return suggestion

    suggestion = benchmark(accommodate)
    assert suggestion.is_complete
    assert len(suggestion.same_as) == 7
    assert suggestion.unmapped_attributes == ()
