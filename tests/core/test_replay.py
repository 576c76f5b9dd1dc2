"""MDM.replay: every check rewrites a saved query at most once per generation.

Revalidation, lint and impact analysis replay the saved queries through
the generation-keyed rewrite cache, under one read lock per pass, and
without logging them as posed queries.
"""

import re
import threading

import pytest

from repro.analysis.impact import MetadataMutation, shadow_mdm
from repro.analysis.lint import lint_mdm
from repro.core.errors import MdmError
from repro.core.rewrite_cache import walk_cache_key
from repro.core.rewriting import Rewriter, RewriteResult
from repro.rdf.namespaces import EX
from repro.scenarios.football import FootballScenario


def saved_walks(scenario):
    return {
        "league-nat": scenario.walk_league_nationality(),
        "player-team": scenario.walk_player_team_names(),
        "single": scenario.walk_single_concept(),
    }


@pytest.fixture
def scenario():
    sc = FootballScenario.build(anchors_only=True)
    for name, walk in saved_walks(sc).items():
        sc.mdm.saved_queries.save(name, walk)
    return sc


@pytest.fixture
def rewrites(monkeypatch):
    """The rewriter of every ``Rewriter.rewrite`` call, in call order."""
    calls = []
    original = Rewriter.rewrite

    def counting(self, walk):
        calls.append(self)
        return original(self, walk)

    monkeypatch.setattr(Rewriter, "rewrite", counting)
    return calls


def queries_logged(mdm):
    return mdm.metadata.collection("queries").count()


def unserved_walk(mdm):
    """A walk over a concept no wrapper covers: its rewriting raises."""
    mdm.add_concept(EX.Unserved)
    mdm.add_identifier(EX.unservedId, EX.Unserved)
    return mdm.walk_from_nodes([EX.Unserved, EX.unservedId])


# --- MDM.replay ---------------------------------------------------------- #


def test_replay_returns_each_result_or_error_in_order(scenario, rewrites):
    mdm = scenario.mdm
    bad = unserved_walk(mdm)
    good = scenario.walk_player_team_names()
    results = mdm.replay([good, bad])
    assert isinstance(results[0], RewriteResult)
    assert results[0].ucq_size == mdm.rewriter.rewrite(good).ucq_size
    assert isinstance(results[1], MdmError)
    with pytest.raises(type(results[1]), match=re.escape(str(results[1]))):
        mdm.rewriter.rewrite(bad)


def test_replay_rewrites_once_per_generation_and_logs_nothing(scenario, rewrites):
    mdm = scenario.mdm
    walk = scenario.walk_player_team_names()
    hits, misses = mdm.rewrite_cache.hits, mdm.rewrite_cache.misses
    first = mdm.replay([walk])[0]
    assert mdm.replay([walk])[0] is first
    assert len(rewrites) == 1
    assert (mdm.rewrite_cache.hits, mdm.rewrite_cache.misses) == (hits + 1, misses + 1)
    assert queries_logged(mdm) == 0
    mdm.add_concept(EX.Referee)
    mdm.replay([walk])
    assert len(rewrites) == 2


def test_query_log_records_posed_queries_only(scenario, rewrites):
    mdm = scenario.mdm
    mdm.configure_execution(result_cache_size=4)
    walk = scenario.walk_player_team_names()
    mdm.replay([walk])
    assert queries_logged(mdm) == 0
    mdm.rewrite(walk)  # a rewrite-cache hit is still a posed query
    assert queries_logged(mdm) == 1
    mdm.execute(walk)
    assert queries_logged(mdm) == 2
    assert mdm.execute(walk).result_cache == "hit"  # not logged
    assert queries_logged(mdm) == 2
    assert len(rewrites) == 1
    document = mdm.metadata.collection("queries").find()[0]
    assert document["walk"] == walk.describe(mdm.global_graph)


# --- each consumer rewrites a saved query once per generation ------------ #


def test_revalidate_with_execute_rewrites_each_query_once(scenario, rewrites):
    report = scenario.mdm.saved_queries.revalidate(execute=True)
    assert [entry.name for entry in report] == sorted(saved_walks(scenario))
    assert all(entry.ok and entry.rows for entry in report)
    assert len(rewrites) == len(report)


def test_impact_after_execution_rewrites_only_on_the_shadow(scenario, rewrites):
    mdm = scenario.mdm
    for walk in saved_walks(scenario).values():
        mdm.execute(walk)
    del rewrites[:]
    logged, generation = queries_logged(mdm), mdm.generation
    report = mdm.analyze_impact(
        MetadataMutation(method="add_concept", args=(EX.Referee,))
    )
    assert report.checked_queries == len(saved_walks(scenario))
    assert len(rewrites) == report.checked_queries
    assert all(rewriter is not mdm.rewriter for rewriter in rewrites)
    assert (queries_logged(mdm), mdm.generation) == (logged, generation)


@pytest.mark.parametrize("release_v2", [False, True], ids=["anchors", "v2"])
def test_lint_on_a_cold_cache_rewrites_each_query_once(release_v2, rewrites):
    sc = FootballScenario.build(anchors_only=True)
    if release_v2:
        # w1v2 supersedes w1, so the MDM020 rule replays the queries too.
        sc.release_players_v2()
    for name, walk in saved_walks(sc).items():
        sc.mdm.saved_queries.save(name, walk)
    report = lint_mdm(sc.mdm)
    assert report.checked_plans == len(saved_walks(sc))
    assert len(rewrites) == report.checked_plans


def test_shadow_copies_the_graphs_only(scenario):
    mdm = scenario.mdm
    shadow = shadow_mdm(mdm)
    assert len(shadow.dataset) == len(mdm.dataset)
    assert shadow.generation == mdm.generation
    assert all(
        shadow.metadata.collection(name).count() == 0
        for name in shadow.metadata.collection_names()
    )
    assert shadow.source_iri("players") == mdm.source_iri("players")


# --- one generation per pass --------------------------------------------- #


@pytest.mark.parametrize(
    "check",
    [lambda mdm: mdm.saved_queries.revalidate(), lint_mdm],
    ids=["revalidate", "lint"],
)
def test_mutator_waits_for_the_whole_pass(scenario, monkeypatch, check):
    mdm = scenario.mdm
    blocked_key = walk_cache_key(scenario.walk_league_nationality())
    entered, release = threading.Event(), threading.Event()
    original = Rewriter.rewrite

    def blocking(self, walk):
        if walk_cache_key(walk) == blocked_key and not entered.is_set():
            entered.set()
            release.wait(10)
        return original(self, walk)

    monkeypatch.setattr(Rewriter, "rewrite", blocking)
    finished = []
    checker = threading.Thread(target=lambda: finished.append(check(mdm)))
    mutator = threading.Thread(
        target=lambda: finished.append(mdm.add_concept(EX.Referee))
    )
    checker.start()
    assert entered.wait(10)
    mutator.start()
    mutator.join(timeout=0.2)
    try:
        assert mutator.is_alive(), "the mutator ran in the middle of the pass"
    finally:
        release.set()
        checker.join(10)
        mutator.join(10)
    assert not checker.is_alive() and not mutator.is_alive()
    assert len(finished) == 2 and EX.Referee in finished
