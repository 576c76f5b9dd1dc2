"""The rewrite cache's inputs map: rewrites keyed by what the rewriter reads.

A miss at ``(walk, generation)`` takes the rewriter's result from the
map when the rewriter's inputs (the global graph's stamp and namespace
bindings, the mapped views, its settings) equal those it was stored
under.  A new generation that leaves them alone costs no rewrite, and
the impact shadow shares the map, so applying the change it analysed
finds the shadow's rewrites there.
"""

import gc
import sys
import threading
import weakref
from contextlib import contextmanager

import pytest

from repro.analysis import impact
from repro.analysis.evolution_rules import Verdict
from repro.analysis.impact import (
    MetadataMutation,
    WrapperRelease,
    WrapperRetirement,
    apply_change,
)
from repro.core.errors import NoCoverError
from repro.core.rewriting import Rewriter
from repro.rdf.namespaces import EX
from repro.relational.optimizer import PlanOptimizer
from repro.scenarios.football import FootballScenario
from repro.scenarios.supersede import SupersedeScenario

ATTRIBUTES = ("id", "text", "sentiment", "followers", "productId")


@contextmanager
def counting(owner, name):
    """Count calls of ``owner.name``; the original comes back on exit."""
    calls = []
    original = vars(owner)[name]

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    setattr(owner, name, spy)
    try:
        yield calls
    finally:
        setattr(owner, name, original)


def governed():
    """The supersede scenario with its three walks saved, as the
    benchmark's steward rounds start."""
    scenario = SupersedeScenario.build(seed=1)
    walks = {
        "feedback_by_product": scenario.walk_feedback_by_product(),
        "metrics_by_product": scenario.walk_metrics_by_product(),
        "reviews": scenario.walk_reviews(),
    }
    for name, walk in walks.items():
        scenario.mdm.saved_queries.save(name, walk)
    return scenario.mdm, walks


def release(wrapper, attributes=ATTRIBUTES):
    return WrapperRelease(source="twitter", wrapper=wrapper, attributes=attributes)


def shape(result):
    """Everything a rewrite result says, as comparable values."""
    return (
        [q.wrapper_names for q in result.queries],
        result.plan,
        result.projection,
        dict(result.column_names),
        result.sparql,
    )


def assert_fresh(mdm, walks):
    for walk in walks:
        assert shape(mdm.rewrite(walk)) == shape(mdm.rewrite(walk, use_cache=False))


# --- the steward loop reuses the shadow's rewrites ----------------------- #


def test_applying_an_analysed_release_replays_without_rewriting():
    mdm, walks = governed()
    change = release("wFeedback_r1")
    mdm.analyze_impact(change)
    apply_change(mdm, change)
    with counting(Rewriter, "rewrite") as calls:
        results = mdm.replay(walks.values())
    assert calls == []
    assert [shape(r) for r in results] == [
        shape(mdm.rewrite(w, use_cache=False)) for w in walks.values()
    ]


def test_revalidating_an_analysed_retirement_rewrites_nothing():
    mdm, walks = governed()
    apply_change(mdm, release("wFeedback_r1"))
    retirement = WrapperRetirement("wFeedback")
    mdm.analyze_impact(retirement)
    apply_change(mdm, retirement)
    with counting(Rewriter, "rewrite") as calls:
        report = mdm.saved_queries.revalidate()
    assert calls == []
    assert sorted(entry.name for entry in report) == sorted(walks)
    assert all(entry.ok for entry in report)
    assert_fresh(mdm, walks.values())


def test_applying_another_change_than_the_analysed_one_rewrites():
    mdm, walks = governed()
    mdm.analyze_impact(release("wFeedback_r1"))
    # The release applied drops an attribute of the analysed signature.
    apply_change(mdm, release("wFeedback_r1", ATTRIBUTES[:-1]))
    with counting(Rewriter, "rewrite") as calls:
        mdm.replay(walks.values())
    assert calls
    assert_fresh(mdm, walks.values())


def test_a_new_source_costs_no_rewrite_and_plans_once():
    scenario = FootballScenario.build(anchors_only=True)
    mdm = scenario.mdm
    walk = scenario.walk_league_nationality()
    first = mdm.execute(walk)
    generation = mdm.generation
    mdm.register_source("referees")
    assert mdm.generation > generation
    with counting(Rewriter, "rewrite") as rewrites, counting(
        PlanOptimizer, "extract_pushdown"
    ) as plans:
        outcomes = [mdm.execute(walk), mdm.execute(walk)]
    assert rewrites == []
    assert len(plans) == 1
    assert all(o.relation.rows == first.relation.rows for o in outcomes)
    assert outcomes[0].rewrite is first.rewrite


# --- the key is exactly what the rewriter reads -------------------------- #


def test_the_global_graph_is_part_of_the_key():
    scenario = FootballScenario.build(anchors_only=True)
    mdm = scenario.mdm
    walk = scenario.walk_single_concept()
    mdm.rewrite(walk)
    # An identifier no wrapper populates leaves the views as they were.
    views = mdm.mappings.views_value()
    mdm.add_identifier(EX.fifaId, EX.Player)
    assert mdm.mappings.views_value() == views
    with pytest.raises(NoCoverError):
        mdm.rewrite(walk)


def test_a_namespace_binding_is_part_of_the_key():
    scenario = FootballScenario.build(anchors_only=True)
    mdm = scenario.mdm
    walk = scenario.walk_player_team_names()
    before = mdm.rewrite(walk).sparql
    # Rebind ex: to another base, so ex: IRIs no longer compact.
    mdm.dataset.namespaces.bind("ex", "http://www.essi.upc.edu/other/")
    after = mdm.rewrite(walk).sparql
    assert "ex:Player" in before and f"<{EX.Player.value}>" in after
    assert after == mdm.rewrite(walk, use_cache=False).sparql


def test_the_rewriter_settings_are_part_of_the_key():
    scenario = FootballScenario.build(anchors_only=True)
    scenario.release_players_v2()
    mdm = scenario.mdm
    walk = scenario.walk_league_nationality()
    minimized = mdm.rewrite(walk)
    mdm.rewriter.minimize = False
    mdm.register_source("stadiums")  # a new generation, the same rewriter inputs
    unminimized = mdm.rewrite(walk)
    assert unminimized.ucq_size > minimized.ucq_size
    assert shape(unminimized) == shape(mdm.rewrite(walk, use_cache=False))


def test_the_shadow_rewrites_with_the_live_settings():
    scenario = FootballScenario.build(anchors_only=True)
    scenario.release_players_v2()
    mdm = scenario.mdm
    mdm.saved_queries.save("league-nat", scenario.walk_league_nationality())
    mdm.rewriter.minimize = False
    mdm.register_source("stadiums")  # a new generation, the same rewriter inputs
    # A concept nothing reads changes no UCQ, minimized or not.
    report = mdm.analyze_impact(MetadataMutation("add_concept", (EX.Referee,)))
    assert report.verdict is Verdict.SAFE
    assert [(q.before_ucq, q.after_ucq) for q in report.queries] == [(144, 144)]


def test_bypassing_the_cache_neither_reads_nor_fills_the_map():
    scenario = FootballScenario.build(anchors_only=True)
    mdm = scenario.mdm
    walk = scenario.walk_player_team_names()
    mdm.rewrite(walk, use_cache=False)
    assert len(mdm.rewrite_cache.by_inputs) == 0
    cached = mdm.rewrite(walk)
    mdm.register_source("stadiums")  # a new generation, the same rewriter inputs
    with counting(Rewriter, "rewrite") as calls:
        assert mdm.rewrite(walk, use_cache=False) is not cached
    assert len(calls) == 1


# --- bounded, cleared, and free of shadows ------------------------------- #


def test_the_map_is_bounded_by_the_capacity_and_cleared_with_the_cache():
    scenario = FootballScenario.build(anchors_only=True)
    mdm = scenario.mdm
    mdm.rewrite_cache.resize(2)
    walks = [
        scenario.walk_league_nationality(),
        scenario.walk_player_team_names(),
        scenario.walk_single_concept(),
    ]
    for i, walk in enumerate(walks * 2):
        mdm.rewrite(walk)
        mdm.add_concept(EX[f"Extra{i}"])  # a new global graph: new keys
        assert len(mdm.rewrite_cache.by_inputs) <= 2
    assert len(mdm.rewrite_cache.by_inputs) == 2
    mdm.rewrite_cache.resize(1)
    assert len(mdm.rewrite_cache.by_inputs) == 1
    mdm.rewrite_cache.clear()
    assert len(mdm.rewrite_cache) == len(mdm.rewrite_cache.by_inputs) == 0


def test_the_shadow_shares_the_map_but_not_the_entries():
    mdm, walks = governed()
    shadow = impact.shadow_mdm(mdm)
    assert shadow.rewrite_cache is not mdm.rewrite_cache
    assert shadow.rewrite_cache.by_inputs is mdm.rewrite_cache.by_inputs
    shadow.replay(walks.values())
    assert len(shadow.rewrite_cache) == len(walks)
    assert len(mdm.rewrite_cache) == 0
    with counting(Rewriter, "rewrite") as calls:
        mdm.replay(walks.values())
    assert calls == []  # same graphs, same stamps: the shadow's results


def test_the_shadow_is_collected_after_the_analysis():
    mdm, _ = governed()
    refs = []
    original = impact.shadow_mdm

    def keeping_refs(live):
        shadow = original(live)
        refs.extend(
            weakref.ref(x) for x in (shadow, shadow.dataset, shadow.global_graph.graph)
        )
        return shadow

    impact.shadow_mdm = keeping_refs
    try:
        mdm.analyze_impact(release("wFeedback_r1"))
    finally:
        impact.shadow_mdm = original
    gc.collect()
    assert refs and all(ref() is None for ref in refs)
    assert len(mdm.rewrite_cache.by_inputs) > 0


def test_concurrent_queries_analyses_and_releases_share_the_map():
    """Readers, analysts and a steward on one MDM, more threads than
    cores, with a short switch interval: the map's counts and bound
    hold, and every cached rewrite still equals a fresh one."""
    mdm, walks = governed()
    cache = mdm.rewrite_cache
    cache.resize(4)  # small, so stores also race with evictions
    misses_before = cache.by_inputs.misses
    errors = []

    def guarded(work):
        def run():
            try:
                work()
            except Exception as exc:  # reported below
                errors.append(exc)

        return run

    def reader():
        for _ in range(15):
            mdm.replay(walks.values())
            for walk in walks.values():
                mdm.rewrite(walk)

    def analyst():
        for i in range(3):
            mdm.analyze_impact(release(f"wFeedback_a{i}"))
            mdm.analyze_impact(WrapperRetirement("wFeedback"))

    def steward():
        previous = "wFeedback"
        for i in range(3):
            apply_change(mdm, release(f"wFeedback_s{i}"))
            apply_change(mdm, WrapperRetirement(previous))
            previous = f"wFeedback_s{i}"
            mdm.register_source(f"extra{i}")

    threads = [
        threading.Thread(target=guarded(work))
        for work in (reader, reader, analyst, analyst, steward)
    ]
    interval = sys.getswitchinterval()
    with counting(Rewriter, "rewrite") as calls:
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    # Each miss of the map is exactly one rewrite, shadows' included.
    assert cache.by_inputs.misses - misses_before == len(calls)
    assert len(cache.by_inputs) <= 4
    assert_fresh(mdm, walks.values())
