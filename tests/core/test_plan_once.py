"""Planning once per metadata state, and stage B's schema derivations.

What a query plans before it fetches (stage A, the fetch requests, the
walk's description) lives on the walk's rewrite-cache entry, one plan
per pushdown setting, so a warm query only fetches, runs stage B,
validates and executes.  Stage B derives each node's schema once per
run, and pruning keeps every subtree it leaves unchanged.
"""

import sys
import threading
from contextlib import contextmanager

import pytest

from repro.core.mdm import MDM
from repro.core.walks import FilterCondition, Walk
from repro.obs.querylog import get_query_log
from repro.rdf.namespaces import EX
from repro.relational.algebra import NaturalJoin, Scan
from repro.relational.optimizer import PlanOptimizer
from repro.relational.schema import Attribute, RelationSchema
from repro.scenarios.football import FootballScenario

PLANNING = (
    (PlanOptimizer, "extract_pushdown"),
    (MDM, "_scan_requests"),
    (Walk, "describe"),
    (PlanOptimizer, "optimize"),
)


@contextmanager
def counting(*targets):
    """Count calls of each ``(owner, name)``; the originals come back on exit."""
    calls = {name: 0 for _, name in targets}
    originals = [(owner, name, vars(owner)[name]) for owner, name in targets]
    for owner, name, original in originals:
        static = isinstance(original, staticmethod)
        function = original.__func__ if static else original

        def spy(*args, _function=function, _name=name, **kwargs):
            calls[_name] += 1
            return _function(*args, **kwargs)

        setattr(owner, name, staticmethod(spy) if static else spy)
    try:
        yield calls
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


@pytest.fixture()
def scenario():
    built = FootballScenario.build(anchors_only=True)
    # Every execute below reaches the planner, not a cached outcome.
    built.mdm.configure_execution(result_cache_size=0)
    return built


def rows(outcome):
    return [tuple(row) for row in outcome.relation.rows]


def test_a_warm_query_plans_nothing_before_stage_b(scenario):
    mdm = scenario.mdm
    walk = scenario.walk_league_nationality()
    first = mdm.execute(walk)
    with counting(*PLANNING) as calls:
        second = mdm.execute(walk)
    assert calls == {
        "extract_pushdown": 0,
        "_scan_requests": 0,
        "describe": 0,
        "optimize": 1,
    }
    assert rows(second) == rows(first)
    assert second.executed_plan == first.executed_plan
    assert second.optimization.to_dict()["rules"] == first.optimization.to_dict()["rules"]
    assert second.pushdown["requests"] == first.pushdown["requests"]


def test_a_generation_bump_plans_again(scenario):
    mdm = scenario.mdm
    walk = scenario.walk_league_nationality()
    before = mdm.execute(walk)
    mdm.register_source("stadiums")  # a new generation, the same UCQ
    with counting(*PLANNING) as calls:
        after = mdm.execute(walk)
    assert calls["extract_pushdown"] == 1
    assert calls["_scan_requests"] == 1
    assert rows(after) == rows(before)


def test_each_pushdown_setting_has_its_own_plan(scenario):
    mdm = scenario.mdm
    walk = scenario.walk_league_nationality()
    pushed = mdm.execute(walk)
    mdm.configure_execution(pushdown=False)
    with counting(*PLANNING) as calls:
        full = mdm.execute(walk)
    # Pushdown off runs no stage A and fetches every wrapper in full.
    assert calls["extract_pushdown"] == 0
    assert full.pushdown is None
    scans = [node for node in full.executed_plan.nodes() if isinstance(node, Scan)]
    assert scans and not any(scan.is_pushed() for scan in scans)
    assert rows(full) == rows(pushed)
    mdm.configure_execution(pushdown=True)
    with counting(*PLANNING) as calls:
        again = mdm.execute(walk)
    # The pushed plan of the first query is still there.
    assert calls["extract_pushdown"] == 0
    assert again.pushdown["requests"] == pushed.pushdown["requests"]


def test_bypassing_the_cache_plans_every_query(scenario):
    mdm = scenario.mdm
    walk = scenario.walk_league_nationality()
    cached = mdm.execute(walk)
    with counting(*PLANNING) as calls:
        for _ in range(3):
            outcome = mdm.execute(walk, use_cache=False)
    assert calls["extract_pushdown"] == 3
    assert calls["_scan_requests"] == 3
    assert rows(outcome) == rows(cached)


def test_two_first_queries_both_answer(scenario):
    mdm = scenario.mdm
    walk = scenario.walk_league_nationality()
    expected = rows(FootballScenario.build(anchors_only=True).mdm.execute(walk))
    barrier = threading.Barrier(2)
    answers, errors = [], []
    real_scan_requests = vars(MDM)["_scan_requests"]

    def racing_scan_requests(plan, needed):
        # Both queries are planning the same fresh entry at once.
        barrier.wait(timeout=10)
        return real_scan_requests.__func__(plan, needed)

    def ask():
        try:
            answers.append(rows(mdm.execute(walk)))
        except Exception as exc:  # noqa: BLE001 — reported below
            errors.append(exc)

    MDM._scan_requests = staticmethod(racing_scan_requests)
    try:
        threads = [threading.Thread(target=ask) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        MDM._scan_requests = real_scan_requests
    assert errors == []
    assert answers == [expected, expected]
    assert rows(mdm.execute(walk)) == expected


def test_racing_first_queries_under_a_short_switch_interval(scenario):
    """More queries than cores race on each fresh entry, switching
    threads as often as the interpreter allows; every answer and every
    later plan is the one a lone query gets."""
    mdm = scenario.mdm
    walk = scenario.walk_league_nationality()
    expected = mdm.execute(walk)
    answers, errors = [], []

    def ask():
        try:
            answers.append(rows(mdm.execute(walk)))
        except Exception as exc:  # noqa: BLE001 — reported below
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for i in range(3):
            mdm.register_source(f"race{i}")  # a fresh entry
            threads = [threading.Thread(target=ask) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(previous)
    assert errors == []
    assert answers == [rows(expected)] * 18
    with counting(*PLANNING) as calls:
        again = mdm.execute(walk)
    assert calls["extract_pushdown"] == calls["_scan_requests"] == 0
    assert again.executed_plan == expected.executed_plan
    assert again.pushdown["requests"] == expected.pushdown["requests"]


WALK_TEXTS = {
    "league_nationality": (
        "walk over concepts [sc:Country, sc:SportsTeam, ex:League, ex:Player] "
        "fetching [ex:playerName]"
    ),
    "filtered": (
        "walk over concepts [sc:SportsTeam, ex:Player] "
        "fetching [ex:playerName, ex:teamName] where playerName != 'x'"
    ),
}


def test_the_query_log_texts_are_unchanged(scenario):
    mdm = scenario.mdm
    walks = {
        "league_nationality": scenario.walk_league_nationality(),
        "filtered": scenario.walk_player_team_names().with_filters(
            FilterCondition(EX.playerName, "!=", "x")
        ),
    }
    expected_docs = []
    for name, walk in walks.items():
        for _ in range(2):
            mdm.execute(walk)
            assert get_query_log().recent(1)[0].walk == WALK_TEXTS[name]
        wrappers = (
            ["w1", "w1n", "w2m", "w3"] if name == "league_nationality" else ["w1", "w2"]
        )
        doc = {"walk": WALK_TEXTS[name], "ucq_size": 1, "wrappers": wrappers}
        expected_docs += [doc, doc]
    mdm.rewrite(walks["filtered"])
    expected_docs.append(expected_docs[-1])
    docs = mdm.metadata.collection("queries").find()
    assert [{k: v for k, v in d.items() if k != "_id"} for d in docs] == expected_docs


def test_stage_b_derives_each_scan_schema_once():
    width = 32
    catalog = {
        f"r{i}": RelationSchema([Attribute(f"k{i}"), Attribute(f"k{i + 1}")])
        for i in range(width + 1)
    }
    plan = Scan("r0")
    for i in range(1, width + 1):
        plan = NaturalJoin(plan, Scan(f"r{i}"))
    with counting((Scan, "output_schema")) as calls:
        optimized, stats = PlanOptimizer(catalog).optimize(plan)
    assert calls["output_schema"] <= width + 1
    # Nothing fired and pruning narrowed nothing, so the tree the second
    # fixpoint walks is the input itself, every schema already derived.
    assert optimized is plan
    assert stats.rules == {}
