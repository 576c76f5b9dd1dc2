"""One GET per source endpoint per query, and the decode path around it.

Wrappers that read the same endpoint (the football scenario's ``w1`` and
``w1n`` both view ``/v1/players``) are fetched as one group that shares
its decoded payload; everything else about a fetch stays per wrapper.
"""

import gc

import pytest

from repro.analysis.impact import WrapperRelease
from repro.chaos import FailpointRegistry, set_failpoints
from repro.core.errors import MdmError
from repro.core.mdm import MDM
from repro.rdf.namespaces import Namespace
from repro.scenarios.football import FootballScenario
from repro.scenarios.supersede import SupersedeScenario
from repro.sources.formats import flatten_record
from repro.sources.restapi import Endpoint, MockRestServer
from repro.sources.wrappers import (
    RestWrapper,
    RetryPolicy,
    StaticWrapper,
    sharing_requests,
)

NS = Namespace("http://sharing.test/")

ANCHOR_ANSWER = [("Marcus Rashford",), ("Sergio Ramos",), ("Thomas Muller",)]


def gets(server, path=None):
    return [r for r in server.request_log if path is None or r.path == path]


def league_nationality(workers):
    scenario = FootballScenario.build(anchors_only=True)
    scenario.mdm.configure_execution(max_fetch_workers=workers)
    return scenario, scenario.mdm.execute(scenario.walk_league_nationality())


@pytest.fixture
def failpoints():
    registry = FailpointRegistry(seed=0)
    set_failpoints(registry)
    try:
        yield registry
    finally:
        registry.release()
        set_failpoints(None)


class TestOneRequestPerEndpoint:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_league_nationality_sends_one_players_get(self, workers):
        scenario, outcome = league_nationality(workers)
        assert sorted(r.path for r in gets(scenario.server)) == [
            "/v1/leagues",
            "/v1/players",
            "/v1/teams",
        ]
        # Four wrappers still fetched, one attempt each.
        assert outcome.fetch_attempts == {"w1": 1, "w1n": 1, "w2m": 1, "w3": 1}
        assert sorted(outcome.relation.rows) == ANCHOR_ANSWER

    @pytest.mark.parametrize("workers", [1, 4])
    def test_answer_equals_one_get_per_wrapper(self, workers, monkeypatch):
        _, shared = league_nationality(workers)
        monkeypatch.setattr(RestWrapper, "endpoint", lambda self: None)
        scenario, unshared = league_nationality(workers)
        assert len(gets(scenario.server)) == 4
        assert shared.relation.schema == unshared.relation.schema
        assert shared.relation.rows == unshared.relation.rows
        assert shared.fetch_attempts == unshared.fetch_attempts
        assert shared.pushdown == unshared.pushdown
        assert repr(shared.executed_plan) == repr(unshared.executed_plan)

    def test_endpoints_name_the_request_a_wrapper_sends(self):
        scenario = FootballScenario.build(anchors_only=True)
        wrappers = scenario.mdm.wrappers
        assert wrappers["w1"].endpoint() == (scenario.server, "/v1/players")
        assert wrappers["w1"].endpoint() == wrappers["w1n"].endpoint()
        assert wrappers["w1"].endpoint() != wrappers["w3"].endpoint()
        assert StaticWrapper("s", ["id"], []).endpoint() is None

    @pytest.mark.parametrize("mode", ["error", "corrupt"])
    def test_a_failed_shared_get_is_never_reused(self, failpoints, mode):
        failpoints.arm_spec(f"restapi.get[/v1/players]={mode}:times(1)")
        scenario = FootballScenario.build(anchors_only=True)
        scenario.mdm.configure_execution(max_fetch_workers=1)
        # w1 meets the failed GET; w1n asks the source itself and gets
        # rows, so w1 is the only failed wrapper the error names.
        with pytest.raises(MdmError, match=r"failed wrapper: \['w1'\]"):
            scenario.mdm.execute(
                scenario.walk_league_nationality(), on_wrapper_error="skip"
            )
        assert len(gets(scenario.server, "/v1/players")) == 2


@pytest.fixture
def server():
    s = MockRestServer()
    s.register(
        Endpoint(
            "things",
            1,
            "json",
            lambda: [
                {"id": i, "kind": "odd" if i % 2 else "even", "meta": {"n": i}}
                for i in range(6)
            ],
            page_size=4,
        )
    )
    return s


def one_concept_mdm(wrappers):
    """Each wrapper alone covers the concept Thing(id, kind)."""
    mdm = MDM(result_cache_size=0, wrapper_cache_size=0)
    mdm.add_concept(NS.Thing)
    mdm.add_identifier(NS.thingId, NS.Thing)
    mdm.add_feature(NS.kind, NS.Thing)
    mdm.register_source("things")
    for wrapper in wrappers:
        mdm.register_wrapper("things", wrapper)
        mdm.define_mapping(
            wrapper.name,
            {"id": NS.thingId, wrapper.attributes[1]: NS.kind},
        )
    return mdm


def thing_kinds(mdm, **kwargs):
    return mdm.execute(mdm.walk_from_nodes([NS.Thing, NS.kind]), **kwargs)


class TestSharingScope:
    def test_different_params_or_pagination_send_separate_gets(self, server):
        wrappers = [
            RestWrapper("a", ["id", "kind"], server, "/v1/things"),
            RestWrapper("b", ["id", "kind"], server, "/v1/things"),
            RestWrapper(
                "c", ["id", "kind"], server, "/v1/things", params={"kind": "odd"}
            ),
            RestWrapper("d", ["id", "kind"], server, "/v1/things", paginate=True),
        ]
        outcome = thing_kinds(one_concept_mdm(wrappers))
        assert outcome.fetch_attempts == {"a": 1, "b": 1, "c": 1, "d": 1}
        # a and b share one GET; c's params and d's pages ask again.
        assert [r.params for r in gets(server)] == [
            {},
            {"kind": "odd"},
            {"page": "1"},
            {"page": "2"},
        ]

    def test_the_wrapper_after_a_failed_get_gets_rows(self, server, failpoints):
        failpoints.arm_spec("restapi.get[/v1/things]=error:times(1)")
        wrappers = [
            RestWrapper("a", ["id", "kind"], server, "/v1/things"),
            RestWrapper("b", ["id", "kind"], server, "/v1/things"),
        ]
        outcome = thing_kinds(one_concept_mdm(wrappers), on_wrapper_error="skip")
        assert outcome.skipped_wrappers == ("a",)
        assert outcome.pushdown["requests"]["b"]["rows_transferred"] == 4
        assert sorted(outcome.relation.rows) == [("even",), ("odd",)]
        assert len(gets(server)) == 2

    def test_a_mutating_computed_spec_cannot_change_a_sibling(self, server):
        def clobbering(record):
            record["kind"] = "clobbered"
            record.clear()
            return "computed"

        first = RestWrapper(
            "a", ["id", "label"], server, "/v1/things",
            attribute_map={"label": clobbering},
        )
        second = RestWrapper("b", ["id", "kind"], server, "/v1/things")
        with sharing_requests():
            assert [r["label"] for r in first.fetch()] == ["computed"] * 4
            rows = second.fetch()
        assert len(gets(server)) == 1
        assert [r["kind"] for r in rows] == ["even", "odd"] * 2

    def test_direct_fetches_are_never_shared(self, server):
        wrapper = RestWrapper("a", ["id", "kind"], server, "/v1/things")
        assert wrapper.fetch() == wrapper.fetch()
        wrapper.fetch_relation()
        assert len(gets(server)) == 3

    def test_sharing_ends_with_its_block(self, server):
        wrapper = RestWrapper("a", ["id", "kind"], server, "/v1/things")
        with sharing_requests():
            wrapper.fetch()
            wrapper.fetch()
        wrapper.fetch()
        assert len(gets(server)) == 2

    def test_a_timed_retry_policy_answers_and_shares_nothing(self):
        scenario = FootballScenario.build(anchors_only=True)
        scenario.mdm.configure_execution(
            retry_policy=RetryPolicy(attempts=2, timeout_s=30.0)
        )
        outcome = scenario.mdm.execute(scenario.walk_league_nationality())
        assert sorted(outcome.relation.rows) == ANCHOR_ANSWER
        # Each attempt runs in a thread of its own, outside the group's
        # context, so every wrapper sends its own GET.
        assert len(gets(scenario.server, "/v1/players")) == 2


class TestNoCycles:
    @pytest.fixture
    def collector_off(self):
        flags = gc.get_debug()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            yield
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
            gc.enable()

    def test_flattening_a_nested_record_leaves_no_garbage(self, collector_off):
        record = {"id": 1, "stats": {"goals": 3, "tags": [{"a": 1}, "x"]}}
        gc.collect()
        assert flatten_record(record) == {
            "id": 1,
            "stats_goals": 3,
            "stats_tags_0_a": 1,
            "stats_tags_1": "x",
        }
        assert gc.collect() == 0

    def test_impact_analysis_leaves_no_mdm_for_the_collector(self, collector_off):
        scenario = SupersedeScenario.build()
        gc.collect()
        gc.garbage.clear()
        scenario.mdm.analyze_impact(
            WrapperRelease(
                source="twitter",
                wrapper="wFeedback_next",
                attributes=("id", "text", "sentiment", "followers", "productId"),
            )
        )
        gc.collect()
        assert not [o for o in gc.garbage if isinstance(o, MDM)]
