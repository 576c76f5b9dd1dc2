"""``POST /query`` and ``POST /query/sparql`` answer one walk alike.

The SPARQL endpoint parses under the metadata read lock, through
``MDM.walk_from_sparql``, so a concurrent release cannot tear the parse;
and both endpoints build their answer with one helper, so the SPARQL
path honours ``use_cache`` and ``on_wrapper_error`` and reports
``partial``, ``generation``, ``result_cache`` and ``pushdown`` too.
A wrapper that fails the query answers 502 on both: the upstream is at
fault, not the request.
"""

import pytest

import repro.core.sparql_frontend as frontend
from repro.chaos import FailpointRegistry, set_failpoints
from repro.scenarios.football import EX, PLAYER, TEAM, FootballScenario
from repro.service.api import MdmService

NODES = [PLAYER.value, EX.playerName.value, TEAM.value, EX.teamName.value]


@pytest.fixture
def scenario():
    return FootballScenario.build(anchors_only=True)


def sparql_of(service, nodes=NODES):
    rewritten = service.request("POST", "/query", {"nodes": nodes, "execute": False})
    assert rewritten.ok, rewritten.body
    return rewritten.body["sparql"]


def test_the_sparql_walk_is_parsed_under_the_read_lock(scenario, monkeypatch):
    mdm = scenario.mdm
    service = MdmService(mdm)
    text = sparql_of(service)
    held = []
    real = frontend.walk_from_sparql

    def spy(global_graph, query_text):
        held.append(mdm.metadata_lock.state()["readers"])
        return real(global_graph, query_text)

    monkeypatch.setattr(frontend, "walk_from_sparql", spy)
    assert service.request("POST", "/query/sparql", {"sparql": text}).ok
    mdm.sparql_query(text)
    assert held == [1, 1]


def test_both_endpoints_answer_the_same_keys_and_rows(scenario):
    mdm = scenario.mdm
    mdm.configure_execution(result_cache_size=8)
    service = MdmService(mdm)
    text = sparql_of(service)
    by_nodes = service.request("POST", "/query", {"nodes": NODES})
    by_sparql = service.request("POST", "/query/sparql", {"sparql": text})
    assert by_nodes.ok and by_sparql.ok, (by_nodes.body, by_sparql.body)
    assert set(by_sparql.body) == set(by_nodes.body)
    assert {"partial", "generation", "result_cache", "pushdown"} <= set(by_sparql.body)
    assert by_sparql.body["rows"] == by_nodes.body["rows"]
    assert by_sparql.body["generation"] == by_nodes.body["generation"]
    assert (by_nodes.body["result_cache"], by_sparql.body["result_cache"]) == ("miss", "hit")
    bypass = service.request("POST", "/query/sparql", {"sparql": text, "use_cache": False})
    assert bypass.body["result_cache"] == "bypass"


def test_the_sparql_endpoint_honours_on_wrapper_error(scenario):
    service = MdmService(scenario.mdm)
    text = sparql_of(service)
    scenario.release_players_v2(retire_v1=True)
    answers = [
        service.request("POST", "/query", {"nodes": NODES, "on_wrapper_error": "skip"}),
        service.request("POST", "/query/sparql", {"sparql": text, "on_wrapper_error": "skip"}),
    ]
    for answer in answers:
        assert answer.ok, answer.body
        assert answer.body["partial"] is True
        assert answer.body["skipped_wrappers"] == ["w1"]
    assert answers[0].body["rows"] == answers[1].body["rows"]
    bogus = service.request("POST", "/query/sparql", {"sparql": text, "on_wrapper_error": "x"})
    assert bogus.status == 400



@pytest.fixture
def failpoints():
    registry = FailpointRegistry(seed=0)
    set_failpoints(registry)
    try:
        yield registry
    finally:
        registry.release()
        set_failpoints(None)


def both_endpoints(service, text, **extra):
    return [
        service.request("POST", "/query", {"nodes": NODES, **extra}),
        service.request("POST", "/query/sparql", {"sparql": text, **extra}),
    ]


def test_a_retired_wrapper_answers_502_on_both_endpoints(scenario):
    service = MdmService(scenario.mdm)
    text = sparql_of(service)
    scenario.release_players_v2(retire_v1=True)
    for answer in both_endpoints(service, text):
        assert answer.status == 502, answer.body
        assert "WrapperSchemaError" not in answer.body["error"]
        assert "version v1 of players is retired" in answer.body["error"]


def test_an_undecodable_payload_answers_502_on_both_endpoints(scenario, failpoints):
    service = MdmService(scenario.mdm)
    text = sparql_of(service)
    failpoints.arm_spec("restapi.get=corrupt")
    for answer in both_endpoints(service, text, use_cache=False):
        assert answer.status == 502, answer.body
        assert "does not decode" in answer.body["error"]
