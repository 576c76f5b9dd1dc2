"""Mistyped JSON body fields are a 400 and change nothing.

Flags must be JSON booleans (the string ``"false"`` is truthy), wrapper
``rows`` a list of objects and ``changes`` a list of strings.
"""

import pytest

from repro.obs import get_tracer
from repro.scenarios.football import EX, PLAYER, FootballScenario
from repro.service.api import MdmService

NODES = [PLAYER.value, EX.playerName.value]
SPARQL = (
    "PREFIX ex: <http://www.essi.upc.edu/example/> "
    "SELECT ?playerName WHERE { ?p rdf:type ex:Player . "
    "?p ex:playerName ?playerName }"
)


@pytest.fixture
def service():
    return MdmService(FootballScenario.build(anchors_only=True).mdm)


REJECTED = {
    "query execute": ("/query", {"nodes": NODES, "execute": "false"}, "execute"),
    "query use_cache": ("/query", {"nodes": NODES, "use_cache": "false"}, "use_cache"),
    "sparql execute": ("/query/sparql", {"sparql": SPARQL, "execute": "false"}, "execute"),
    "feature identifier": (
        "/globalGraph/features",
        {
            "iri": EX.shirtNumber.value,
            "concept": PLAYER.value,
            "identifier": "false",
        },
        "identifier",
    ),
    "wrapper rows": (
        "/sources/players/wrappers",
        {"name": "wX", "attributes": ["id"], "rows": ["oops"]},
        "rows",
    ),
    "wrapper changes": (
        "/sources/players/wrappers",
        {"name": "wX", "attributes": ["id"], "changes": "abc"},
        "changes",
    ),
    "wrapper attributes": (
        "/sources/players/wrappers",
        {"name": "wX", "attributes": "id"},
        "attributes",
    ),
    "failpoints clear": ("/failpoints", {"clear": "false"}, "clear"),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_mistyped_field_is_400_and_changes_nothing(service, case):
    path, body, key = REJECTED[case]
    before = (
        service.request("GET", "/globalGraph").body,
        service.request("GET", "/sources").body,
        service.request("GET", "/releases").body,
        service.mdm.generation,
    )
    response = service.request("POST", path, body)
    assert response.status == 400, response.body
    assert key in response.body["error"]
    after = (
        service.request("GET", "/globalGraph").body,
        service.request("GET", "/sources").body,
        service.request("GET", "/releases").body,
        service.mdm.generation,
    )
    assert after == before


def test_string_tracing_flag_leaves_tracer_alone(service):
    tracer = get_tracer()
    was = tracer.enabled
    try:
        tracer.enabled = False
        response = service.request("POST", "/obs/tracing", {"enabled": "false"})
        assert response.status == 400
        assert tracer.enabled is False
    finally:
        tracer.enabled = was


def test_boolean_flags_are_honoured(service):
    rewritten = service.request("POST", "/query", {"nodes": NODES, "execute": False})
    assert rewritten.ok and "rows" not in rewritten.body
    executed = service.request(
        "POST", "/query", {"nodes": NODES, "execute": True, "use_cache": False}
    )
    assert executed.ok and executed.body["rows"]
    sparql = service.request("POST", "/query/sparql", {"sparql": SPARQL, "execute": False})
    assert sparql.ok and "rows" not in sparql.body


def test_wrapper_rows_of_objects_and_string_changes_are_accepted(service):
    response = service.request(
        "POST",
        "/sources/players/wrappers",
        {
            "name": "wX",
            "attributes": ["id"],
            "rows": [{"id": 1}],
            "changes": ["added wX"],
        },
    )
    assert response.ok, response.body
