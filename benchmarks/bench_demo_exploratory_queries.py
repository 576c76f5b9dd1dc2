"""Demo scenario 2 (extension) — participants' exploratory queries.

"We will encourage participants to propose their queries of interest" —
the on-site audience poses ad-hoc OMQs, graphically or as SPARQL, with
selection predicates.  This bench exercises the two analyst front-ends
(walk + filters, and raw SPARQL through :mod:`repro.core.sparql_frontend`)
over representative exploratory questions and checks them against ground
truth.
"""

from benchmarks.conftest import emit
from repro.core.walks import FilterCondition
from repro.rdf.namespaces import EX
from repro.scenarios.football import PLAYER

SPARQL_TALL_LEFTIES = """
PREFIX ex: <http://www.essi.upc.edu/example/>
SELECT ?playerName WHERE {
    ?p rdf:type ex:Player .
    ?p ex:playerName ?playerName .
    ?p ex:height ?h .
    ?p ex:preferredFoot ?foot .
    FILTER(?h < 180)
    FILTER(?foot = "left")
}
"""


def test_exploratory_filtered_walk(benchmark, generated_scenario):
    mdm = generated_scenario.mdm
    walk = mdm.walk_from_nodes([PLAYER, EX.playerName]).with_filters(
        FilterCondition(EX.rating, ">=", 90)
    )

    outcome = benchmark(lambda: mdm.execute(walk))

    truth = {
        p.name for p in generated_scenario.data.players if p.rating >= 90
    }
    assert {r[0] for r in outcome.relation.rows} == truth
    emit(
        "Exploratory query — players rated >= 90",
        outcome.to_table(),
    )


def test_exploratory_sparql_front_end(benchmark, anchors_scenario):
    mdm = anchors_scenario.mdm

    outcome = benchmark(lambda: mdm.sparql_query(SPARQL_TALL_LEFTIES))

    emit(
        "Exploratory query — short left-footed players (posed as SPARQL)",
        outcome.to_table(),
    )
    assert {r[0] for r in outcome.relation.rows} == {"Lionel Messi"}
    # The filter was pushed into the relational plan as a selection.
    assert "σ" in outcome.rewrite.pretty()


def test_exploratory_cross_source_filter(benchmark, generated_scenario):
    mdm = generated_scenario.mdm
    walk = generated_scenario.walk_player_team_names().with_filters(
        FilterCondition(EX.teamName, "=", "Bayern Munich")
    )

    outcome = benchmark(lambda: mdm.execute(walk))

    truth = {
        p.name
        for p in generated_scenario.data.players
        if generated_scenario.data.team_by_id(p.team_id).name == "Bayern Munich"
    }
    assert {r[0] for r in outcome.relation.rows} == truth


def test_exploratory_service_sparql_endpoint(benchmark, anchors_scenario):
    from repro.service.api import MdmService

    service = MdmService(anchors_scenario.mdm)

    def post():
        return service.request(
            "POST", "/query/sparql", {"sparql": SPARQL_TALL_LEFTIES}
        )

    response = benchmark(post)
    assert response.ok
    assert response.body["rows"] == [["Lionel Messi"]]
