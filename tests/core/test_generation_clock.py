"""One clock: the metadata generation is read from the dataset's stamp.

``MDM.generation`` counts the states of ``mdm.dataset`` and of
``mdm.rewriter`` the MDM has read (:attr:`repro.rdf.dataset.Dataset.stamp`
and ``Rewriter.stamp``).  Any change to a graph or a namespace binding
moves it, whether a mutator made it or not, and so does a new rewriter
setting; a write that changes nothing and every read path leave it
where it is.
"""

import threading
import time

import pytest

from repro.analysis.impact import (
    MetadataMutation,
    WrapperRelease,
    WrapperRetirement,
)
from repro.analysis.lint import lint_mdm
from repro.chaos import FailpointRegistry, set_failpoints
from repro.core.mdm import MDM
from repro.core.rewriting import Rewriter
from repro.core.vocabulary import G, M
from repro.rdf.dataset import Dataset
from repro.rdf.namespaces import EX, RDF, RDFS
from repro.rdf.terms import Literal
from repro.rdf.turtle import parse_turtle
from repro.scenarios.football import COUNTRY, LEAGUE, PLAYER, TEAM, FootballScenario
from repro.service.api import MdmService
from repro.service.persistence import save_mdm
from repro.sources.evolution import RenameField

OTHER_EX = "http://www.essi.upc.edu/other/"


@pytest.fixture
def scenario():
    built = FootballScenario.build(anchors_only=True)
    built.mdm.configure_execution(result_cache_size=16)
    built.mdm.saved_queries.save("player-team", built.walk_player_team_names())
    built.mdm.saved_queries.save("league-nat", built.walk_league_nationality())
    return built


# --- edits that no mutator sees ----------------------------------------- #


def test_a_prefix_bound_after_a_cached_rewrite_is_served(scenario):
    mdm = scenario.mdm
    walk = scenario.walk_player_team_names()
    assert "ex:Player" in mdm.rewrite(walk).sparql
    assert "ex:Player" in mdm.execute(walk).rewrite.sparql
    mdm.dataset.namespaces.bind("ex", OTHER_EX)
    full = f"<{EX.Player.value}>"
    assert full in mdm.rewrite(walk).sparql
    outcome = mdm.execute(walk)
    assert outcome.result_cache == "miss"
    assert full in outcome.rewrite.sparql


def test_a_triple_added_to_the_global_graph_misses_the_result_cache(scenario):
    mdm = scenario.mdm
    walk = scenario.walk_league_nationality()
    mdm.execute(walk)
    assert mdm.execute(walk).result_cache == "hit"
    mdm.global_graph.graph.add((EX.Referee, RDF.type, G.Concept))
    assert mdm.execute(walk).result_cache == "miss"


def test_a_default_prefix_parsed_into_a_dataset_graph_moves_the_clock():
    mdm = MDM()
    generation = mdm.generation
    parse_turtle("@prefix : <http://default.test/> .", mdm.dataset.graph(M.globalGraph))
    assert mdm.dataset.namespaces.expand(":x").value == "http://default.test/x"
    assert mdm.generation == generation + 1


# --- writes that change nothing ----------------------------------------- #


def test_redeclaring_a_source_or_a_concept_keeps_the_generation(scenario):
    mdm = scenario.mdm
    walk = scenario.walk_league_nationality()
    mdm.execute(walk)
    generation = mdm.generation
    mdm.register_source("players")
    mdm.add_concept(PLAYER)
    assert mdm.generation == generation
    assert mdm.execute(walk).result_cache == "hit"


def test_a_source_keeps_one_label(scenario):
    mdm = scenario.mdm
    source = mdm.source_iri("players")

    def labels():
        return set(mdm.source_graph.graph.objects(source, RDFS.label))

    assert labels() == {Literal("Players API")}
    generation = mdm.generation
    assert mdm.register_source("players") == source
    assert labels() == {Literal("Players API")}
    assert mdm.generation == generation
    mdm.register_source("players", "Players API v2")
    assert labels() == {Literal("Players API v2")}
    assert mdm.generation == generation + 1
    assert mdm.validate() == []


# --- reads ----------------------------------------------------------------- #


def read_paths(scenario, tmp_path):
    mdm = scenario.mdm
    walk = scenario.walk_league_nationality()
    return {
        "execute (cold)": lambda: mdm.execute(walk),
        "execute (warm)": lambda: mdm.execute(walk),
        "execute (analyze)": lambda: mdm.execute(walk, analyze=True),
        "execute (no cache)": lambda: mdm.execute(walk, use_cache=False),
        "rewrite": lambda: mdm.rewrite(scenario.walk_single_concept()),
        "replay": lambda: mdm.replay([walk, scenario.walk_player_team_names()]),
        "revalidate": lambda: mdm.saved_queries.revalidate(),
        "impact (release)": lambda: mdm.analyze_impact(
            WrapperRelease(
                "players", "w1v2", base_wrapper="w1",
                changes=(RenameField("pName", "fullName"),),
            )
        ),
        "impact (retirement)": lambda: mdm.analyze_impact(WrapperRetirement("w1")),
        "impact (mutation)": lambda: mdm.analyze_impact(
            MetadataMutation("add_concept", (EX.Referee,))
        ),
        "lint": lambda: lint_mdm(mdm),
        "sparql": lambda: mdm.sparql("SELECT ?s WHERE { ?s ?p ?o } LIMIT 3"),
        "summary": mdm.summary,
        "validate": mdm.validate,
        "to_trig": mdm.to_trig,
        "save_mdm": lambda: save_mdm(mdm, tmp_path / "snapshot"),
    }


GET_PATHS = (
    "/globalGraph",
    "/sources",
    "/releases",
    "/wrappers/w1/suggestion",
    "/queries/saved",
    "/queries/revalidate",
    "/impact/recent",
    "/impact/players",
    "/lint",
    "/report",
    "/metadata/trig",
    "/summary",
    "/metrics",
    "/metrics/summary",
    "/traces/recent",
    "/traces/none",
    "/querylog/recent",
    "/config/execution",
    "/failpoints",
)


def test_every_read_path_keeps_the_generation(scenario, tmp_path):
    mdm = scenario.mdm
    generation = mdm.generation
    for name, read in read_paths(scenario, tmp_path).items():
        read()
        assert mdm.generation == generation, name
    service = MdmService(mdm)
    routes = service.router.routes()
    assert len(GET_PATHS) == sum(1 for method, _ in routes if method == "GET")
    for path in GET_PATHS:
        assert service.request("GET", path).status in (200, 404), path
        assert mdm.generation == generation, path
    assert service.request("GET", "/config/execution").body["generation"] == generation


def test_a_warm_query_reads_the_stamp_once(scenario, monkeypatch):
    mdm = scenario.mdm
    walk = scenario.walk_league_nationality()
    mdm.configure_execution(result_cache_size=0)
    mdm.execute(walk)
    reads = []
    stamp = Dataset.stamp
    monkeypatch.setattr(
        Dataset, "stamp", property(lambda self: reads.append(self) or stamp.fget(self))
    )
    mdm.execute(walk)
    assert reads == [mdm.dataset]


# --- a reconfiguration racing a query ------------------------------------ #


def test_a_config_flip_mid_query_never_caches_under_the_other_key(scenario):
    """A query held at its first fetch, after stage A, while
    ``POST /config/execution`` flips ``optimize``, caches its outcome
    under the config it started with."""
    mdm = scenario.mdm
    service = MdmService(mdm)
    body = {"nodes": [n.value for n in (PLAYER, EX.playerName, TEAM, LEAGUE, COUNTRY)]}
    registry = FailpointRegistry(seed=0)
    set_failpoints(registry)
    responses = []
    try:
        registry.arm_spec("wrapper.fetch=hang(20):times(1)")
        held = threading.Thread(
            target=lambda: responses.append(service.request("POST", "/query", body))
        )
        held.start()
        deadline = time.monotonic() + 20
        while not registry.trigger_log() and time.monotonic() < deadline:
            time.sleep(0.005)
        assert registry.trigger_log(), "the query never reached its fetch"
        flipped = service.request("POST", "/config/execution", {"optimize": False})
        assert flipped.status == 200 and flipped.body["optimize"] is False
        registry.release()
        held.join(timeout=20)
        assert not held.is_alive()
    finally:
        registry.release()
        set_failpoints(None)
    (first,) = responses
    assert first.status == 200 and first.body["result_cache"] == "miss"
    unoptimized = service.request("POST", "/query", body).body
    assert unoptimized["result_cache"] == "miss"
    assert unoptimized["generation"] == first.body["generation"]
    service.request("POST", "/config/execution", {"optimize": True})
    again = service.request("POST", "/query", body).body
    assert again["result_cache"] == "hit"
    assert again["rows"] == first.body["rows"] == unoptimized["rows"]


# --- the rewriter's settings ----------------------------------------------- #


@pytest.fixture
def released():
    """Football after ``release_players_v2``: league × nationality
    rewrites to 2 CQs minimized and to 144 without minimization."""
    built = FootballScenario.build(anchors_only=True)
    built.release_players_v2()
    built.mdm.configure_execution(result_cache_size=16)
    return built


def test_a_rewriter_setting_moves_the_clock(released):
    mdm = released.mdm
    walk = released.walk_league_nationality()
    assert mdm.rewrite(walk).ucq_size == 2
    generation = mdm.generation
    mdm.rewriter.minimize = False
    assert mdm.generation == generation + 1
    assert mdm.rewrite(walk).ucq_size == 144
    assert mdm.rewrite(walk, use_cache=False).ucq_size == 144
    mdm.rewriter.minimize = False  # the value it has: nothing moves
    assert mdm.generation == generation + 1
    mdm.rewriter.max_cover_size = 2
    assert mdm.generation == generation + 2


def test_a_rewriter_setting_misses_the_result_cache(released):
    mdm = released.mdm
    walk = released.walk_league_nationality()
    minimized = mdm.execute(walk)
    assert mdm.execute(walk).result_cache == "hit"
    mdm.rewriter.minimize = False
    outcome = mdm.execute(walk)
    assert outcome.result_cache == "miss"
    assert outcome.rewrite.ucq_size == 144
    assert sorted(outcome.relation.rows) == sorted(minimized.relation.rows)


def test_a_new_rewriter_moves_the_clock(released):
    mdm = released.mdm
    walk = released.walk_league_nationality()
    mdm.execute(walk)
    mdm.rewriter = Rewriter(mdm.global_graph, mdm.mappings, minimize=False)
    assert mdm.rewrite(walk).ucq_size == 144
    assert mdm.execute(walk).result_cache == "miss"
