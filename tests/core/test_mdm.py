"""Unit tests for the MDM facade."""

import pytest

from repro.core.errors import MappingError, MdmError, SourceGraphError
from repro.core.mdm import MDM
from repro.rdf.namespaces import EX
from repro.scenarios.football import PLAYER, FootballScenario
from repro.sources.wrappers import StaticWrapper


@pytest.fixture
def mdm():
    m = MDM()
    m.add_concept(EX.Thing, "Thing")
    m.add_identifier(EX.thingId, EX.Thing)
    m.add_feature(EX.thingName, EX.Thing)
    return m


class TestStewardApi:
    def test_concepts_features_relations(self, mdm):
        mdm.add_concept(EX.Other)
        mdm.add_identifier(EX.otherId, EX.Other)
        mdm.relate(EX.Thing, EX.linksTo, EX.Other)
        assert len(mdm.global_graph.concepts()) == 2
        assert mdm.global_graph.relations()[0].predicate == EX.linksTo

    def test_register_source_and_lookup(self, mdm):
        iri = mdm.register_source("things", "Things API")
        assert mdm.source_iri("things") == iri

    def test_unknown_source_raises(self, mdm):
        with pytest.raises(SourceGraphError):
            mdm.source_iri("ghost")

    def test_register_wrapper_records_release(self, mdm):
        mdm.register_source("things")
        wrapper = StaticWrapper("wt", ["id", "name"], [{"id": 1, "name": "A"}])
        registration = mdm.register_wrapper("things", wrapper)
        assert registration.wrapper_name == "wt"
        assert mdm.wrappers["wt"] is wrapper
        assert mdm.governance.latest("things").wrapper_name == "wt"

    def test_wrapper_iri_lookup(self, mdm):
        mdm.register_source("things")
        mdm.register_wrapper("things", StaticWrapper("wt", ["id"], []))
        assert mdm.wrapper_iri("wt") is not None
        with pytest.raises(SourceGraphError):
            mdm.wrapper_iri("ghost")

    def test_define_mapping_by_names(self, mdm):
        mdm.register_source("things")
        mdm.register_wrapper("things", StaticWrapper("wt", ["id", "name"], []))
        view = mdm.define_mapping(
            "wt", {"id": EX.thingId, "name": EX.thingName}
        )
        assert view.concepts == frozenset({EX.Thing})
        assert view.feature_attributes[EX.thingName] == "name"

    def test_define_mapping_unknown_attribute(self, mdm):
        mdm.register_source("things")
        mdm.register_wrapper("things", StaticWrapper("wt", ["id"], []))
        with pytest.raises(MappingError) as exc:
            mdm.define_mapping("wt", {"ghost": EX.thingId})
        assert "signature" in str(exc.value)

    def test_define_mapping_feature_without_concept(self, mdm):
        mdm.register_source("things")
        mdm.register_wrapper("things", StaticWrapper("wt", ["id"], []))
        with pytest.raises(MappingError):
            mdm.define_mapping("wt", {"id": EX.unattachedFeature})


class TestAnalystApi:
    def test_end_to_end_execute(self, mdm):
        mdm.register_source("things")
        mdm.register_wrapper(
            "things",
            StaticWrapper(
                "wt",
                ["id", "name"],
                [{"id": 1, "name": "A"}, {"id": 2, "name": "B"}],
            ),
        )
        mdm.define_mapping("wt", {"id": EX.thingId, "name": EX.thingName})
        walk = mdm.walk_from_nodes([EX.Thing, EX.thingName])
        outcome = mdm.execute(walk)
        assert outcome.relation.rows == (("A",), ("B",),)
        assert outcome.rewrite.ucq_size == 1

    def test_query_log_written(self, mdm):
        mdm.register_source("things")
        mdm.register_wrapper(
            "things", StaticWrapper("wt", ["id", "name"], [{"id": 1, "name": "A"}])
        )
        mdm.define_mapping("wt", {"id": EX.thingId, "name": EX.thingName})
        mdm.rewrite(mdm.walk_from_nodes([EX.Thing, EX.thingName]))
        log = mdm.metadata.collection("queries").find()
        assert len(log) == 1
        assert log[0]["ucq_size"] == 1

    def test_missing_runtime_wrapper_raises(self, mdm):
        mdm.register_source("things")
        mdm.register_wrapper(
            "things", StaticWrapper("wt", ["id", "name"], [{"id": 1, "name": "A"}])
        )
        mdm.define_mapping("wt", {"id": EX.thingId, "name": EX.thingName})
        del mdm.wrappers["wt"]
        with pytest.raises(MdmError):
            mdm.execute(mdm.walk_from_nodes([EX.Thing, EX.thingName]))

    def test_invalid_on_wrapper_error_value(self, mdm):
        with pytest.raises(ValueError):
            mdm.execute(None, on_wrapper_error="explode")  # type: ignore[arg-type]

    def test_sparql_over_metadata(self):
        scenario = FootballScenario.build(anchors_only=True)
        result = scenario.mdm.sparql(
            "PREFIX G: <http://www.essi.upc.edu/mdm/globalGraph#>\n"
            "SELECT ?c WHERE { ?c a G:Concept }"
        )
        assert len(result) == 4

    def test_sparql_named_graph_mappings_visible(self):
        scenario = FootballScenario.build(anchors_only=True)
        result = scenario.mdm.sparql(
            "PREFIX G: <http://www.essi.upc.edu/mdm/globalGraph#>\n"
            "SELECT DISTINCT ?g WHERE { GRAPH ?g { ?c G:hasFeature ?f } }"
        )
        # One named graph per mapped wrapper (6) plus the global graph
        # itself, which also lives as a named graph in the dataset.
        assert len(result) == 7


class TestProvenance:
    def test_single_cq_provenance(self):
        scenario = FootballScenario.build(anchors_only=True)
        outcome = scenario.mdm.execute(scenario.walk_player_team_names())
        report = outcome.provenance()
        assert len(report) == 1
        assert report[0]["rows"] == 6
        assert report[0]["exclusive_rows"] == 6

    def test_versions_fully_redundant(self):
        scenario = FootballScenario.build(anchors_only=True)
        scenario.release_players_v2()
        outcome = scenario.mdm.execute(scenario.walk_player_team_names())
        report = outcome.provenance()
        assert len(report) == 2
        assert all(entry["exclusive_rows"] == 0 for entry in report)

    def test_skipped_branch_marked(self):
        scenario = FootballScenario.build(anchors_only=True)
        scenario.release_players_v2(retire_v1=True)
        outcome = scenario.mdm.execute(
            scenario.walk_player_team_names(), on_wrapper_error="skip"
        )
        report = outcome.provenance()
        skipped = [entry for entry in report if entry["skipped"]]
        live = [entry for entry in report if not entry["skipped"]]
        assert len(skipped) == 1 and len(live) == 1
        assert live[0]["exclusive_rows"] == 6

    def test_provenance_requires_execution(self):
        scenario = FootballScenario.build(anchors_only=True)
        rewrite = scenario.mdm.rewrite(scenario.walk_player_team_names())
        from repro.core.mdm import QueryOutcome
        from repro.relational.relation import Relation

        outcome = QueryOutcome(rewrite, Relation.from_dicts([]))
        with pytest.raises(MdmError):
            outcome.provenance()

    def test_partial_version_overlap(self):
        """When the new version serves additional rows, provenance shows
        the delta as its exclusive contribution."""
        scenario = FootballScenario.build(anchors_only=True)
        extra_player = {
            "id": 9999,
            "name": "New Signing",
            "height": 180.0,
            "weight": 160,
            "rating": 80,
            "preferred_foot": "right",
            "team_id": 25,
            "nationality_id": 1,
        }
        scenario.release_players_v2()
        # v2's base provider appends a player that v1 never served.
        scenario.data.players.append(
            type(scenario.data.players[0])(**{
                "id": 9999, "name": "New Signing", "height": 180.0,
                "weight": 160, "rating": 80, "preferred_foot": "right",
                "team_id": 25, "nationality_id": 1,
            })
        )
        # Re-pin v1's payload to the original six (freeze before append).
        outcome = scenario.mdm.execute(scenario.walk_player_team_names())
        report = outcome.provenance()
        assert sum(entry["rows"] for entry in report) >= 7


class TestIntrospection:
    def test_summary_counts(self):
        scenario = FootballScenario.build(anchors_only=True)
        summary = scenario.mdm.summary()
        assert summary["concepts"] == 4
        assert summary["sources"] == 4
        assert summary["wrappers"] == 6
        assert summary["mappings"] == 6

    def test_validate_clean(self):
        scenario = FootballScenario.build(anchors_only=True)
        assert scenario.mdm.validate() == []

    def test_validate_flags_missing_runtime(self):
        scenario = FootballScenario.build(anchors_only=True)
        del scenario.mdm.wrappers["w2"]
        issues = scenario.mdm.validate()
        assert any("w2" in i for i in issues)

    def test_to_trig_contains_named_graphs(self):
        scenario = FootballScenario.build(anchors_only=True)
        trig = scenario.mdm.to_trig()
        assert "wrapper/w1" in trig
        assert "globalGraph" in trig

    def test_execute_skip_mode(self):
        scenario = FootballScenario.build(anchors_only=True)
        scenario.release_players_v2(retire_v1=True)
        outcome = scenario.mdm.execute(
            scenario.walk_player_team_names(), on_wrapper_error="skip"
        )
        assert outcome.skipped_wrappers == ("w1",)
        assert len(outcome.relation) == 6

    def test_execute_skip_all_failed_raises(self):
        scenario = FootballScenario.build(anchors_only=True)
        scenario.server.retire("players", 1)
        walk = scenario.mdm.walk_from_nodes([PLAYER, EX.playerName])
        with pytest.raises(MdmError):
            scenario.mdm.execute(walk, on_wrapper_error="skip")
