"""Unit tests for walk filters, the SPARQL front-end, taxonomy-aware
rewriting and impact analysis."""

import pytest

from repro.core.errors import WalkError
from repro.core.sparql_frontend import walk_from_sparql
from repro.core.walks import FilterCondition, Walk
from repro.rdf.namespaces import EX
from repro.scenarios.football import PLAYER, FootballScenario

PREFIXES = (
    "PREFIX ex: <http://www.essi.upc.edu/example/>\n"
    "PREFIX sc: <http://schema.org/>\n"
)


@pytest.fixture(scope="module")
def scenario():
    return FootballScenario.build(anchors_only=True)


class TestFilterCondition:
    def test_valid_operators(self):
        for op in ("=", "!=", "<", "<=", ">", ">="):
            FilterCondition(EX.height, op, 180)

    def test_invalid_operator_rejected(self):
        with pytest.raises(WalkError):
            FilterCondition(EX.height, "~", 1)

    def test_non_scalar_value_rejected(self):
        with pytest.raises(WalkError):
            FilterCondition(EX.height, "=", [1, 2])

    def test_sparql_literal_rendering(self):
        assert FilterCondition(EX.height, ">", 180).sparql_literal() == "180"
        assert FilterCondition(EX.height, ">", 1.5).sparql_literal() == "1.5"
        assert FilterCondition(EX.foot, "=", "left").sparql_literal() == '"left"'
        assert FilterCondition(EX.active, "=", True).sparql_literal() == "true"

    def test_string_escaping(self):
        cond = FilterCondition(EX.name, "=", 'O"Neil')
        assert '\\"' in cond.sparql_literal()

    def test_describe(self):
        assert "height > 180" in FilterCondition(EX.height, ">", 180).describe()


class TestFilteredWalks:
    def test_with_filters_returns_new_walk(self, scenario):
        walk = scenario.walk_single_concept()
        filtered = walk.with_filters(FilterCondition(EX.height, ">", 180))
        assert not walk.filters
        assert len(filtered.filters) == 1

    def test_filter_feature_must_belong_to_walk_concept(self, scenario):
        walk = scenario.mdm.walk_from_nodes([PLAYER, EX.playerName])
        bad = walk.with_filters(FilterCondition(EX.teamName, "=", "FCB"))
        with pytest.raises(WalkError):
            bad.validate(scenario.mdm.global_graph)

    def test_expansion_pulls_filter_features(self, scenario):
        walk = scenario.mdm.walk_from_nodes([PLAYER, EX.playerName]).with_filters(
            FilterCondition(EX.height, ">", 180)
        )
        expanded = walk.expand(scenario.mdm.global_graph)
        assert EX.height in expanded.features
        assert EX.height not in walk.features

    def test_sparql_translation_includes_filter(self, scenario):
        walk = scenario.mdm.walk_from_nodes([PLAYER, EX.playerName]).with_filters(
            FilterCondition(EX.height, ">", 180)
        )
        text = walk.to_sparql(scenario.mdm.global_graph)
        assert "FILTER(?height > 180)" in text
        assert "SELECT ?playerName WHERE" in text  # not projected

    def test_execution_applies_numeric_filter(self, scenario):
        walk = scenario.mdm.walk_from_nodes([PLAYER, EX.playerName]).with_filters(
            FilterCondition(EX.height, ">", 190)
        )
        outcome = scenario.mdm.execute(walk)
        assert {r[0] for r in outcome.relation.rows} == {"Zlatan Ibrahimovic"}

    def test_execution_applies_string_filter(self, scenario):
        walk = scenario.mdm.walk_from_nodes([PLAYER, EX.playerName]).with_filters(
            FilterCondition(EX.preferredFoot, "=", "left")
        )
        outcome = scenario.mdm.execute(walk)
        assert {r[0] for r in outcome.relation.rows} == {"Lionel Messi"}

    def test_conjunction_of_filters(self, scenario):
        walk = scenario.mdm.walk_from_nodes([PLAYER, EX.playerName]).with_filters(
            FilterCondition(EX.height, ">", 180),
            FilterCondition(EX.rating, ">=", 92),
        )
        outcome = scenario.mdm.execute(walk)
        assert {r[0] for r in outcome.relation.rows} == {"Robert Lewandowski"}

    def test_filter_survives_evolution(self):
        scenario = FootballScenario.build(anchors_only=True)
        walk = scenario.mdm.walk_from_nodes([PLAYER, EX.playerName]).with_filters(
            FilterCondition(EX.height, ">", 190)
        )
        before = set(scenario.mdm.execute(walk).relation.rows)
        scenario.release_players_v2()
        outcome = scenario.mdm.execute(walk)
        assert outcome.rewrite.ucq_size == 2
        assert set(outcome.relation.rows) == before

    def test_filter_on_cross_concept_walk(self, scenario):
        walk = scenario.walk_player_team_names().with_filters(
            FilterCondition(EX.teamName, "=", "Bayern Munich")
        )
        outcome = scenario.mdm.execute(walk)
        assert {r[0] for r in outcome.relation.rows} == {
            "Robert Lewandowski",
            "Thomas Muller",
        }


class TestSparqlFrontend:
    def test_basic_walk(self, scenario):
        walk = walk_from_sparql(
            scenario.mdm.global_graph,
            PREFIXES
            + "SELECT ?playerName WHERE { ?p rdf:type ex:Player . "
            "?p ex:playerName ?playerName }",
        )
        assert walk.concepts == frozenset({PLAYER})
        assert walk.features == frozenset({EX.playerName})

    def test_relation_edge_recognized(self, scenario):
        walk = walk_from_sparql(
            scenario.mdm.global_graph,
            PREFIXES
            + "SELECT ?playerName ?teamName WHERE { "
            "?p rdf:type ex:Player . ?p ex:playerName ?playerName . "
            "?p ex:hasTeam ?t . ?t rdf:type sc:SportsTeam . "
            "?t ex:teamName ?teamName }",
        )
        assert len(walk.edges) == 1
        assert next(iter(walk.edges)).predicate == EX.hasTeam

    def test_filter_extraction(self, scenario):
        walk = walk_from_sparql(
            scenario.mdm.global_graph,
            PREFIXES
            + "SELECT ?playerName WHERE { ?p rdf:type ex:Player . "
            "?p ex:playerName ?playerName . ?p ex:height ?h "
            "FILTER(?h > 180) }",
        )
        assert len(walk.filters) == 1
        assert walk.filters[0].feature == EX.height
        assert walk.filters[0].value == 180

    def test_flipped_filter_normalized(self, scenario):
        walk = walk_from_sparql(
            scenario.mdm.global_graph,
            PREFIXES
            + "SELECT ?playerName WHERE { ?p rdf:type ex:Player . "
            "?p ex:playerName ?playerName . ?p ex:height ?h "
            "FILTER(180 < ?h) }",
        )
        assert walk.filters[0].op == ">"

    def test_roundtrip_with_generated_sparql(self, scenario):
        original = scenario.walk_league_nationality()
        text = original.to_sparql(scenario.mdm.global_graph)
        parsed = walk_from_sparql(scenario.mdm.global_graph, text)
        assert parsed.concepts == original.concepts
        assert parsed.features == original.features
        assert parsed.edges == original.edges

    def test_execution_parity_with_graphical_walk(self, scenario):
        walk = scenario.walk_player_team_names()
        text = walk.to_sparql(scenario.mdm.global_graph)
        via_text = scenario.mdm.sparql_query(text)
        via_walk = scenario.mdm.execute(walk)
        assert set(via_text.relation.rows) == set(via_walk.relation.rows)

    def test_untyped_variable_rejected(self, scenario):
        with pytest.raises(WalkError):
            walk_from_sparql(
                scenario.mdm.global_graph,
                PREFIXES + "SELECT ?n WHERE { ?p ex:playerName ?n }",
            )

    def test_unknown_concept_rejected(self, scenario):
        with pytest.raises(WalkError):
            walk_from_sparql(
                scenario.mdm.global_graph,
                PREFIXES + "SELECT ?n WHERE { ?p rdf:type ex:Ghost . "
                "?p ex:playerName ?n }",
            )

    def test_wrong_feature_concept_rejected(self, scenario):
        with pytest.raises(WalkError):
            walk_from_sparql(
                scenario.mdm.global_graph,
                PREFIXES + "SELECT ?n WHERE { ?p rdf:type ex:Player . "
                "?p ex:teamName ?n }",
            )

    def test_feature_optional_accepted(self, scenario):
        walk = walk_from_sparql(
            scenario.mdm.global_graph,
            PREFIXES + "SELECT ?n WHERE { ?p rdf:type ex:Player . "
            "?p ex:playerName ?n OPTIONAL { ?p ex:height ?h } }",
        )
        assert EX.height in walk.optional_features

    def test_union_rejected(self, scenario):
        with pytest.raises(WalkError):
            walk_from_sparql(
                scenario.mdm.global_graph,
                PREFIXES + "SELECT ?n WHERE { { ?p rdf:type ex:Player . "
                "?p ex:playerName ?n } UNION { ?p ex:playerName ?n } }",
            )

    def test_ask_rejected(self, scenario):
        with pytest.raises(WalkError):
            walk_from_sparql(
                scenario.mdm.global_graph,
                PREFIXES + "ASK { ?p rdf:type ex:Player }",
            )

    def test_unprojected_feature_becomes_fetch_only(self, scenario):
        walk = walk_from_sparql(
            scenario.mdm.global_graph,
            PREFIXES
            + "SELECT ?playerName WHERE { ?p rdf:type ex:Player . "
            "?p ex:playerName ?playerName . ?p ex:height ?h }",
        )
        assert walk.features == frozenset({EX.playerName})


class TestTaxonomyRewriting:
    def test_subclass_wrapper_answers_superclass_walk(self):
        """A wrapper mapped only to a subclass contributes its rows to
        queries over the superclass."""
        from repro.core.mdm import MDM
        from repro.sources.wrappers import StaticWrapper

        mdm = MDM()
        mdm.add_concept(EX.Person)
        mdm.add_identifier(EX.personId, EX.Person)
        mdm.add_feature(EX.personName, EX.Person)
        mdm.add_concept(EX.Goalkeeper)
        mdm.global_graph.add_subclass(EX.Goalkeeper, EX.Person)
        mdm.add_identifier(EX.gkId, EX.Goalkeeper)
        mdm.add_feature(EX.gloveSize, EX.Goalkeeper)

        mdm.register_source("people")
        mdm.register_wrapper(
            "people",
            StaticWrapper(
                "wPeople", ["id", "name"], [{"id": 1, "name": "Alice"}]
            ),
        )
        mdm.define_mapping(
            "wPeople", {"id": EX.personId, "name": EX.personName}
        )
        mdm.register_source("keepers")
        # The keeper wrapper maps the SUPERCLASS identifier + name (its
        # rows are people) — classic subclass source.
        mdm.register_wrapper(
            "keepers",
            StaticWrapper(
                "wKeepers",
                ["id", "name", "gloves"],
                [{"id": 2, "name": "Bob", "gloves": 9}],
            ),
        )
        from repro.rdf.namespaces import RDFS

        mdm.define_mapping(
            "wKeepers",
            {"id": EX.personId, "name": EX.personName, "gloves": EX.gloveSize},
            # The taxonomy edge connects the two concepts in the contour.
            edges=[(EX.Goalkeeper, RDFS.subClassOf, EX.Person)],
        )
        walk = mdm.walk_from_nodes([EX.Person, EX.personName])
        outcome = mdm.execute(walk)
        assert {r[0] for r in outcome.relation.rows} == {"Alice", "Bob"}
        assert outcome.rewrite.ucq_size == 2

    def test_superclass_wrapper_not_applicable_to_subclass(self):
        """Querying the subclass must NOT pull generic superclass rows."""
        from repro.core.errors import NoCoverError
        from repro.core.mdm import MDM
        from repro.core.walks import Walk
        from repro.sources.wrappers import StaticWrapper

        mdm = MDM()
        mdm.add_concept(EX.Person)
        mdm.add_identifier(EX.personId, EX.Person)
        mdm.add_concept(EX.Goalkeeper)
        mdm.global_graph.add_subclass(EX.Goalkeeper, EX.Person)
        mdm.add_identifier(EX.gkId, EX.Goalkeeper)
        mdm.register_source("people")
        mdm.register_wrapper(
            "people", StaticWrapper("wPeople", ["id"], [{"id": 1}])
        )
        mdm.define_mapping("wPeople", {"id": EX.personId})
        walk = Walk.build(concepts=[EX.Goalkeeper], features=[EX.gkId])
        with pytest.raises(NoCoverError):
            mdm.rewriter.rewrite(walk)


class TestImpactAnalysis:
    def test_report_shape(self, scenario):
        scenario.mdm.execute(scenario.walk_player_team_names())
        report = scenario.mdm.impact_of_source("teams")
        assert report["wrappers"] == ["w2", "w2m"]
        assert report["affected_queries"] >= 1
        assert any("teamName" in f for f in report["exclusively_covered_features"])

    def test_shared_coverage_not_exclusive(self, scenario):
        # teamId is provided by w1 (players source) too, so it is NOT
        # exclusive to the teams source.
        report = scenario.mdm.impact_of_source("teams")
        assert not any(
            f.endswith("teamId") for f in report["exclusively_covered_features"]
        )

    def test_unknown_source_raises(self, scenario):
        from repro.core.errors import SourceGraphError

        with pytest.raises(SourceGraphError):
            scenario.mdm.impact_of_source("ghost")
