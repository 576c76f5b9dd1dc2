"""Unit tests for optional features (SPARQL OPTIONAL semantics in OMQs)."""

import pytest

from repro.core.errors import WalkError
from repro.core.mdm import MDM
from repro.core.walks import FilterCondition, Walk
from repro.rdf.namespaces import EX
from repro.scenarios.football import PLAYER, FootballScenario
from repro.sources.wrappers import StaticWrapper


@pytest.fixture
def partial_mdm():
    """One concept; wA serves id+val for all, wB serves extra for some."""
    mdm = MDM()
    mdm.add_concept(EX.C)
    mdm.add_identifier(EX.cId, EX.C)
    mdm.add_feature(EX.val, EX.C)
    mdm.add_feature(EX.extra, EX.C)
    mdm.register_source("s")
    mdm.register_wrapper(
        "s",
        StaticWrapper(
            "wA",
            ["id", "val"],
            [{"id": 1, "val": "a"}, {"id": 2, "val": "b"}, {"id": 3, "val": "c"}],
        ),
    )
    mdm.define_mapping("wA", {"id": EX.cId, "val": EX.val})
    mdm.register_wrapper(
        "s", StaticWrapper("wB", ["id", "extra"], [{"id": 1, "extra": "X"}])
    )
    mdm.define_mapping("wB", {"id": EX.cId, "extra": EX.extra})
    return mdm


class TestWalkValidation:
    def test_with_optional_builder(self):
        scenario = FootballScenario.build(anchors_only=True)
        walk = scenario.mdm.walk_from_nodes([PLAYER, EX.playerName]).with_optional(
            EX.height
        )
        assert EX.height in walk.optional_features
        assert EX.height not in walk.features

    def test_optional_feature_outside_concepts_rejected(self):
        scenario = FootballScenario.build(anchors_only=True)
        walk = scenario.mdm.walk_from_nodes([PLAYER, EX.playerName]).with_optional(
            EX.teamName
        )
        with pytest.raises(WalkError):
            walk.validate(scenario.mdm.global_graph)

    def test_required_and_optional_conflict_rejected(self):
        scenario = FootballScenario.build(anchors_only=True)
        walk = scenario.mdm.walk_from_nodes([PLAYER, EX.playerName]).with_optional(
            EX.playerName
        )
        with pytest.raises(WalkError):
            walk.validate(scenario.mdm.global_graph)

    def test_unknown_optional_feature_rejected(self):
        scenario = FootballScenario.build(anchors_only=True)
        walk = scenario.mdm.walk_from_nodes([PLAYER, EX.playerName]).with_optional(
            EX.ghostFeature
        )
        with pytest.raises(WalkError):
            walk.validate(scenario.mdm.global_graph)

    def test_sparql_translation_uses_optional_clause(self):
        scenario = FootballScenario.build(anchors_only=True)
        walk = scenario.mdm.walk_from_nodes([PLAYER, EX.playerName]).with_optional(
            EX.height
        )
        text = walk.to_sparql(scenario.mdm.global_graph)
        assert "OPTIONAL { ?player ex:height ?height }" in text
        assert "?height" in text.split("WHERE")[0]  # projected

    def test_json_roundtrip_preserves_optional(self):
        scenario = FootballScenario.build(anchors_only=True)
        walk = scenario.mdm.walk_from_nodes([PLAYER, EX.playerName]).with_optional(
            EX.height
        )
        restored = Walk.from_json_dict(walk.to_json_dict())
        assert restored.optional_features == walk.optional_features

    def test_filter_on_optional_feature_promotes_to_required(self):
        scenario = FootballScenario.build(anchors_only=True)
        walk = (
            scenario.mdm.walk_from_nodes([PLAYER, EX.playerName])
            .with_optional(EX.height)
            .with_filters(FilterCondition(EX.height, ">", 180))
        )
        expanded = walk.expand(scenario.mdm.global_graph)
        assert EX.height in expanded.features
        assert EX.height not in expanded.optional_features


class TestOptionalExecution:
    def test_null_padding_when_partially_covered(self, partial_mdm):
        walk = partial_mdm.walk_from_nodes([EX.C, EX.val]).with_optional(EX.extra)
        outcome = partial_mdm.execute(walk)
        assert set(outcome.relation.rows) == {
            ("X", "a"),
            (None, "b"),
            (None, "c"),
        }

    def test_ucq_includes_enriching_cover(self, partial_mdm):
        walk = partial_mdm.walk_from_nodes([EX.C, EX.val]).with_optional(EX.extra)
        result = partial_mdm.rewriter.rewrite(walk)
        groups = {q.wrapper_names for q in result.queries}
        assert ("wA",) in groups
        assert ("wA", "wB") in groups

    def test_subsumed_null_row_removed(self, partial_mdm):
        # Entity 1 must not also appear as ("a", NULL).
        walk = partial_mdm.walk_from_nodes([EX.C, EX.val]).with_optional(EX.extra)
        outcome = partial_mdm.execute(walk)
        values = [row for row in outcome.relation.rows if row[1] == "a"]
        assert values == [("X", "a")]

    def test_fully_covered_optional_behaves_like_required(self):
        scenario = FootballScenario.build(anchors_only=True)
        walk = scenario.mdm.walk_from_nodes([PLAYER, EX.playerName]).with_optional(
            EX.height
        )
        outcome = scenario.mdm.execute(walk)
        assert all(row[0] is not None for row in outcome.relation.rows)

    def test_never_covered_optional_is_all_null(self):
        scenario = FootballScenario.build(anchors_only=True)
        scenario.mdm.add_feature(EX.bootSize, PLAYER)
        walk = scenario.mdm.walk_from_nodes([PLAYER, EX.playerName]).with_optional(
            EX.bootSize
        )
        outcome = scenario.mdm.execute(walk)
        assert len(outcome.relation) == 6
        boot_index = outcome.relation.schema.index_of("bootSize")
        assert all(row[boot_index] is None for row in outcome.relation.rows)

    def test_optional_across_concepts(self):
        scenario = FootballScenario.build(anchors_only=True)
        walk = scenario.walk_player_team_names().with_optional(EX.shortName)
        outcome = scenario.mdm.execute(walk)
        by_player = {
            row[outcome.relation.schema.index_of("playerName")]: row
            for row in outcome.relation.rows
        }
        messi = by_player["Lionel Messi"]
        assert "FCB" in messi

    def test_optional_with_evolution(self):
        scenario = FootballScenario.build(anchors_only=True)
        walk = scenario.mdm.walk_from_nodes([PLAYER, EX.playerName]).with_optional(
            EX.height
        )
        before = set(scenario.mdm.execute(walk).relation.rows)
        scenario.release_players_v2()
        after = scenario.mdm.execute(walk)
        assert set(after.relation.rows) == before


class TestSubsumption:
    def test_without_subsumed_basic(self):
        from repro.relational.relation import Relation

        rel = Relation.from_dicts(
            [
                {"k": 1, "opt": None},
                {"k": 1, "opt": "x"},
                {"k": 2, "opt": None},
            ],
            attribute_order=["k", "opt"],
        )
        minimized = rel.without_subsumed(["opt"])
        assert set(minimized.rows) == {(1, "x"), (2, None)}

    def test_without_subsumed_keeps_conflicting_values(self):
        from repro.relational.relation import Relation

        rel = Relation.from_dicts(
            [{"k": 1, "opt": "x"}, {"k": 1, "opt": "y"}],
            attribute_order=["k", "opt"],
        )
        minimized = rel.without_subsumed(["opt"])
        assert len(minimized) == 2

    def test_without_subsumed_no_optional_noop(self):
        from repro.relational.relation import Relation

        rel = Relation.from_dicts([{"k": 1}], attribute_order=["k"])
        assert rel.without_subsumed([]).rows == rel.rows

    def test_without_subsumed_two_optional_columns(self):
        from repro.relational.relation import Relation

        rel = Relation.from_dicts(
            [
                {"k": 1, "a": "x", "b": None},
                {"k": 1, "a": "x", "b": "y"},
                {"k": 1, "a": None, "b": None},
            ],
            attribute_order=["k", "a", "b"],
        )
        minimized = rel.without_subsumed(["a", "b"])
        assert set(minimized.rows) == {(1, "x", "y")}


class TestOptionalSparqlFrontend:
    def test_optional_block_parsed(self):
        from repro.core.sparql_frontend import walk_from_sparql

        scenario = FootballScenario.build(anchors_only=True)
        walk = walk_from_sparql(
            scenario.mdm.global_graph,
            "PREFIX ex: <http://www.essi.upc.edu/example/>\n"
            "SELECT ?playerName ?height WHERE { ?p rdf:type ex:Player . "
            "?p ex:playerName ?playerName OPTIONAL { ?p ex:height ?height } }",
        )
        assert walk.optional_features == frozenset({EX.height})
        assert walk.features == frozenset({EX.playerName})

    def test_optional_roundtrip_via_generated_sparql(self):
        from repro.core.sparql_frontend import walk_from_sparql

        scenario = FootballScenario.build(anchors_only=True)
        original = scenario.mdm.walk_from_nodes(
            [PLAYER, EX.playerName]
        ).with_optional(EX.height)
        text = original.to_sparql(scenario.mdm.global_graph)
        parsed = walk_from_sparql(scenario.mdm.global_graph, text)
        assert parsed.optional_features == original.optional_features
        assert parsed.features == original.features

    def test_optional_with_relation_inside_rejected(self):
        from repro.core.sparql_frontend import walk_from_sparql

        scenario = FootballScenario.build(anchors_only=True)
        with pytest.raises(WalkError):
            walk_from_sparql(
                scenario.mdm.global_graph,
                "PREFIX ex: <http://www.essi.upc.edu/example/>\n"
                "PREFIX sc: <http://schema.org/>\n"
                "SELECT ?playerName WHERE { ?p rdf:type ex:Player . "
                "?p ex:playerName ?playerName "
                "OPTIONAL { ?p ex:hasTeam ?t . ?t rdf:type sc:SportsTeam } }",
            )

    def test_untyped_optional_subject_rejected(self):
        from repro.core.sparql_frontend import walk_from_sparql

        scenario = FootballScenario.build(anchors_only=True)
        with pytest.raises(WalkError):
            walk_from_sparql(
                scenario.mdm.global_graph,
                "PREFIX ex: <http://www.essi.upc.edu/example/>\n"
                "SELECT ?playerName WHERE { ?p rdf:type ex:Player . "
                "?p ex:playerName ?playerName "
                "OPTIONAL { ?q ex:height ?h } }",
            )
