"""Unit tests for walks and their SPARQL translation (paper §2.4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import DisconnectedWalkError, WalkError
from repro.core.global_graph import GlobalGraph
from repro.core.vocabulary import G
from repro.core.walks import Walk, concept_variable_names, feature_column_names
from repro.rdf.namespaces import EX, RDF, RDFS
from repro.scenarios.football import PLAYER, TEAM, football_uml
from repro.sparql.parser import parse_query


@pytest.fixture
def gg():
    return football_uml().compile()


class TestNaming:
    def test_unique_local_names_used_directly(self, gg):
        names = feature_column_names(gg, [EX.playerName, EX.teamName])
        assert names[EX.playerName] == "playerName"
        assert names[EX.teamName] == "teamName"

    def test_collision_prefixes_concept(self, gg):
        # Two features with the same local name on different concepts.
        other = EX["sub/playerName"]
        gg.add_feature(other, TEAM)
        names = feature_column_names(gg, [EX.playerName, other])
        assert len(set(names.values())) == 2
        assert any("player" in n.lower() for n in names.values())

    def test_concept_variable_names_deterministic(self):
        names = concept_variable_names([PLAYER, TEAM])
        assert names[PLAYER] == "player"
        assert names[TEAM] == "sportsTeam"

    def test_concept_variable_collision_numbered(self):
        a = EX["x/Thing"]
        b = EX["y/Thing"]
        names = concept_variable_names([a, b])
        assert len(set(names.values())) == 2


class TestFromNodes:
    def test_features_pull_in_concepts(self, gg):
        walk = Walk.from_nodes(gg, [EX.playerName])
        assert PLAYER in walk.concepts
        assert walk.features == frozenset({EX.playerName})

    def test_edges_between_selected_concepts(self, gg):
        walk = Walk.from_nodes(gg, [PLAYER, TEAM])
        predicates = {e.predicate for e in walk.edges}
        assert EX.hasTeam in predicates

    def test_unselected_concepts_bring_no_edges(self, gg):
        walk = Walk.from_nodes(gg, [PLAYER])
        assert walk.edges == frozenset()

    def test_unknown_node_rejected(self, gg):
        with pytest.raises(WalkError):
            Walk.from_nodes(gg, [EX.notInGraph])


def _from_nodes_by_scan(global_graph, nodes):
    """``Walk.from_nodes`` as it was before it read the index: the
    reference for :func:`test_from_nodes_equals_the_scan_of_all_relations`."""
    node_set = set(nodes)
    concepts = set()
    features = set()
    for node in node_set:
        if global_graph.is_concept(node):
            concepts.add(node)
        elif global_graph.is_feature(node):
            features.add(node)
            owner = global_graph.concept_of(node)
            if owner is None:
                raise WalkError(f"feature {node} belongs to no concept")
            concepts.add(owner)
        else:
            raise WalkError(
                f"{node} is neither a concept nor a feature of the "
                "global graph"
            )
    edges = set()
    for relation in global_graph.relations():
        if (
            relation.subject in concepts
            and relation.object in concepts
            # Self-loops are outside the walk fragment (see validate).
            and relation.subject != relation.object
        ):
            edges.add(relation)
    return Walk(
        concepts=frozenset(concepts),
        features=frozenset(features),
        edges=frozenset(edges),
    )


_CONCEPTS = [EX[f"prop/C{i}"] for i in range(5)]
_FEATURES = [EX[f"prop/f{i}"] for i in range(4)]
#: Two user predicates (so one pair can have both) and the three the
#: scan leaves out.
_PREDICATES = [EX["prop/p"], EX["prop/q"], RDF.type, G.hasFeature, RDFS.subClassOf]


@st.composite
def _graphs_and_selections(draw):
    declared = draw(
        st.lists(st.sampled_from(_CONCEPTS), min_size=1, unique=True)
    )
    # Any concept IRI may own a feature, declared or not.
    owners = draw(
        st.lists(
            st.sampled_from(_CONCEPTS),
            min_size=len(_FEATURES),
            max_size=len(_FEATURES),
        )
    )
    edges = draw(
        st.lists(
            st.tuples(
                st.sampled_from(_CONCEPTS),
                st.sampled_from(_PREDICATES),
                st.sampled_from(_CONCEPTS),
            ),
            max_size=12,
        )
    )
    gg = GlobalGraph()
    for concept in declared:
        gg.graph.add((concept, RDF.type, G.Concept))
    for feature, owner in zip(_FEATURES, owners):
        gg.graph.add((feature, RDF.type, G.Feature))
        gg.graph.add((owner, G.hasFeature, feature))
    for edge in edges:
        gg.graph.add(edge)
    nodes = draw(st.sets(st.sampled_from(declared + _FEATURES)))
    return gg, nodes


@given(_graphs_and_selections())
@settings(max_examples=200, deadline=None)
def test_from_nodes_equals_the_scan_of_all_relations(case):
    """Self-loops, two predicates between one pair, the taxonomy and
    hasFeature edges between concepts, and features owned by a concept
    not typed G:Concept: the index lookup keeps the scan's edges."""
    gg, nodes = case
    assert Walk.from_nodes(gg, nodes) == _from_nodes_by_scan(gg, nodes)


class TestValidation:
    def test_valid_walk(self, gg):
        Walk.from_nodes(gg, [PLAYER, EX.playerName]).validate(gg)

    def test_empty_walk_rejected(self, gg):
        with pytest.raises(WalkError):
            Walk.build().validate(gg)

    def test_feature_outside_walk_concepts_rejected(self, gg):
        walk = Walk.build(concepts=[PLAYER], features=[EX.teamName])
        with pytest.raises(WalkError):
            walk.validate(gg)

    def test_unknown_concept_rejected(self, gg):
        walk = Walk.build(concepts=[EX.Ghost])
        with pytest.raises(WalkError):
            walk.validate(gg)

    def test_fabricated_edge_rejected(self, gg):
        walk = Walk.build(
            concepts=[PLAYER, TEAM],
            edges=[(PLAYER, EX.invented, TEAM)],
        )
        with pytest.raises(WalkError):
            walk.validate(gg)

    def test_disconnected_walk_rejected(self, gg):
        from repro.scenarios.football import COUNTRY

        walk = Walk.build(concepts=[PLAYER, COUNTRY])  # no edges selected
        with pytest.raises(DisconnectedWalkError):
            walk.validate(gg)

    def test_single_concept_trivially_connected(self, gg):
        Walk.build(concepts=[PLAYER]).validate(gg)

    def test_self_loop_relation_rejected(self, gg):
        gg.relate(PLAYER, EX.mentors, PLAYER)
        walk = Walk.build(
            concepts=[PLAYER], edges=[(PLAYER, EX.mentors, PLAYER)]
        )
        with pytest.raises(WalkError) as exc:
            walk.validate(gg)
        assert "self-join" in str(exc.value)

    def test_from_nodes_skips_self_loops(self, gg):
        gg.relate(PLAYER, EX.mentors, PLAYER)
        walk = Walk.from_nodes(gg, [PLAYER, EX.playerName])
        # The contour gesture ignores self-loops so ordinary walks keep
        # validating; explicit self-loop selection is what validate rejects.
        assert not any(e.subject == e.object for e in walk.edges)
        walk.validate(gg)


class TestExpansion:
    def test_adds_missing_identifiers(self, gg):
        walk = Walk.from_nodes(gg, [PLAYER, EX.playerName, TEAM, EX.teamName])
        expanded = walk.expand(gg)
        assert EX.playerId in expanded.features
        assert EX.teamId in expanded.features

    def test_keeps_explicit_identifiers(self, gg):
        walk = Walk.from_nodes(gg, [PLAYER, EX.playerId])
        expanded = walk.expand(gg)
        assert expanded.features == walk.features

    def test_original_walk_untouched(self, gg):
        walk = Walk.from_nodes(gg, [PLAYER, EX.playerName])
        walk.expand(gg)
        assert EX.playerId not in walk.features


class TestSparqlTranslation:
    def test_generated_sparql_parses(self, gg):
        walk = Walk.from_nodes(gg, [PLAYER, EX.playerName, TEAM, EX.teamName])
        text = walk.to_sparql(gg)
        query = parse_query(text)
        assert {v.name for v in query.variables} == {"playerName", "teamName"}

    def test_sparql_contains_type_patterns(self, gg):
        text = Walk.from_nodes(gg, [PLAYER, EX.playerName]).to_sparql(gg)
        assert "rdf:type ex:Player" in text

    def test_sparql_contains_relation_pattern(self, gg):
        walk = Walk.from_nodes(gg, [PLAYER, TEAM])
        text = walk.to_sparql(gg)
        assert "ex:hasTeam" in text

    def test_sparql_prefixes_declared(self, gg):
        text = Walk.from_nodes(gg, [TEAM, EX.teamName]).to_sparql(gg)
        assert "PREFIX sc: <http://schema.org/>" in text
        assert "PREFIX rdf:" in text

    def test_sparql_deterministic(self, gg):
        walk = Walk.from_nodes(gg, [PLAYER, EX.playerName, TEAM])
        assert walk.to_sparql(gg) == walk.to_sparql(gg)


class TestRendering:
    def test_dot_output(self, gg):
        walk = Walk.from_nodes(gg, [PLAYER, EX.playerName, TEAM])
        dot = walk.to_dot(gg)
        assert dot.startswith("digraph walk {")
        assert "ex:Player" in dot and "hasFeature" in dot

    def test_describe(self, gg):
        walk = Walk.from_nodes(gg, [PLAYER, EX.playerName])
        text = walk.describe(gg)
        assert "ex:Player" in text and "ex:playerName" in text

    def test_sorted_accessors(self, gg):
        walk = Walk.from_nodes(gg, [PLAYER, TEAM, EX.playerName, EX.teamName])
        assert walk.sorted_concepts() == sorted(walk.concepts, key=lambda i: i.value)
        assert walk.sorted_features() == sorted(walk.features, key=lambda i: i.value)
        assert len(walk.sorted_edges()) == len(walk.edges)


class TestDescribe:
    def test_describe_mentions_filters_and_optionals(self, gg):
        from repro.core.walks import FilterCondition

        walk = (
            Walk.from_nodes(gg, [PLAYER, EX.playerName])
            .with_optional(EX.height)
            .with_filters(FilterCondition(EX.rating, ">=", 90))
        )
        text = walk.describe(gg)
        assert "optionally [ex:height]" in text
        assert "rating >= 90" in text
