"""Unit tests for LAV mapping definition and validation (paper §2.3)."""

import pytest

from repro.core.errors import MappingError
from repro.core.global_graph import GlobalGraph
from repro.core.lav import LavMappingStore
from repro.core.source_graph import SourceGraph
from repro.core.vocabulary import G
from repro.rdf.dataset import Dataset
from repro.rdf.namespaces import EX, OWL, SC
from repro.rdf.terms import Triple


@pytest.fixture
def stack():
    dataset = Dataset()
    gg = GlobalGraph()
    gg.add_concept(EX.Player)
    gg.add_concept(SC.SportsTeam)
    gg.add_identifier(EX.playerId, EX.Player)
    gg.add_feature(EX.playerName, EX.Player)
    gg.add_identifier(EX.teamId, SC.SportsTeam)
    gg.add_feature(EX.teamName, SC.SportsTeam)
    gg.relate(EX.Player, EX.hasTeam, SC.SportsTeam)
    sg = SourceGraph()
    players = sg.add_data_source("players")
    w1 = sg.register_wrapper(
        players, "w1", ["id", "pName", "teamId"]
    )
    teams = sg.add_data_source("teams")
    w2 = sg.register_wrapper(teams, "w2", ["id", "name"])
    store = LavMappingStore(dataset, gg, sg)
    return dataset, gg, sg, store, w1, w2


def w1_mapping(w1):
    return {
        w1.attribute_iri("id"): EX.playerId,
        w1.attribute_iri("pName"): EX.playerName,
        w1.attribute_iri("teamId"): EX.teamId,
    }


def w1_subgraph():
    return [
        Triple(EX.Player, G.hasFeature, EX.playerId),
        Triple(EX.Player, G.hasFeature, EX.playerName),
        Triple(EX.Player, EX.hasTeam, SC.SportsTeam),
        Triple(SC.SportsTeam, G.hasFeature, EX.teamId),
    ]


class TestDefine:
    def test_valid_mapping_stored_as_named_graph(self, stack):
        dataset, gg, sg, store, w1, w2 = stack
        mapping = store.define(w1.wrapper, w1_subgraph(), w1_mapping(w1))
        assert dataset.has_graph(w1.wrapper)
        assert len(store.named_graph(w1.wrapper)) == 4
        assert len(mapping.same_as) == 3

    def test_empty_subgraph_rejected(self, stack):
        _, _, _, store, w1, _ = stack
        with pytest.raises(MappingError):
            store.define(w1.wrapper, [], w1_mapping(w1))

    def test_unregistered_wrapper_rejected(self, stack):
        _, _, _, store, w1, _ = stack
        with pytest.raises(MappingError):
            store.define(EX.ghost, w1_subgraph(), w1_mapping(w1))

    def test_non_subgraph_triple_rejected(self, stack):
        _, _, _, store, w1, _ = stack
        bad = w1_subgraph() + [Triple(EX.Player, EX.invented, SC.SportsTeam)]
        with pytest.raises(MappingError) as exc:
            store.define(w1.wrapper, bad, w1_mapping(w1))
        assert "subgraph of the global graph" in str(exc.value)

    def test_disconnected_contour_rejected(self, stack):
        _, gg, _, store, w1, _ = stack
        # Player features + Team features with NO connecting relation.
        disconnected = [
            Triple(EX.Player, G.hasFeature, EX.playerId),
            Triple(SC.SportsTeam, G.hasFeature, EX.teamId),
        ]
        with pytest.raises(MappingError) as exc:
            store.define(w1.wrapper, disconnected, {
                w1.attribute_iri("id"): EX.playerId,
                w1.attribute_iri("teamId"): EX.teamId,
            })
        assert "disconnected" in str(exc.value)

    def test_foreign_attribute_rejected(self, stack):
        _, _, _, store, w1, w2 = stack
        mapping = w1_mapping(w1)
        mapping[w2.attribute_iri("id")] = EX.teamId
        with pytest.raises(MappingError):
            store.define(w1.wrapper, w1_subgraph(), mapping)

    def test_non_feature_target_rejected(self, stack):
        _, _, _, store, w1, _ = stack
        mapping = w1_mapping(w1)
        mapping[w1.attribute_iri("pName")] = EX.Player  # a concept
        with pytest.raises(MappingError):
            store.define(w1.wrapper, w1_subgraph(), mapping)

    def test_double_population_rejected(self, stack):
        _, _, _, store, w1, _ = stack
        mapping = {
            w1.attribute_iri("id"): EX.playerId,
            w1.attribute_iri("pName"): EX.playerId,  # two attrs -> one feature
            w1.attribute_iri("teamId"): EX.teamId,
        }
        with pytest.raises(MappingError):
            store.define(w1.wrapper, w1_subgraph(), mapping)

    def test_unmapped_included_feature_rejected(self, stack):
        _, _, _, store, w1, _ = stack
        mapping = dict(w1_mapping(w1))
        del mapping[w1.attribute_iri("pName")]
        with pytest.raises(MappingError) as exc:
            store.define(w1.wrapper, w1_subgraph(), mapping)
        assert "without" in str(exc.value)

    def test_sameas_outside_named_graph_rejected(self, stack):
        _, _, _, store, w1, _ = stack
        subgraph = [t for t in w1_subgraph() if t.object != EX.playerName]
        with pytest.raises(MappingError) as exc:
            store.define(w1.wrapper, subgraph, w1_mapping(w1))
        assert "outside" in str(exc.value)

    def test_missing_identifier_rejected(self, stack):
        _, _, _, store, w1, _ = stack
        # Cover the Player concept without populating its identifier.
        subgraph = [Triple(EX.Player, G.hasFeature, EX.playerName)]
        with pytest.raises(MappingError) as exc:
            store.define(
                w1.wrapper, subgraph, {w1.attribute_iri("pName"): EX.playerName}
            )
        assert "identifier" in str(exc.value)

    def test_redefinition_replaces(self, stack):
        dataset, _, _, store, w1, _ = stack
        store.define(w1.wrapper, w1_subgraph(), w1_mapping(w1))
        smaller = [
            Triple(EX.Player, G.hasFeature, EX.playerId),
        ]
        store.define(
            w1.wrapper, smaller, {w1.attribute_iri("id"): EX.playerId}
        )
        assert len(store.named_graph(w1.wrapper)) == 1

    def test_shared_attribute_conflicting_feature_rejected(self, stack):
        dataset, gg, sg, store, w1, _ = stack
        store.define(w1.wrapper, w1_subgraph(), w1_mapping(w1))
        # Second wrapper of the same source reuses the "id" attribute.
        players = sg.data_sources()[0] if "players" in sg.data_sources()[0].value else sg.data_sources()[1]
        reg = sg.register_wrapper(players, "w1b", ["id"])
        assert reg.reused_attributes == ("id",)
        with pytest.raises(MappingError) as exc:
            store.define(
                reg.wrapper,
                [Triple(SC.SportsTeam, G.hasFeature, EX.teamId)],
                {reg.attribute_iri("id"): EX.teamId},  # conflicts with playerId
            )
        assert "already linked" in str(exc.value)


class TestViews:
    def test_view_contents(self, stack):
        _, _, _, store, w1, _ = stack
        store.define(w1.wrapper, w1_subgraph(), w1_mapping(w1))
        view = store.view(w1.wrapper)
        assert view.wrapper_name == "w1"
        assert view.concepts == frozenset({EX.Player, SC.SportsTeam})
        assert view.feature_attributes[EX.playerName] == "pName"
        assert view.provides(EX.playerId)
        assert not view.provides(EX.teamName)
        assert view.covers_edge(Triple(EX.Player, EX.hasTeam, SC.SportsTeam))

    def test_views_follow_graphs_outside_the_dataset(self, stack):
        # The fixture's global and source graphs are not the dataset's.
        _, _, sg, store, w1, _ = stack
        store.define(w1.wrapper, w1_subgraph(), w1_mapping(w1))
        assert store.view(w1.wrapper).provides(EX.playerName)
        sg.graph.remove((w1.attribute_iri("pName"), OWL.sameAs, EX.playerName))
        assert not store.view(w1.wrapper).provides(EX.playerName)

    def test_view_unmapped_raises(self, stack):
        _, _, _, store, w1, _ = stack
        with pytest.raises(MappingError):
            store.view(w1.wrapper)

    def test_mapped_wrappers_listing(self, stack):
        _, _, _, store, w1, w2 = stack
        assert store.mapped_wrappers() == []
        store.define(w1.wrapper, w1_subgraph(), w1_mapping(w1))
        assert store.mapped_wrappers() == [w1.wrapper]

    def test_same_as_of_attribute(self, stack):
        _, _, _, store, w1, _ = stack
        store.define(w1.wrapper, w1_subgraph(), w1_mapping(w1))
        assert store.same_as_of_attribute(w1.attribute_iri("pName")) == [EX.playerName]
        assert store.same_as_of_attribute(EX.ghost) == []

    def test_views_sorted(self, stack):
        _, _, _, store, w1, w2 = stack
        store.define(w1.wrapper, w1_subgraph(), w1_mapping(w1))
        store.define(
            w2.wrapper,
            [
                Triple(SC.SportsTeam, G.hasFeature, EX.teamId),
                Triple(SC.SportsTeam, G.hasFeature, EX.teamName),
            ],
            {
                w2.attribute_iri("id"): EX.teamId,
                w2.attribute_iri("name"): EX.teamName,
            },
        )
        views = store.views()
        assert [v.wrapper_name for v in views] == sorted(
            v.wrapper_name for v in views
        )
