"""Unit tests for named-graph datasets."""

import pytest

from repro.rdf.dataset import Dataset
from repro.rdf.namespaces import EX
from repro.rdf.terms import Quad, Triple


@pytest.fixture
def dataset():
    ds = Dataset()
    ds.default_graph.add((EX.a, EX.p, EX.b))
    ds.graph(EX.g1).add((EX.c, EX.p, EX.d))
    ds.graph(EX.g2).add((EX.a, EX.p, EX.b))
    return ds


class TestGraphAccess:
    def test_default_graph(self, dataset):
        assert len(dataset.default_graph) == 1

    def test_named_graph_created_on_demand(self):
        ds = Dataset()
        g = ds.graph(EX.fresh)
        assert len(g) == 0
        assert ds.has_graph(EX.fresh)

    def test_graph_no_create_raises(self):
        with pytest.raises(KeyError):
            Dataset().graph(EX.missing, create=False)

    def test_graph_identifier_must_be_iri(self):
        with pytest.raises(TypeError):
            Dataset().graph("not-an-iri")  # type: ignore[arg-type]

    def test_graph_none_returns_default(self, dataset):
        assert dataset.graph(None) is dataset.default_graph

    def test_remove_graph(self, dataset):
        assert dataset.remove_graph(EX.g1) is True
        assert not dataset.has_graph(EX.g1)
        assert dataset.remove_graph(EX.g1) is False

    def test_graph_names_sorted(self, dataset):
        assert list(dataset.graph_names()) == [EX.g1, EX.g2]

    def test_graphs_iterates_named_only(self, dataset):
        graphs = list(dataset.graphs())
        assert len(graphs) == 2
        assert all(g.identifier is not None for g in graphs)


class TestQuads:
    def test_add_quad_default(self):
        ds = Dataset()
        assert ds.add_quad(Quad(EX.a, EX.p, EX.b, None)) is True
        assert (EX.a, EX.p, EX.b) in ds.default_graph

    def test_add_quad_named(self):
        ds = Dataset()
        ds.add_quad(Quad(EX.a, EX.p, EX.b, EX.g))
        assert (EX.a, EX.p, EX.b) in ds.graph(EX.g)

    def test_add_quads_counts(self, dataset):
        count = dataset.add_quads(
            [Quad(EX.a, EX.p, EX.b, None), Quad(EX.x, EX.p, EX.y, None)]
        )
        assert count == 1  # first already present

    def test_remove_quad(self, dataset):
        assert dataset.remove_quad(Quad(EX.c, EX.p, EX.d, EX.g1)) is True
        assert dataset.remove_quad(Quad(EX.c, EX.p, EX.d, EX.g1)) is False

    def test_remove_quad_missing_graph(self, dataset):
        assert dataset.remove_quad(Quad(EX.c, EX.p, EX.d, EX.nope)) is False

    def test_quads_wildcard_spans_all_graphs(self, dataset):
        assert len(list(dataset.quads())) == 3

    def test_quads_specific_graph(self, dataset):
        quads = list(dataset.quads((None, None, None, EX.g1)))
        assert quads == [Quad(EX.c, EX.p, EX.d, EX.g1)]

    def test_quads_pattern_filters(self, dataset):
        quads = list(dataset.quads((EX.a, None, None, None)))
        assert {q.graph for q in quads} == {None, EX.g2}

    def test_graphs_containing(self, dataset):
        t = Triple(EX.a, EX.p, EX.b)
        assert list(dataset.graphs_containing(t)) == [None, EX.g2]

    def test_contains_quad(self, dataset):
        assert (EX.a, EX.p, EX.b, None) in dataset
        assert (EX.a, EX.p, EX.b, EX.g2) in dataset
        assert (EX.a, EX.p, EX.b, EX.g1) not in dataset


class TestAggregates:
    def test_len_counts_all_quads(self, dataset):
        assert len(dataset) == 3

    def test_union_graph(self, dataset):
        union = dataset.union_graph()
        assert len(union) == 2  # (a,p,b) deduplicated across graphs

    def test_union_graph_is_fresh(self, dataset):
        union = dataset.union_graph()
        union.add((EX.new, EX.p, EX.b))
        assert len(dataset) == 3

    def test_copy_independent(self, dataset):
        clone = dataset.copy()
        clone.graph(EX.g1).add((EX.extra, EX.p, EX.b))
        assert len(dataset.graph(EX.g1)) == 1
        assert len(clone.graph(EX.g1)) == 2

    def test_copy_graphs_share_the_copys_namespaces(self, dataset):
        clone = dataset.copy()
        clone.namespaces.bind("zz", "http://example.org/zz#")
        fresh = clone.graph(EX.g3)
        for graph in (clone.default_graph, clone.graph(EX.g1), fresh):
            assert graph.namespaces is clone.namespaces
            assert "zz" in graph.namespaces
        assert "zz" not in dataset.namespaces
        for graph in (dataset.default_graph, dataset.graph(EX.g1)):
            assert "zz" not in graph.namespaces

    def test_impact_shadow_graphs_share_its_namespaces(self):
        from repro.analysis.impact import shadow_mdm
        from repro.scenarios.football import FootballScenario

        shadow = shadow_mdm(FootballScenario.build(anchors_only=True).mdm)
        assert shadow.global_graph.graph.namespaces is shadow.dataset.namespaces

    def test_clear(self, dataset):
        dataset.clear()
        assert len(dataset) == 0
        assert list(dataset.graph_names()) == []

    def test_stamp_moves_with_every_change(self):
        dataset = Dataset()
        seen = [dataset.stamp]

        def moved():
            assert dataset.stamp not in seen
            seen.append(dataset.stamp)

        g1 = dataset.graph(EX.g1)
        moved()
        g1.add((EX.a, EX.p, EX.b))
        moved()
        dataset.default_graph.add((EX.a, EX.p, EX.b))
        moved()
        dataset.namespaces.bind("zz", "http://zz.test/")
        moved()
        dataset.namespaces.bind("zz", "http://zz.test/other/")
        moved()
        dataset.remove_graph(EX.g1)
        moved()
        dataset.graph(EX.g1)  # back, and empty again
        moved()
        dataset.clear()
        moved()

    def test_no_op_writes_keep_the_stamp(self, dataset):
        stamp = dataset.stamp
        dataset.graph(EX.g1).add((EX.c, EX.p, EX.d))
        dataset.default_graph.remove((EX.c, EX.p, EX.d))
        dataset.graph(EX.g2).remove_pattern((EX.missing, None, None))
        dataset.remove_graph(EX.missing)
        dataset.namespaces.bind("ex", EX)
        assert dataset.stamp == stamp
        empty = Dataset()
        stamp = empty.stamp
        empty.clear()
        assert empty.stamp == stamp

    def test_a_copy_keeps_the_stamp_until_either_side_changes(self, dataset):
        copy = dataset.copy()
        assert copy.stamp == dataset.stamp
        copy.namespaces.bind("zz", "http://zz.test/")
        assert copy.stamp != dataset.stamp
        copy = dataset.copy()
        dataset.remove_graph(EX.g2)
        assert copy.stamp != dataset.stamp

    def test_a_restored_graph_brings_the_stamp_back(self, dataset):
        graph = dataset.graph(EX.g1)
        stamp, saved = dataset.stamp, graph.copy()
        graph.add((EX.x, EX.p, EX.y))
        graph.remove((EX.c, EX.p, EX.d))
        assert dataset.stamp != stamp
        graph.restore(saved)
        assert set(graph) == {(EX.c, EX.p, EX.d)}
        assert graph.stamp == saved.stamp and dataset.stamp == stamp

    def test_repr(self, dataset):
        assert "2 named graphs" in repr(dataset)
