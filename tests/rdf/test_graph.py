"""Unit tests for the indexed triple store."""

import pytest

from repro.rdf.graph import Graph
from repro.rdf.namespaces import EX, RDF, SC
from repro.rdf.terms import BNode, IRI, Literal


@pytest.fixture
def graph():
    g = Graph()
    g.add((EX.messi, RDF.type, EX.Player))
    g.add((EX.messi, SC.name, Literal("Lionel Messi")))
    g.add((EX.messi, EX.playsFor, EX.barca))
    g.add((EX.barca, RDF.type, SC.SportsTeam))
    g.add((EX.barca, SC.name, Literal("FC Barcelona")))
    return g


class TestMutation:
    def test_add_returns_true_when_new(self):
        g = Graph()
        assert g.add((EX.a, EX.p, EX.b)) is True

    def test_add_duplicate_returns_false(self, graph):
        assert graph.add((EX.messi, RDF.type, EX.Player)) is False
        assert len(graph) == 5

    def test_add_all_counts_new(self, graph):
        added = graph.add_all(
            [(EX.messi, RDF.type, EX.Player), (EX.new, EX.p, EX.b)]
        )
        assert added == 1

    def test_add_validates(self):
        with pytest.raises(TypeError):
            Graph().add((Literal("bad"), EX.p, EX.b))

    def test_remove_present(self, graph):
        assert graph.remove((EX.messi, RDF.type, EX.Player)) is True
        assert len(graph) == 4

    def test_remove_absent(self, graph):
        assert graph.remove((EX.nope, EX.p, EX.b)) is False
        assert len(graph) == 5

    def test_remove_cleans_indexes(self, graph):
        graph.remove((EX.barca, SC.name, Literal("FC Barcelona")))
        assert list(graph.triples((EX.barca, SC.name, None))) == []
        assert list(graph.triples((None, SC.name, Literal("FC Barcelona")))) == []

    def test_remove_pattern(self, graph):
        removed = graph.remove_pattern((None, SC.name, None))
        assert removed == 2
        assert len(graph) == 3

    def test_clear(self, graph):
        graph.clear()
        assert len(graph) == 0
        assert not graph


class TestStamp:
    """Equal stamps mean the same triples: a copy keeps its original's
    stamp until either graph changes."""

    def test_every_graph_starts_with_its_own_stamp(self, graph):
        seen = {Graph().stamp, Graph().stamp, graph.stamp}
        assert len(seen) == 3
        # A copy keeps the stamp; the first change to either graph draws
        # a stamp that the other, and every graph before, never held.
        copy = graph.copy()
        assert copy.stamp == graph.stamp
        copy.add((EX.new, EX.p, EX.b))
        assert copy.stamp not in seen
        seen.add(copy.stamp)
        copy = graph.copy()
        assert copy.stamp == graph.stamp
        graph.remove((EX.messi, RDF.type, EX.Player))
        assert graph.stamp not in seen
        assert graph.stamp != copy.stamp

    def test_changing_mutations_take_a_new_stamp(self, graph):
        seen = [graph.stamp]
        graph.add((EX.new, EX.p, EX.b))
        seen.append(graph.stamp)
        graph.remove((EX.new, EX.p, EX.b))
        seen.append(graph.stamp)
        graph.remove_pattern((None, SC.name, None))
        seen.append(graph.stamp)
        graph.clear()
        seen.append(graph.stamp)
        assert len(set(seen)) == len(seen)

    def test_no_op_mutations_keep_the_stamp(self, graph):
        stamp = graph.stamp
        graph.add((EX.messi, RDF.type, EX.Player))
        graph.remove((EX.nope, EX.p, EX.b))
        graph.remove_pattern((EX.nope, None, None))
        assert graph.stamp == stamp
        empty = Graph()
        stamp = empty.stamp
        empty.clear()
        assert empty.stamp == stamp


class TestPatternMatching:
    def test_spo_concrete(self, graph):
        assert graph.count((EX.messi, RDF.type, EX.Player)) == 1

    def test_s_only(self, graph):
        assert graph.count((EX.messi, None, None)) == 3

    def test_p_only(self, graph):
        assert graph.count((None, SC.name, None)) == 2

    def test_o_only(self, graph):
        assert graph.count((None, None, EX.barca)) == 1

    def test_sp(self, graph):
        assert graph.count((EX.messi, SC.name, None)) == 1

    def test_po(self, graph):
        assert graph.count((None, RDF.type, SC.SportsTeam)) == 1

    def test_so(self, graph):
        assert graph.count((EX.messi, None, EX.barca)) == 1

    def test_all_wildcards(self, graph):
        assert graph.count() == 5

    def test_no_match_is_empty(self, graph):
        assert list(graph.triples((EX.nope, None, None))) == []

    def test_contains(self, graph):
        assert (EX.messi, SC.name, Literal("Lionel Messi")) in graph
        assert (EX.messi, SC.name, Literal("Other")) not in graph

    def test_iteration_yields_all(self, graph):
        assert len(list(graph)) == 5

    def test_subjects_distinct(self, graph):
        assert set(graph.subjects(RDF.type)) == {EX.messi, EX.barca}

    def test_predicates(self, graph):
        assert SC.name in set(graph.predicates(EX.messi))

    def test_objects(self, graph):
        assert set(graph.objects(EX.messi, SC.name)) == {Literal("Lionel Messi")}

    def test_value_single(self, graph):
        assert graph.value(EX.messi, SC.name) == Literal("Lionel Messi")

    def test_value_none(self, graph):
        assert graph.value(EX.messi, EX.height) is None

    def test_value_ambiguous_raises(self, graph):
        graph.add((EX.messi, SC.name, Literal("Leo")))
        with pytest.raises(ValueError):
            graph.value(EX.messi, SC.name)


class TestEstimates:
    def test_concrete_estimate(self, graph):
        assert graph.estimate((EX.messi, RDF.type, EX.Player)) == 1
        assert graph.estimate((EX.messi, RDF.type, EX.Team)) == 0

    def test_sp_estimate(self, graph):
        assert graph.estimate((EX.messi, None, None)) == 3

    def test_p_estimate(self, graph):
        assert graph.estimate((None, SC.name, None)) == 2

    def test_full_estimate(self, graph):
        assert graph.estimate((None, None, None)) == 5


class TestSetAlgebra:
    def test_union(self, graph):
        other = Graph()
        other.add((EX.new, EX.p, EX.b))
        union = graph | other
        assert len(union) == 6
        assert len(graph) == 5  # original untouched

    def test_intersection(self, graph):
        other = Graph()
        other.add((EX.messi, RDF.type, EX.Player))
        other.add((EX.unrelated, EX.p, EX.b))
        assert len(graph & other) == 1

    def test_difference(self, graph):
        other = Graph()
        other.add((EX.messi, RDF.type, EX.Player))
        assert len(graph - other) == 4

    def test_inplace_union(self, graph):
        other = Graph()
        other.add((EX.new, EX.p, EX.b))
        graph |= other
        assert len(graph) == 6

    def test_equality_as_sets(self, graph):
        clone = graph.copy()
        assert clone == graph
        clone.add((EX.new, EX.p, EX.b))
        assert clone != graph

    def test_unhashable(self, graph):
        with pytest.raises(TypeError):
            hash(graph)

    def test_issubgraph(self, graph):
        sub = Graph()
        sub.add((EX.messi, RDF.type, EX.Player))
        assert sub.issubgraph(graph)
        assert not graph.issubgraph(sub)

    def test_copy_independent(self, graph):
        clone = graph.copy()
        clone.remove((EX.messi, RDF.type, EX.Player))
        assert len(graph) == 5
        assert len(clone) == 4


class TestConvenience:
    def test_terms(self, graph):
        terms = graph.terms()
        assert EX.messi in terms
        assert SC.name in terms
        assert Literal("FC Barcelona") in terms

    def test_nodes_excludes_predicates(self, graph):
        nodes = graph.nodes()
        assert EX.messi in nodes
        assert SC.name not in nodes

    def test_qname_uses_prefixes(self, graph):
        assert graph.qname(SC.SportsTeam) == "sc:SportsTeam"

    def test_qname_falls_back_to_n3(self, graph):
        unknown = IRI("http://totally.unknown/x")
        assert graph.qname(unknown) == "<http://totally.unknown/x>"

    def test_repr_mentions_size(self, graph):
        assert "5 triples" in repr(graph)

    def test_bnode_subjects_supported(self):
        g = Graph()
        b = BNode()
        g.add((b, EX.p, Literal("v")))
        assert g.count((b, None, None)) == 1
