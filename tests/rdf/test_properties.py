"""Property-based tests for the RDF substrate (hypothesis)."""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf.dataset import Dataset
from repro.rdf.graph import Graph
from repro.rdf.namespaces import default_namespace_manager
from repro.rdf.ntriples import (
    parse_nquads,
    parse_ntriples,
    serialize_nquads,
    serialize_ntriples,
)
from repro.rdf.terms import BNode, IRI, Literal, Quad, Triple
from repro.rdf.trig import parse_trig, serialize_trig
from repro.rdf.turtle import parse_turtle, serialize_turtle

# ---------------------------------------------------------------------- #
# strategies
# ---------------------------------------------------------------------- #

_local = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_",
    min_size=1,
    max_size=8,
)

iris = _local.map(lambda s: IRI("http://t.example/" + s))
bnodes = _local.map(BNode)
subjects = st.one_of(iris, bnodes)

plain_text = st.text(min_size=0, max_size=20).filter(
    lambda s: all(ord(c) >= 32 or c in "\n\t\r" for c in s)
)
literals = st.one_of(
    plain_text.map(Literal),
    st.integers(min_value=-10**9, max_value=10**9).map(Literal),
    st.booleans().map(Literal),
    st.tuples(plain_text, st.sampled_from(["en", "es", "fr-be"])).map(
        lambda t: Literal(t[0], lang=t[1])
    ),
)
objects = st.one_of(iris, bnodes, literals)

triples = st.builds(Triple, subjects, iris, objects)
triple_sets = st.lists(triples, max_size=30).map(
    lambda ts: frozenset(ts)
)


def graph_of(triple_set) -> Graph:
    g = Graph()
    g.add_all(triple_set)
    return g


# ---------------------------------------------------------------------- #
# codec round-trips
# ---------------------------------------------------------------------- #


@given(triple_sets)
@settings(max_examples=60)
def test_ntriples_roundtrip(triple_set):
    g = graph_of(triple_set)
    assert parse_ntriples(serialize_ntriples(iter(g))) == g


@given(triple_sets)
@settings(max_examples=60)
def test_turtle_roundtrip(triple_set):
    g = graph_of(triple_set)
    assert parse_turtle(serialize_turtle(g)) == g


# A bound namespace base plus a local part of any characters (controls,
# Unicode whitespace and line breaks included), weighted towards the
# ASCII punctuation the QName and IRIREF grammars treat specially.
_bound_bases = st.sampled_from(
    [base for _, base in default_namespace_manager().prefixes()]
)
_locals = st.text(
    alphabet=st.one_of(st.sampled_from(string.printable), st.characters()),
    max_size=8,
)


@given(_bound_bases, _locals)
@settings(max_examples=300)
def test_an_iri_is_refused_or_survives_every_codec(base, local):
    try:
        iri = IRI(base + local)
    except ValueError:
        return  # refused up front, so no snapshot can hold it
    dataset = Dataset()
    dataset.add_quad(Quad(iri, iri, iri, None))
    dataset.add_quad(Quad(iri, iri, iri, iri))
    expected = set(dataset.quads())
    assert set(parse_trig(serialize_trig(dataset)).quads()) == expected
    assert set(parse_nquads(serialize_nquads(dataset.quads())).quads()) == expected


# ---------------------------------------------------------------------- #
# graph algebra laws
# ---------------------------------------------------------------------- #


@given(triple_sets, triple_sets)
@settings(max_examples=40)
def test_union_is_commutative(a, b):
    assert graph_of(a) | graph_of(b) == graph_of(b) | graph_of(a)


@given(triple_sets, triple_sets)
@settings(max_examples=40)
def test_intersection_is_commutative(a, b):
    assert graph_of(a) & graph_of(b) == graph_of(b) & graph_of(a)


@given(triple_sets, triple_sets)
@settings(max_examples=40)
def test_difference_disjoint_from_subtrahend(a, b):
    diff = graph_of(a) - graph_of(b)
    gb = graph_of(b)
    assert all(t not in gb for t in diff)


@given(triple_sets, triple_sets)
@settings(max_examples=40)
def test_union_size_inclusion_exclusion(a, b):
    ga, gb = graph_of(a), graph_of(b)
    assert len(ga | gb) == len(ga) + len(gb) - len(ga & gb)


@given(triple_sets)
@settings(max_examples=40)
def test_add_remove_inverse(triple_set):
    g = graph_of(triple_set)
    size = len(g)
    extra = Triple(IRI("http://t.example/fresh"), IRI("http://t.example/p"),
                   Literal("fresh-object-xyz"))
    was_present = extra in g
    g.add(extra)
    g.remove(extra)
    assert len(g) == (size if not was_present else size - 1) or len(g) == size
    if not was_present:
        assert extra not in g


@given(triple_sets)
@settings(max_examples=40)
def test_pattern_union_covers_everything(triple_set):
    g = graph_of(triple_set)
    # Summing per-subject counts must reproduce the total size.
    subjects_seen = set(t.subject for t in g)
    total = sum(g.count((s, None, None)) for s in subjects_seen)
    assert total == len(g)


@given(triple_sets)
@settings(max_examples=40)
def test_estimates_are_upper_bounds_for_indexed_patterns(triple_set):
    g = graph_of(triple_set)
    for t in list(g)[:5]:
        for pattern in [
            (t.subject, None, None),
            (None, t.predicate, None),
            (None, None, t.object),
            (t.subject, t.predicate, None),
        ]:
            assert g.estimate(pattern) == g.count(pattern)


@given(triple_sets)
@settings(max_examples=30)
def test_copy_equal_but_independent(triple_set):
    g = graph_of(triple_set)
    clone = g.copy()
    assert clone == g
    marker = Triple(
        IRI("http://t.example/marker"), IRI("http://t.example/p"), Literal("m")
    )
    clone.add(marker)
    assert marker not in g or marker in clone


# ---------------------------------------------------------------------- #
# bound lookups read the index, and equal the generic path
# ---------------------------------------------------------------------- #

# Few terms, so that one subject-predicate pair often has several objects.
_node_iris = st.sampled_from([IRI(f"http://t.example/n{i}") for i in range(4)])
dense_sets = st.lists(
    st.builds(
        Triple,
        _node_iris,
        _node_iris,
        st.one_of(_node_iris, st.sampled_from([Literal("a"), Literal(1)])),
    ),
    max_size=25,
).map(frozenset)

ABSENT = IRI("http://t.example/absent")


@given(dense_sets, st.data())
@settings(max_examples=80)
def test_bound_lookups_equal_the_generic_path(triple_set, data):
    g = graph_of(triple_set)
    terms = sorted(g.terms(), key=lambda t: t.n3()) + [ABSENT]
    s, p, o = (data.draw(st.sampled_from(terms)) for _ in range(3))
    objects = [t.object for t in g.triples((s, p, None))]
    assert list(g.objects(s, p)) == objects
    assert list(g.subjects(p, o)) == [t.subject for t in g.triples((None, p, o))]
    assert set(g.predicates(s, o)) == {t.predicate for t in g.triples((s, None, o))}
    if len(objects) > 1:
        with pytest.raises(ValueError, match="ambiguous"):
            g.value(s, p)
    else:
        assert g.value(s, p) == (objects[0] if objects else None)
    # A bound result is a snapshot: the graph may change under it.
    for obj in g.objects(s, p):
        g.remove((s, p, obj))
    for subj in g.subjects(p, o):
        g.remove((subj, p, o))
    for pred in g.predicates(s, o):
        g.remove((s, pred, o))
    assert g.count((s, p, None)) == g.count((None, p, o)) == g.count((s, None, o)) == 0
