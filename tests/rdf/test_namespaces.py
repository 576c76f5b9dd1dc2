"""Unit tests for namespaces and prefix management."""

import pytest

from repro.core.vocabulary import G
from repro.rdf.graph import Graph
from repro.rdf.namespaces import (
    EX,
    Namespace,
    NamespaceManager,
    RDF,
    RDFS,
    SC,
    default_namespace_manager,
)
from repro.rdf.terms import IRI
from repro.rdf.turtle import parse_turtle, serialize_turtle


class TestNamespace:
    def test_attribute_access(self):
        assert SC.SportsTeam == IRI("http://schema.org/SportsTeam")

    def test_item_access(self):
        assert SC["SportsTeam"] == IRI("http://schema.org/SportsTeam")

    def test_term_method(self):
        assert SC.term("name") == IRI("http://schema.org/name")

    def test_contains(self):
        assert SC.identifier in SC
        assert RDF.type not in SC

    def test_contains_rejects_non_iri(self):
        assert "http://schema.org/x" not in SC

    def test_equality(self):
        assert Namespace("http://a/") == Namespace("http://a/")
        assert Namespace("http://a/") != Namespace("http://b/")

    def test_empty_base_rejected(self):
        with pytest.raises(ValueError):
            Namespace("")

    def test_underscore_attribute_raises(self):
        with pytest.raises(AttributeError):
            SC._private  # noqa: B018
        assert "_private" not in vars(SC)

    def test_attribute_access_is_interned(self):
        assert G.hasFeature is G.hasFeature
        ns = Namespace("http://x/")
        assert ns.a is ns.a
        assert vars(ns)["a"] == IRI("http://x/a")

    def test_item_and_term_access_are_not_memoized(self):
        # Both carry data-derived names (mint_local), which must not pile
        # up in the namespace.
        ns = Namespace("http://x/")
        assert ns["a"] is not ns["a"]
        assert ns.term("a") is not ns.term("a")
        assert "a" not in vars(ns)

    def test_interning_keeps_equality_and_hash(self):
        interned, fresh = Namespace("http://x/"), Namespace("http://x/")
        iri = interned.a
        assert interned == fresh and hash(interned) == hash(fresh)
        assert iri == fresh.term("a") and hash(iri) == hash(fresh.term("a"))

    def test_wellknown_vocabularies(self):
        assert RDF.type.value.endswith("#type")
        assert RDFS.subClassOf.value.endswith("#subClassOf")


class TestNamespaceManager:
    def test_defaults_bound(self):
        manager = NamespaceManager()
        assert "rdf" in manager
        assert "sc" in manager

    def test_expand(self):
        manager = NamespaceManager()
        assert manager.expand("sc:SportsTeam") == SC.SportsTeam

    def test_expand_unbound_prefix(self):
        with pytest.raises(KeyError):
            NamespaceManager().expand("nope:x")

    def test_expand_requires_colon(self):
        with pytest.raises(ValueError):
            NamespaceManager().expand("nocolon")

    def test_compact(self):
        manager = NamespaceManager()
        assert manager.compact(SC.SportsTeam) == "sc:SportsTeam"

    def test_compact_unknown_returns_none(self):
        manager = NamespaceManager(bind_defaults=False)
        assert manager.compact(IRI("http://unknown/x")) is None

    def test_compact_longest_match_wins(self):
        manager = NamespaceManager(bind_defaults=False)
        manager.bind("a", "http://x/")
        manager.bind("b", "http://x/sub/")
        assert manager.compact(IRI("http://x/sub/leaf")) == "b:leaf"

    def test_compact_never_ends_in_a_dot(self):
        # "sc:SportsTeam." would read back as sc:SportsTeam plus a
        # statement terminator; the full <...> form is written instead.
        manager = NamespaceManager()
        assert manager.compact(IRI("http://schema.org/SportsTeam.")) is None
        assert manager.compact(IRI("http://schema.org/.a")) is None
        assert manager.compact(IRI("http://schema.org/a.b")) == "sc:a.b"
        assert manager.compact(IRI("http://schema.org/a-")) == "sc:a-"
        graph = Graph()
        graph.add((SC["SportsTeam."], RDF.type, SC.Thing))
        assert "<http://schema.org/SportsTeam.>" in serialize_turtle(graph)
        assert set(parse_turtle(serialize_turtle(graph))) == set(graph)

    def test_compact_refuses_slash_in_local(self):
        manager = NamespaceManager(bind_defaults=False)
        manager.bind("a", "http://x/")
        assert manager.compact(IRI("http://x/deep/leaf")) is None

    def test_bind_accepts_namespace_iri_and_str(self):
        manager = NamespaceManager(bind_defaults=False)
        manager.bind("n1", Namespace("http://a/"))
        manager.bind("n2", IRI("http://b/"))
        manager.bind("n3", "http://c/")
        assert len(manager) == 3

    def test_bind_invalid_prefix(self):
        with pytest.raises(ValueError):
            NamespaceManager().bind("1bad", "http://x/")

    def test_bind_invalid_namespace_type(self):
        with pytest.raises(TypeError):
            NamespaceManager().bind("ok", 42)  # type: ignore[arg-type]

    def test_rebind_replaces(self):
        manager = NamespaceManager(bind_defaults=False)
        manager.bind("p", "http://a/")
        manager.bind("p", "http://b/")
        assert manager.expand("p:x") == IRI("http://b/x")

    def test_namespace_lookup(self):
        manager = NamespaceManager()
        ns = manager.namespace("sc")
        assert ns is not None and ns.base == "http://schema.org/"
        assert manager.namespace("nope") is None

    def test_prefixes_sorted(self):
        manager = NamespaceManager(bind_defaults=False)
        manager.bind("z", "http://z/")
        manager.bind("a", "http://a/")
        assert [p for p, _ in manager.prefixes()] == ["a", "z"]

    def test_copy_is_independent(self):
        manager = NamespaceManager()
        clone = manager.copy()
        clone.bind("extra", "http://extra/")
        assert "extra" in clone
        assert "extra" not in manager

    def test_a_changed_binding_takes_a_new_stamp(self):
        manager = NamespaceManager()
        clone = manager.copy()
        assert clone.stamp == manager.stamp
        stamp = manager.stamp
        manager.bind("sc", SC)  # bound already
        assert manager.stamp == stamp
        manager.bind("", "http://default.test/")  # Turtle's and SPARQL's ":"
        assert manager.expand(":x") == IRI("http://default.test/x")
        assert manager.stamp != stamp
        stamp = manager.stamp
        manager.bind("", "http://other.test/")
        assert manager.stamp not in (stamp, clone.stamp)

    def test_default_manager_has_ex(self):
        manager = default_namespace_manager()
        assert manager.expand("ex:Player") == EX.Player
