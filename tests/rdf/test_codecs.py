"""Unit tests for the N-Triples, N-Quads, Turtle and TriG codecs."""

import pytest

from repro.rdf.dataset import Dataset
from repro.rdf.graph import Graph
from repro.rdf.namespaces import EX, RDF, SC, XSD
from repro.rdf.ntriples import (
    NTriplesParseError,
    parse_nquads,
    parse_ntriples,
    serialize_nquads,
    serialize_ntriples,
    unescape_string,
)
from repro.rdf.terms import BNode, IRI, Literal
from repro.rdf.trig import parse_trig, serialize_trig
from repro.rdf.turtle import TurtleParseError, parse_turtle, serialize_turtle


class TestNTriples:
    def test_roundtrip(self):
        g = Graph()
        g.add((EX.s, EX.p, Literal("hello")))
        g.add((EX.s, RDF.type, EX.Thing))
        g.add((BNode("b0"), EX.p, Literal(5)))
        assert parse_ntriples(serialize_ntriples(iter(g))) == g

    def test_output_sorted(self):
        g = Graph()
        g.add((EX.z, EX.p, EX.o))
        g.add((EX.a, EX.p, EX.o))
        lines = serialize_ntriples(iter(g)).splitlines()
        assert lines == sorted(lines)

    def test_comments_and_blanks_skipped(self):
        text = "# comment\n\n<http://x/s> <http://x/p> \"v\" .\n"
        g = parse_ntriples(text)
        assert len(g) == 1

    def test_language_literal(self):
        g = parse_ntriples('<http://x/s> <http://x/p> "hola"@es .')
        assert list(g)[0].object == Literal("hola", lang="es")

    def test_typed_literal(self):
        text = f'<http://x/s> <http://x/p> "5"^^<{XSD.base}integer> .'
        g = parse_ntriples(text)
        assert list(g)[0].object == Literal(5)

    def test_escaped_literal(self):
        g = parse_ntriples('<http://x/s> <http://x/p> "a\\"b\\nc" .')
        assert list(g)[0].object.lexical == 'a"b\nc'

    def test_unicode_escape(self):
        g = parse_ntriples('<http://x/s> <http://x/p> "\\u00e9" .')
        assert list(g)[0].object.lexical == "é"

    def test_error_carries_line_number(self):
        with pytest.raises(NTriplesParseError) as exc:
            parse_ntriples("ok line is a comment\n")
        assert exc.value.line_number == 1

    def test_missing_dot_rejected(self):
        with pytest.raises(NTriplesParseError):
            parse_ntriples('<http://x/s> <http://x/p> "v"')

    def test_too_few_terms_rejected(self):
        with pytest.raises(NTriplesParseError):
            parse_ntriples("<http://x/s> <http://x/p> .")

    def test_content_after_dot_rejected(self):
        with pytest.raises(NTriplesParseError):
            parse_ntriples('<http://x/s> <http://x/p> "v" . extra')

    def test_trailing_comment_after_dot_ok(self):
        g = parse_ntriples('<http://x/s> <http://x/p> "v" . # fine')
        assert len(g) == 1

    def test_unescape_rejects_dangling_backslash(self):
        with pytest.raises(ValueError):
            unescape_string("abc\\")

    def test_unescape_rejects_unknown_escape(self):
        with pytest.raises(ValueError):
            unescape_string("\\q")


class TestNQuads:
    def test_roundtrip(self):
        ds = Dataset()
        ds.default_graph.add((EX.a, EX.p, Literal("x")))
        ds.graph(EX.g).add((EX.b, EX.p, Literal(2)))
        restored = parse_nquads(serialize_nquads(ds.quads()))
        assert restored.default_graph == ds.default_graph
        assert restored.graph(EX.g) == ds.graph(EX.g)

    def test_triple_line_goes_to_default(self):
        ds = parse_nquads('<http://x/s> <http://x/p> "v" .')
        assert len(ds.default_graph) == 1

    def test_graph_label_must_be_iri(self):
        with pytest.raises(NTriplesParseError):
            parse_nquads('<http://x/s> <http://x/p> "v" "notagraph" .')


class TestTurtle:
    def test_prefix_expansion(self):
        g = parse_turtle(
            "@prefix ex: <http://www.essi.upc.edu/example/> .\n"
            "ex:a ex:p ex:b ."
        )
        assert (EX.a, EX.p, EX.b) in g

    def test_sparql_style_prefix(self):
        g = parse_turtle(
            "PREFIX ex: <http://www.essi.upc.edu/example/>\nex:a ex:p ex:b ."
        )
        assert (EX.a, EX.p, EX.b) in g

    def test_a_keyword(self):
        g = parse_turtle(
            "@prefix ex: <http://www.essi.upc.edu/example/> .\nex:a a ex:T ."
        )
        assert (EX.a, RDF.type, EX.T) in g

    def test_semicolon_groups(self):
        g = parse_turtle(
            "@prefix ex: <http://e/> .\nex:a ex:p ex:b ; ex:q ex:c ."
        )
        assert len(g) == 2

    def test_comma_object_lists(self):
        g = parse_turtle("@prefix ex: <http://e/> .\nex:a ex:p ex:b, ex:c, ex:d .")
        assert len(g) == 3

    def test_trailing_semicolon_tolerated(self):
        g = parse_turtle("@prefix ex: <http://e/> .\nex:a ex:p ex:b ; .")
        assert len(g) == 1

    def test_numeric_shorthand(self):
        g = parse_turtle("@prefix ex: <http://e/> .\nex:a ex:p 42, 3.25, 1.0e2 .")
        objs = set(g.objects(IRI("http://e/a"), IRI("http://e/p")))
        lexicals = {o.lexical for o in objs}
        assert lexicals == {"42", "3.25", "1.0e2"}

    def test_boolean_shorthand(self):
        g = parse_turtle("@prefix ex: <http://e/> .\nex:a ex:p true, false .")
        assert len(g) == 2

    def test_language_and_datatype(self):
        g = parse_turtle(
            "@prefix ex: <http://e/> .\n@prefix xsd: "
            "<http://www.w3.org/2001/XMLSchema#> .\n"
            'ex:a ex:p "hola"@es, "5"^^xsd:integer .'
        )
        objs = set(g.objects(IRI("http://e/a"), IRI("http://e/p")))
        assert Literal("hola", lang="es") in objs
        assert Literal(5) in objs

    def test_long_string(self):
        g = parse_turtle('@prefix ex: <http://e/> .\nex:a ex:p """multi\nline""" .')
        obj = next(iter(g)).object
        assert obj.lexical == "multi\nline"

    def test_anonymous_bnode(self):
        g = parse_turtle(
            "@prefix ex: <http://e/> .\nex:a ex:p [ ex:q ex:b ] ."
        )
        assert len(g) == 2
        bnodes = [t.object for t in g.triples((IRI("http://e/a"), None, None))]
        assert isinstance(bnodes[0], BNode)

    def test_empty_anonymous_bnode(self):
        g = parse_turtle("@prefix ex: <http://e/> .\nex:a ex:p [] .")
        assert len(g) == 1

    def test_collection(self):
        g = parse_turtle("@prefix ex: <http://e/> .\nex:a ex:p (ex:x ex:y) .")
        firsts = list(g.triples((None, RDF.first, None)))
        assert len(firsts) == 2
        assert g.count((None, RDF.rest, RDF.nil)) == 1

    def test_empty_collection_is_nil(self):
        g = parse_turtle("@prefix ex: <http://e/> .\nex:a ex:p () .")
        assert (IRI("http://e/a"), IRI("http://e/p"), RDF.nil) in g

    def test_base_resolution(self):
        g = parse_turtle("@base <http://base/> .\n<s> <p> <o> .")
        assert (IRI("http://base/s"), IRI("http://base/p"), IRI("http://base/o")) in g

    def test_unbound_prefix_rejected(self):
        with pytest.raises(TurtleParseError):
            parse_turtle("nope:a nope:b nope:c .")

    def test_literal_predicate_rejected(self):
        with pytest.raises(TurtleParseError):
            parse_turtle('@prefix ex: <http://e/> .\nex:a "p" ex:b .')

    def test_error_position(self):
        with pytest.raises(TurtleParseError) as exc:
            parse_turtle("@prefix ex: <http://e/> .\n???")
        assert exc.value.line == 2

    def test_serialize_roundtrip(self):
        g = Graph()
        g.namespaces.bind("ex", EX)
        g.add((EX.a, RDF.type, SC.SportsTeam))
        g.add((EX.a, SC.name, Literal("FCB")))
        g.add((EX.a, EX.score, Literal(94)))
        g.add((EX.a, EX.height, Literal(170.18)))
        g.add((EX.a, EX.note, Literal("café", lang="fr")))
        assert parse_turtle(serialize_turtle(g)) == g

    def test_serialize_lexical_containing_datatype_marker(self):
        g = Graph()
        g.add((EX.a, EX.p, Literal("^^<")))
        g.add((EX.a, EX.p, Literal("^^<", lang="en")))
        g.add((EX.a, EX.p, Literal("x^^<y", datatype=XSD.date)))
        text = serialize_turtle(g)
        assert '"x^^<y"^^xsd:date' in text
        assert parse_turtle(text) == g

    def test_serialize_groups_subjects(self):
        g = Graph()
        g.namespaces.bind("ex", EX)
        g.add((EX.a, EX.p, EX.b))
        g.add((EX.a, EX.q, EX.c))
        text = serialize_turtle(g)
        assert text.count("ex:a") == 1  # subject emitted once
        assert ";" in text

    def test_serialize_type_first(self):
        g = Graph()
        g.namespaces.bind("ex", EX)
        g.add((EX.a, EX.zzz, EX.b))
        g.add((EX.a, RDF.type, EX.T))
        text = serialize_turtle(g)
        assert text.index(" a ") < text.index("ex:zzz")

    def test_serialize_only_used_prefixes(self):
        g = Graph()
        g.namespaces.bind("ex", EX)
        g.add((EX.a, EX.p, EX.b))
        text = serialize_turtle(g)
        assert "@prefix ex:" in text
        assert "@prefix sc:" not in text

    def test_empty_graph_serializes_empty(self):
        assert serialize_turtle(Graph()) == ""


class TestTriG:
    def test_roundtrip(self):
        ds = Dataset()
        ds.namespaces.bind("ex", EX)
        ds.default_graph.add((EX.a, EX.p, Literal("x")))
        ds.graph(EX.w1).add((EX.c, EX.q, Literal(7)))
        ds.graph(EX.w2).add((EX.d, EX.q, EX.e))
        restored = parse_trig(serialize_trig(ds))
        assert restored.default_graph == ds.default_graph
        assert restored.graph(EX.w1) == ds.graph(EX.w1)
        assert restored.graph(EX.w2) == ds.graph(EX.w2)

    def test_graph_keyword(self):
        ds = parse_trig(
            "@prefix ex: <http://e/> .\nGRAPH ex:g { ex:a ex:p ex:b . }"
        )
        assert (IRI("http://e/a"), IRI("http://e/p"), IRI("http://e/b")) in ds.graph(
            IRI("http://e/g")
        )

    def test_bare_graph_block(self):
        ds = parse_trig("<http://e/g> { <http://e/a> <http://e/p> <http://e/b> . }")
        assert len(ds.graph(IRI("http://e/g"))) == 1

    def test_default_statements_mix(self):
        ds = parse_trig(
            "@prefix ex: <http://e/> .\n"
            "ex:x ex:p ex:y .\n"
            "ex:g { ex:a ex:p ex:b . }\n"
            "ex:z ex:p ex:w ."
        )
        assert len(ds.default_graph) == 2
        assert len(ds.graph(IRI("http://e/g"))) == 1

    def test_graph_name_must_be_iri(self):
        with pytest.raises(TurtleParseError):
            parse_trig('"literal" { <http://e/a> <http://e/p> <http://e/b> . }')

    def test_empty_dataset_serializes_empty(self):
        assert serialize_trig(Dataset()).strip().startswith("@prefix")
