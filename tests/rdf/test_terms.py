"""Unit tests for the RDF term model."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.rdf.terms import (
    BNode,
    IRI,
    Literal,
    Quad,
    Triple,
    Variable,
    XSD_BOOLEAN,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    validate_triple,
)


class TestIRI:
    def test_value_roundtrip(self):
        iri = IRI("http://example.org/a")
        assert iri.value == "http://example.org/a"

    def test_equality_by_value(self):
        assert IRI("http://x/a") == IRI("http://x/a")

    def test_inequality(self):
        assert IRI("http://x/a") != IRI("http://x/b")

    def test_not_equal_to_string(self):
        assert IRI("http://x/a") != "http://x/a"

    def test_hash_consistent(self):
        assert hash(IRI("http://x/a")) == hash(IRI("http://x/a"))

    def test_usable_in_set(self):
        assert len({IRI("http://x/a"), IRI("http://x/a"), IRI("http://x/b")}) == 2

    def test_n3(self):
        assert IRI("http://x/a").n3() == "<http://x/a>"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            IRI("")

    @pytest.mark.parametrize("bad", ["http://x/<", "http://x/>", 'http://x/"', "a b"])
    def test_invalid_characters_rejected(self, bad):
        with pytest.raises(ValueError):
            IRI(bad)

    @pytest.mark.parametrize(
        "char",
        [chr(code) for code in range(0x21)]
        + list('<>"{}|^`\\')
        + ["\x85", "\xa0", "\u2028", "\u2029", "\u3000"],
    )
    def test_unreloadable_characters_rejected(self, char):
        # What the N-Triples IRIREF production excludes, and the Unicode
        # whitespace the TriG and N-Quads readers split on, could be
        # written to a snapshot but never parsed back.
        with pytest.raises(ValueError):
            IRI(f"http://x/a{char}b")

    @pytest.mark.parametrize("value", ["http://x/caf\u00e9", "http://x/Team%7Bv2%7D"])
    def test_non_ascii_and_percent_escapes_accepted(self, value):
        assert IRI(value).value == value

    def test_hash_matches_value_hash(self):
        assert hash(IRI("http://x/a")) == hash(("IRI", "http://x/a"))

    def test_pickle_rehashes_under_another_hash_seed(self):
        # Pickled under one PYTHONHASHSEED and loaded under another, the
        # IRI must hash like one built there: a hash stored at
        # construction is only valid in the process that computed it.
        src = str(Path(repro.__file__).resolve().parent.parent)

        def run(code, seed, data=b""):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            return subprocess.run(
                [sys.executable, "-c", code],
                input=data,
                capture_output=True,
                env=env,
                check=True,
                timeout=60,
            ).stdout

        pickled = run(
            "import pickle, sys\n"
            "from repro.rdf.terms import IRI\n"
            "sys.stdout.buffer.write(pickle.dumps(IRI('http://x/a')))\n",
            seed=1,
        )
        verdict = run(
            "import pickle, sys\n"
            "from repro.rdf.terms import IRI\n"
            "loaded = pickle.loads(sys.stdin.buffer.read())\n"
            "print(loaded == IRI('http://x/a'), loaded in {IRI('http://x/a')})\n",
            seed=2,
            data=pickled,
        )
        assert verdict.split() == [b"True", b"True"]

    def test_non_string_rejected(self):
        with pytest.raises(TypeError):
            IRI(42)  # type: ignore[arg-type]

    def test_local_name_after_hash(self):
        assert IRI("http://x/ns#Team").local_name() == "Team"

    def test_local_name_after_slash(self):
        assert IRI("http://x/ns/Team").local_name() == "Team"

    def test_local_name_prefers_hash(self):
        assert IRI("http://x/path#local").local_name() == "local"

    def test_is_concrete(self):
        assert IRI("http://x/a").is_concrete


class TestBNode:
    def test_fresh_labels_unique(self):
        assert BNode() != BNode()

    def test_explicit_label(self):
        assert BNode("b0").label == "b0"

    def test_equality_by_label(self):
        assert BNode("x") == BNode("x")

    def test_n3(self):
        assert BNode("b1").n3() == "_:b1"

    def test_invalid_label_rejected(self):
        with pytest.raises(ValueError):
            BNode("has space")

    def test_label_cannot_be_nonstring(self):
        with pytest.raises(TypeError):
            BNode(5)  # type: ignore[arg-type]

    def test_is_concrete(self):
        assert BNode().is_concrete


class TestLiteral:
    def test_plain_string(self):
        lit = Literal("hello")
        assert lit.lexical == "hello"
        assert lit.datatype == XSD_STRING
        assert lit.language is None

    def test_integer_inference(self):
        assert Literal(42).datatype == XSD_INTEGER

    def test_float_inference(self):
        assert Literal(1.5).datatype == XSD_DOUBLE

    def test_bool_inference_before_int(self):
        assert Literal(True).datatype == XSD_BOOLEAN
        assert Literal(True).lexical == "true"

    def test_language_tag(self):
        lit = Literal("hola", lang="ES")
        assert lit.language == "es"  # lowercased

    def test_lang_and_datatype_conflict(self):
        with pytest.raises(ValueError):
            Literal("x", datatype=XSD_STRING, lang="en")

    def test_invalid_lang_rejected(self):
        with pytest.raises(ValueError):
            Literal("x", lang="not a lang!")

    def test_to_python_int(self):
        assert Literal("7", datatype=XSD_INTEGER).to_python() == 7

    def test_to_python_float(self):
        assert Literal("1.5", datatype=XSD_DOUBLE).to_python() == 1.5

    def test_to_python_bool(self):
        assert Literal("true", datatype=XSD_BOOLEAN).to_python() is True
        assert Literal("0", datatype=XSD_BOOLEAN).to_python() is False

    def test_to_python_ill_typed_degrades(self):
        assert Literal("abc", datatype=XSD_INTEGER).to_python() == "abc"

    def test_is_numeric(self):
        assert Literal(3).is_numeric
        assert not Literal("3").is_numeric

    def test_equality_includes_datatype(self):
        assert Literal("5", datatype=XSD_INTEGER) != Literal("5")

    def test_equality_includes_language(self):
        assert Literal("a", lang="en") != Literal("a", lang="fr")

    def test_n3_plain(self):
        assert Literal("hi").n3() == '"hi"'

    def test_n3_language(self):
        assert Literal("hi", lang="en").n3() == '"hi"@en'

    def test_n3_typed(self):
        assert Literal(5).n3() == f'"5"^^<{XSD_INTEGER}>'

    def test_n3_escapes(self):
        assert Literal('a"b\nc\\d').n3() == '"a\\"b\\nc\\\\d"'

    def test_datatype_iri_accepted(self):
        lit = Literal("5", datatype=IRI(XSD_INTEGER))
        assert lit.datatype == XSD_INTEGER

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            Literal([1, 2])  # type: ignore[arg-type]

    def test_str_returns_lexical(self):
        assert str(Literal("x")) == "x"


class TestVariable:
    def test_strip_question_mark(self):
        assert Variable("?name").name == "name"

    def test_strip_dollar(self):
        assert Variable("$name").name == "name"

    def test_plain_name(self):
        assert Variable("x").name == "x"

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            Variable("1bad")

    def test_not_concrete(self):
        assert not Variable("x").is_concrete

    def test_n3(self):
        assert Variable("x").n3() == "?x"

    def test_equality(self):
        assert Variable("?x") == Variable("x")


class TestTriple:
    def test_unpacking(self):
        s, p, o = Triple(IRI("http://x/s"), IRI("http://x/p"), Literal("o"))
        assert s == IRI("http://x/s")
        assert o == Literal("o")

    def test_n3(self):
        t = Triple(IRI("http://x/s"), IRI("http://x/p"), Literal("o"))
        assert t.n3() == '<http://x/s> <http://x/p> "o" .'

    def test_is_concrete(self):
        t = Triple(IRI("http://x/s"), IRI("http://x/p"), Literal("o"))
        assert t.is_concrete()

    def test_not_concrete_with_variable(self):
        t = Triple(Variable("s"), IRI("http://x/p"), Literal("o"))
        assert not t.is_concrete()

    def test_variables(self):
        t = Triple(Variable("s"), IRI("http://x/p"), Variable("o"))
        assert t.variables() == {Variable("s"), Variable("o")}


class TestQuad:
    def test_triple_view(self):
        q = Quad(IRI("http://x/s"), IRI("http://x/p"), Literal("o"), IRI("http://x/g"))
        assert q.triple == Triple(IRI("http://x/s"), IRI("http://x/p"), Literal("o"))

    def test_n3_with_graph(self):
        q = Quad(IRI("http://x/s"), IRI("http://x/p"), Literal("o"), IRI("http://x/g"))
        assert q.n3().endswith("<http://x/g> .")

    def test_n3_default_graph(self):
        q = Quad(IRI("http://x/s"), IRI("http://x/p"), Literal("o"), None)
        assert "<http://x/g>" not in q.n3()
        assert q.n3().endswith('"o" .')


class TestValidateTriple:
    def test_valid(self):
        t = validate_triple(IRI("http://x/s"), IRI("http://x/p"), Literal("o"))
        assert isinstance(t, Triple)

    def test_bnode_subject_allowed(self):
        validate_triple(BNode(), IRI("http://x/p"), Literal("o"))

    def test_literal_subject_rejected(self):
        with pytest.raises(TypeError):
            validate_triple(Literal("s"), IRI("http://x/p"), Literal("o"))

    def test_bnode_predicate_rejected(self):
        with pytest.raises(TypeError):
            validate_triple(IRI("http://x/s"), BNode(), Literal("o"))

    def test_variable_object_rejected(self):
        with pytest.raises(TypeError):
            validate_triple(IRI("http://x/s"), IRI("http://x/p"), Variable("o"))


class TestOrdering:
    def test_total_order_across_types(self):
        terms = [Literal("z"), IRI("http://x/a"), BNode("a"), Variable("v")]
        ordered = sorted(terms)
        assert isinstance(ordered[0], BNode)
        assert isinstance(ordered[1], IRI)
        assert isinstance(ordered[2], Literal)
        assert isinstance(ordered[3], Variable)

    def test_iris_sorted_by_value(self):
        assert IRI("http://x/a") < IRI("http://x/b")
