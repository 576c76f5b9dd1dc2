"""Edge-case tests across substrates that the main suites don't reach."""

import warnings

import pytest

from repro.rdf.dataset import Dataset
from repro.rdf.graph import Graph
from repro.rdf.namespaces import EX, XSD
from repro.rdf.terms import Literal
from repro.sparql.evaluator import evaluate_text
from repro.sparql.functions import ExpressionError


class TestSparqlEdgeCases:
    @pytest.fixture
    def dataset(self):
        ds = Dataset()
        g = ds.default_graph
        g.add((EX.a, EX.score, Literal(3)))
        g.add((EX.b, EX.score, Literal(1)))
        g.add((EX.c, EX.score, Literal(2)))
        g.add((EX.a, EX.tag, Literal("x")))
        g.add((EX.b, EX.tag, Literal("x")))
        g.add((EX.c, EX.tag, Literal("y")))
        ds.graph(EX.g1).add((EX.a, EX.inGraph, Literal(1)))
        ds.graph(EX.g2).add((EX.b, EX.inGraph, Literal(2)))
        return ds

    def test_graph_with_prebound_variable(self, dataset):
        result = evaluate_text(
            "PREFIX ex: <http://www.essi.upc.edu/example/>\n"
            "SELECT ?s WHERE { VALUES ?g { ex:g1 } GRAPH ?g { ?s ex:inGraph ?v } }",
            dataset,
        )
        assert result.to_python_rows() == [(EX.a.value,)]

    def test_graph_with_prebound_missing_graph(self, dataset):
        result = evaluate_text(
            "PREFIX ex: <http://www.essi.upc.edu/example/>\n"
            "SELECT ?s WHERE { VALUES ?g { ex:nope } GRAPH ?g { ?s ex:inGraph ?v } }",
            dataset,
        )
        assert len(result) == 0

    def test_order_by_mixed_directions(self, dataset):
        result = evaluate_text(
            "PREFIX ex: <http://www.essi.upc.edu/example/>\n"
            "SELECT ?t ?v WHERE { ?s ex:tag ?t ; ex:score ?v } "
            "ORDER BY ?t DESC(?v)",
            dataset,
        )
        assert result.to_python_rows() == [("x", 3), ("x", 1), ("y", 2)]

    def test_bind_rebinding_is_error(self, dataset):
        from repro.sparql.parser import parse_query
        from repro.sparql.evaluator import QueryEvaluator

        query = parse_query(
            "PREFIX ex: <http://www.essi.upc.edu/example/>\n"
            "SELECT ?v WHERE { ?s ex:score ?v BIND(1 AS ?v) }"
        )
        with pytest.raises(ExpressionError):
            QueryEvaluator(dataset).run(query)

    def test_bind_error_leaves_unbound(self, dataset):
        result = evaluate_text(
            "PREFIX ex: <http://www.essi.upc.edu/example/>\n"
            "SELECT ?s ?bad WHERE { ?s ex:tag ?t BIND(?t / 0 AS ?bad) }",
            dataset,
        )
        assert len(result) == 3
        assert all(row[1] is None for row in result.rows())

    def test_values_with_incompatible_prebinding(self, dataset):
        result = evaluate_text(
            "PREFIX ex: <http://www.essi.upc.edu/example/>\n"
            'SELECT ?t WHERE { ?s ex:tag ?t . VALUES ?t { "zzz" } }',
            dataset,
        )
        assert len(result) == 0

    def test_nested_optional_inside_group(self, dataset):
        result = evaluate_text(
            "PREFIX ex: <http://www.essi.upc.edu/example/>\n"
            "SELECT ?s ?v WHERE { ?s ex:tag ?t "
            "OPTIONAL { ?s ex:inGraph ?v } }",
            dataset,
        )
        # inGraph lives only in named graphs -> all unbound in default scope
        assert all(row[1] is None for row in result.rows())


class TestTurtleSerializationEdges:
    def test_datatype_compacted_with_prefix(self):
        from repro.rdf.turtle import serialize_turtle

        g = Graph()
        g.add((EX.a, EX.when, Literal("2018-03-26", datatype=XSD.base + "date")))
        text = serialize_turtle(g)
        assert "^^xsd:date" in text

    def test_plain_shorthand_only_for_valid_lexicals(self):
        from repro.rdf.turtle import parse_turtle, serialize_turtle

        # An integer-typed literal with an invalid lexical must keep quotes.
        g = Graph()
        g.add((EX.a, EX.n, Literal("not-a-number", datatype=XSD.base + "integer")))
        text = serialize_turtle(g)
        assert '"not-a-number"' in text
        assert parse_turtle(text) == g

    def test_bnode_subject_serialized(self):
        from repro.rdf.terms import BNode
        from repro.rdf.turtle import parse_turtle, serialize_turtle

        g = Graph()
        g.add((BNode("n1"), EX.p, Literal("v")))
        assert parse_turtle(serialize_turtle(g)) == g


class TestRestApiEdges:
    def test_per_page_override(self):
        from repro.sources.restapi import Endpoint, MockRestServer
        from repro.sources.formats import decode_json

        server = MockRestServer()
        server.register(
            Endpoint("p", 1, "json", lambda: [{"id": i} for i in range(9)])
        )
        response = server.get("/v1/p", {"per_page": "4", "page": "3"})
        assert len(decode_json(response.body)) == 1

    def test_filter_combined_with_pagination(self):
        from repro.sources.restapi import Endpoint, MockRestServer
        from repro.sources.formats import decode_json

        server = MockRestServer()
        server.register(
            Endpoint(
                "p", 1, "json",
                lambda: [{"id": i, "k": i % 2} for i in range(10)],
                page_size=3,
            )
        )
        response = server.get("/v1/p", {"k": "0", "page": "2"})
        records = decode_json(response.body)
        assert [r["id"] for r in records] == [6, 8]

    def test_get_all_pages_stops_on_error(self):
        from repro.sources.restapi import Endpoint, MockRestServer

        server = MockRestServer()
        server.register(
            Endpoint("p", 1, "json", lambda: [{"id": 1}], page_size=1)
        )
        server.retire("p", 1)
        responses = server.get_all_pages("/v1/p")
        assert len(responses) == 1 and responses[0].status == 410


class TestCliSparqlFile:
    QUERY = (
        "PREFIX ex: <http://www.essi.upc.edu/example/>\n"
        "SELECT ?playerName WHERE { ?p rdf:type ex:Player . "
        "?p ex:playerName ?playerName }"
    )

    def test_query_from_file(self, tmp_path, capsys):
        from repro.cli import main

        sparql_file = tmp_path / "q.rq"
        sparql_file.write_text(self.QUERY)
        assert main(["query", "--sparql-file", str(sparql_file)]) == 0
        assert "Lionel Messi" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["query", "trace"])
    def test_sparql_file_is_closed(self, tmp_path, capsys, command):
        from repro.cli import main

        sparql_file = tmp_path / "q.rq"
        sparql_file.write_text(self.QUERY, encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert main([command, "--sparql-file", str(sparql_file)]) == 0
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
        assert "playerName" in capsys.readouterr().out


class TestCliProposeFile:
    def test_propose_file_matches_retire_and_is_closed(self, tmp_path, capsys):
        from repro.cli import main

        proposal = tmp_path / "retire.json"
        proposal.write_text('{"retire": "w1"}', encoding="utf-8")
        expected = main(["impact", "--scenario", "football", "--retire", "w1"])
        expected_out = capsys.readouterr().out
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            code = main(
                ["impact", "--scenario", "football", "--propose-file", str(proposal)]
            )
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
        assert code == expected
        assert capsys.readouterr().out == expected_out


class TestDocstoreSortEdge:
    """``find(sort=…)`` needs the field, comparable, in every match."""

    def test_sort_missing_field_first(self):
        from repro.docstore.store import Collection

        c = Collection("x")
        for document in ({"v": 2}, {"other": True}, {"v": 1}):
            c.insert_one(document)
        with pytest.raises(KeyError):
            c.find(sort="v")

    def test_sort_mixed_types(self):
        from repro.docstore.store import Collection

        c = Collection("x")
        for document in ({"v": "abc"}, {"v": 5}):
            c.insert_one(document)
        with pytest.raises(TypeError):
            c.find(sort="v")
