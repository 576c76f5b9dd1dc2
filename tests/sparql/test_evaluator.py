"""Unit tests for SPARQL evaluation over datasets."""

import pytest

from repro.rdf.dataset import Dataset
from repro.rdf.graph import Graph
from repro.rdf.namespaces import EX, RDF, SC
from repro.rdf.terms import Literal
from repro.sparql.evaluator import evaluate_text


@pytest.fixture
def dataset():
    ds = Dataset()
    g = ds.default_graph
    players = [
        (EX.messi, "Lionel Messi", 170.18, EX.barca),
        (EX.lewa, "Robert Lewandowski", 184.0, EX.bayern),
        (EX.zlatan, "Zlatan Ibrahimovic", 195.0, EX.manutd),
    ]
    for iri, name, height, team in players:
        g.add((iri, RDF.type, EX.Player))
        g.add((iri, SC.name, Literal(name)))
        g.add((iri, EX.height, Literal(height)))
        g.add((iri, EX.playsFor, team))
    for team, name in [
        (EX.barca, "FC Barcelona"),
        (EX.bayern, "Bayern Munich"),
        (EX.manutd, "Manchester United"),
    ]:
        g.add((team, RDF.type, SC.SportsTeam))
        g.add((team, SC.name, Literal(name)))
    ds.graph(EX.meta).add((EX.messi, EX.rating, Literal(94)))
    return ds


def q(text, dataset, **kwargs):
    return evaluate_text(
        "PREFIX ex: <http://www.essi.upc.edu/example/>\n"
        "PREFIX sc: <http://schema.org/>\n" + text,
        dataset,
        **kwargs,
    )


class TestBasicSelect:
    def test_single_pattern(self, dataset):
        result = q("SELECT ?n WHERE { ?p a ex:Player . ?p sc:name ?n }", dataset)
        assert len(result) == 3

    def test_join_across_patterns(self, dataset):
        result = q(
            "SELECT ?pn ?tn WHERE { ?p a ex:Player ; sc:name ?pn ; ex:playsFor ?t ."
            " ?t sc:name ?tn }",
            dataset,
        )
        rows = set(result.to_python_rows())
        assert ("Lionel Messi", "FC Barcelona") in rows
        assert len(rows) == 3

    def test_no_match_empty(self, dataset):
        result = q("SELECT ?x WHERE { ?x a ex:Referee }", dataset)
        assert len(result) == 0

    def test_concrete_triple_acts_as_guard(self, dataset):
        result = q(
            'SELECT ?n WHERE { ex:messi sc:name "Lionel Messi" . '
            "ex:lewa sc:name ?n }",
            dataset,
        )
        assert result.to_python_rows() == [("Robert Lewandowski",)]

    def test_select_star_collects_vars(self, dataset):
        result = q("SELECT * WHERE { ?p ex:height ?h }", dataset)
        assert {v.name for v in result.variables} == {"p", "h"}

    def test_variable_predicate(self, dataset):
        result = q("SELECT ?prop WHERE { ex:messi ?prop ?val }", dataset)
        assert len(result) == 4

    def test_shared_variable_in_subject_object(self, dataset):
        dataset.default_graph.add((EX.selfref, EX.playsFor, EX.selfref))
        result = q("SELECT ?x WHERE { ?x ex:playsFor ?x }", dataset)
        assert result.to_python_rows() == [(EX.selfref.value,)]


class TestFilters:
    def test_numeric_filter(self, dataset):
        result = q(
            "SELECT ?n WHERE { ?p sc:name ?n ; ex:height ?h FILTER(?h > 180) }",
            dataset,
        )
        assert len(result) == 2

    def test_regex_filter(self, dataset):
        result = q(
            'SELECT ?n WHERE { ?p a ex:Player ; sc:name ?n FILTER(REGEX(?n, "^L")) }',
            dataset,
        )
        assert result.to_python_rows() == [("Lionel Messi",)]

    def test_filter_error_is_false(self, dataset):
        # ?t is an IRI — comparing to a number errors, filter drops row.
        result = q(
            "SELECT ?p WHERE { ?p ex:playsFor ?t FILTER(?t > 5) }", dataset
        )
        assert len(result) == 0

    def test_bound_filter(self, dataset):
        result = q(
            "SELECT ?p WHERE { ?p a ex:Player OPTIONAL { ?p ex:nickname ?nick } "
            "FILTER(!BOUND(?nick)) }",
            dataset,
        )
        assert len(result) == 3

    def test_exists_filter(self, dataset):
        result = q(
            "SELECT ?t WHERE { ?t a sc:SportsTeam "
            "FILTER(EXISTS { ?p ex:playsFor ?t }) }",
            dataset,
        )
        assert len(result) == 3

    def test_not_exists_filter(self, dataset):
        dataset.default_graph.add((EX.ghostteam, RDF.type, SC.SportsTeam))
        result = q(
            "SELECT ?t WHERE { ?t a sc:SportsTeam "
            "FILTER(NOT EXISTS { ?p ex:playsFor ?t }) }",
            dataset,
        )
        assert result.to_python_rows() == [(EX.ghostteam.value,)]


class TestOptional:
    def test_optional_binds_when_present(self, dataset):
        dataset.default_graph.add((EX.messi, EX.nickname, Literal("Leo")))
        result = q(
            "SELECT ?n ?nick WHERE { ?p sc:name ?n ; a ex:Player "
            "OPTIONAL { ?p ex:nickname ?nick } }",
            dataset,
        )
        by_name = {row[0]: row[1] for row in result.to_python_rows()}
        assert by_name["Lionel Messi"] == "Leo"
        assert by_name["Robert Lewandowski"] is None

    def test_optional_keeps_row_when_absent(self, dataset):
        result = q(
            "SELECT ?p WHERE { ?p a ex:Player OPTIONAL { ?p ex:missing ?m } }",
            dataset,
        )
        assert len(result) == 3


class TestUnionMinusValues:
    def test_union(self, dataset):
        result = q(
            "SELECT ?x WHERE { { ?x a ex:Player } UNION { ?x a sc:SportsTeam } }",
            dataset,
        )
        assert len(result) == 6

    def test_minus(self, dataset):
        result = q(
            "SELECT ?x WHERE { ?x a ex:Player MINUS { ?x sc:name \"Lionel Messi\" } }",
            dataset,
        )
        assert len(result) == 2

    def test_minus_no_shared_vars_keeps_all(self, dataset):
        result = q(
            "SELECT ?x WHERE { ?x a ex:Player MINUS { ?y a sc:SportsTeam } }",
            dataset,
        )
        assert len(result) == 3

    def test_values_restricts(self, dataset):
        result = q(
            "SELECT ?n WHERE { VALUES ?p { ex:messi ex:lewa } ?p sc:name ?n }",
            dataset,
        )
        assert len(result) == 2

    def test_values_join_after_patterns(self, dataset):
        result = q(
            "SELECT ?n WHERE { ?p sc:name ?n . VALUES ?p { ex:messi } }",
            dataset,
        )
        assert result.to_python_rows() == [("Lionel Messi",)]

    def test_bind(self, dataset):
        result = q(
            "SELECT ?cm WHERE { ex:messi ex:height ?h BIND(?h / 100 AS ?cm) }",
            dataset,
        )
        assert result.to_python_rows() == [(1.7018,)]


class TestGraphClause:
    def test_named_graph_lookup(self, dataset):
        result = q("SELECT ?r WHERE { GRAPH ex:meta { ?p ex:rating ?r } }", dataset)
        assert result.to_python_rows() == [(94,)]

    def test_graph_variable_binds_name(self, dataset):
        result = q("SELECT ?g WHERE { GRAPH ?g { ?p ex:rating ?r } }", dataset)
        assert result.to_python_rows() == [(EX.meta.value,)]

    def test_default_scope_excludes_named(self, dataset):
        result = q("SELECT ?r WHERE { ?p ex:rating ?r }", dataset)
        assert len(result) == 0

    def test_union_default_includes_named(self, dataset):
        result = q("SELECT ?r WHERE { ?p ex:rating ?r }", dataset, union_default=True)
        assert len(result) == 1

    def test_missing_graph_is_empty(self, dataset):
        result = q("SELECT ?s WHERE { GRAPH ex:nope { ?s ?p ?o } }", dataset)
        assert len(result) == 0


class TestModifiers:
    def test_distinct(self, dataset):
        result = q("SELECT DISTINCT ?t WHERE { ?p ex:playsFor ?t . ?p a ex:Player }", dataset)
        assert len(result) == 3

    def test_order_by_asc(self, dataset):
        result = q("SELECT ?h WHERE { ?p ex:height ?h } ORDER BY ?h", dataset)
        heights = [row[0] for row in result.to_python_rows()]
        assert heights == sorted(heights)

    def test_order_by_desc(self, dataset):
        result = q("SELECT ?h WHERE { ?p ex:height ?h } ORDER BY DESC(?h)", dataset)
        heights = [row[0] for row in result.to_python_rows()]
        assert heights == sorted(heights, reverse=True)

    def test_limit_offset(self, dataset):
        all_rows = q("SELECT ?h WHERE { ?p ex:height ?h } ORDER BY ?h", dataset)
        page = q(
            "SELECT ?h WHERE { ?p ex:height ?h } ORDER BY ?h LIMIT 1 OFFSET 1",
            dataset,
        )
        assert page.to_python_rows() == [all_rows.to_python_rows()[1]]


class TestAskConstruct:
    def test_ask_true(self, dataset):
        assert q("ASK { ex:messi a ex:Player }", dataset) is True

    def test_ask_false(self, dataset):
        assert q("ASK { ex:messi a sc:SportsTeam }", dataset) is False

    def test_construct(self, dataset):
        graph = q(
            "CONSTRUCT { ?p ex:tall true } WHERE { ?p ex:height ?h FILTER(?h > 180) }",
            dataset,
        )
        assert isinstance(graph, Graph)
        assert len(graph) == 2

    def test_construct_skips_unbound(self, dataset):
        graph = q(
            "CONSTRUCT { ?p ex:nick ?nick } WHERE "
            "{ ?p a ex:Player OPTIONAL { ?p ex:nickname ?nick } }",
            dataset,
        )
        assert len(graph) == 0

    def test_construct_fresh_bnodes_per_solution(self, dataset):
        graph = q(
            "CONSTRUCT { _:x ex:about ?p } WHERE { ?p a ex:Player }", dataset
        )
        subjects = {t.subject for t in graph}
        assert len(subjects) == 3


class TestResults:
    def test_table_rendering(self, dataset):
        result = q("SELECT ?n WHERE { ?p a ex:Player ; sc:name ?n }", dataset)
        table = result.to_table()
        assert "?n" in table
        assert "Lionel Messi" in table

    def test_json_format(self, dataset):
        import json

        result = q("SELECT ?n WHERE { ex:messi sc:name ?n }", dataset)
        payload = json.loads(result.to_json())
        assert payload["head"]["vars"] == ["n"]
        assert payload["results"]["bindings"][0]["n"]["value"] == "Lionel Messi"

    def test_csv_format(self, dataset):
        result = q("SELECT ?n WHERE { ex:messi sc:name ?n }", dataset)
        assert result.to_csv().splitlines()[0] == "n"

    def test_column_access(self, dataset):
        result = q("SELECT ?n WHERE { ex:messi sc:name ?n }", dataset)
        assert result.column("n") == [Literal("Lionel Messi")]

    def test_rows_align_with_projection(self, dataset):
        result = q("SELECT ?h ?n WHERE { ?p sc:name ?n ; ex:height ?h }", dataset)
        for row in result.rows():
            assert isinstance(row[0], Literal)  # height first
