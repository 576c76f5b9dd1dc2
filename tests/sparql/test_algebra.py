"""Unit tests for the SPARQL algebra lowering (ToAlgebra)."""

from repro.sparql.algebra import (
    AlgebraFilter,
    AlgebraGraph,
    AlgebraMinus,
    AlgebraUnion,
    BGP,
    DistinctNode,
    Extend,
    GroupNode,
    Join,
    LeftJoin,
    OrderByNode,
    Project,
    Slice,
    Table,
    explain,
    translate,
)
from repro.sparql.parser import parse_query

P = "PREFIX ex: <http://e/>\n"


def lower(text):
    return translate(parse_query(P + text))


class TestLowering:
    def test_simple_bgp(self):
        node = lower("SELECT ?n WHERE { ?p ex:name ?n }")
        assert isinstance(node, Project)
        assert isinstance(node.child, BGP)
        assert len(node.child.triples) == 1

    def test_filter_wraps_group(self):
        node = lower("SELECT ?n WHERE { ?p ex:name ?n FILTER(?n != 'x') }")
        assert isinstance(node.child, AlgebraFilter)
        assert isinstance(node.child.child, BGP)

    def test_optional_becomes_leftjoin(self):
        node = lower(
            "SELECT ?n WHERE { ?p ex:name ?n OPTIONAL { ?p ex:h ?h } }"
        )
        assert isinstance(node.child, LeftJoin)
        assert isinstance(node.child.left, BGP)
        assert isinstance(node.child.right, BGP)

    def test_union(self):
        node = lower("SELECT ?x WHERE { { ?x ex:a ?y } UNION { ?x ex:b ?y } }")
        assert isinstance(node.child, AlgebraUnion)

    def test_three_way_union_left_deep(self):
        node = lower(
            "SELECT ?x WHERE { { ?x ex:a ?y } UNION { ?x ex:b ?y } "
            "UNION { ?x ex:c ?y } }"
        )
        assert isinstance(node.child, AlgebraUnion)
        assert isinstance(node.child.left, AlgebraUnion)

    def test_graph_clause(self):
        node = lower("SELECT ?s WHERE { GRAPH ex:g { ?s ?p ?o } }")
        assert isinstance(node.child, AlgebraGraph)

    def test_minus(self):
        node = lower("SELECT ?s WHERE { ?s ex:a ?x MINUS { ?s ex:b ?x } }")
        assert isinstance(node.child, AlgebraMinus)

    def test_bind_becomes_extend(self):
        node = lower("SELECT ?v WHERE { ?s ex:a ?x BIND(?x + 1 AS ?v) }")
        assert isinstance(node.child, Extend)
        assert node.child.variable.name == "v"

    def test_values_becomes_table(self):
        node = lower("SELECT ?x WHERE { VALUES ?x { ex:a ex:b } }")
        assert isinstance(node.child, Table)
        assert node.child.rows == 2

    def test_adjacent_groups_join(self):
        node = lower(
            "SELECT ?x WHERE { ?x ex:a ?y GRAPH ex:g { ?x ex:b ?z } }"
        )
        assert isinstance(node.child, Join)

    def test_modifiers_order(self):
        node = lower(
            "SELECT DISTINCT ?n WHERE { ?p ex:name ?n } "
            "ORDER BY ?n LIMIT 3 OFFSET 1"
        )
        assert isinstance(node, Slice)
        assert node.offset == 1 and node.limit == 3
        assert isinstance(node.child, OrderByNode)
        assert isinstance(node.child.child, DistinctNode)

    def test_aggregate_group_node(self):
        node = lower(
            "SELECT ?t (COUNT(*) AS ?n) WHERE { ?p ex:t ?t } GROUP BY ?t"
        )
        assert isinstance(node, Project)
        assert isinstance(node.child, GroupNode)
        assert node.child.aggregates == ("?n=COUNT(*)",)

    def test_ask_becomes_slice_one(self):
        node = translate(parse_query(P + "ASK { ?s ex:p ?o }"))
        assert isinstance(node, Slice)
        assert node.limit == 1


class TestExplain:
    def test_render_is_indented_tree(self):
        text = explain(
            parse_query(
                P + "SELECT ?n WHERE { ?p ex:name ?n OPTIONAL { ?p ex:h ?h } }"
            )
        )
        lines = text.splitlines()
        assert lines[0] == "Project [?n]"
        assert lines[1].startswith("  LeftJoin")
        assert lines[2].startswith("    BGP")

    def test_star_projection_label(self):
        text = explain(parse_query(P + "SELECT * WHERE { ?s ?p ?o }"))
        assert "Project *" in text

    def test_explain_on_walk_generated_sparql(self):
        from repro.scenarios.football import FootballScenario

        scenario = FootballScenario.build(anchors_only=True)
        walk = scenario.walk_player_team_names()
        text = explain(
            parse_query(
                walk.to_sparql(scenario.mdm.global_graph),
            )
        )
        assert "Project [?playerName ?teamName]" in text
        assert "BGP" in text
