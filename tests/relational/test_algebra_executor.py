"""Unit tests for algebra operators, the executor and SQL rendering."""

import sqlite3
from contextlib import closing

import pytest

from repro.relational.algebra import (
    Distinct,
    EquiJoin,
    Extend,
    NaturalJoin,
    Project,
    Rename,
    Scan,
    Select,
    Union,
    union_all,
)
from repro.relational.executor import ExecutionError, Executor
from repro.relational.expressions import And, Cmp, Col, Const, IsNull, NotExpr, Or
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema, SchemaError
from repro.relational.sql import to_sql
from repro.sources.fetch import FetchRequest, apply_fetch_request


@pytest.fixture
def executor():
    players = Relation.from_dicts(
        [
            {"id": 6176, "pName": "Lionel Messi", "height": 170.18, "teamId": 25},
            {"id": 6300, "pName": "Robert Lewandowski", "height": 184.0, "teamId": 26},
            {"id": 6400, "pName": "Zlatan Ibrahimovic", "height": 195.0, "teamId": 27},
        ],
        name="w1",
    )
    teams = Relation.from_dicts(
        [
            {"id": 25, "name": "FC Barcelona"},
            {"id": 26, "name": "Bayern Munich"},
            {"id": 27, "name": "Manchester United"},
            {"id": 99, "name": "Ghost Team"},
        ],
        name="w2",
    )
    return Executor({"w1": players, "w2": teams})


class TestExpressions:
    def test_cmp_null_is_false(self):
        expr = Cmp(">", Col("h"), Const(1))
        assert expr.evaluate({"h": None}) is False

    def test_cmp_mixed_types_equality_textual(self):
        assert Cmp("=", Col("a"), Const("25")).evaluate({"a": 25}) is False or True
        # ordering of mixed types is always false
        assert Cmp("<", Col("a"), Const("z")).evaluate({"a": 25}) is False

    def test_bad_operator_rejected(self):
        with pytest.raises(ValueError):
            Cmp("~", Col("a"), Const(1))

    def test_and_or_not(self):
        row = {"a": 5}
        e = And(Cmp(">", Col("a"), Const(1)), Cmp("<", Col("a"), Const(10)))
        assert e.evaluate(row) is True
        assert Or(Cmp(">", Col("a"), Const(9)), Cmp("<", Col("a"), Const(9))).evaluate(row)
        assert NotExpr(Cmp("=", Col("a"), Const(5))).evaluate(row) is False

    def test_is_null(self):
        assert IsNull(Col("a")).evaluate({"a": None}) is True
        assert IsNull(Col("a"), negated=True).evaluate({"a": 1}) is True

    def test_references(self):
        e = And(Cmp(">", Col("a"), Const(1)), Cmp("<", Col("b"), Col("c")))
        assert set(e.references()) == {"a", "b", "c"}

    def test_sql_rendering(self):
        e = Cmp("!=", Col("name"), Const("O'Neil"))
        assert e.sql() == "\"name\" <> 'O''Neil'"


class TestOperators:
    def test_scan(self, executor):
        assert len(executor.execute(Scan("w1"))) == 3

    def test_scan_unknown(self, executor):
        with pytest.raises(ExecutionError):
            executor.execute(Scan("nope"))

    def test_project_reorders(self, executor):
        rel = executor.execute(Project(Scan("w1"), ("pName", "id")))
        assert rel.schema.names == ("pName", "id")

    def test_project_unknown_column(self, executor):
        with pytest.raises(SchemaError):
            executor.execute(Project(Scan("w1"), ("nope",)))

    def test_select(self, executor):
        rel = executor.execute(
            Select(Scan("w1"), Cmp(">", Col("height"), Const(180)))
        )
        assert len(rel) == 2

    def test_rename(self, executor):
        rel = executor.execute(Rename.from_dict(Scan("w2"), {"name": "teamName"}))
        assert "teamName" in rel.schema
        assert "name" not in rel.schema

    def test_natural_join(self, executor):
        plan = NaturalJoin(
            Rename.from_dict(Scan("w1"), {"teamId": "tid"}),
            Rename.from_dict(Scan("w2"), {"id": "tid", "name": "teamName"}),
        )
        rel = executor.execute(plan)
        assert len(rel) == 3  # ghost team has no players

    def test_natural_join_without_shared_is_cross(self, executor):
        plan = NaturalJoin(
            Project(Scan("w1"), ("pName",)), Project(Scan("w2"), ("name",))
        )
        rel = executor.execute(plan)
        assert len(rel) == 12

    def test_equi_join(self, executor):
        plan = EquiJoin(Scan("w2"), Scan("w1"), (("id", "teamId"),))
        rel = executor.execute(plan)
        assert len(rel) == 3
        assert "pName" in rel.schema

    def test_equi_join_key_normalization(self):
        left = Relation.from_dicts([{"id": "25", "n": "a"}], name="l")
        right = Relation.from_dicts([{"ref": 25, "m": "b"}], name="r")
        ex = Executor({"l": left, "r": right})
        rel = ex.execute(EquiJoin(Scan("l"), Scan("r"), (("id", "ref"),)))
        assert len(rel) == 1

    def test_join_drops_null_keys(self):
        left = Relation.from_dicts([{"id": None, "n": "a"}], name="l")
        right = Relation.from_dicts([{"id": None, "m": "b"}], name="r")
        ex = Executor({"l": left, "r": right})
        rel = ex.execute(EquiJoin(Scan("l"), Scan("r"), (("id", "id"),)))
        assert len(rel) == 0

    def test_union_widens_types(self, executor):
        extra = Relation.from_dicts([{"id": "7000"}], name="w3")
        executor.register("w3", extra)
        plan = Union(Project(Scan("w1"), ("id",)), Scan("w3"))
        rel = executor.execute(plan)
        assert len(rel) == 4
        assert {type(v) for v in rel.column("id")} == {str}

    def test_union_incompatible_rejected(self, executor):
        with pytest.raises(ExecutionError):
            executor.execute(
                Union(Project(Scan("w1"), ("id",)), Project(Scan("w2"), ("name",)))
            )

    def test_distinct(self, executor):
        plan = Distinct(Project(Scan("w2"), ("name",)))
        extra = Union(plan.child, plan.child)
        assert len(executor.execute(Distinct(extra))) == 4

    def test_union_all_helper(self):
        plan = union_all([Scan("a"), Scan("b"), Scan("c")])
        assert plan.scans() == ["a", "b", "c"]
        with pytest.raises(ValueError):
            union_all([])

    def test_plan_depth_and_scans(self, executor):
        plan = Project(EquiJoin(Scan("w2"), Scan("w1"), (("id", "teamId"),)), ("name",))
        assert plan.depth() == 3
        assert plan.scans() == ["w2", "w1"]

    def test_register_and_unregister(self, executor):
        executor.register("tmp", Relation.from_dicts([{"x": 1}]))
        assert executor.unregister("tmp") is True
        assert executor.unregister("tmp") is False

    def test_catalog(self, executor):
        assert set(executor.catalog) == {"w1", "w2"}

    def test_pushed_scan_without_binding_derives_it_from_the_base(self, executor):
        # Only the base relation is registered, so the executor applies the
        # pushed work itself, exactly as a wrapper answering the request.
        base = executor.relation("w1")
        scan = Scan(
            "w1", filters=(("height", ">", 175.0),), columns=("pName", "id"), limit=1
        )
        request = FetchRequest(scan.filters, scan.columns, scan.limit)
        expected = apply_fetch_request(base, request)
        derived = executor.execute(scan)
        assert derived.schema == expected.schema
        assert repr(derived.rows) == repr(expected.rows)
        assert executor.catalog[scan.binding_name()] == expected.schema
        assert executor.execute(scan) is derived


class TestPretty:
    def test_pretty_uses_paper_notation(self, executor):
        plan = Project(
            EquiJoin(Scan("w2"), Scan("w1"), (("id", "teamId"),)),
            ("name", "pName"),
        )
        text = plan.pretty()
        assert "π_{name, pName}" in text
        assert "⋈_{id=teamId}" in text

    def test_pretty_select_and_union(self):
        plan = Union(
            Select(Scan("a"), Cmp(">", Col("x"), Const(1))), Scan("b")
        )
        text = plan.pretty()
        assert "σ_{x > 1}(a)" in text
        assert "∪" in text

    def test_pretty_rename_distinct(self):
        text = Distinct(Rename.from_dict(Scan("a"), {"x": "y"})).pretty()
        assert "δ(ρ_{x→y}(a))" == text


class TestSql:
    def test_scan_sql(self):
        assert to_sql(Scan("w1")) == 'SELECT * FROM "w1"'

    def test_project_sql(self):
        sql = to_sql(Project(Scan("w1"), ("a", "b")))
        assert sql.startswith('SELECT "a", "b" FROM (')

    def test_select_sql(self):
        sql = to_sql(Select(Scan("w1"), Cmp(">", Col("h"), Const(1))))
        assert 'WHERE "h" > 1' in sql

    def test_equi_join_sql(self):
        sql = to_sql(EquiJoin(Scan("a"), Scan("b"), (("x", "y"),)))
        assert "JOIN" in sql and '."x" = ' in sql

    def test_union_sql(self):
        sql = to_sql(Union(Scan("a"), Scan("b")))
        assert "UNION ALL" in sql

    def test_pushed_scan_sql(self):
        plan = Scan("w", filters=(("a", "=", 1),), columns=("a",), limit=3)
        assert to_sql(plan) == 'SELECT "a" FROM "w" WHERE "a" = 1 LIMIT 3'

    def test_pushed_scan_sql_reads_the_pushed_rows(self, executor):
        base = executor.relation("w1")
        scan = Scan(
            "w1",
            filters=(("height", ">", 175.0), ("teamId", "!=", 99)),
            columns=("pName", "id"),
            limit=1,
        )
        columns = ", ".join(f'"{name}"' for name in base.schema.names)
        marks = ", ".join("?" for _ in base.schema.names)
        with closing(sqlite3.connect(":memory:")) as connection:
            connection.execute(f'CREATE TABLE "w1" ({columns})')
            connection.executemany(f'INSERT INTO "w1" VALUES ({marks})', base.rows)
            rows = connection.execute(to_sql(scan)).fetchall()
        expected = [("Robert Lewandowski", 6300)]
        assert rows == list(executor.execute(scan).rows) == expected

    def test_distinct_sql(self):
        assert (
            to_sql(Distinct(Scan("a")))
            == 'SELECT DISTINCT * FROM (SELECT * FROM "a") AS t1'
        )

    def test_rename_sql(self):
        assert (
            to_sql(Rename.from_dict(Scan("a"), {"x": "y"}))
            == 'SELECT "x" AS "y" FROM (SELECT * FROM "a") AS t1'
        )

    def test_natural_join_sql(self):
        assert to_sql(NaturalJoin(Scan("a"), Scan("b"))) == (
            'SELECT * FROM (SELECT * FROM "a") AS t1 '
            'NATURAL JOIN (SELECT * FROM "b") AS t2'
        )

    def test_extend_sql(self):
        assert (
            to_sql(Extend(Scan("a"), "pad"))
            == 'SELECT *, NULL AS "pad" FROM (SELECT * FROM "a") AS t1'
        )

    def test_schema_output_static(self, executor):
        plan = Project(EquiJoin(Scan("w2"), Scan("w1"), (("id", "teamId"),)), ("name", "pName"))
        schema = plan.output_schema(executor.catalog)
        assert schema.names == ("name", "pName")
