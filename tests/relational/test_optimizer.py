"""Unit tests for the logical plan optimizer."""

import pytest

from repro.relational.algebra import (
    Aggregate,
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
from repro.relational.executor import Executor, _op_label, _union_sort_key
from repro.relational.expressions import (
    And,
    Cmp,
    Col,
    Const,
    conjoin,
    conjuncts,
    rename_columns,
)
from repro.relational.optimizer import (
    PlanOptimizer,
    flatten_union,
    plan_key,
)
from repro.relational.relation import Relation


def rel(rows, order, name=None):
    return Relation.from_dicts(rows, attribute_order=order, name=name)


@pytest.fixture
def executor():
    return Executor(
        {
            "A": rel(
                [{"id": i, "x": f"a{i}", "junk": i * 7} for i in range(20)],
                ["id", "x", "junk"],
            ),
            "B": rel([{"id": i, "y": f"b{i}"} for i in range(6)], ["id", "y"]),
            "C": rel(
                [{"id": i % 6, "z": i} for i in range(40)], ["id", "z"]
            ),
        }
    )


def optimize(executor, plan):
    return PlanOptimizer(executor.catalog).optimize(plan)


def assert_equivalent(executor, naive, optimized):
    """Optimized plan returns the same bag of rows and the same schema."""
    naive_ex = Executor({n: executor.relation(n) for n in executor.catalog})
    expected = naive_ex.execute(naive)
    actual = executor.execute(optimized)
    assert expected.schema.names == actual.schema.names
    assert sorted(map(repr, expected.rows)) == sorted(map(repr, actual.rows))


# --------------------------------------------------------------------- #
# expression helpers
# --------------------------------------------------------------------- #


def test_conjuncts_and_conjoin_roundtrip():
    a = Cmp("=", Col("x"), Const(1))
    b = Cmp("<", Col("y"), Const(2))
    c = Cmp(">", Col("z"), Const(3))
    expr = And(And(a, b), c)
    assert conjuncts(expr) == [a, b, c]
    rebuilt = conjoin([a, b, c])
    assert conjuncts(rebuilt) == [a, b, c]
    with pytest.raises(ValueError):
        conjoin([])


def test_rename_columns_rewrites_references():
    expr = And(Cmp("=", Col("new"), Const(1)), Cmp("<", Col("other"), Col("new")))
    renamed = rename_columns(expr, {"new": "old"})
    assert set(renamed.references()) == {"old", "other"}
    # Untouched expressions come back unchanged in structure.
    assert str(rename_columns(expr, {})) == str(expr)


# --------------------------------------------------------------------- #
# plan_key / flatten_union
# --------------------------------------------------------------------- #


def test_plan_key_identical_subtrees_share_keys():
    one = NaturalJoin(Scan("B"), Scan("C"))
    two = NaturalJoin(Scan("B"), Scan("C"))
    assert plan_key(one) == plan_key(two)
    assert plan_key(one) != plan_key(NaturalJoin(Scan("C"), Scan("B")))
    assert plan_key(Project(one, ("id",))) != plan_key(Project(one, ("z",)))
    assert plan_key(Select(one, Cmp("=", Col("z"), Const(1)))) != plan_key(
        Select(one, Cmp("=", Col("z"), Const(2)))
    )


def test_plan_key_cache_is_id_based():
    shared = NaturalJoin(Scan("B"), Scan("C"))
    plan = Union(Project(shared, ("id",)), Project(shared, ("id",)))
    cache = {}
    key = plan_key(plan, cache)
    assert key == plan_key(plan)
    assert id(shared) in cache


def test_flatten_union():
    branches = [Scan("A"), Scan("B"), Scan("C")]
    assert flatten_union(union_all(branches)) == branches
    assert flatten_union(Scan("A")) == [Scan("A")]


# --------------------------------------------------------------------- #
# selection rules
# --------------------------------------------------------------------- #


def test_select_conjunction_splits_and_pushes(executor):
    predicate = And(
        Cmp("<", Col("z"), Const(20)), Cmp("=", Col("y"), Const("b1"))
    )
    plan = Select(NaturalJoin(Scan("B"), Scan("C")), predicate)
    optimized, stats = optimize(executor, plan)
    assert stats.rules.get("select_split", 0) >= 1
    assert stats.rules.get("select_pushdown_join_left", 0) >= 1
    assert stats.rules.get("select_pushdown_join_right", 0) >= 1
    assert_equivalent(executor, plan, optimized)


def test_select_pushdown_through_project_and_rename(executor):
    plan = Select(
        Rename.from_dict(
            Project(Scan("A"), ("id", "x")), {"x": "playerName"}
        ),
        Cmp("=", Col("playerName"), Const("a3")),
    )
    optimized, stats = optimize(executor, plan)
    assert stats.rules.get("select_pushdown_rename", 0) >= 1
    assert stats.rules.get("select_pushdown_project", 0) >= 1
    assert_equivalent(executor, plan, optimized)


def test_select_not_pushed_right_on_shared_column(executor):
    # Predicate on the join column: the output exposes the LEFT values,
    # so it may move left but never right.
    plan = Select(
        NaturalJoin(Scan("B"), Scan("C")), Cmp("=", Col("id"), Const(3))
    )
    optimized, stats = optimize(executor, plan)
    assert stats.rules.get("select_pushdown_join_left", 0) >= 1
    assert stats.rules.get("select_pushdown_join_right", 0) == 0
    assert_equivalent(executor, plan, optimized)


def test_select_on_missing_column_is_not_pushed(executor):
    # σ_{z=1}(π_{id,x}(A)): z is not visible below — the predicate sees
    # NULL and keeps nothing; pushing it under the π would change that.
    plan = Select(
        Project(Scan("A"), ("id", "x")), Cmp("=", Col("z"), Const(1))
    )
    optimized, stats = optimize(executor, plan)
    assert stats.rules.get("select_pushdown_project", 0) == 0
    assert len(executor.execute(optimized)) == 0
    assert_equivalent(executor, plan, optimized)


def test_select_pushdown_union_and_distinct(executor):
    union = Union(
        Scan("B"), Project(Extend(Scan("C"), "y", "b2"), ("id", "y"))
    )
    plan = Select(Distinct(union), Cmp("=", Col("y"), Const("b2")))
    optimized, stats = optimize(executor, plan)
    assert stats.rules.get("select_pushdown_distinct", 0) >= 1
    assert_equivalent(executor, plan, optimized)


def test_select_union_pushdown_blocked_by_widening():
    # Left ids are INTEGER, right ids are STRING → the union widens to
    # STRING; an ordering predicate must stay above the union.
    ex = Executor(
        {
            "L": rel([{"id": 5}, {"id": 30}], ["id"]),
            "R": rel([{"id": "7"}, {"id": "100"}], ["id"]),
        }
    )
    plan = Select(Union(Scan("L"), Scan("R")), Cmp("<", Col("id"), Const("3")))
    optimized, _ = optimize(ex, plan)
    naive = Executor({"L": ex.relation("L"), "R": ex.relation("R")}).execute(plan)
    assert sorted(naive.rows) == sorted(ex.execute(optimized).rows)


def test_select_pushdown_extend_and_aggregate(executor):
    plan = Select(
        Extend(Scan("B"), "source", "v1"),
        Cmp("=", Col("y"), Const("b1")),
    )
    optimized, stats = optimize(executor, plan)
    assert stats.rules.get("select_pushdown_extend", 0) >= 1
    assert_equivalent(executor, plan, optimized)

    agg = Select(
        Aggregate(Scan("C"), ("id",), (("count", "*", "n"),)),
        Cmp("=", Col("id"), Const(2)),
    )
    optimized_agg, agg_stats = optimize(executor, agg)
    assert agg_stats.rules.get("select_pushdown_aggregate", 0) >= 1
    assert_equivalent(executor, agg, optimized_agg)


def test_select_not_pushed_below_extend_on_extended_column(executor):
    plan = Select(
        Extend(Scan("B"), "source", "v1"),
        Cmp("=", Col("source"), Const("v1")),
    )
    optimized, stats = optimize(executor, plan)
    assert stats.rules.get("select_pushdown_extend", 0) == 0
    assert_equivalent(executor, plan, optimized)


# --------------------------------------------------------------------- #
# rename / project / distinct rules
# --------------------------------------------------------------------- #


def test_rename_fusion_and_noop_drop(executor):
    plan = Rename.from_dict(
        Rename.from_dict(Scan("B"), {"id": "mid"}), {"mid": "id"}
    )
    optimized, stats = optimize(executor, plan)
    assert stats.rules.get("rename_fused", 0) >= 1
    assert optimized == Scan("B")  # the two renames cancel

    chained = Rename.from_dict(
        Rename.from_dict(Scan("B"), {"id": "mid"}), {"mid": "key"}
    )
    optimized, _ = optimize(executor, chained)
    assert optimized == Rename.from_dict(Scan("B"), {"id": "key"})
    assert_equivalent(executor, chained, optimized)

    optimized, stats = optimize(executor, Rename(Scan("B"), (("id", "id"),)))
    assert stats.rules.get("rename_noop_dropped") == 1
    assert optimized == Scan("B")


def test_project_fusion_and_noop_drop(executor):
    plan = Project(Project(Scan("A"), ("id", "x")), ("x",))
    optimized, stats = optimize(executor, plan)
    assert stats.rules.get("project_fused", 0) >= 1
    assert_equivalent(executor, plan, optimized)
    noop = Project(Scan("B"), ("id", "y"))
    optimized_noop, noop_stats = optimize(executor, noop)
    assert optimized_noop == Scan("B")
    assert noop_stats.rules.get("project_noop_dropped", 0) == 1


def test_distinct_fusion_and_union_branch_dedupe(executor):
    branch = Project(Scan("B"), ("y",))
    plan = Distinct(Distinct(union_all([branch, branch, Project(Scan("B"), ("y",))])))
    optimized, stats = optimize(executor, plan)
    assert stats.rules.get("distinct_fused", 0) >= 1
    assert stats.rules.get("union_branch_deduped", 0) == 2
    assert_equivalent(executor, plan, optimized)


def test_union_flattened_to_left_deep(executor):
    right_deep = Union(Scan("B"), Union(Scan("B"), Scan("B")))
    plan = Distinct(right_deep)
    optimized, stats = optimize(executor, plan)
    # The three identical branches collapse to one.
    assert stats.rules.get("union_branch_deduped", 0) == 2
    assert_equivalent(executor, plan, optimized)


# --------------------------------------------------------------------- #
# projection pruning
# --------------------------------------------------------------------- #


def test_prune_cuts_unused_columns_at_scan(executor):
    plan = Project(NaturalJoin(Scan("A"), Scan("B")), ("id", "y"))
    optimized, stats = optimize(executor, plan)
    assert stats.rules.get("scan_columns_pruned", 0) >= 1
    assert_equivalent(executor, plan, optimized)

    def scan_widths(node):
        if isinstance(node, Scan):
            return []
        if isinstance(node, Project) and isinstance(node.child, Scan):
            return [len(node.names)]
        out = []
        for child in node.children():
            out.extend(scan_widths(child))
        return out

    # A's x and junk are pruned before the join.
    assert min(scan_widths(optimized), default=3) == 1


def test_prune_drops_unused_extend(executor):
    plan = Project(Extend(Scan("B"), "pad", None), ("y",))
    optimized, stats = optimize(executor, plan)
    assert stats.rules.get("extend_dropped", 0) == 1
    assert_equivalent(executor, plan, optimized)


def test_prune_narrows_both_sides_of_an_equi_join(executor):
    # A and D share no column name, so no collision keeps a column alive.
    rows = [{"did": i, "w": f"d{i}", "pad": -i} for i in range(5)]
    executor.register("D", rel(rows, ["did", "w", "pad"]))
    plan = Project(EquiJoin(Scan("A"), Scan("D"), (("id", "did"),)), ("x", "w"))
    optimized, stats = optimize(executor, plan)
    assert stats.rules.get("scan_columns_pruned") == 2  # A.junk and D.pad
    assert optimized == Project(
        EquiJoin(
            Project(Scan("A"), ("id", "x")),
            Project(Scan("D"), ("did", "w")),
            (("id", "did"),),
        ),
        ("x", "w"),
    )
    assert_equivalent(executor, plan, optimized)


def test_prune_realigns_union_branches_pruned_to_different_columns(executor):
    # Each branch keeps the column its own selection reads, so they prune
    # to (id, x) and (id, junk) and the union realigns both on (id).
    by_x = Select(Scan("A"), Cmp("=", Col("x"), Const("a1")))
    by_junk = Select(Scan("A"), Cmp(">", Col("junk"), Const(70)))
    plan = Project(Union(by_x, by_junk), ("id",))
    optimized, stats = optimize(executor, plan)
    assert stats.rules.get("scan_columns_pruned") == 2
    assert optimized == Union(Project(by_x, ("id",)), Project(by_junk, ("id",)))
    assert_equivalent(executor, plan, optimized)


def test_prune_keeps_distinct_width(executor):
    # δ dedupes full rows: pruning inside it would change multiplicity.
    plan = Project(Distinct(Scan("A")), ("x",))
    optimized, _ = optimize(executor, plan)
    assert_equivalent(executor, plan, optimized)
    inner = optimized
    while not isinstance(inner, Distinct):
        inner = inner.children()[0]
    assert len(inner.output_schema(executor.catalog)) == 3


# --------------------------------------------------------------------- #
# execution
# --------------------------------------------------------------------- #


def test_execute_sees_reregistration(executor):
    plan = Project(Scan("B"), ("y",))
    first = executor.execute(plan)
    executor.register("B", rel([{"id": 1, "y": "new"}], ["id", "y"]))
    second = executor.execute(plan)
    assert first.rows != second.rows
    assert second.rows == (("new",),)


# --------------------------------------------------------------------- #
# operator labels & union sort key
# --------------------------------------------------------------------- #


def test_op_label_distinguishes_operators(executor):
    catalog = executor.catalog
    assert _op_label(NaturalJoin(Scan("B"), Scan("C")), catalog) == (
        "NaturalJoin[id]"
    )
    cross = NaturalJoin(Project(Scan("A"), ("x",)), Scan("B"))
    assert _op_label(cross, catalog) == "NaturalJoin[×]"
    assert _op_label(NaturalJoin(Scan("B"), Scan("C"))) == "NaturalJoin"
    equi = EquiJoin(Scan("B"), Scan("C"), (("id", "id"),))
    assert _op_label(equi) == "EquiJoin[id=id]"
    nested = Union(Union(Scan("B"), Scan("B")), Scan("B"))
    assert _op_label(nested) == "Union[3 branches]"
    agg = Aggregate(Scan("C"), ("id",), (("count", "*", "n"),))
    assert _op_label(agg) == "Aggregate[by id; count(*)]"


def test_union_sort_key_matches_nested_key_order():
    rows = [
        (None, "b"),
        (1, None),
        ("1", "a"),
        (2, "b"),
        (None, None),
        (1, "a"),
    ]
    nested = sorted(
        rows, key=lambda row: tuple((v is not None, str(v)) for v in row)
    )
    flat = sorted(rows, key=_union_sort_key)
    assert nested == flat


# --------------------------------------------------------------------- #
# end-to-end: optimize + execute equals naive on a UCQ shape
# --------------------------------------------------------------------- #


def test_full_ucq_equivalence(executor):
    predicate = Cmp("<", Col("z"), Const(25))
    branches = []
    for source in ("A", "A", "B"):
        base = NaturalJoin(Scan(source), NaturalJoin(Scan("B"), Scan("C")))
        branches.append(
            Project(Select(base, predicate), ("id", "y", "z"))
        )
    plan = Distinct(union_all(branches))
    optimized, stats = optimize(executor, plan)
    assert stats.total > 0
    assert_equivalent(executor, plan, optimized)
