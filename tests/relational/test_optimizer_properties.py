"""Property-based equivalence: optimized plan ≡ naive plan (hypothesis).

The optimizer's contract is that for any plan the optimized tree returns
the same schema and the same bag of rows — and, for Distinct-rooted UCQ
shapes, byte-identical output after the canonical root sort that
``MDM.execute`` applies.  These properties drive randomized relations,
predicates and UCQ shapes through both paths and compare.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.algebra import (
    Distinct,
    Extend,
    NaturalJoin,
    Project,
    Scan,
    Select,
    union_all,
)
from repro.relational.executor import Executor
from repro.relational.expressions import (
    And,
    Cmp,
    Col,
    Const,
    IsNull,
    NotExpr,
    Or,
)
from repro.relational.optimizer import PlanOptimizer
from repro.relational.relation import Relation

COLUMNS = ("a", "b", "c", "d")

values = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.sampled_from(["x", "y", "zz", "3", ""]),
    st.none(),
)


@st.composite
def base_relations(draw):
    """2–3 named relations over random column subsets (always keep 'a')."""
    relations = {}
    count = draw(st.integers(min_value=2, max_value=3))
    for index in range(count):
        extra = draw(
            st.lists(
                st.sampled_from(COLUMNS[1:]), unique=True, max_size=2
            )
        )
        columns = ["a"] + sorted(extra)
        rows = draw(
            st.lists(
                st.fixed_dictionaries({c: values for c in columns}),
                max_size=8,
            )
        )
        relations[f"r{index}"] = Relation.from_dicts(
            rows, attribute_order=columns
        )
    return relations


@st.composite
def predicates(draw, columns):
    """A depth-≤2 predicate over ``columns``."""
    column = st.sampled_from(list(columns))

    def leaf(d):
        kind = d(st.integers(min_value=0, max_value=2))
        if kind == 0:
            return Cmp(
                d(st.sampled_from(["=", "!=", "<", "<=", ">", ">="])),
                Col(d(column)),
                Const(d(values)),
            )
        if kind == 1:
            return IsNull(Col(d(column)), negated=d(st.booleans()))
        return Cmp("=", Col(d(column)), Col(d(column)))

    first = leaf(draw)
    if draw(st.booleans()):
        second = leaf(draw)
        combiner = draw(st.sampled_from(["and", "or", "not"]))
        if combiner == "and":
            return And(first, second)
        if combiner == "or":
            return Or(first, second)
        return And(first, NotExpr(second))
    return first


@st.composite
def branch_plans(draw, relations, projection):
    """One CQ branch: joins + optional σ/ρ, padded to ``projection``."""
    names = list(relations)
    used = draw(
        st.lists(st.sampled_from(names), min_size=1, max_size=3)
    )
    plan = Scan(used[0])
    visible = list(relations[used[0]].schema.names)
    for name in used[1:]:
        plan = NaturalJoin(plan, Scan(name))
        visible.extend(
            n for n in relations[name].schema.names if n not in visible
        )
    if draw(st.booleans()):
        plan = Select(plan, draw(predicates(visible)))
    missing = [c for c in projection if c not in visible]
    for column in missing:
        plan = Extend(plan, column, None)
    return Project(plan, tuple(projection))


@st.composite
def ucq_cases(draw):
    """(relations, Distinct(∪ branches)) over a shared projection."""
    relations = draw(base_relations())
    shared = sorted(
        set.intersection(*(set(r.schema.names) for r in relations.values()))
    )
    pool = sorted({c for r in relations.values() for c in r.schema.names})
    projection = shared + [c for c in pool if c not in shared][:2]
    branch_count = draw(st.integers(min_value=1, max_value=3))
    branches = [
        draw(branch_plans(relations, projection))
        for _ in range(branch_count)
    ]
    return relations, Distinct(union_all(branches))


def run_both(relations, plan):
    naive = Executor(dict(relations)).execute(plan)
    optimizer = PlanOptimizer(
        {name: rel.schema for name, rel in relations.items()}
    )
    optimized_plan, _ = optimizer.optimize(plan)
    optimized = Executor(dict(relations)).execute(optimized_plan)
    return naive, optimized


@given(ucq_cases())
@settings(max_examples=60, deadline=None)
def test_optimized_ucq_equals_naive_byte_identical(case):
    relations, plan = case
    naive, optimized = run_both(relations, plan)
    assert naive.schema.names == optimized.schema.names
    # Distinct-rooted UCQ + canonical sort ⇒ byte-identical output.
    assert naive.sorted().rows == optimized.sorted().rows


@given(base_relations(), st.data())
@settings(max_examples=60, deadline=None)
def test_optimized_single_branch_same_bag(relations, data):
    pool = sorted({c for r in relations.values() for c in r.schema.names})
    plan = data.draw(branch_plans(relations, pool[:2] or ["a"]))
    naive, optimized = run_both(relations, plan)
    assert naive.schema.names == optimized.schema.names
    assert sorted(map(repr, naive.rows)) == sorted(map(repr, optimized.rows))


@given(base_relations(), st.data())
@settings(max_examples=40, deadline=None)
def test_selection_over_join_same_bag(relations, data):
    """Selections above multi-relation joins survive pushdown."""
    names = list(relations)
    plan = Scan(names[0])
    visible = list(relations[names[0]].schema.names)
    for name in names[1:]:
        plan = NaturalJoin(plan, Scan(name))
        visible.extend(
            n for n in relations[name].schema.names if n not in visible
        )
    plan = Select(plan, data.draw(predicates(visible)))
    naive, optimized = run_both(relations, plan)
    assert naive.schema.names == optimized.schema.names
    assert sorted(map(repr, naive.rows)) == sorted(map(repr, optimized.rows))
