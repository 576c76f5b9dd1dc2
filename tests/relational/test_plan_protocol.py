"""The structural protocol every plan node shares.

``children``, ``with_children``, ``nodes`` and ``plan_key`` are defined
once in :mod:`repro.relational.algebra`, from each operator's dataclass
fields.  These tests replay them over the plans stored in the golden
checker corpus (the football and versioned-concept UCQs, before and
after stage-B optimization, plus hand-built plans) and over hand-built
nodes of every operator.
"""

import json

import pytest

from repro.relational import algebra
from repro.relational.algebra import (
    Aggregate,
    Distinct,
    EquiJoin,
    Extend,
    NaturalJoin,
    PlanNode,
    Project,
    Rename,
    Scan,
    Select,
    Union,
    flatten_union,
    plan_key,
)
from repro.relational.expressions import Cmp, Col, Const

from tests.analysis.test_check_plan_corpus import CORPUS, decode_plan


def corpus_plans():
    corpus = json.loads(CORPUS.read_text())
    return [(key, data, decode_plan(data)) for key, data in corpus["plans"].items()]


def encoded_operators(data):
    """Operator names of an encoded plan in pre-order (expressions skipped)."""
    if isinstance(data, list):
        return [name for item in data for name in encoded_operators(item)]
    if not isinstance(data, dict):
        return []
    out = []
    if issubclass(getattr(algebra, data["node"], object), PlanNode):
        out.append(data["node"])
    for key, value in data.items():
        if key != "node":
            out += encoded_operators(value)
    return out


#: One hand-built node of every operator.
EVERY_OPERATOR = [
    Scan("a"),
    Scan("a", filters=(("x", "=", 1),), columns=("x",), limit=2),
    Project(Scan("a"), ("x",)),
    Select(Scan("a"), Cmp("=", Col("x"), Const(1))),
    NaturalJoin(Scan("a"), Scan("b")),
    EquiJoin(Scan("a"), Scan("b"), (("x", "y"),)),
    Rename.from_dict(Scan("a"), {"x": "y"}),
    Union(Scan("a"), Scan("b")),
    Distinct(Scan("a")),
    Extend(Scan("a"), "pad"),
    Aggregate(Scan("a"), ("x",), (("count", "*", "n"),)),
]


@pytest.mark.parametrize("node", EVERY_OPERATOR, ids=lambda n: type(n).__name__)
def test_with_children_of_own_children_rebuilds_the_node(node):
    rebuilt = node.with_children(node.children())
    assert type(rebuilt) is type(node)
    assert repr(rebuilt) == repr(node)


def test_with_children_replaces_children_and_keeps_parameters():
    swapped = EquiJoin(Scan("a"), Scan("b"), (("x", "y"),)).with_children(
        (Scan("c"), Scan("d"))
    )
    assert swapped == EquiJoin(Scan("c"), Scan("d"), (("x", "y"),))


def test_protocol_over_every_corpus_plan():
    plans = corpus_plans()
    assert plans
    for key, data, plan in plans:
        nodes = list(plan.nodes())
        assert [type(n).__name__ for n in nodes] == encoded_operators(data), key
        for node in nodes:
            rebuilt = node.with_children(node.children())
            assert type(rebuilt) is type(node), key
            assert repr(rebuilt) == repr(node), key
        scans = [n.relation_name for n in nodes if isinstance(n, Scan)]
        assert plan.scans() == scans, key


def test_plan_key_agrees_exactly_when_repr_agrees():
    subtrees = [node for _, _, plan in corpus_plans() for node in plan.nodes()]
    subtrees += [node for plan in EVERY_OPERATOR for node in plan.nodes()]
    cache = {}
    pairs = {(repr(node), plan_key(node, cache)) for node in subtrees}
    reprs = {r for r, _ in pairs}
    keys = {k for _, k in pairs}
    assert len(reprs) == len(keys) == len(pairs)
    # The id cache gives the keys computed without it.
    assert all(plan_key(node) == cache[id(node)] for node in subtrees)


@pytest.mark.parametrize(
    "one, other",
    [
        (Extend(Scan("a"), "x", 1), Extend(Scan("a"), "x", True)),
        (Scan("a", filters=(("a", "=", 1),)), Scan("a", filters=(("a", "=", True),))),
        (
            Select(Scan("a"), Cmp("=", Col("a"), Const(1))),
            Select(Scan("a"), Cmp("=", Col("a"), Const(True))),
        ),
    ],
)
def test_plan_key_separates_equal_nodes_with_different_reprs(one, other):
    assert one == other
    assert plan_key(one) != plan_key(other)


def test_flatten_union_over_join_clusters():
    leaves = [Scan("a"), Scan("b"), Scan("c")]
    cluster = NaturalJoin(NaturalJoin(leaves[0], leaves[1]), leaves[2])
    assert flatten_union(cluster, NaturalJoin) == leaves
    assert flatten_union(cluster) == [cluster]
