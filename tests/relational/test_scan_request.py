"""Pins for the canonical request string a Scan carries across the wrapper
boundary: ``Scan.request``, the binding name built from it, and the
pushdown folds that build the Scan."""

from dataclasses import fields

import pytest

from repro.relational.algebra import Scan, Select, canonical_scan_filters, plan_key
from repro.relational.expressions import Cmp, Col, Const, IsNull
from repro.relational.optimizer import PlanOptimizer
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.types import AttrType

#: (scan, request, repr, plan_key): the request and binding strings
#: appear in outcome.pushdown, fetch spans, EXPLAIN and the wrapper-cache
#: key; repr and plan_key are what the golden plan corpus replays.
CASES = [
    (
        Scan("w"),
        "*",
        "Scan(relation_name='w', filters=(), columns=None, limit=None)",
        "Scan('w';();None;None)",
    ),
    (
        Scan("w", (("foot", "=", "L"),)),
        "σ[foot='L']",
        "Scan(relation_name='w', filters=(('foot', '=', 'L'),), columns=None, limit=None)",
        "Scan('w';(('foot', '=', 'L'),);None;None)",
    ),
    (
        Scan("w", (("x", "=", 1),)),
        "σ[x=1]",
        "Scan(relation_name='w', filters=(('x', '=', 1),), columns=None, limit=None)",
        "Scan('w';(('x', '=', 1),);None;None)",
    ),
    (
        Scan("w", (("x", "=", True),)),
        "σ[x=True]",
        "Scan(relation_name='w', filters=(('x', '=', True),), columns=None, limit=None)",
        "Scan('w';(('x', '=', True),);None;None)",
    ),
    (
        Scan("w", (("x", ">=", 1.0),)),
        "σ[x>=1.0]",
        "Scan(relation_name='w', filters=(('x', '>=', 1.0),), columns=None, limit=None)",
        "Scan('w';(('x', '>=', 1.0),);None;None)",
    ),
    (
        Scan("w", columns=("foot", "id")),
        "π[foot,id]",
        "Scan(relation_name='w', filters=(), columns=('foot', 'id'), limit=None)",
        "Scan('w';();('foot', 'id');None)",
    ),
    (
        Scan("w", limit=3),
        "limit[3]",
        "Scan(relation_name='w', filters=(), columns=None, limit=3)",
        "Scan('w';();None;3)",
    ),
    (
        Scan(
            "w",
            (("a", "=", True), ("b", "!=", 1), ("c", "<", 1.0), ("foot", "=", "L")),
            ("foot", "id"),
            5,
        ),
        "σ[a=True,b!=1,c<1.0,foot='L']π[foot,id]limit[5]",
        "Scan(relation_name='w', filters=(('a', '=', True), ('b', '!=', 1), "
        "('c', '<', 1.0), ('foot', '=', 'L')), columns=('foot', 'id'), limit=5)",
        "Scan('w';(('a', '=', True), ('b', '!=', 1), ('c', '<', 1.0), "
        "('foot', '=', 'L'));('foot', 'id');5)",
    ),
]


@pytest.mark.parametrize("scan, expected, _repr, _key", CASES)
def test_request_and_binding_strings(scan, expected, _repr, _key):
    assert scan.request == expected
    assert scan.is_pushed() is (expected != "*")
    assert scan.binding_name() == ("w" if expected == "*" else "w" + expected)


@pytest.mark.parametrize("scan, expected, rendered, key", CASES)
def test_request_is_not_part_of_the_scan_identity(scan, expected, rendered, key):
    fresh = Scan(scan.relation_name, scan.filters, scan.columns, scan.limit)
    assert [f.name for f in fields(Scan)] == [
        "relation_name", "filters", "columns", "limit"
    ]
    assert scan.request == expected  # rendered on ``scan``, not on ``fresh``
    assert repr(scan) == repr(fresh) == rendered
    assert plan_key(scan) == plan_key(fresh) == key
    assert scan == fresh and hash(scan) == hash(fresh)
    if expected != "*":
        assert expected not in rendered and expected not in key


@pytest.mark.parametrize("scan, _expected, _repr, _key", CASES)
def test_request_is_rendered_once(scan, _expected, _repr, _key):
    assert scan.request is scan.request


def test_equal_scans_with_distinct_constants_keep_distinct_requests():
    one, true = Scan("w", (("x", "=", 1),)), Scan("w", (("x", "=", True),))
    assert one == true  # 1 == True ...
    assert one.request != true.request  # ... but they are different requests
    assert plan_key(one) != plan_key(true)


def test_canonical_filters_keep_equal_but_distinct_constants():
    assert canonical_scan_filters(
        [("x", "=", 1), ("x", "=", True), ("x", "=", 1), ("x", "=", 1.0)]
    ) == (("x", "=", True), ("x", "=", 1.0), ("x", "=", 1))


def extract(plan, caps=frozenset({"filters", "projection"})):
    catalog = {
        "w": RelationSchema([Attribute("x", AttrType.ANY), Attribute("y", AttrType.ANY)])
    }
    optimizer = PlanOptimizer(catalog, pushdown_capabilities={"w": caps})
    return optimizer.extract_pushdown(plan)[0]


def test_both_fold_orders_give_one_binding():
    one = Cmp("=", Col("x"), Const(1))
    true = Cmp("=", Col("x"), Const(True))
    bindings = {
        extract(Select(Select(Scan("w"), inner), outer)).binding_name()
        for inner, outer in ((one, true), (true, one))
    }
    assert bindings == {"wσ[x=True,x=1]"}


def test_a_constant_on_the_left_folds_flipped():
    plan = extract(Select(Scan("w"), Cmp("<", Const(3), Col("x"))))
    assert plan == Scan("w", (("x", ">", 3),))
    assert plan.request == "σ[x>3]"


@pytest.mark.parametrize(
    "scan, predicate, caps",
    [
        (Scan("w"), Cmp("=", Col("x"), Const(1)), frozenset({"projection"})),
        (Scan("w"), Cmp("=", Col("x"), Col("y")), frozenset({"filters"})),
        (Scan("w"), IsNull(Col("x")), frozenset({"filters"})),
        (Scan("w"), Cmp("=", Col("x"), Const(("a",))), frozenset({"filters"})),
        (Scan("w", limit=2), Cmp("=", Col("x"), Const(1)), frozenset({"filters"})),
        (Scan("w", columns=("y",)), Cmp("=", Col("x"), Const(1)), frozenset({"filters"})),
    ],
    ids=["uncapable", "two-columns", "not-a-comparison", "unpushable-constant",
         "under-a-limit", "projected-away"],
)
def test_selects_that_stay_above_the_scan(scan, predicate, caps):
    plan = Select(scan, predicate)
    assert extract(plan, caps) == plan
