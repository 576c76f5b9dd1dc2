"""Plan schema checker over hand-built (mostly invalid) plans."""

import pytest

from repro.analysis.plan_checker import check_plan
from repro.relational.algebra import (
    Aggregate,
    EquiJoin,
    Extend,
    NaturalJoin,
    Project,
    Rename,
    Scan,
    Select,
    Union,
)
from repro.relational.expressions import And, Cmp, Col, Const, IsNull, NotExpr, Or
from repro.relational.schema import UNKNOWN_ATTRIBUTE, Attribute, RelationSchema, SchemaError
from repro.relational.types import AttrType

CATALOG = {
    "people": RelationSchema(
        [
            Attribute("id", AttrType.INTEGER),
            Attribute("name", AttrType.STRING),
            Attribute("active", AttrType.BOOLEAN),
        ]
    ),
    "accounts": RelationSchema(
        [Attribute("aid", AttrType.INTEGER), Attribute("owner", AttrType.INTEGER)]
    ),
}


def codes(findings):
    return sorted(f.code for f in findings)


def test_valid_plan_has_no_findings():
    plan = Project(
        Select(Scan("people"), Cmp("=", Col("id"), Const(1))), ("id", "name")
    )
    findings, schema = check_plan(plan, CATALOG)
    assert findings == []
    assert list(schema.names) == ["id", "name"]


def test_unknown_relation_mdm101():
    findings, schema = check_plan(Scan("nope"), CATALOG)
    assert codes(findings) == ["MDM101"]
    assert schema is None
    assert findings[0].location.kind == "plan-operator"
    assert findings[0].location.name == "Scan"


def test_unknown_attribute_in_projection_mdm102():
    findings, schema = check_plan(Project(Scan("people"), ("id", "ghost")), CATALOG)
    assert codes(findings) == ["MDM102"]
    assert schema is None
    assert findings[0].location.detail == "ghost"


def test_unknown_attribute_in_predicate_mdm102():
    plan = Select(Scan("people"), Cmp("=", Col("ghost"), Const(1)))
    findings, schema = check_plan(plan, CATALOG)
    assert codes(findings) == ["MDM102"]
    # Select passes its child's schema through even when the predicate is bad.
    assert list(schema.names) == ["id", "name", "active"]


def test_rename_of_missing_column_mdm102():
    plan = Rename.from_dict(Scan("people"), {"ghost": "spirit"})
    findings, _ = check_plan(plan, CATALOG)
    assert codes(findings) == ["MDM102"]


def test_union_incompatible_mdm103():
    plan = Union(
        Project(Scan("people"), ("id", "name")), Project(Scan("accounts"), ("aid",))
    )
    findings, schema = check_plan(plan, CATALOG)
    assert codes(findings) == ["MDM103"]
    assert schema is None


def test_union_compatible_widens():
    plan = Union(
        Project(Scan("people"), ("id",)),
        Rename.from_dict(Project(Scan("accounts"), ("aid",)), {"aid": "id"}),
    )
    findings, schema = check_plan(plan, CATALOG)
    assert findings == []
    assert list(schema.names) == ["id"]


def test_extend_duplicate_column_mdm104():
    findings, _ = check_plan(Extend(Scan("people"), "name", None), CATALOG)
    assert codes(findings) == ["MDM104"]


def test_extend_fresh_column_ok():
    findings, schema = check_plan(Extend(Scan("people"), "note", None), CATALOG)
    assert findings == []
    assert "note" in schema


def test_type_mismatch_comparison_mdm105():
    plan = Select(Scan("people"), Cmp("<", Col("active"), Col("id")))
    findings, _ = check_plan(plan, CATALOG)
    assert "MDM105" in codes(findings)


def test_equijoin_missing_pair_mdm102():
    plan = EquiJoin(Scan("people"), Scan("accounts"), (("id", "ghost"),))
    findings, _ = check_plan(plan, CATALOG)
    assert codes(findings) == ["MDM102"]


def test_join_type_mismatch_mdm105():
    plan = EquiJoin(Scan("people"), Scan("accounts"), (("active", "aid"),))
    findings, _ = check_plan(plan, CATALOG)
    assert codes(findings) == ["MDM105"]


def test_natural_join_schema_combines():
    plan = NaturalJoin(
        Scan("people"),
        Rename.from_dict(Scan("accounts"), {"owner": "id"}),
    )
    findings, schema = check_plan(plan, CATALOG)
    assert findings == []
    assert list(schema.names) == ["id", "name", "active", "aid"]


def test_errors_in_both_union_branches_reported():
    plan = Union(Scan("nope1"), Scan("nope2"))
    findings, _ = check_plan(plan, CATALOG)
    assert codes(findings) == ["MDM101", "MDM101"]


def test_nested_paths_in_locations():
    plan = Union(Project(Scan("people"), ("ghost",)), Project(Scan("people"), ("id",)))
    findings, _ = check_plan(plan, CATALOG)
    assert findings[0].location.name == "Union[0]/Project"


# --- pushed scans carrying a limit ------------------------------------- #


def test_pushed_scan_with_limit_only_keeps_schema():
    findings, schema = check_plan(Scan("people", limit=10), CATALOG)
    assert findings == []
    assert list(schema.names) == ["id", "name", "active"]


def test_pushed_scan_limit_with_bad_filter_mdm102():
    plan = Scan("people", filters=(("ghost", "=", 1),), limit=5)
    findings, schema = check_plan(plan, CATALOG)
    assert codes(findings) == ["MDM102"]
    assert findings[0].location.detail == "ghost"
    # Bad filter columns do not invalidate the scan's output schema.
    assert list(schema.names) == ["id", "name", "active"]


def test_pushed_scan_limit_with_bad_projection_mdm102():
    plan = Scan("people", columns=("id", "ghost"), limit=5)
    findings, schema = check_plan(plan, CATALOG)
    assert codes(findings) == ["MDM102"]
    assert schema is None


def test_pushed_scan_limit_with_boolean_ordering_mdm105():
    plan = Scan("people", filters=(("active", "<", True),), limit=3)
    findings, _ = check_plan(plan, CATALOG)
    assert codes(findings) == ["MDM105"]


def test_limit_distinguishes_pushed_binding_names():
    assert Scan("people", limit=3).binding_name() != Scan("people").binding_name()
    assert (
        Scan("people", limit=3).binding_name()
        != Scan("people", limit=4).binding_name()
    )


# --- unions mixing pushed (capable) and plain (uncapable) scans --------- #


def test_union_of_pushed_and_plain_scan_compatible():
    plan = Union(
        Project(Scan("people", filters=(("id", "=", 1),), limit=2), ("id",)),
        Project(Scan("people"), ("id",)),
    )
    findings, schema = check_plan(plan, CATALOG)
    assert findings == []
    assert list(schema.names) == ["id"]


def test_union_flags_error_only_in_pushed_branch():
    plan = Union(
        Scan("people", filters=(("ghost", "=", 1),), limit=2),
        Scan("people"),
    )
    findings, _ = check_plan(plan, CATALOG)
    assert codes(findings) == ["MDM102"]
    assert findings[0].location.name.startswith("Union[0]")


def test_union_of_projected_pushed_scan_incompatible_mdm103():
    plan = Union(
        Scan("people", columns=("id", "name"), limit=2),
        Scan("accounts"),
    )
    findings, schema = check_plan(plan, CATALOG)
    assert codes(findings) == ["MDM103"]
    assert schema is None


# --- the operators' schema rules, through the checker ------------------ #


def test_predicate_connectives_are_typed():
    predicate = And(
        Or(Cmp("=", Col("id"), Const([1])), NotExpr(IsNull(Col("ghost")))),
        Cmp("<", Col("active"), Const(True)),
    )
    findings, schema = check_plan(Select(Scan("people"), predicate), CATALOG)
    assert codes(findings) == ["MDM102", "MDM105"]
    assert "ordering comparison" in findings[1].message
    assert list(schema.names) == ["id", "name", "active"]


def test_duplicate_projection_mdm104():
    plan = Project(Scan("people"), ("id", "id"))
    findings, schema = check_plan(plan, CATALOG)
    assert codes(findings) == ["MDM104"]
    assert schema is None
    with pytest.raises(SchemaError):
        plan.output_schema(CATALOG)


def test_rename_onto_existing_column_mdm104():
    findings, schema = check_plan(
        Rename.from_dict(Scan("people"), {"id": "name"}), CATALOG
    )
    assert codes(findings) == ["MDM104"]
    assert schema is None


def test_duplicate_pushed_projection_mdm104():
    findings, schema = check_plan(Scan("people", columns=("id", "id")), CATALOG)
    assert codes(findings) == ["MDM104"]
    assert schema is None


def test_aggregate_reports_every_missing_column_and_keeps_going():
    plan = Aggregate(
        Scan("people"),
        ("ghost", "name"),
        (("sum", "id", "total"), ("max", "nope", "top"), ("count", "*", "n")),
    )
    findings, schema = check_plan(plan, CATALOG)
    assert codes(findings) == ["MDM102", "MDM102"]
    assert [f.location.detail for f in findings] == ["ghost", "nope"]
    assert "group-by references 'ghost'" in findings[0].message
    assert "max() references 'nope'" in findings[1].message
    assert [(a.name, a.type) for a in schema] == [
        ("name", AttrType.STRING),
        ("total", AttrType.INTEGER),
        ("top", AttrType.ANY),
        ("n", AttrType.INTEGER),
    ]


def test_schema_errors_outside_the_rules_propagate():
    # An empty column name is a malformed plan, not a rule failure.
    with pytest.raises(SchemaError):
        check_plan(Extend(Scan("people"), "", None), CATALOG)


def test_rule_failures_carry_checks_and_partial_schema():
    plan = EquiJoin(Scan("people"), Scan("accounts"), (("ghost", "aid"),))
    with pytest.raises(SchemaError) as caught:
        plan.output_schema(CATALOG)
    ((check, message, subject),) = caught.value.failures
    assert (check, subject) == (UNKNOWN_ATTRIBUTE, "ghost")
    assert message in str(caught.value)
    assert list(caught.value.partial.names) == ["id", "name", "active", "aid", "owner"]


def test_untypable_extend_constant_is_any():
    schema = Extend(Scan("people"), "note", object()).output_schema(CATALOG)
    assert schema.attribute("note").type is AttrType.ANY
