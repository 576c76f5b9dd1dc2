"""Bottom-up schema/type checking of relational-algebra plans.

The LAV rewriting and the logical optimizer both emit
:mod:`repro.relational.algebra` trees; a bug in either (a projection of a
column a rename just destroyed, a union of incompatible branches, a join
pair referencing a missing attribute) used to surface only at execution
time, deep inside the executor — or worse, as a silently wrong answer.

:func:`check_plan` walks a plan bottom-up and applies each operator's own
schema rule (:meth:`PlanNode.derive <repro.relational.algebra.PlanNode>`)
at every node.  A rule reports every check it fails, and the schema the
operator still produces where it can, so one pass reports every
violation instead of stopping at the first.  On top of the rules the
checker adds the type diagnostics the algebra does not enforce: predicate
columns (MDM102) and comparisons or joins over incompatible types
(MDM105).  Each finding's location is the operator path from the root,
e.g. ``Distinct/Union[0]/Project``.

Rule codes (``MDM1xx``, registered in the shared catalog):

========  ========================================================
MDM101    scan of a relation the catalog does not know
MDM102    reference to an attribute absent from the child's schema
MDM103    union of non-union-compatible branches
MDM104    duplicate output column (e.g. ε of an existing name)
MDM105    comparison between incompatible attribute types
========  ========================================================

Because the checker derives schemas with the operators' own rules, it
cannot disagree with them: a plan with zero ``error`` findings derives
without schema errors, and every rule failure it reports is an error the
executor's derivation raises too.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..relational.algebra import (
    Catalog,
    EquiJoin,
    NaturalJoin,
    PlanNode,
    Scan,
    Select,
    Union,
)
from ..relational.expressions import (
    And,
    Cmp,
    Col,
    Const,
    Expr,
    IsNull,
    NotExpr,
    Or,
)
from ..relational.schema import (
    DUPLICATE_COLUMN,
    UNION_INCOMPATIBLE,
    UNKNOWN_ATTRIBUTE,
    UNKNOWN_RELATION,
    Attribute,
    RelationSchema,
    SchemaError,
    unknown_attributes,
)
from ..relational.types import AttrType, common_type, infer_type
from .diagnostics import Finding, Severity, SourceLocation, register_rule_info

__all__ = ["check_plan", "PLAN_RULES"]

#: Ordering comparisons that make no sense over booleans.
_ORDERING_OPS = ("<", "<=", ">", ">=")

PLAN_RULES = {
    "MDM101": register_rule_info(
        "MDM101",
        "unknown-relation",
        Severity.ERROR,
        "A Scan references a relation name absent from the catalog.",
    ),
    "MDM102": register_rule_info(
        "MDM102",
        "unknown-attribute",
        Severity.ERROR,
        "An operator references an attribute its child does not produce.",
    ),
    "MDM103": register_rule_info(
        "MDM103",
        "union-incompatible",
        Severity.ERROR,
        "A Union combines branches whose schemas are not union-compatible.",
    ),
    "MDM104": register_rule_info(
        "MDM104",
        "duplicate-column",
        Severity.ERROR,
        "An operator would produce two columns with the same name.",
    ),
    "MDM105": register_rule_info(
        "MDM105",
        "type-mismatch",
        Severity.WARNING,
        "A predicate compares attributes of incompatible types.",
    ),
}


#: The MDM code of each check an operator's schema rule can fail.
_CODES = {
    UNKNOWN_RELATION: "MDM101",
    UNKNOWN_ATTRIBUTE: "MDM102",
    UNION_INCOMPATIBLE: "MDM103",
    DUPLICATE_COLUMN: "MDM104",
}


class _Checker:
    """One traversal: accumulates findings, returns schemas (None on error)."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self.findings: List[Finding] = []

    def _report(
        self, code: str, message: str, path: str, detail: str = ""
    ) -> None:
        self.findings.append(
            PLAN_RULES[code].finding(
                message, SourceLocation("plan-operator", path, detail)
            )
        )

    # -- expression typing --------------------------------------------- #

    def _expr_type(
        self, expr: Expr, schema: RelationSchema, path: str
    ) -> AttrType:
        """The inferred type of ``expr``; reports missing columns (MDM102)
        and incompatible comparisons (MDM105) along the way."""
        if isinstance(expr, Col):
            if expr.name in schema:
                return schema.attribute(expr.name).type
            for _check, message, name in unknown_attributes(
                "predicate", [expr.name], schema
            ):
                self._report("MDM102", message, path, detail=name)
            return AttrType.ANY
        if isinstance(expr, Const):
            try:
                return infer_type(expr.value)
            except TypeError:
                return AttrType.ANY
        if isinstance(expr, Cmp):
            left = self._expr_type(expr.left, schema, path)
            right = self._expr_type(expr.right, schema, path)
            self._check_comparison(expr, left, right, path)
            return AttrType.BOOLEAN
        if isinstance(expr, (And, Or)):
            self._expr_type(expr.left, schema, path)
            self._expr_type(expr.right, schema, path)
            return AttrType.BOOLEAN
        if isinstance(expr, NotExpr):
            self._expr_type(expr.operand, schema, path)
            return AttrType.BOOLEAN
        if isinstance(expr, IsNull):
            self._expr_type(expr.operand, schema, path)
            return AttrType.BOOLEAN
        return AttrType.ANY

    def _check_comparison(
        self, expr: Cmp, left: AttrType, right: AttrType, path: str
    ) -> None:
        if not _comparable(left, right):
            self._report(
                "MDM105",
                f"comparison {expr} mixes {left} and {right}; the executor "
                "will fall back to textual comparison",
                path,
            )
        elif expr.op in _ORDERING_OPS and AttrType.BOOLEAN in (left, right):
            self._report(
                "MDM105",
                f"ordering comparison {expr} over boolean values",
                path,
            )

    def _check_join_types(
        self, left: Attribute, right: Attribute, column: str, path: str
    ) -> None:
        if not _comparable(left.type, right.type):
            self._report(
                "MDM105",
                f"join on {column} mixes {left.type} and {right.type}",
                path,
            )

    # -- plan traversal ------------------------------------------------- #

    def check(self, plan: PlanNode, path: str = "") -> Optional[RelationSchema]:
        label = type(plan).__name__
        path = f"{path}/{label}" if path else label
        kids = plan.children()
        inputs: List[RelationSchema] = []
        for index, kid in enumerate(kids):
            schema = self.check(kid, f"{path}[{index}]" if len(kids) > 1 else path)
            if schema is not None:
                inputs.append(schema)
        if len(inputs) < len(kids):
            # Reported where it failed.  A union still produces the
            # schema of its other branch.
            return inputs[0] if inputs and isinstance(plan, Union) else None
        try:
            schema = plan.derive(*inputs) if kids else plan.output_schema(self.catalog)
        except SchemaError as exc:
            if not exc.failures:
                raise
            for kind, message, subject in exc.failures:
                self._report(_CODES[kind], message, path, detail=subject)
            schema = exc.partial
        self._check_types(plan, inputs, path)
        return schema

    def _check_types(
        self, plan: PlanNode, inputs: List[RelationSchema], path: str
    ) -> None:
        """MDM105 (and MDM102 for predicate columns) at one operator."""
        if isinstance(plan, Select):
            self._expr_type(plan.predicate, inputs[0], path)
        elif isinstance(plan, NaturalJoin):
            left, right = inputs
            for name in left.names:
                if name in right:
                    self._check_join_types(
                        left.attribute(name), right.attribute(name), name, path
                    )
        elif isinstance(plan, EquiJoin):
            left, right = inputs
            for l_name, r_name in plan.pairs:
                if l_name in left and r_name in right:
                    self._check_join_types(
                        left.attribute(l_name),
                        right.attribute(r_name),
                        f"{l_name}={r_name}",
                        path,
                    )
        elif isinstance(plan, Scan) and plan.binding_name() not in self.catalog:
            # Pushed filters are validated against the base schema the
            # way the original Select's predicate would have been.
            base = self.catalog.get(plan.relation_name)
            if base is None:
                return
            for column, op, _value in plan.filters:
                if (
                    op in _ORDERING_OPS
                    and column in base
                    and base.attribute(column).type is AttrType.BOOLEAN
                ):
                    self._report(
                        "MDM105",
                        f"pushed ordering filter {column} {op} … over "
                        "boolean values",
                        path,
                    )


def _comparable(left: AttrType, right: AttrType) -> bool:
    """Whether two types compare meaningfully: their common type is one of
    them, not the STRING fallback the lattice tops out at."""
    return common_type(left, right) in (left, right)


def check_plan(
    plan: PlanNode, catalog: Catalog
) -> Tuple[List[Finding], Optional[RelationSchema]]:
    """Statically validate ``plan`` against ``catalog``.

    Returns ``(findings, output_schema)``; the schema is ``None`` when an
    error finding prevented derivation.  Apart from MDM102 on predicate
    columns, which the algebra does not check, the MDM101–MDM104 findings
    are the operators' failed schema rules: a plan has one exactly when
    ``plan.output_schema(catalog)`` raises, and otherwise both return the
    same schema.
    """
    checker = _Checker(catalog)
    schema = checker.check(plan)
    return checker.findings, schema
