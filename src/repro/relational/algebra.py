"""Relational-algebra operator trees.

The rewriting algorithm (paper §2.4, Figure 8) produces *relational
algebra expressions over the wrappers* — this module is that expression
language.  Operators:

``Scan(name)``
    a base relation (one wrapper's output).
``Project(child, names)``
    π — also reorders columns.
``Select(child, predicate)``
    σ with an :class:`repro.relational.expressions.Expr` predicate.
``NaturalJoin(left, right)``
    ⋈ on all shared attribute names.
``EquiJoin(left, right, pairs)``
    ⋈ on explicit ``(left_attr, right_attr)`` pairs, keeping both sides'
    columns (right-side join columns dropped when names collide).
``Rename(child, mapping)``
    ρ.
``Union(left, right)``
    ∪ over union-compatible children (bag union; wrap in Distinct for set).
``Distinct(child)``
    δ duplicate elimination.
``Extend(child, column, value)``
    ε — append a constant column (NULL-pads optional features).
``Aggregate(child, group_by, metrics)``
    γ grouped aggregation.

Every operator is a frozen dataclass.  Its first fields are its
children, declared by its arity base: :class:`UnaryNode` (``child``) or
:class:`BinaryNode` (``left``, ``right``); a Scan has none.  The other
fields are its parameters.  The structure is read from those fields
once, here: :meth:`PlanNode.children`, :meth:`PlanNode.with_children`
(rebuild over new children), :meth:`PlanNode.nodes` (pre-order
traversal), :func:`plan_key` (canonical structural key) and
:func:`flatten_union`.

Each operator states its schema rule once, as ``derive(*input_schemas)``
over its children's schemas in :meth:`PlanNode.children` order (a Scan's
input is its base relation).  ``output_schema(catalog)`` applies the
rules bottom-up; the executor applies them to the relations it computes
and the plan checker (:mod:`repro.analysis.plan_checker`) to collect
every failed check instead of stopping at the first.

``pretty()`` renders the tree in the paper's mathematical notation, e.g.::

    π_{name, pName} (w2 ⋈_{id=teamId} w1)
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cache
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .expressions import Expr
from .schema import (
    DUPLICATE_COLUMN,
    UNKNOWN_RELATION,
    Attribute,
    Failure,
    RelationSchema,
    SchemaError,
    unknown_attributes,
)
from .types import AttrType, infer_type

__all__ = [
    "PlanNode",
    "UnaryNode",
    "BinaryNode",
    "canonical_scan_filters",
    "Scan",
    "Project",
    "Select",
    "NaturalJoin",
    "EquiJoin",
    "Rename",
    "Union",
    "Distinct",
    "Extend",
    "Aggregate",
    "AGGREGATE_FUNCTIONS",
    "Catalog",
    "union_all",
    "flatten_union",
    "plan_key",
]

#: Maps scan names to their schemas for static schema derivation.
Catalog = Dict[str, RelationSchema]


def canonical_scan_filters(
    filters: Sequence[Tuple[str, str, Any]],
) -> Tuple[Tuple[str, str, Any], ...]:
    """Sorted, de-duplicated pushed-filter conjuncts (canonical order).

    The sort key includes the value's type name so equal-but-distinct
    constants (``1`` vs ``True``) order deterministically.  Conjuncts
    form a set — applying one twice keeps the same rows — so duplicates
    are dropped.  Canonical order makes structurally equal pushed scans
    compare equal, share one ``plan_key``, one fetch, and one
    wrapper-cache entry.
    """
    unique = {tuple(f) for f in filters}
    return tuple(
        sorted(unique, key=lambda f: (f[0], f[1], type(f[2]).__name__, repr(f[2])))
    )


class PlanNode:
    """Base class of algebra operators.

    An operator's dataclass fields are its children, then its parameters;
    the methods below read the structure from them.
    """

    __slots__ = ()

    #: The operator's schema rule: its output schema from its inputs'
    #: schemas.  Raises :class:`SchemaError` with one failure per failed
    #: check and, where the operator still produces one, a partial schema.
    derive: Callable[..., RelationSchema]

    def output_schema(self, catalog: Catalog) -> RelationSchema:
        """The schema this operator produces given base-relation schemas."""
        raise NotImplementedError

    def pretty(self) -> str:
        """Mathematical rendering (π σ ⋈ ∪ ρ δ) like the paper's Figure 8."""
        raise NotImplementedError

    def children(self) -> Tuple["PlanNode", ...]:
        """Direct child operators (none for a leaf)."""
        return ()

    def with_children(self, kids: Sequence["PlanNode"]) -> "PlanNode":
        """This operator over ``kids`` instead of its children, parameters kept."""
        names = _param_names(type(self), len(self.children()))
        return type(self)(*kids, *[getattr(self, name) for name in names])

    def nodes(self) -> Iterator["PlanNode"]:
        """This operator and every operator below it, in pre-order
        (children left to right)."""
        stack: List[PlanNode] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))

    def scans(self) -> List[str]:
        """All base-relation names in the subtree, in left-to-right order."""
        return [node.relation_name for node in self.nodes() if isinstance(node, Scan)]

    def depth(self) -> int:
        """Height of the operator tree (a Scan has depth 1)."""
        kids = self.children()
        return 1 + (max(k.depth() for k in kids) if kids else 0)


@cache
def _param_names(cls: type, arity: int) -> Tuple[str, ...]:
    """The fields of an operator class after its ``arity`` child fields."""
    return tuple(f.name for f in fields(cls))[arity:]


@dataclass(frozen=True)
class UnaryNode(PlanNode):
    """An operator over one input, ``child``."""

    child: PlanNode

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def output_schema(self, catalog: Catalog) -> RelationSchema:
        return self.derive(self.child.output_schema(catalog))


@dataclass(frozen=True)
class BinaryNode(PlanNode):
    """An operator over two inputs, ``left`` and ``right``."""

    left: PlanNode
    right: PlanNode

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.left, self.right)

    def output_schema(self, catalog: Catalog) -> RelationSchema:
        return self.derive(
            self.left.output_schema(catalog), self.right.output_schema(catalog)
        )


@dataclass(frozen=True)
class Scan(PlanNode):
    """A base relation, by catalog name (= wrapper name in MDM).

    A scan may additionally carry *pushed-down* work extracted by the
    optimizer's pushdown pass (see ``PlanOptimizer.extract_pushdown``):

    ``filters``
        equality/comparison conjuncts ``(column, op, value)`` the source
        applies before rows cross the wrapper boundary.  Semantics are
        exactly those of an executor-side ``Select`` with the same
        conjunction — NULL comparisons are False, incomparable types
        fall back to string comparison for ``=``/``!=`` only.
    ``columns``
        the needed-column list (a projection the source applies), or
        ``None`` for all signature columns.
    ``limit``
        row cap the source applies *after* filtering, or ``None`` for
        all rows (mirrors ``FetchRequest.limit``; only meaningful for
        wrappers declaring the ``limit`` capability).

    A plain ``Scan(name)`` is a full fetch; ``is_pushed()`` tells the
    two apart and ``binding_name()`` gives the catalog name the fetched
    (filtered/projected) relation is registered under.
    """

    relation_name: str
    filters: Tuple[Tuple[str, str, Any], ...] = field(default=())
    columns: Optional[Tuple[str, ...]] = field(default=None)
    limit: Optional[int] = field(default=None)

    def is_pushed(self) -> bool:
        """Whether this scan carries pushed filters, columns or a limit."""
        return (
            bool(self.filters)
            or self.columns is not None
            or self.limit is not None
        )

    def binding_name(self) -> str:
        """Catalog/executor name for this scan's (possibly pushed) output.

        Deterministic in the canonical filter order, so structurally
        equal scans share one binding (and one wrapper fetch).
        """
        if not self.is_pushed():
            return self.relation_name
        parts = [self.relation_name]
        if self.filters:
            rendered = ",".join(f"{c}{op}{v!r}" for c, op, v in self.filters)
            parts.append(f"σ[{rendered}]")
        if self.columns is not None:
            parts.append(f"π[{','.join(self.columns)}]")
        if self.limit is not None:
            parts.append(f"limit[{self.limit}]")
        return "".join(parts)

    def output_schema(self, catalog: Catalog) -> RelationSchema:
        if self.is_pushed():
            bound = catalog.get(self.binding_name())
            if bound is not None:
                return bound
        base = catalog.get(self.relation_name)
        if base is None:
            message = (
                f"scan of unknown relation {self.relation_name!r}; "
                f"catalog has {sorted(catalog)}"
            )
            raise SchemaError(failures=[(UNKNOWN_RELATION, message, self.relation_name)])
        return self.derive(base)

    def derive(self, base: RelationSchema) -> RelationSchema:
        """The pushed work over the base relation's schema: each filter
        column must exist, ``columns`` projects."""
        try:
            for column, _op, _value in self.filters:
                base.index_of(column)
            return base if self.columns is None else base.project(self.columns)
        except SchemaError:
            failures = unknown_attributes(
                "pushed filter", [c for c, _op, _value in self.filters], base
            )
            projected = unknown_attributes("pushed projection", self.columns or (), base)
            if not failures and not projected:
                raise  # a column projected twice
            partial: Optional[RelationSchema] = None
            if not projected:
                partial = base if self.columns is None else base.project(self.columns)
            raise SchemaError(failures=failures + projected, partial=partial) from None

    def pretty(self) -> str:
        if not self.is_pushed():
            return self.relation_name
        inner = []
        if self.filters:
            inner.append(
                "σ: " + " ∧ ".join(f"{c} {op} {v!r}" for c, op, v in self.filters)
            )
        if self.columns is not None:
            inner.append("π: " + ", ".join(self.columns))
        if self.limit is not None:
            inner.append(f"limit: {self.limit}")
        return f"{self.relation_name}⟨{'; '.join(inner)}⟩"


@dataclass(frozen=True)
class Project(UnaryNode):
    """π — keep (and reorder to) the listed attribute names."""

    names: Tuple[str, ...]

    def derive(self, child: RelationSchema) -> RelationSchema:
        try:
            return child.project(self.names)
        except SchemaError:
            failures = unknown_attributes("projection", self.names, child)
            if not failures:
                raise  # a column projected twice
            raise SchemaError(failures=failures) from None

    def pretty(self) -> str:
        cols = ", ".join(self.names)
        return f"π_{{{cols}}}({self.child.pretty()})"


@dataclass(frozen=True)
class Select(UnaryNode):
    """σ — filter rows by a predicate expression."""

    predicate: Expr

    def derive(self, child: RelationSchema) -> RelationSchema:
        return child

    def pretty(self) -> str:
        return f"σ_{{{self.predicate}}}({self.child.pretty()})"


@dataclass(frozen=True)
class NaturalJoin(BinaryNode):
    """⋈ — join on all shared attribute names (cross product if none)."""

    def derive(self, left: RelationSchema, right: RelationSchema) -> RelationSchema:
        return left.joined(right)

    def pretty(self) -> str:
        return f"({self.left.pretty()} ⋈ {self.right.pretty()})"


@dataclass(frozen=True)
class EquiJoin(BinaryNode):
    """⋈ on explicit attribute pairs ``(left_name, right_name)``.

    The output keeps all left attributes and the right attributes whose
    names do not collide with a left name.
    """

    pairs: Tuple[Tuple[str, str], ...]

    def derive(self, left: RelationSchema, right: RelationSchema) -> RelationSchema:
        combined = left.joined(right)
        failures: List[Failure] = []
        for l_name, r_name in self.pairs:
            failures += unknown_attributes("join pair", [l_name], left)
            failures += unknown_attributes("join pair", [r_name], right)
        if failures:
            raise SchemaError(failures=failures, partial=combined)
        return combined

    def pretty(self) -> str:
        condition = " ∧ ".join(f"{l}={r}" for l, r in self.pairs)
        return f"({self.left.pretty()} ⋈_{{{condition}}} {self.right.pretty()})"


@dataclass(frozen=True)
class Rename(UnaryNode):
    """ρ — rename attributes per a mapping (stored as sorted pairs)."""

    mapping: Tuple[Tuple[str, str], ...]

    @classmethod
    def from_dict(cls, child: PlanNode, mapping: Dict[str, str]) -> "Rename":
        """Build from a dict (sorted for deterministic equality)."""
        return cls(child, tuple(sorted(mapping.items())))

    def mapping_dict(self) -> Dict[str, str]:
        """The rename mapping as a dict."""
        return dict(self.mapping)

    def derive(self, child: RelationSchema) -> RelationSchema:
        try:
            return child.rename(self.mapping_dict())
        except SchemaError:
            failures = unknown_attributes("rename", [old for old, _ in self.mapping], child)
            if not failures:
                raise  # two columns renamed to one name
            known = {old: new for old, new in self.mapping if old in child}
            raise SchemaError(failures=failures, partial=child.rename(known)) from None

    def pretty(self) -> str:
        renames = ", ".join(f"{old}→{new}" for old, new in self.mapping)
        return f"ρ_{{{renames}}}({self.child.pretty()})"


@dataclass(frozen=True)
class Union(BinaryNode):
    """∪ — bag union of two union-compatible children."""

    def derive(self, left: RelationSchema, right: RelationSchema) -> RelationSchema:
        return left.widen(right)

    def pretty(self) -> str:
        return f"({self.left.pretty()} ∪ {self.right.pretty()})"


@dataclass(frozen=True)
class Distinct(UnaryNode):
    """δ — duplicate elimination."""

    def derive(self, child: RelationSchema) -> RelationSchema:
        return child

    def pretty(self) -> str:
        return f"δ({self.child.pretty()})"


@dataclass(frozen=True)
class Extend(UnaryNode):
    """ε — append a constant column (used to NULL-pad optional features).

    UCQ branches must be union-compatible; a branch whose wrappers do not
    provide an optional feature is extended with a NULL column of that
    name so it lines up with branches that do.
    """

    column: str
    value: object = None

    def derive(self, child: RelationSchema) -> RelationSchema:
        if self.column in child:
            message = (
                f"extend column {self.column!r} already exists in {list(child.names)}"
            )
            raise SchemaError(
                failures=[(DUPLICATE_COLUMN, message, self.column)], partial=child
            )
        try:
            attr_type = infer_type(self.value)
        except TypeError:  # a constant no relational type holds
            attr_type = AttrType.ANY
        return RelationSchema(child.attributes + (Attribute(self.column, attr_type),))

    def pretty(self) -> str:
        rendered = "NULL" if self.value is None else repr(self.value)
        return f"ε_{{{self.column}={rendered}}}({self.child.pretty()})"


#: The aggregation functions :class:`Aggregate` supports.
AGGREGATE_FUNCTIONS = ("count", "sum", "avg", "min", "max")


@dataclass(frozen=True)
class Aggregate(UnaryNode):
    """γ — grouped aggregation.

    ``metrics`` is a tuple of ``(function, column, alias)`` with function
    in :data:`AGGREGATE_FUNCTIONS`; ``column`` may be ``"*"`` for
    ``count``.  The output schema is the group-by columns followed by the
    aliases.  Not part of the paper's UCQ output (walks are conjunctive),
    but the analyst-facing tabular layer aggregates results the way any
    BI tool over MDM would.
    """

    group_by: Tuple[str, ...]
    metrics: Tuple[Tuple[str, str, str], ...]

    def __post_init__(self):
        seen = set(self.group_by)
        for function, column, alias in self.metrics:
            if function not in AGGREGATE_FUNCTIONS:
                raise SchemaError(
                    f"unknown aggregate function {function!r}; "
                    f"use one of {AGGREGATE_FUNCTIONS}"
                )
            if column == "*" and function != "count":
                raise SchemaError(f"{function}(*) is not defined")
            if alias in seen:
                raise SchemaError(f"duplicate output column {alias!r}")
            seen.add(alias)

    def derive(self, child: RelationSchema) -> RelationSchema:
        failures = unknown_attributes("group-by", self.group_by, child)
        attributes = [child.attribute(name) for name in self.group_by if name in child]
        for function, column, alias in self.metrics:
            if column != "*":
                failures += unknown_attributes(f"{function}()", [column], child)
            if function == "count":
                attr_type = AttrType.INTEGER
            elif function == "avg":
                attr_type = AttrType.FLOAT
            elif column in child:
                attr_type = child.attribute(column).type
            else:
                attr_type = AttrType.ANY
            attributes.append(Attribute(alias, attr_type))
        schema = RelationSchema(attributes)
        if failures:
            raise SchemaError(failures=failures, partial=schema)
        return schema

    def pretty(self) -> str:
        groups = ", ".join(self.group_by)
        metrics = ", ".join(
            f"{alias}={function}({column})" for function, column, alias in self.metrics
        )
        return f"γ_{{{groups}; {metrics}}}({self.child.pretty()})"


def union_all(branches: Sequence[PlanNode]) -> PlanNode:
    """Left-deep union of one or more branches (identity for a single one)."""
    if not branches:
        raise ValueError("union_all needs at least one branch")
    result = branches[0]
    for branch in branches[1:]:
        result = Union(result, branch)
    return result


def flatten_union(plan: PlanNode, kind: type = Union) -> List[PlanNode]:
    """The inputs of a nested run of ``kind`` operators, left to right.

    By default the branches of a (possibly nested) union; with
    ``NaturalJoin``, the leaves of a join cluster.
    """
    leaves: List[PlanNode] = []
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, kind):
            stack += (node.right, node.left)
        else:
            leaves.append(node)
    return leaves


def plan_key(plan: PlanNode, cache: Optional[Dict[int, str]] = None) -> str:
    """Canonical structural key of a plan subtree.

    The operator's class name over its children's keys and the ``repr``
    of each parameter, so two subtrees get the same key iff their reprs
    are equal.  Parameters are keyed by ``repr`` because ``==`` equates
    ``1`` with ``True``.  For immutable base relations equal keys mean
    equal results — the property the Executor's shared-subplan memo
    relies on.  ``cache`` (id → key) makes repeated hashing of a
    DAG-shaped UCQ linear instead of quadratic.
    """
    if cache is not None:
        hit = cache.get(id(plan))
        if hit is not None:
            return hit
    kids = plan.children()
    parts = []
    for kid in kids:
        parts.append(plan_key(kid, cache))
    for name in _param_names(type(plan), len(kids)):
        parts.append(repr(getattr(plan, name)))
    key = f"{type(plan).__name__}({';'.join(parts)})"
    if cache is not None:
        cache[id(plan)] = key
    return key
