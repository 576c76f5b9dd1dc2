"""Execution of relational-algebra plans over in-memory relations.

The :class:`Executor` plays the role of the paper's federated SQLite step:
wrapper outputs are registered as base relations, and the UCQ plan emitted
by the LAV rewriting executes against them.  Joins are hash joins; unions
widen schemas positionally and coerce rows to the common type so that two
schema versions of the same source (e.g. INTEGER ids vs stringified ids)
union cleanly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..obs import get_metrics, get_tracer
from .algebra import (
    Aggregate,
    Extend,
    Catalog,
    Distinct,
    EquiJoin,
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
from .expressions import Cmp, Col, Const, Expr, conjoin
from .relation import Relation
from .schema import RelationSchema, SchemaError

__all__ = [
    "Executor",
    "ExecutionError",
    "OperatorStats",
    "apply_pushdown",
    "pushdown_predicate",
]


class ExecutionError(RuntimeError):
    """Raised when a plan cannot be executed (unknown scan, bad schema...)."""


def pushdown_predicate(filters: Iterable[Tuple[str, str, Any]]) -> Expr:
    """The ``Select`` predicate equivalent to pushed filter conjuncts."""
    return conjoin([Cmp(op, Col(column), Const(value)) for column, op, value in filters])


def apply_pushdown(
    relation: Relation,
    filters: Tuple[Tuple[str, str, Any], ...] = (),
    columns: Optional[Tuple[str, ...]] = None,
    limit: Optional[int] = None,
) -> Relation:
    """Apply pushed scan work to a full relation, with executor semantics.

    This is the single definition of what a pushed filter/projection
    *means*: capable wrappers, the uncapable-wrapper fallback, and the
    executor's residual path all funnel through it, so pushdown can
    relocate the work without ever changing the rows.
    """
    result = relation
    if filters:
        predicate = pushdown_predicate(filters)
        names = result.schema.names
        kept = [
            row for row in result if predicate.evaluate(dict(zip(names, row)))
        ]
        result = Relation(result.schema, kept)
    if limit is not None:
        result = Relation(result.schema, list(result.rows)[:limit])
    if columns is not None:
        indices = [result.schema.index_of(n) for n in columns]
        schema = result.schema.project(columns)
        result = Relation(schema, [tuple(row[i] for i in indices) for row in result])
    return result


@dataclass(frozen=True)
class OperatorStats:
    """EXPLAIN ANALYZE facts for one executed operator node.

    ``elapsed_s`` is inclusive of children (wall time of the subtree);
    ``rows_in`` lists each child's output cardinality in child order.
    """

    label: str
    rows_in: Tuple[int, ...]
    rows_out: int
    elapsed_s: float
    children: Tuple["OperatorStats", ...] = ()
    #: True when this node's result came from the shared-subplan memo
    #: (the subtree was not re-executed; it has no children stats).
    memoized: bool = False

    @property
    def self_s(self) -> float:
        """Time spent in this operator excluding its children."""
        return max(0.0, self.elapsed_s - sum(c.elapsed_s for c in self.children))

    def iter_nodes(self) -> Iterable["OperatorStats"]:
        """This node and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.iter_nodes()

    def to_dict(self) -> Dict[str, Any]:
        """JSON-shaped rendering of the subtree."""
        return {
            "label": self.label,
            "rows_in": list(self.rows_in),
            "rows_out": self.rows_out,
            "elapsed_ms": round(self.elapsed_s * 1000.0, 6),
            "memoized": self.memoized,
            "children": [child.to_dict() for child in self.children],
        }

    def pretty(self) -> str:
        """EXPLAIN ANALYZE-style indented tree rendering."""
        lines: List[str] = []

        def render(node: "OperatorStats", depth: int) -> None:
            rows_in = ",".join(str(r) for r in node.rows_in) or "-"
            memo = " [memoized]" if node.memoized else ""
            lines.append(
                f"{'  ' * depth}-> {node.label}  "
                f"(rows_in={rows_in} rows_out={node.rows_out} "
                f"time={node.elapsed_s * 1000.0:.3f}ms){memo}"
            )
            for child in node.children:
                render(child, depth + 1)

        render(self, 0)
        return "\n".join(lines)


def _op_label(plan: PlanNode, catalog: Optional[Catalog] = None) -> str:
    """Short human label for one plan node (scan names, op arity hints).

    With a ``catalog``, joins and unions get structural detail — the join
    columns (or ``×`` for a cross product), the union's branch arity —
    so an EXPLAIN ANALYZE tree distinguishes e.g. the three different
    joins of a chain walk instead of printing ``NaturalJoin`` thrice.
    """
    if isinstance(plan, Scan):
        if plan.is_pushed():
            detail = []
            if plan.filters:
                rendered = " ∧ ".join(
                    f"{c} {op} {v!r}" for c, op, v in plan.filters
                )
                if len(rendered) > 40:
                    rendered = rendered[:37] + "..."
                detail.append(f"σ[{rendered}]")
            if plan.columns is not None:
                detail.append(f"π[{len(plan.columns)} cols]")
            if plan.limit is not None:
                detail.append(f"limit[{plan.limit}]")
            return f"Scan({plan.relation_name} {' '.join(detail)})"
        return f"Scan({plan.relation_name})"
    if isinstance(plan, Project):
        return f"Project[{len(plan.names)} cols]"
    if isinstance(plan, Rename):
        return f"Rename[{len(plan.mapping)}]"
    if isinstance(plan, Select):
        predicate = str(plan.predicate)
        if len(predicate) > 40:
            predicate = predicate[:37] + "..."
        return f"Select[{predicate}]"
    if isinstance(plan, Extend):
        return f"Extend[{plan.column}]"
    if isinstance(plan, NaturalJoin):
        if catalog is not None:
            try:
                shared, _ = plan.left.output_schema(catalog).join_split(
                    plan.right.output_schema(catalog)
                )
            except SchemaError:
                shared = None
            if shared is not None:
                condition = ",".join(shared) if shared else "×"
                return f"NaturalJoin[{condition}]"
        return "NaturalJoin"
    if isinstance(plan, EquiJoin):
        condition = ",".join(f"{l}={r}" for l, r in plan.pairs)
        return f"EquiJoin[{condition}]"
    if isinstance(plan, Union):
        return f"Union[{len(flatten_union(plan))} branches]"
    if isinstance(plan, Aggregate):
        groups = ",".join(plan.group_by) or "∅"
        metrics = ",".join(
            f"{function}({column})" for function, column, _ in plan.metrics
        )
        return f"Aggregate[by {groups}; {metrics}]"
    return type(plan).__name__


def _union_sort_key(row: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """Canonical row sort key: per cell, NULLs first, then textual order.

    Flattened ``(not_null, str, not_null, str, ...)`` — within one union
    all rows have the same width, so lexicographic comparison of the
    flat tuples equals comparison of the nested per-cell pairs while
    building one tuple per row instead of one per cell.
    """
    return tuple(
        part for value in row for part in (value is not None, str(value))
    )


class Executor:
    """Executes plans against a registry of named base relations.

    ``execute`` is the hot path and stays uninstrumented; wrap a call in
    :meth:`execute_analyzed` to collect an :class:`OperatorStats` tree
    (rows-in / rows-out / elapsed per operator — EXPLAIN ANALYZE), which
    also emits per-operator spans when the process tracer is enabled.

    With ``memoize_shared`` (the default), each top-level ``execute``
    call keeps a memo keyed by the canonical structural hash of every
    non-Scan subtree it evaluates: sibling CQ branches of a UCQ that
    share a join subtree execute it once and reuse the result relation.
    The memo lives only for the duration of one top-level call, so base
    relations registered between calls are always observed.  Cumulative
    reuse counts are exposed as :attr:`subplan_hits` /
    :attr:`subplan_misses`.
    """

    def __init__(
        self,
        relations: Optional[Dict[str, Relation]] = None,
        memoize_shared: bool = True,
    ):
        self._relations: Dict[str, Relation] = {}
        #: Optional hook resolving a base relation that was never
        #: registered (pushdown registers filtered *bindings*; provenance
        #: re-executes naive per-CQ plans over base names).  Called with
        #: the missing name; may return None to decline.
        self.base_resolver: Optional[Any] = None
        #: While analyzing: a stack of child-stat accumulators, innermost
        #: last.  None in the unobserved fast path.
        self._analyze_stack: Optional[List[List[OperatorStats]]] = None
        #: Stats tree of the last ``execute_analyzed`` call.
        self.last_stats: Optional[OperatorStats] = None
        self.memoize_shared = memoize_shared
        #: Per-top-level-call memo (plan key → result); None when idle.
        self._memo: Optional[Dict[str, Relation]] = None
        self._memo_key_cache: Dict[int, str] = {}
        #: Cumulative shared-subplan reuse counters (across calls).
        self.subplan_hits = 0
        self.subplan_misses = 0
        if relations:
            for name, relation in relations.items():
                self.register(name, relation)

    def register(self, name: str, relation: Relation) -> None:
        """Register (or replace) a base relation under ``name``."""
        if not name:
            raise ValueError("relation name must be non-empty")
        self._relations[name] = relation

    def unregister(self, name: str) -> bool:
        """Drop a base relation; True if it existed."""
        return self._relations.pop(name, None) is not None

    @property
    def catalog(self) -> Catalog:
        """Scan-name → schema mapping for static plan checking."""
        return {name: rel.schema for name, rel in self._relations.items()}

    def relation(self, name: str) -> Relation:
        """The base relation registered under ``name``.

        Falls back to :attr:`base_resolver` (registering what it returns)
        so a pushdown-era executor can still serve naive base-name plans
        (provenance re-execution) by lazily fetching the full relation.
        """
        rel = self._relations.get(name)
        if rel is None and self.base_resolver is not None:
            fetched = self.base_resolver(name)
            if fetched is not None:
                self._relations[name] = fetched
                rel = fetched
        if rel is None:
            raise ExecutionError(
                f"unknown base relation {name!r}; registered: "
                f"{sorted(self._relations)}"
            )
        return rel

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #

    def execute(self, plan: PlanNode) -> Relation:
        """Evaluate ``plan`` and return the result relation."""
        fresh_memo = self.memoize_shared and self._memo is None
        if fresh_memo:
            self._memo = {}
            self._memo_key_cache = {}
        try:
            if self._analyze_stack is None:
                return self._dispatch_memo(plan)
            return self._execute_instrumented(plan)
        finally:
            if fresh_memo:
                self._memo = None
                self._memo_key_cache = {}

    def _memo_lookup(self, plan: PlanNode) -> Tuple[Optional[str], Optional[Relation]]:
        """(memo key, cached relation) for ``plan``; (None, None) if unmemoizable."""
        if self._memo is None or isinstance(plan, Scan):
            # Scans are dictionary lookups already — not worth a hash.
            return None, None
        key = plan_key(plan, self._memo_key_cache)
        hit = self._memo.get(key)
        if hit is not None:
            self.subplan_hits += 1
        else:
            self.subplan_misses += 1
        return key, hit

    def _dispatch_memo(self, plan: PlanNode) -> Relation:
        key, hit = self._memo_lookup(plan)
        if hit is not None:
            return hit
        relation = self._dispatch(plan)
        if key is not None:
            self._memo[key] = relation
        return relation

    def execute_analyzed(self, plan: PlanNode) -> Tuple[Relation, OperatorStats]:
        """Evaluate ``plan`` collecting per-operator statistics.

        Returns ``(relation, stats)`` where ``stats`` is the root of an
        :class:`OperatorStats` tree mirroring the plan shape.  The tree is
        also kept on :attr:`last_stats`.  Nested/recursive calls restore
        the previous instrumentation state, so provenance re-execution of
        UCQ branches does not corrupt an outer analysis.
        """
        previous = self._analyze_stack
        root_frame: List[OperatorStats] = []
        self._analyze_stack = [root_frame]
        try:
            relation = self.execute(plan)
        finally:
            self._analyze_stack = previous
        stats = root_frame[0]
        self.last_stats = stats
        return relation, stats

    def _execute_instrumented(self, plan: PlanNode) -> Relation:
        """One analyzed operator: time it, record stats, emit a span."""
        assert self._analyze_stack is not None
        label = _op_label(plan, self.catalog)
        memo_key, hit = self._memo_lookup(plan)
        if hit is not None:
            stats = OperatorStats(
                label=label,
                rows_in=(),
                rows_out=len(hit),
                elapsed_s=0.0,
                children=(),
                memoized=True,
            )
            self._analyze_stack[-1].append(stats)
            return hit
        children: List[OperatorStats] = []
        self._analyze_stack.append(children)
        span = get_tracer().span(f"op:{label}")
        started = time.perf_counter()
        with span:
            try:
                relation = self._dispatch(plan)
            finally:
                self._analyze_stack.pop()
            elapsed = time.perf_counter() - started
            stats = OperatorStats(
                label=label,
                rows_in=tuple(child.rows_out for child in children),
                rows_out=len(relation),
                elapsed_s=elapsed,
                children=tuple(children),
            )
            span.set_tag("rows_in", list(stats.rows_in))
            span.set_tag("rows_out", stats.rows_out)
        self._analyze_stack[-1].append(stats)
        if memo_key is not None and self._memo is not None:
            self._memo[memo_key] = relation
        get_metrics().histogram(
            "mdm_executor_operator_seconds",
            "Inclusive latency of relational operators (analyzed runs).",
            labelnames=("op",),
        ).observe(elapsed, op=type(plan).__name__)
        return relation

    def _dispatch(self, plan: PlanNode) -> Relation:
        if isinstance(plan, Scan):
            return self._scan(plan)
        if isinstance(plan, Project):
            return self._project(plan)
        if isinstance(plan, Select):
            return self._select(plan)
        if isinstance(plan, NaturalJoin):
            return self._natural_join(plan)
        if isinstance(plan, EquiJoin):
            return self._equi_join(plan)
        if isinstance(plan, Rename):
            return self._rename(plan)
        if isinstance(plan, Union):
            return self._union(plan)
        if isinstance(plan, Distinct):
            return self.execute(plan.child).distinct()
        if isinstance(plan, Aggregate):
            return self._aggregate(plan)
        if isinstance(plan, Extend):
            child = self.execute(plan.child)
            rows = [row + (plan.value,) for row in child]
            return Relation(plan.derive(child.schema), rows)
        raise ExecutionError(f"unknown plan node {plan!r}")

    def _scan(self, plan: Scan) -> Relation:
        if not plan.is_pushed():
            return self.relation(plan.relation_name)
        binding = plan.binding_name()
        bound = self._relations.get(binding)
        if bound is not None:
            return bound
        # Residual fallback: the pushed binding was never fetched (e.g. a
        # hand-built plan, or a wrapper that declined) — derive it from
        # the full base relation with identical semantics, and register
        # it so repeated scans of the same binding reuse the result.
        base = self.relation(plan.relation_name)
        derived = apply_pushdown(base, plan.filters, plan.columns, plan.limit)
        self._relations[binding] = derived
        return derived

    def _aggregate(self, plan: Aggregate) -> Relation:
        child = self.execute(plan.child)
        schema = plan.derive(child.schema)
        group_indices = [child.schema.index_of(n) for n in plan.group_by]
        metric_indices = [
            None if column == "*" else child.schema.index_of(column)
            for _, column, _ in plan.metrics
        ]
        groups: Dict[Tuple, List[Tuple]] = {}
        order: List[Tuple] = []
        for row in child:
            key = tuple(row[i] for i in group_indices)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(row)
        if not plan.group_by and not groups:
            # Global aggregate over an empty input still yields one row.
            groups[()] = []
            order.append(())
        rows: List[Tuple] = []
        for key in order:
            members = groups[key]
            cells: List[Any] = list(key)
            for (function, column, _), index in zip(plan.metrics, metric_indices):
                if function == "count" and index is None:
                    cells.append(len(members))
                    continue
                values = [
                    row[index] for row in members if row[index] is not None
                ]
                if function == "count":
                    cells.append(len(values))
                elif not values:
                    cells.append(None)
                elif function == "sum":
                    cells.append(sum(values))
                elif function == "avg":
                    cells.append(sum(values) / len(values))
                elif function == "min":
                    cells.append(min(values))
                elif function == "max":
                    cells.append(max(values))
                else:  # unreachable: Aggregate validates its functions
                    raise ExecutionError(f"unknown aggregate {function!r}")
            rows.append(tuple(cells))
        return Relation(schema, rows)

    def _project(self, plan: Project) -> Relation:
        child = self.execute(plan.child)
        schema = plan.derive(child.schema)
        indices = [child.schema.index_of(n) for n in plan.names]
        rows = [tuple(row[i] for i in indices) for row in child]
        return Relation(schema, rows)

    def _select(self, plan: Select) -> Relation:
        child = self.execute(plan.child)
        names = child.schema.names
        kept = [
            row
            for row in child
            if plan.predicate.evaluate(dict(zip(names, row)))
        ]
        return Relation(child.schema, kept)

    def _natural_join(self, plan: NaturalJoin) -> Relation:
        left = self.execute(plan.left)
        right = self.execute(plan.right)
        shared, schema = left.schema.join_split(right.schema)
        if not shared:
            # Degenerate to a cross product.
            rows = [l + r for l in left for r in right]
            return Relation(schema, rows)
        pairs = tuple((n, n) for n in shared)
        return self._hash_join(left, right, pairs, schema)

    def _equi_join(self, plan: EquiJoin) -> Relation:
        left = self.execute(plan.left)
        right = self.execute(plan.right)
        schema = plan.derive(left.schema, right.schema)
        return self._hash_join(left, right, plan.pairs, schema)

    @staticmethod
    def _join_key(value: Any) -> Any:
        """Normalize join keys so 25 and "25" and 25.0 meet (REST payloads
        stringify numbers inconsistently across API versions)."""
        if isinstance(value, bool):
            return ("b", value)
        if isinstance(value, (int, float)):
            return ("n", float(value))
        if isinstance(value, str):
            stripped = value.strip()
            try:
                return ("n", float(stripped))
            except ValueError:
                return ("s", value)
        return ("x", value)

    def _hash_join(
        self,
        left: Relation,
        right: Relation,
        pairs: Tuple[Tuple[str, str], ...],
        schema: RelationSchema,
    ) -> Relation:
        left_indices = [left.schema.index_of(l) for l, _ in pairs]
        right_indices = [right.schema.index_of(r) for _, r in pairs]
        keep_right = [
            i
            for i, attr in enumerate(right.schema.attributes)
            if attr.name not in left.schema
        ]
        # Build on the smaller side.
        build_left = len(left) <= len(right)
        table: Dict[Tuple, List[Tuple]] = {}
        if build_left:
            for row in left:
                key = tuple(self._join_key(row[i]) for i in left_indices)
                if any(row[i] is None for i in left_indices):
                    continue
                table.setdefault(key, []).append(row)
            rows = []
            for row in right:
                if any(row[i] is None for i in right_indices):
                    continue
                key = tuple(self._join_key(row[i]) for i in right_indices)
                for match in table.get(key, ()):
                    rows.append(match + tuple(row[i] for i in keep_right))
        else:
            for row in right:
                if any(row[i] is None for i in right_indices):
                    continue
                key = tuple(self._join_key(row[i]) for i in right_indices)
                table.setdefault(key, []).append(row)
            rows = []
            for row in left:
                if any(row[i] is None for i in left_indices):
                    continue
                key = tuple(self._join_key(row[i]) for i in left_indices)
                for match in table.get(key, ()):
                    rows.append(row + tuple(match[i] for i in keep_right))
        return Relation(schema, rows)

    def _rename(self, plan: Rename) -> Relation:
        child = self.execute(plan.child)
        return Relation(plan.derive(child.schema), child.rows)

    def _union(self, plan: Union) -> Relation:
        left = self.execute(plan.left)
        right = self.execute(plan.right)
        if not left.schema.union_compatible(right.schema):
            raise ExecutionError(
                "union of incompatible schemas: "
                f"{list(left.schema.names)} vs {list(right.schema.names)}"
            )
        widened = left.schema.widen(right.schema)
        left_rows = left.coerced(widened).rows
        right_rows = right.coerced(widened).rows
        # Sort the merged branches so union output (and the downstream
        # first-occurrence dedupe) is identical regardless of which CQ
        # branch's wrapper fetch finished first under concurrency.  The
        # key is one flat interleaved tuple per row — same total order as
        # a tuple of per-cell (not-null, str) pairs, without allocating a
        # nested tuple per cell.
        rows = sorted(left_rows + right_rows, key=_union_sort_key)
        return Relation(widened, rows)
