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
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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

#: Floats hold every integer of smaller magnitude exactly, and no more.
_EXACT_FLOATS = 2.0**53


class ExecutionError(RuntimeError):
    """Raised when a plan cannot be executed (unknown scan, bad schema...)."""


def pushdown_predicate(filters: Iterable[Tuple[str, str, Any]]) -> Expr:
    """The ``Select`` predicate equivalent to pushed filter conjuncts."""
    return conjoin([Cmp(op, Col(column), Const(value)) for column, op, value in filters])


def row_getter(keys: Sequence[Any]) -> Callable[[Any], Tuple[Any, ...]]:
    """A function taking the items at ``keys`` of a row, as a tuple.

    Works on tuple rows (``keys`` are indices) and on dict records.
    ``itemgetter`` over two or more keys already returns a tuple; over
    one it returns the bare item and over none it cannot be built, so
    those two cases get their own function.
    """
    if len(keys) > 1:
        return itemgetter(*keys)
    if keys:
        (key,) = keys
        return lambda row: (row[key],)
    return lambda row: ()


def select_rows(relation: Relation, predicate: Expr) -> Relation:
    """The rows of ``relation`` on which ``predicate`` holds, each read
    as a dict of the columns it references (NULL if the schema lacks one)."""
    schema, evaluate = relation.schema, predicate.evaluate
    read = [(n, schema.index_of(n)) for n in set(predicate.references()) if n in schema]
    kept = tuple(row for row in relation.rows if evaluate({n: row[i] for n, i in read}))
    return Relation.of_checked(schema, kept)


def apply_pushdown(relation: Relation, scan: Scan) -> Relation:
    """Apply a Scan's pushed work to its full relation, with executor semantics.

    This is the single definition of what a pushed filter/projection
    *means*: capable wrappers, the uncapable-wrapper fallback, the
    wrapper cache, request planning and the executor's residual path all
    funnel through it, so pushdown can relocate the work without ever
    changing the rows.  Fires the ``fetch.apply`` failpoint, keyed by
    the relation's name.
    """
    from ..chaos.failpoints import fire as _failpoint

    _failpoint("fetch.apply", key=relation.name)
    result = relation
    if scan.filters:
        result = select_rows(result, pushdown_predicate(scan.filters))
    if scan.limit is not None:
        result = Relation(result.schema, result.rows[: scan.limit])
    if scan.columns is not None:
        getter = row_getter([result.schema.index_of(n) for n in scan.columns])
        schema = result.schema.project(scan.columns)
        result = Relation(schema, map(getter, result.rows))
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
            "children": [child.to_dict() for child in self.children],
        }

    def pretty(self) -> str:
        """EXPLAIN ANALYZE-style indented tree rendering."""
        lines: List[str] = []

        def render(node: "OperatorStats", depth: int) -> None:
            rows_in = ",".join(str(r) for r in node.rows_in) or "-"
            lines.append(
                f"{'  ' * depth}-> {node.label}  "
                f"(rows_in={rows_in} rows_out={node.rows_out} "
                f"time={node.elapsed_s * 1000.0:.3f}ms)"
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
    """

    def __init__(self, relations: Optional[Dict[str, Relation]] = None):
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
        if self._analyze_stack is None:
            return self._dispatch(plan)
        return self._execute_instrumented(plan)

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
        get_metrics().histogram("mdm_executor_operator_seconds").observe(
            elapsed, op=type(plan).__name__
        )
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
        derived = apply_pushdown(base, plan)
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
        getter = row_getter([child.schema.index_of(n) for n in plan.names])
        return Relation(schema, map(getter, child.rows))

    def _select(self, plan: Select) -> Relation:
        return select_rows(self.execute(plan.child), plan.predicate)

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
        stringify numbers inconsistently across API versions).

        Numbers stay as they are: equal ints and floats are one key to
        ``==`` and ``hash`` already, and only an exact comparison keeps
        2**53 and 2**53 + 1 apart.  A numeric string is read as a float,
        and read again as an int when the float cannot hold every
        integer of its size (an integral text of 2**53 or more).
        """
        if isinstance(value, bool):
            return ("b", value)
        if isinstance(value, (int, float)):
            return ("n", value)
        if isinstance(value, str):
            stripped = value.strip()
            try:
                number = float(stripped)
            except ValueError:
                return ("s", value)
            if abs(number) < _EXACT_FLOATS:
                return ("n", number)
            try:
                return ("n", int(stripped))
            except ValueError:  # "1e400", "inf", "nan"
                return ("n", number)
        return ("x", value)

    def _join_keys(self, relation: Relation, indices: Sequence[int]) -> List[Any]:
        """Each row's join key over the cells at ``indices``, in row order.

        A row with a NULL key cell gets None: it joins nothing.  Any
        other gets its cells normalized by :meth:`_join_key` -- the
        normalized cell itself when there is one key column, which saves
        a tuple per row, and their tuple when there are several.
        """
        join_key = self._join_key
        if len(indices) == 1:
            cells = map(itemgetter(indices[0]), relation.rows)
            return [None if cell is None else join_key(cell) for cell in cells]
        return [
            None if None in cells else tuple(map(join_key, cells))
            for cells in map(row_getter(indices), relation.rows)
        ]

    def _hash_join(
        self,
        left: Relation,
        right: Relation,
        pairs: Tuple[Tuple[str, str], ...],
        schema: RelationSchema,
    ) -> Relation:
        left_keys = self._join_keys(left, [left.schema.index_of(l) for l, _ in pairs])
        right_keys = self._join_keys(
            right, [right.schema.index_of(r) for _, r in pairs]
        )
        kept = row_getter(
            [
                i
                for i, attr in enumerate(right.schema.attributes)
                if attr.name not in left.schema
            ]
        )
        # Build on the smaller side.  An output row is the left row and
        # the right row's kept cells, in probe order, then build order.
        build_left = len(left) <= len(right)
        if build_left:
            build, build_keys, probe, probe_keys = left, left_keys, right, right_keys
        else:
            build, build_keys, probe, probe_keys = right, right_keys, left, left_keys
        table: Dict[Any, List[Tuple]] = {}
        for row, key in zip(build.rows, build_keys):
            if key is not None:
                table.setdefault(key, []).append(row)
        rows: List[Tuple] = []
        for row, key in zip(probe.rows, probe_keys):
            matches = table.get(key)
            if not matches:
                continue
            if build_left:
                tail = kept(row)
                rows.extend([match + tail for match in matches])
            else:
                rows.extend([row + kept(match) for match in matches])
        return Relation(schema, rows)

    def _rename(self, plan: Rename) -> Relation:
        child = self.execute(plan.child)
        return Relation.of_checked(plan.derive(child.schema), child.rows)

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
