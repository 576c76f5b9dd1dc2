"""Rule-based logical optimization of UCQ plans.

The LAV rewriting (paper §2.4, Figure 8) emits a union of conjunctive
queries whose size grows multiplicatively with the wrappers per concept.
The emitted trees are *correct* but naive: selections sit at the top,
and every wrapper column survives to the union even when the walk
projects it away.  This module closes that gap with a two-stage logical
optimizer:

1. **Fixpoint rewriting** — local algebraic rules applied bottom-up until
   none fires: selection-conjunction splitting, selection pushdown
   through π/ρ/δ/ε/γ and into the matching join side, rename fusion,
   project fusion, noop elimination, and Distinct/Union flattening with
   duplicate-branch elimination at the UCQ root.
2. **Projection pruning** — a top-down pass that narrows every subtree
   to the columns its ancestors actually consume, so unused wrapper
   columns are cut at the Scan instead of being carried through joins.

Join order stays as the rewriter emits it.  A CQ joins the walk's
concepts along its edges on identifier columns, attaching a concept
only when it shares a column with what is already joined, so no join
is a cross product; keeping the order also keeps the first provider of
every shared column, and with it the output bytes.

All rewrites preserve the result as a bag of rows up to row order (and
byte-identically after the canonical UCQ-root sort that
``MDM.execute`` applies).

The rules test schemas all the time: which join side provides a
column, whether a Project is a noop, what a Rename exposes.  One run
derives each node's schema once, from its children's, and reuses it
(:meth:`PlanOptimizer._schema`), so a left-deep chain of *n* joins
costs *n* schema derivations rather than *n²*.  Pruning returns the
subtrees it leaves unchanged as they were, so the fixpoint after it
reuses their schemas too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..obs import get_metrics
from .algebra import (
    CAP_FILTERS,
    CAP_PROJECTION,
    Aggregate,
    Catalog,
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
    canonical_scan_filters,
    flatten_union,
    plan_key,
    union_all,
)
from .expressions import Expr, conjuncts, rename_columns
from .schema import RelationSchema, SchemaError

__all__ = [
    "OptimizationStats",
    "PlanOptimizer",
    "flatten_union",
    "plan_key",
]


# --------------------------------------------------------------------- #
# optimization statistics
# --------------------------------------------------------------------- #


@dataclass
class OptimizationStats:
    """What the optimizer did to one plan (for EXPLAIN and metrics)."""

    rules: Dict[str, int] = field(default_factory=dict)
    passes: int = 0
    elapsed_s: float = 0.0

    def count(self, rule: str, n: int = 1) -> None:
        """Record ``n`` applications of ``rule``."""
        self.rules[rule] = self.rules.get(rule, 0) + n

    @property
    def total(self) -> int:
        """Total rule applications across the whole optimization."""
        return sum(self.rules.values())

    def to_dict(self) -> Dict[str, object]:
        """JSON-shaped summary."""
        return {
            "rules": dict(sorted(self.rules.items())),
            "total_rules_applied": self.total,
            "passes": self.passes,
            "elapsed_ms": round(self.elapsed_s * 1000.0, 6),
        }


# --------------------------------------------------------------------- #
# the optimizer
# --------------------------------------------------------------------- #


class PlanOptimizer:
    """Fixpoint rewriter + projection pruner.

    ``catalog`` gives scan schemas (needed for pushdown side tests and
    pruning).  The optimizer never raises on a plan it cannot improve —
    any rule whose precondition fails (e.g. a schema lookup error on a
    malformed tree) simply does not fire, and the pruning pass bails out
    wholesale on :class:`SchemaError`, returning the unpruned plan.
    """

    MAX_PASSES = 50

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        *,
        pushdown_capabilities: Optional[Mapping[str, frozenset]] = None,
    ):
        self.catalog: Catalog = dict(catalog or {})
        #: scan name → wrapper capability set ("filters"/"projection"/
        #: "limit").  When set, σ/π nodes sitting on a capable Scan fold
        #: into the scan itself (the pushdown-extraction rules).
        self.pushdown_capabilities: Optional[Dict[str, frozenset]] = (
            None
            if pushdown_capabilities is None
            else {k: frozenset(v) for k, v in pushdown_capabilities.items()}
        )
        #: ``id(node) -> (node, schema)`` for the run in progress; holding
        #: the node keeps its id from being reused while the entry lives.
        self._schemas: Dict[int, Tuple[PlanNode, RelationSchema]] = {}

    # -- public entry points ------------------------------------------- #

    def optimize(self, plan: PlanNode) -> Tuple[PlanNode, OptimizationStats]:
        """Optimized plan plus a record of every rule that fired."""
        return self._run(plan)

    def extract_pushdown(
        self, plan: PlanNode
    ) -> Tuple[PlanNode, OptimizationStats]:
        """The pre-fetch pushdown pass: fold σ/π into capable scans.

        The same passes as :meth:`optimize`, with the fold rules armed
        via ``pushdown_capabilities``; a method of its own so traces tell
        the pre-fetch pass from the typed one.  Meant to be called with a
        signature-derived (ANY-typed) catalog: no rule reads a column's
        type, so every rule that fires on it is name-based and
        result-preserving.
        """
        return self._run(plan)

    def _run(self, plan: PlanNode) -> Tuple[PlanNode, OptimizationStats]:
        stats = OptimizationStats()
        started = time.perf_counter()
        self._schemas = {}
        try:
            plan = self._fixpoint(plan, stats)
            pruned = self._try_prune(plan, stats)
            if pruned is not None:
                # Pruning inserts Projects that may now fuse or be noops.
                plan = self._fixpoint(pruned, stats)
        finally:
            self._schemas = {}
        stats.elapsed_s = time.perf_counter() - started
        self._emit_metrics(stats)
        return plan, stats

    def _schema(self, node: PlanNode) -> RelationSchema:
        """``node.output_schema(self.catalog)``, derived once per run.

        A Scan reads the catalog; any other node applies its own
        ``derive`` to its children's memoized schemas.  A
        :class:`SchemaError` propagates and is never memoized, so a rule
        whose schema check fails still does not fire.
        """
        hit = self._schemas.get(id(node))
        if hit is not None:
            return hit[1]
        if isinstance(node, Scan):
            schema = node.output_schema(self.catalog)
        else:
            schema = node.derive(*map(self._schema, node.children()))
        self._schemas[id(node)] = (node, schema)
        return schema

    @staticmethod
    def _emit_metrics(stats: OptimizationStats) -> None:
        counter = get_metrics().counter("mdm_optimizer_rules_applied_total")
        for rule, count in stats.rules.items():
            counter.inc(count, rule=rule)

    # -- stage 1: fixpoint rewriting ----------------------------------- #

    def _fixpoint(self, plan: PlanNode, stats: OptimizationStats) -> PlanNode:
        for _ in range(self.MAX_PASSES):
            stats.passes += 1
            plan, changed = self._rewrite(plan, stats)
            if not changed:
                break
        return plan

    def _rewrite(
        self, plan: PlanNode, stats: OptimizationStats
    ) -> Tuple[PlanNode, bool]:
        """One bottom-up pass: rewrite children, then this node."""
        changed = False
        kids = plan.children()
        if kids:
            new_kids = []
            for kid in kids:
                new_kid, kid_changed = self._rewrite(kid, stats)
                changed = changed or kid_changed
                new_kids.append(new_kid)
            if changed:
                plan = plan.with_children(new_kids)
        rewritten = self._apply_local(plan, stats)
        if rewritten is not None:
            return rewritten, True
        return plan, changed

    def _apply_local(
        self, plan: PlanNode, stats: OptimizationStats
    ) -> Optional[PlanNode]:
        """The first local rule that fires on ``plan``, or None."""
        if isinstance(plan, Select):
            return self._rewrite_select(plan, stats)
        if isinstance(plan, Rename):
            return self._rewrite_rename(plan, stats)
        if isinstance(plan, Project):
            return self._rewrite_project(plan, stats)
        if isinstance(plan, Distinct):
            return self._rewrite_distinct(plan, stats)
        return None

    # Select rules ----------------------------------------------------- #

    def _rewrite_select(
        self, plan: Select, stats: OptimizationStats
    ) -> Optional[PlanNode]:
        factors = conjuncts(plan.predicate)
        if len(factors) > 1:
            # σ_{a∧b}(c) → σ_a(σ_b(c)): each conjunct then pushes on its own.
            node = plan.child
            for factor in reversed(factors):
                node = Select(node, factor)
            stats.count("select_split", len(factors) - 1)
            return node
        child = plan.child
        refs = set(plan.predicate.references())
        if isinstance(child, Scan):
            return self._fold_select_scan(plan, child, stats)
        # A predicate on a column absent from the child's output evaluates
        # to NULL→False rather than erroring, so pushing it somewhere the
        # column *does* exist would change results: every pushdown below
        # requires the referenced columns to be visible at this level.
        if isinstance(child, Project):
            if refs <= set(child.names):
                stats.count("select_pushdown_project")
                return Project(
                    Select(child.child, plan.predicate), child.names
                )
            return None
        if isinstance(child, Rename):
            try:
                visible = set(self._schema(child).names)
            except SchemaError:
                return None
            if not refs <= visible:
                return None
            inverse = {new: old for old, new in child.mapping}
            stats.count("select_pushdown_rename")
            return Rename(
                Select(child.child, rename_columns(plan.predicate, inverse)),
                child.mapping,
            )
        if isinstance(child, Distinct):
            stats.count("select_pushdown_distinct")
            return Distinct(Select(child.child, plan.predicate))
        if isinstance(child, Extend) and child.column not in refs:
            stats.count("select_pushdown_extend")
            return Extend(
                Select(child.child, plan.predicate), child.column, child.value
            )
        if isinstance(child, (NaturalJoin, EquiJoin)):
            return self._push_select_join(plan, child, refs, stats)
        if isinstance(child, Aggregate):
            if child.group_by and refs and refs <= set(child.group_by):
                stats.count("select_pushdown_aggregate")
                return Aggregate(
                    Select(child.child, plan.predicate),
                    child.group_by,
                    child.metrics,
                )
        return None

    # Pushdown-extraction rules (armed via ``pushdown_capabilities``) --- #

    #: Mirror ops for flipping ``Const op Col`` into ``Col op Const``.
    _FLIPPED_OPS = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}

    #: Constant types a pushed filter may carry across the boundary.
    _PUSHABLE_VALUE_TYPES = (str, int, float, bool, type(None))

    def _capable(self, scan: Scan, cap: str) -> bool:
        """Whether extraction is armed and ``scan``'s wrapper declared ``cap``."""
        if self.pushdown_capabilities is None:
            return False
        return cap in self.pushdown_capabilities.get(scan.relation_name, ())

    @classmethod
    def _pushable_conjunct(cls, expr: Expr) -> Optional[Tuple[str, str, object]]:
        """``(column, op, value)`` if ``expr`` is a pushable comparison."""
        from .expressions import Cmp, Col, Const

        if not isinstance(expr, Cmp):
            return None
        op = expr.op
        if isinstance(expr.left, Col) and isinstance(expr.right, Const):
            column, value = expr.left.name, expr.right.value
        elif isinstance(expr.left, Const) and isinstance(expr.right, Col):
            column, value = expr.right.name, expr.left.value
            op = cls._FLIPPED_OPS[op]
        else:
            return None
        if not isinstance(value, cls._PUSHABLE_VALUE_TYPES):
            return None
        return (column, op, value)

    def _fold_select_scan(
        self, plan: Select, child: Scan, stats: OptimizationStats
    ) -> Optional[PlanNode]:
        """σ(Scan) → Scan with the conjunct folded into pushed filters.

        Only fires when the wrapper declared the ``filters`` capability
        and the conjunct is a simple column/constant comparison over a
        column visible in the scan's *output* (a pushed filter evaluates
        against the base row, where a projected-away column would wrongly
        come back to life).
        """
        if not self._capable(child, CAP_FILTERS):
            return None
        if child.limit is not None:
            # The pushed limit truncates *after* the scan's own filters;
            # folding a further filter underneath it would change which
            # rows the cap keeps.
            return None
        conjunct = self._pushable_conjunct(plan.predicate)
        if conjunct is None:
            return None
        try:
            visible = set(self._schema(child).names)
        except SchemaError:
            return None
        if conjunct[0] not in visible:
            return None
        folded = canonical_scan_filters(child.filters + (conjunct,))
        stats.count("select_pushed_into_scan")
        return Scan(child.relation_name, folded, child.columns)

    def _fold_project_scan(
        self, plan: Project, child: Scan, stats: OptimizationStats
    ) -> Optional[PlanNode]:
        """π(Scan) → Scan with the needed-column list pushed down."""
        if not self._capable(child, CAP_PROJECTION):
            return None
        try:
            current = self._schema(child).names
        except SchemaError:
            return None
        if plan.names == current:
            return None  # the noop rule drops this Project instead
        if not set(plan.names) <= set(current):
            return None
        stats.count("project_pushed_into_scan")
        return Scan(
            child.relation_name, child.filters, tuple(plan.names), child.limit
        )

    def _push_select_join(
        self,
        plan: Select,
        child: PlanNode,
        refs: Set[str],
        stats: OptimizationStats,
    ) -> Optional[PlanNode]:
        """Push σ into the join side that provides all referenced values.

        Left always wins shared columns in the output, so a predicate
        over left names can always move left; it may only move right when
        every referenced column is provided *exclusively* by the right
        side (otherwise it would filter on right values the output never
        exposes).
        """
        if not refs:
            return None
        try:
            left_names = set(self._schema(child.left).names)
            right_names = set(self._schema(child.right).names)
        except SchemaError:
            return None
        if refs <= left_names:
            stats.count("select_pushdown_join_left")
            return child.with_children(
                (Select(child.left, plan.predicate), child.right)
            )
        if refs <= (right_names - left_names):
            stats.count("select_pushdown_join_right")
            return child.with_children(
                (child.left, Select(child.right, plan.predicate))
            )
        return None

    # Rename rules ----------------------------------------------------- #

    def _rewrite_rename(
        self, plan: Rename, stats: OptimizationStats
    ) -> Optional[PlanNode]:
        if all(old == new for old, new in plan.mapping):
            stats.count("rename_noop_dropped")
            return plan.child
        child = plan.child
        if isinstance(child, Rename):
            # ρ_outer(ρ_inner(c)) → one ρ with the composed mapping,
            # computed against the child's actual schema so renames of
            # renamed-away names cannot sneak in.
            try:
                base = self._schema(child.child)
            except SchemaError:
                return None
            inner = child.mapping_dict()
            outer = plan.mapping_dict()
            composed = {}
            for name in base.names:
                mid = inner.get(name, name)
                final = outer.get(mid, mid)
                if final != name:
                    composed[name] = final
            stats.count("rename_fused")
            if not composed:
                return child.child
            return Rename.from_dict(child.child, composed)
        return None

    # Project rules ---------------------------------------------------- #

    def _rewrite_project(
        self, plan: Project, stats: OptimizationStats
    ) -> Optional[PlanNode]:
        child = plan.child
        if isinstance(child, Project):
            stats.count("project_fused")
            return Project(child.child, plan.names)
        if isinstance(child, Scan):
            folded = self._fold_project_scan(plan, child, stats)
            if folded is not None:
                return folded
        try:
            if plan.names == self._schema(child).names:
                stats.count("project_noop_dropped")
                return child
        except SchemaError:
            return None
        if isinstance(child, Rename) and isinstance(child.child, Scan):
            return self._push_project_rename(plan, child, stats)
        return None

    def _push_project_rename(
        self, plan: Project, child: Rename, stats: OptimizationStats
    ) -> Optional[PlanNode]:
        """π(ρ(Scan)) → ρ(π(Scan)), only to expose a pushable Scan.

        As a general rewrite the swap is cosmetic, so it is gated on a
        projection-capable Scan directly under the rename: there it lets
        the inner Project fold into the Scan on the next pass, carrying
        the column list across the wrapper boundary.
        """
        scan = child.child
        if not self._capable(scan, CAP_PROJECTION):
            return None
        try:
            renamed_visible = self._schema(child).names
        except SchemaError:
            return None
        if not set(plan.names) <= set(renamed_visible):
            return None
        inverse = {new: old for old, new in child.mapping}
        pre = tuple(inverse.get(name, name) for name in plan.names)
        if len(set(pre)) != len(pre):
            return None
        kept = {
            old: new for old, new in child.mapping if old in set(pre)
        }
        stats.count("project_pushdown_rename")
        projected = Project(scan, pre)
        if not kept:
            return projected
        return Rename.from_dict(projected, kept)

    # Distinct rules --------------------------------------------------- #

    def _rewrite_distinct(
        self, plan: Distinct, stats: OptimizationStats
    ) -> Optional[PlanNode]:
        child = plan.child
        if isinstance(child, Distinct):
            stats.count("distinct_fused")
            return child
        if isinstance(child, Union):
            # δ absorbs branch multiplicity: flatten the union and drop
            # structurally identical CQ branches (the UCQ-root rule).
            branches = flatten_union(child)
            cache: Dict[int, str] = {}
            seen: Set[str] = set()
            unique: List[PlanNode] = []
            for branch in branches:
                key = plan_key(branch, cache)
                if key not in seen:
                    seen.add(key)
                    unique.append(branch)
            rebuilt = Distinct(union_all(unique))
            if len(unique) < len(branches):
                stats.count(
                    "union_branch_deduped", len(branches) - len(unique)
                )
                return rebuilt
            if rebuilt != plan:
                # Same branches, non-canonical nesting: normalize to the
                # left-deep shape so equal unions get equal plan keys.
                stats.count("union_flattened")
                return rebuilt
        return None

    # -- stage 2: projection pruning ----------------------------------- #

    def _try_prune(
        self, plan: PlanNode, stats: OptimizationStats
    ) -> Optional[PlanNode]:
        try:
            return self._prune(plan, None, stats)
        except SchemaError:
            return None

    def _prune(
        self,
        plan: PlanNode,
        needed: Optional[Set[str]],
        stats: OptimizationStats,
    ) -> PlanNode:
        """Narrow ``plan`` to (a superset of) the ``needed`` columns.

        Contract: with ``needed=None`` the output schema is exactly the
        original; with a set, the output keeps original column order and
        satisfies ``needed ∩ original ⊆ output ⊆ original``.  Values of
        surviving columns are byte-identical to the naive plan's.

        A subtree that pruning leaves as it was is returned as the same
        object, so the fixpoint after pruning finds its schema memoized.
        """
        pruned = self._narrow(plan, needed, stats)
        if (
            type(pruned) is type(plan)
            and all(a is b for a, b in zip(pruned.children(), plan.children()))
            and pruned == plan
        ):
            return plan
        return pruned

    def _narrow(
        self,
        plan: PlanNode,
        needed: Optional[Set[str]],
        stats: OptimizationStats,
    ) -> PlanNode:
        """One step of :meth:`_prune`: ``plan`` over its pruned children."""
        if isinstance(plan, Scan):
            if needed is None:
                return plan
            names = self._schema(plan).names
            keep = tuple(n for n in names if n in needed)
            if not keep or keep == names:
                return plan
            stats.count("scan_columns_pruned", len(names) - len(keep))
            return Project(plan, keep)
        if isinstance(plan, Project):
            if needed is None:
                keep = plan.names
            else:
                keep = tuple(n for n in plan.names if n in needed)
                if not keep:
                    keep = plan.names
            child = self._prune(plan.child, set(keep), stats)
            if len(keep) < len(plan.names):
                stats.count("project_narrowed")
            return Project(child, keep)
        if isinstance(plan, Select):
            child_needed = (
                None
                if needed is None
                else needed | set(plan.predicate.references())
            )
            return Select(
                self._prune(plan.child, child_needed, stats), plan.predicate
            )
        if isinstance(plan, Rename):
            mapping = plan.mapping_dict()
            if needed is None:
                child_needed = None
            else:
                inverse = {new: old for old, new in plan.mapping}
                child_needed = {inverse.get(n, n) for n in needed}
            child = self._prune(plan.child, child_needed, stats)
            surviving = set(self._schema(child).names)
            kept_mapping = {
                old: new for old, new in mapping.items() if old in surviving
            }
            if not kept_mapping:
                return child
            return Rename.from_dict(child, kept_mapping)
        if isinstance(plan, Extend):
            if needed is not None and plan.column not in needed:
                stats.count("extend_dropped")
                return self._prune(plan.child, needed, stats)
            child_needed = None if needed is None else needed - {plan.column}
            return Extend(
                self._prune(plan.child, child_needed, stats),
                plan.column,
                plan.value,
            )
        if isinstance(plan, Distinct):
            # δ dedupes on the full row; pruning below it would change
            # multiplicities, so the subtree keeps its full width.
            return Distinct(self._prune(plan.child, None, stats))
        if isinstance(plan, Union):
            left = self._prune(plan.left, needed, stats)
            right = self._prune(plan.right, needed, stats)
            left_names = self._schema(left).names
            right_names = self._schema(right).names
            if left_names == right_names:
                return Union(left, right)
            # Realign independently pruned branches on their common columns.
            common = set(left_names) & set(right_names)
            target = tuple(n for n in left_names if n in common)
            if not target:
                return plan
            if left_names != target:
                left = Project(left, target)
            if right_names != target:
                right = Project(right, target)
            return Union(left, right)
        if isinstance(plan, NaturalJoin):
            left_names = self._schema(plan.left).names
            right_names = self._schema(plan.right).names
            shared = set(left_names) & set(right_names)
            if needed is None:
                left_needed = None
                right_needed = None
            else:
                left_needed = (needed & set(left_names)) | shared
                right_needed = (needed & set(right_names)) | shared
            return NaturalJoin(
                self._prune(plan.left, left_needed, stats),
                self._prune(plan.right, right_needed, stats),
            )
        if isinstance(plan, EquiJoin):
            left_names = self._schema(plan.left).names
            right_names = self._schema(plan.right).names
            collisions = set(left_names) & set(right_names)
            if needed is None:
                left_needed = None
                right_needed = None
            else:
                # Both sides keep the join keys; the left additionally
                # keeps every colliding name so the "right column dropped
                # on collision" mask — and with it value provenance —
                # stays exactly as in the naive plan.
                left_needed = (
                    (needed & set(left_names))
                    | {l for l, _ in plan.pairs}
                    | collisions
                )
                right_needed = (
                    (needed & set(right_names))
                    | {r for _, r in plan.pairs}
                    | collisions
                )
            return EquiJoin(
                self._prune(plan.left, left_needed, stats),
                self._prune(plan.right, right_needed, stats),
                plan.pairs,
            )
        if isinstance(plan, Aggregate):
            child_needed = set(plan.group_by) | {
                column for _, column, _ in plan.metrics if column != "*"
            }
            return Aggregate(
                self._prune(plan.child, child_needed, stats),
                plan.group_by,
                plan.metrics,
            )
        return plan
