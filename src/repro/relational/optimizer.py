"""Rule-based logical optimization of UCQ plans.

The LAV rewriting (paper §2.4, Figure 8) emits a union of conjunctive
queries whose size grows multiplicatively with the wrappers per concept.
The emitted trees are *correct* but naive: selections sit at the top,
every wrapper column survives to the union even when the walk projects
it away, and join order is whatever the walk traversal produced.  This
module closes that gap with a classic three-stage logical optimizer:

1. **Fixpoint rewriting** — local algebraic rules applied bottom-up until
   none fires: selection-conjunction splitting, selection pushdown
   through π/ρ/∪/δ/ε/γ and into the matching join side, rename fusion,
   project fusion, noop elimination, and Distinct/Union flattening with
   duplicate-branch elimination at the UCQ root.
2. **Join reordering** — maximal natural-join clusters are flattened and
   greedily reordered (smallest estimated relation first, always
   preferring a joinable leaf over a cross product) using a
   :class:`CardinalityEstimator` fed from registered base-relation row
   counts.  Reordering is gated by a value-provenance check so the bag
   of *byte-identical* rows is preserved (the lenient join equates 25
   with ``"25"``, and shared columns take the first provider's raw
   value — see :meth:`PlanOptimizer._reorder_acceptable`).
3. **Projection pruning** — a top-down pass that narrows every subtree
   to the columns its ancestors actually consume, so unused wrapper
   columns are cut at the Scan instead of being carried through joins.

All rewrites preserve the result as a bag of rows up to row order (and
byte-identically after the canonical UCQ-root sort that
``MDM.execute`` applies).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..obs import get_metrics
from .algebra import (
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
    flatten_union,
    plan_key,
    union_all,
)
from .expressions import Expr, conjuncts, rename_columns
from .schema import SchemaError
from .types import AttrType

__all__ = [
    "CardinalityEstimator",
    "OptimizationStats",
    "PlanOptimizer",
    "flatten_union",
    "plan_key",
]


# --------------------------------------------------------------------- #
# cardinality estimation
# --------------------------------------------------------------------- #


class CardinalityEstimator:
    """Textbook selectivity-based row estimates for plan costing.

    ``row_counts`` maps scan names to known base cardinalities (the MDM
    feeds these from the relations it registers); unknown scans get
    ``default_rows``.  The estimates only need to *rank* join orders, so
    the selectivity constants are the classic System-R style guesses.
    """

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        row_counts: Optional[Mapping[str, int]] = None,
        default_rows: float = 1000.0,
    ):
        self.catalog: Catalog = dict(catalog or {})
        self.row_counts: Dict[str, float] = {
            name: float(count) for name, count in (row_counts or {}).items()
        }
        self.default_rows = float(default_rows)

    def rows(self, plan: PlanNode) -> float:
        """Estimated output cardinality of ``plan``."""
        if isinstance(plan, Scan):
            if plan.is_pushed():
                bound = self.row_counts.get(plan.binding_name())
                if bound is not None:
                    return bound
            base = self.row_counts.get(plan.relation_name, self.default_rows)
            for _column, op, _value in plan.filters:
                base *= 0.1 if op == "=" else (0.9 if op == "!=" else 0.3)
            return base
        if isinstance(plan, Select):
            return self.rows(plan.child) * self.selectivity(plan.predicate)
        if isinstance(plan, (Project, Rename, Extend)):
            return self.rows(plan.child)
        if isinstance(plan, Distinct):
            return self.rows(plan.child)
        if isinstance(plan, Union):
            return self.rows(plan.left) + self.rows(plan.right)
        if isinstance(plan, NaturalJoin):
            left = self.rows(plan.left)
            right = self.rows(plan.right)
            if self._is_cross(plan):
                return left * right
            return left * right / max(left, right, 1.0)
        if isinstance(plan, EquiJoin):
            left = self.rows(plan.left)
            right = self.rows(plan.right)
            return left * right / max(left, right, 1.0)
        if isinstance(plan, Aggregate):
            return max(1.0, self.rows(plan.child) * 0.5)
        kids = plan.children()
        return self.rows(kids[0]) if kids else self.default_rows

    def _is_cross(self, plan: NaturalJoin) -> bool:
        """True when the natural join has no shared columns (cartesian)."""
        try:
            left_names = set(plan.left.output_schema(self.catalog).names)
            right_names = set(plan.right.output_schema(self.catalog).names)
        except SchemaError:
            return False
        return not (left_names & right_names)

    def selectivity(self, expr: Expr) -> float:
        """Estimated fraction of rows a predicate keeps."""
        from .expressions import And, Cmp, Col, Const, IsNull, NotExpr, Or

        if isinstance(expr, And):
            return self.selectivity(expr.left) * self.selectivity(expr.right)
        if isinstance(expr, Or):
            a = self.selectivity(expr.left)
            b = self.selectivity(expr.right)
            return min(1.0, a + b - a * b)
        if isinstance(expr, NotExpr):
            return max(0.0, 1.0 - self.selectivity(expr.operand))
        if isinstance(expr, IsNull):
            return 0.9 if expr.negated else 0.1
        if isinstance(expr, Cmp):
            const_side = isinstance(expr.left, Const) or isinstance(
                expr.right, Const
            )
            if expr.op == "=":
                return 0.1 if const_side else 0.25
            if expr.op == "!=":
                return 0.9
            return 0.3
        if isinstance(expr, (Col, Const)):
            return 0.5
        return 0.25


# --------------------------------------------------------------------- #
# optimization statistics
# --------------------------------------------------------------------- #


@dataclass
class OptimizationStats:
    """What the optimizer did to one plan (for EXPLAIN and metrics)."""

    rules: Dict[str, int] = field(default_factory=dict)
    passes: int = 0
    elapsed_s: float = 0.0
    estimated_rows_before: float = 0.0
    estimated_rows_after: float = 0.0

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
            "estimated_rows_before": round(self.estimated_rows_before, 3),
            "estimated_rows_after": round(self.estimated_rows_after, 3),
        }


# --------------------------------------------------------------------- #
# the optimizer
# --------------------------------------------------------------------- #

#: Join-key types whose raw values are guaranteed identical whenever the
#: lenient join equates them — the only types for which swapping the
#: "first provider" of a shared column cannot change output bytes.
_EXACT_TYPES = (AttrType.INTEGER, AttrType.BOOLEAN)


class PlanOptimizer:
    """Fixpoint rewriter + join reorderer + projection pruner.

    ``catalog`` gives scan schemas (needed for pushdown side tests and
    pruning); ``row_counts`` feeds the cardinality estimator.  The
    optimizer never raises on a plan it cannot improve — any rule whose
    precondition fails (e.g. a schema lookup error on a malformed tree)
    simply does not fire, and the pruning pass bails out wholesale on
    :class:`SchemaError`, returning the unpruned plan.
    """

    MAX_PASSES = 50

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        row_counts: Optional[Mapping[str, int]] = None,
        *,
        pushdown_capabilities: Optional[Mapping[str, frozenset]] = None,
        type_aware: bool = True,
    ):
        self.catalog: Catalog = dict(catalog or {})
        self.estimator = CardinalityEstimator(self.catalog, row_counts)
        #: scan name → wrapper capability set ("filters"/"projection"/
        #: "limit").  When set, σ/π nodes sitting on a capable Scan fold
        #: into the scan itself (the pushdown-extraction rules).
        self.pushdown_capabilities: Optional[Dict[str, frozenset]] = (
            None
            if pushdown_capabilities is None
            else {k: frozenset(v) for k, v in pushdown_capabilities.items()}
        )
        #: False when the catalog carries placeholder (ANY) types — e.g.
        #: the pre-fetch pushdown pass built from wrapper signatures.
        #: Disables the one rewrite whose safety test inspects attribute
        #: types (σ-through-∪), which would vacuously pass on ANY.
        self.type_aware = type_aware

    # -- public entry points ------------------------------------------- #

    def optimize(self, plan: PlanNode) -> Tuple[PlanNode, OptimizationStats]:
        """Optimized plan plus a record of every rule that fired."""
        stats = OptimizationStats()
        started = time.perf_counter()
        stats.estimated_rows_before = self.estimator.rows(plan)
        plan = self._fixpoint(plan, stats)
        plan = self._reorder_everywhere(plan, stats)
        pruned = self._try_prune(plan, stats)
        if pruned is not None:
            plan = pruned
            # Pruning inserts Projects that may now fuse or be noops.
            plan = self._fixpoint(plan, stats)
        stats.estimated_rows_after = self.estimator.rows(plan)
        stats.elapsed_s = time.perf_counter() - started
        self._emit_metrics(stats)
        return plan, stats

    def extract_pushdown(
        self, plan: PlanNode
    ) -> Tuple[PlanNode, OptimizationStats]:
        """The pre-fetch pushdown pass: fold σ/π into capable scans.

        Runs the fixpoint rules (with the fold rules armed via
        ``pushdown_capabilities``) plus projection pruning — but *not*
        join reordering, which needs real row counts that do not exist
        before the fetch.  Meant to be called with a signature-derived
        (ANY-typed) catalog and ``type_aware=False``; every rule that
        fires under those settings is name-based and result-preserving.
        """
        stats = OptimizationStats()
        started = time.perf_counter()
        plan = self._fixpoint(plan, stats)
        pruned = self._try_prune(plan, stats)
        if pruned is not None:
            plan = self._fixpoint(pruned, stats)
        stats.elapsed_s = time.perf_counter() - started
        self._emit_metrics(stats)
        return plan, stats

    @staticmethod
    def _emit_metrics(stats: OptimizationStats) -> None:
        counter = get_metrics().counter(
            "mdm_optimizer_rules_applied_total",
            "Logical-optimizer rule applications, by rule name.",
            labelnames=("rule",),
        )
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
                visible = set(child.output_schema(self.catalog).names)
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
        if isinstance(child, Union):
            return self._push_select_union(plan, child, stats)
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
        if self.pushdown_capabilities is None:
            return None
        caps = self.pushdown_capabilities.get(child.relation_name)
        if not caps or "filters" not in caps:
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
            visible = set(child.output_schema(self.catalog).names)
        except SchemaError:
            return None
        if conjunct[0] not in visible:
            return None
        from .algebra import canonical_scan_filters

        folded = canonical_scan_filters(child.filters + (conjunct,))
        stats.count("select_pushed_into_scan")
        return Scan(child.relation_name, folded, child.columns)

    def _fold_project_scan(
        self, plan: Project, child: Scan, stats: OptimizationStats
    ) -> Optional[PlanNode]:
        """π(Scan) → Scan with the needed-column list pushed down."""
        if self.pushdown_capabilities is None:
            return None
        caps = self.pushdown_capabilities.get(child.relation_name)
        if not caps or "projection" not in caps:
            return None
        try:
            current = child.output_schema(self.catalog).names
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

    def _push_select_union(
        self, plan: Select, child: Union, stats: OptimizationStats
    ) -> Optional[PlanNode]:
        """σ(l ∪ r) → σ(l) ∪ σ(r), but only when safe under widening.

        The union coerces both branches to a widened common type before
        the predicate would see the rows; below the union the predicate
        sees each branch's raw values.  Only push when every referenced
        column already has the widened type on both sides, so the values
        the predicate evaluates are unchanged.  Requires a type-aware
        catalog: on placeholder (ANY) schemas the test would vacuously
        pass, so a type-blind optimizer never fires this rule.
        """
        if not self.type_aware:
            return None
        refs = plan.predicate.references()
        try:
            left_schema = child.left.output_schema(self.catalog)
            right_schema = child.right.output_schema(self.catalog)
            widened = child.derive(left_schema, right_schema)
            for name in refs:
                attr = widened.attribute(name)
                if (
                    left_schema.attribute(name).type != attr.type
                    or right_schema.attribute(name).type != attr.type
                ):
                    return None
        except SchemaError:
            return None
        stats.count("select_pushdown_union")
        return Union(
            Select(child.left, plan.predicate),
            Select(child.right, plan.predicate),
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
            left_names = set(child.left.output_schema(self.catalog).names)
            right_names = set(child.right.output_schema(self.catalog).names)
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
                base = child.child.output_schema(self.catalog)
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
            if plan.names == child.output_schema(self.catalog).names:
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
        if self.pushdown_capabilities is None:
            return None
        caps = self.pushdown_capabilities.get(scan.relation_name)
        if not caps or "projection" not in caps:
            return None
        try:
            renamed_visible = child.output_schema(self.catalog).names
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
                # left-deep shape so structural memo keys line up.
                stats.count("union_flattened")
                return rebuilt
        return None

    # -- stage 2: join reordering -------------------------------------- #

    def _reorder_everywhere(
        self, plan: PlanNode, stats: OptimizationStats
    ) -> PlanNode:
        """Reorder every maximal NaturalJoin cluster, bottom-up."""
        kids = plan.children()
        if kids:
            new_kids = [self._reorder_everywhere(k, stats) for k in kids]
            if any(n is not o for n, o in zip(new_kids, kids)):
                plan = plan.with_children(new_kids)
        if isinstance(plan, NaturalJoin):
            return self._reorder_cluster(plan, stats)
        return plan

    def _reorder_cluster(
        self, cluster: NaturalJoin, stats: OptimizationStats
    ) -> PlanNode:
        leaves = flatten_union(cluster, NaturalJoin)
        if len(leaves) < 3:
            return cluster
        try:
            original_names = cluster.output_schema(self.catalog).names
            leaf_names = [
                tuple(leaf.output_schema(self.catalog).names) for leaf in leaves
            ]
            leaf_types = [
                {a.name: a.type for a in leaf.output_schema(self.catalog)}
                for leaf in leaves
            ]
        except SchemaError:
            return cluster
        order = self._greedy_order(leaves, leaf_names)
        if order == list(range(len(leaves))):
            return cluster
        if not self._reorder_acceptable(order, leaf_names, leaf_types):
            return cluster
        new_tree: PlanNode = leaves[order[0]]
        for index in order[1:]:
            new_tree = NaturalJoin(new_tree, leaves[index])
        if self._chain_cost(new_tree) >= self._chain_cost(cluster):
            return cluster
        stats.count("joins_reordered")
        # Restore the original column order so parents see the same schema.
        return Project(new_tree, original_names)

    def _greedy_order(
        self,
        leaves: Sequence[PlanNode],
        leaf_names: Sequence[Tuple[str, ...]],
    ) -> List[int]:
        """Greedy join order: smallest first, joinable before cross."""
        sizes = [self.estimator.rows(leaf) for leaf in leaves]
        remaining = list(range(len(leaves)))
        start = min(remaining, key=lambda i: (sizes[i], i))
        order = [start]
        remaining.remove(start)
        bound: Set[str] = set(leaf_names[start])
        while remaining:
            joinable = [
                i for i in remaining if bound & set(leaf_names[i])
            ]
            pool = joinable if joinable else remaining
            nxt = min(pool, key=lambda i: (sizes[i], i))
            order.append(nxt)
            remaining.remove(nxt)
            bound |= set(leaf_names[nxt])
        return order

    @staticmethod
    def _reorder_acceptable(
        order: Sequence[int],
        leaf_names: Sequence[Tuple[str, ...]],
        leaf_types: Sequence[Dict[str, "AttrType"]],
    ) -> bool:
        """Can this reorder change output bytes?  Reject if it might.

        In a left-deep chain a column shared by several leaves takes the
        *first* provider's raw value.  The reorder is value-preserving
        for a multi-provider column when either (a) all providers carry
        an exact-representation type (INTEGER/BOOLEAN, where lenient join
        equality implies identical raw values), or (b) the first provider
        is the same leaf before and after.
        """
        providers: Dict[str, List[int]] = {}
        for index, names in enumerate(leaf_names):
            for name in names:
                providers.setdefault(name, []).append(index)
        for name, owner_list in providers.items():
            if len(owner_list) < 2:
                continue
            types = {leaf_types[i].get(name) for i in owner_list}
            if len(types) == 1 and next(iter(types)) in _EXACT_TYPES:
                continue
            original_first = min(owner_list)
            new_first = min(owner_list, key=order.index)
            if new_first != original_first:
                return False
        return True

    def _chain_cost(self, plan: PlanNode) -> float:
        """Sum of estimated intermediate sizes across a join chain."""
        if not isinstance(plan, NaturalJoin):
            return self.estimator.rows(plan)
        return self._chain_cost(plan.left) + self.estimator.rows(plan)

    # -- stage 3: projection pruning ----------------------------------- #

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
        """
        if isinstance(plan, Scan):
            if needed is None:
                return plan
            names = plan.output_schema(self.catalog).names
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
            surviving = set(child.output_schema(self.catalog).names)
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
            left_names = left.output_schema(self.catalog).names
            right_names = right.output_schema(self.catalog).names
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
            left_names = plan.left.output_schema(self.catalog).names
            right_names = plan.right.output_schema(self.catalog).names
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
            left_names = plan.left.output_schema(self.catalog).names
            right_names = plan.right.output_schema(self.catalog).names
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
