"""The LAV query-rewriting algorithm (paper §2.4).

"A specific query rewriting algorithm takes as input a walk and generates
as a result an equivalent union of conjunctive queries over the wrappers
resolving the LAV mappings.  Such process consists of three phases:
(a) query expansion, where the walk is automatically expanded to include
concept identifiers that have not been explicitly stated; (b)
intra-concept generation, that generates partial walks per concept
indicating how to query the wrappers in order to obtain the requested
features for the concept at hand; and (c) inter-concept generation, where
all partial walks are joined to obtain a union of conjunctive queries."

The output is a relational-algebra plan over the wrappers
(:mod:`repro.relational.algebra`), exactly what MDM displays next to the
SPARQL in Figure 8 and executes over the federated temp tables.

Join discipline (the metamodel's unambiguity condition): all joins —
between wrappers of one concept and across concepts — happen on feature
columns that inherit from ``sc:identifier``.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..obs import get_metrics, get_tracer
from ..rdf.namespaces import next_stamp
from ..rdf.reasoner import subclass_closure
from ..rdf.terms import IRI, Triple
from ..relational.algebra import (
    Distinct,
    Extend,
    NaturalJoin,
    PlanNode,
    Project,
    Rename,
    Scan,
    Select,
    flatten_union,
    plan_key,
    union_all,
)
from ..relational.expressions import And, Cmp, Col, Const, Expr
from .errors import (
    MissingIdentifierError,
    NoCoverError,
    RewritingError,
)
from .global_graph import GlobalGraph
from .lav import LavMappingStore, MappingView
from .lru import GenerationLRU
from .rewrite_cache import walk_cache_key
from .walks import Walk, feature_column_names

__all__ = ["Rewriter", "RewriteResult", "ConjunctiveQuery", "WalkExpansion"]


@dataclass(frozen=True)
class ConjunctiveQuery:
    """One CQ of the union: a wrapper choice per concept plus its plan."""

    covers: Tuple[Tuple[IRI, Tuple[str, ...]], ...]  # concept -> wrapper names
    plan: PlanNode
    #: The feature columns this CQ's plan produces (before projection).
    columns: FrozenSet[str] = frozenset()

    @property
    def wrapper_names(self) -> Tuple[str, ...]:
        """All wrapper names used, deduplicated, sorted."""
        out: Set[str] = set()
        for _, names in self.covers:
            out.update(names)
        return tuple(sorted(out))

    def describe(self) -> str:
        """Readable cover summary, e.g. ``Player←{w1} ⋈ SportsTeam←{w2}``."""
        parts = [
            f"{concept.local_name()}←{{{', '.join(names)}}}"
            for concept, names in self.covers
        ]
        return " ⋈ ".join(parts)


class ConceptFacts(NamedTuple):
    """What phase (b) reads of the global graph for one walk concept."""

    #: The expanded walk's features of the concept.
    required: FrozenSet[IRI]
    #: The walk's optional features of the concept.
    optional: FrozenSet[IRI]
    #: The concept's identifier features.
    identifiers: FrozenSet[IRI]
    #: The walk edges that touch the concept, sorted.
    incident: Tuple[Triple, ...]
    #: The concept and its declared subclasses.
    specializations: FrozenSet[IRI]


@dataclass(frozen=True)
class WalkExpansion:
    """Phase (a) of one walk: all the rewriting derives from the walk,
    the global graph and its namespace bindings, and nothing from the
    views.

    A metadata change that leaves the global graph alone (a release, a
    retirement, a new source) leaves it valid, so the rewriter keeps it
    per ``(walk key, global graph stamp, bindings stamp)`` in the
    rewrite cache's :attr:`~repro.core.rewrite_cache.RewriteCache.expansions`
    and a rewrite after such a change runs only phases (b) and (c).
    """

    expanded: Walk
    #: Per walk concept, in IRI order.
    concepts: Mapping[IRI, ConceptFacts]
    #: The walk's edges, sorted.
    edges: Tuple[Triple, ...]
    #: Walk features, optional features and every concept identifier.
    relevant: FrozenSet[IRI]
    columns: Mapping[IRI, str]
    projection: Tuple[str, ...]
    #: The columns the answer reads: projected or filtered.
    read: FrozenSet[str]
    #: The walk's filters as one row predicate, or None.
    predicate: Optional[Expr]
    sparql: str


@dataclass(frozen=True)
class RewriteResult:
    """Everything the rewriting produced for one walk."""

    walk: Walk
    expanded_walk: Walk
    column_names: Mapping[IRI, str]
    projection: Tuple[str, ...]
    queries: Tuple[ConjunctiveQuery, ...]
    plan: PlanNode
    sparql: str

    @property
    def ucq_size(self) -> int:
        """Number of conjunctive queries in the union."""
        return len(self.queries)

    def pretty(self) -> str:
        """The relational-algebra rendering (Figure 8 bottom-right)."""
        return self.plan.pretty()

    def explain(self) -> str:
        """A three-phase narration of how the rewriting was derived."""
        lines = ["phase (a) query expansion:"]
        added = set(self.expanded_walk.features) - set(self.walk.features)
        if added:
            lines.append(
                "  added identifiers: "
                + ", ".join(sorted(f.local_name() for f in added))
            )
        else:
            lines.append("  all identifiers were already selected")
        lines.append("phase (b) intra-concept generation:")
        per_concept: Dict[IRI, Set[Tuple[str, ...]]] = {}
        for query in self.queries:
            for concept, names in query.covers:
                per_concept.setdefault(concept, set()).add(names)
        for concept in sorted(per_concept, key=lambda c: c.value):
            alternatives = sorted(per_concept[concept])
            rendered = " ∪ ".join("{" + ", ".join(a) + "}" for a in alternatives)
            lines.append(f"  {concept.local_name()}: {rendered}")
        lines.append("phase (c) inter-concept generation:")
        for query in self.queries:
            lines.append(f"  CQ: {query.describe()}")
        lines.append(f"result: union of {self.ucq_size} conjunctive queries")
        return "\n".join(lines)


class Rewriter:
    """Rewrites walks into UCQ plans over the mapped wrappers.

    ``stamp`` is drawn from the graphs' clock (:func:`next_stamp`) when
    the rewriter is built and again whenever ``max_cover_size`` or
    ``minimize`` takes a new value.  An MDM's generation reads it, so
    a new setting, like a new rewriter, serves nothing that was cached
    under the old one.

    ``expansions``, when given, keeps phase (a) of each walk (see
    :meth:`expand`); an MDM passes its rewrite cache's map.
    """

    stamp: int

    def __init__(
        self,
        global_graph: GlobalGraph,
        mappings: LavMappingStore,
        max_cover_size: int = 3,
        minimize: bool = True,
        expansions: Optional[GenerationLRU] = None,
    ):
        self.global_graph = global_graph
        self.mappings = mappings
        self.expansions = expansions
        #: Upper bound on wrappers combined per concept; the search space
        #: is exponential beyond it and real sources rarely shard one
        #: concept's features over more wrappers.
        self.max_cover_size = max_cover_size
        #: Apply CQ-containment minimization to the UCQ (design decision 5
        #: in DESIGN.md).  Disabling keeps every non-duplicate CQ — sound
        #: but larger unions; the ablation bench quantifies the gap.
        self.minimize = minimize

    def __setattr__(self, name: str, value: object) -> None:
        """Set an attribute; a new value of either setting draws a new
        ``stamp``."""
        moved = name in ("max_cover_size", "minimize") and getattr(
            self, name, None
        ) != value
        object.__setattr__(self, name, value)
        if moved:
            object.__setattr__(self, "stamp", next_stamp())

    # ------------------------------------------------------------------ #
    # entry point
    # ------------------------------------------------------------------ #

    def inputs(self) -> tuple:
        """Everything :meth:`rewrite` reads besides the walk, as one
        hashable value.

        That is the global graph's triples and namespace bindings (by
        stamp: the SPARQL text compacts IRIs with them), the mapped
        views by value (:meth:`LavMappingStore.views_value`) and the two
        settings.  Rewriters with equal inputs rewrite a walk to equal
        results, so the rewrite cache keys on it; a change to what
        :meth:`rewrite` reads must change it too.
        """
        graph = self.global_graph.graph
        return (
            graph.stamp,
            graph.namespaces.stamp,
            self.mappings.views_value(),
            self.max_cover_size,
            self.minimize,
        )

    def rewrite(self, walk: Walk) -> RewriteResult:
        """Run the three phases and return the UCQ plan.

        Phase (a) is :meth:`expand`.  Each phase runs under a span
        (``phase:expansion`` / ``phase:intra-concept`` /
        ``phase:inter-concept``) tagged with candidate/pruned/emitted CQ
        counts, and its latency is observed into the
        ``mdm_rewrite_phase_seconds`` histogram regardless of whether
        tracing is enabled.
        """
        tracer = get_tracer()
        metrics = get_metrics()
        phase_seconds = metrics.histogram("mdm_rewrite_phase_seconds")
        total_started = time.perf_counter()
        with tracer.span("rewrite") as root:
            # Phase (a): expansion.
            started = time.perf_counter()
            with tracer.span("phase:expansion") as span:
                expansion = self.expand(walk)
                views = self.mappings.views()
                span.set_tag("concepts", len(expansion.concepts))
                span.set_tag(
                    "added_identifiers",
                    len(expansion.expanded.features - walk.features),
                )
            phase_seconds.observe(
                time.perf_counter() - started, phase="expansion"
            )
            # Phase (b): intra-concept generation.
            started = time.perf_counter()
            with tracer.span("phase:intra-concept") as span:
                concept_covers: Dict[IRI, List[Tuple[MappingView, ...]]] = {
                    concept: self._covers_for_concept(concept, expansion, views)
                    for concept in expansion.concepts
                }
                span.set_tag(
                    "covers", sum(len(c) for c in concept_covers.values())
                )
                span.set_tag("applicable_views", len(views))
            phase_seconds.observe(
                time.perf_counter() - started, phase="intra-concept"
            )
            # Phase (c): inter-concept generation.
            started = time.perf_counter()
            with tracer.span("phase:inter-concept") as span:
                queries = self._combine(expansion, concept_covers)
                if not queries:
                    raise RewritingError(
                        "no conjunctive query survives the inter-concept phase: the "
                        "walk's relations are not covered by any wrapper combination"
                    )
                candidate_cqs = len(queries)
                projection = expansion.projection
                if self.minimize:
                    queries = _drop_redundant(queries, expansion.read)
                else:
                    queries = _dedupe(queries)
                predicate = expansion.predicate
                if predicate is not None:
                    queries = [
                        ConjunctiveQuery(
                            covers=q.covers,
                            plan=Select(q.plan, predicate),
                            columns=q.columns,
                        )
                        for q in queries
                    ]
                # NULL-pad optional columns the CQ's wrappers do not provide, so
                # every union branch is union-compatible.
                padded: List[ConjunctiveQuery] = []
                for query in queries:
                    plan_q: PlanNode = query.plan
                    for column in projection:
                        if column not in query.columns:
                            plan_q = Extend(plan_q, column)
                    padded.append(
                        ConjunctiveQuery(
                            covers=query.covers,
                            plan=plan_q,
                            columns=query.columns | set(projection),
                        )
                    )
                queries = padded
                branches = [Project(q.plan, projection) for q in queries]
                plan: PlanNode = Distinct(union_all(branches))
                span.set_tag("candidate_cqs", candidate_cqs)
                span.set_tag("emitted_cqs", len(queries))
                span.set_tag("pruned_cqs", candidate_cqs - len(queries))
            phase_seconds.observe(
                time.perf_counter() - started, phase="inter-concept"
            )
            root.set_tag("ucq_size", len(queries))
        metrics.counter("mdm_rewrite_total").inc()
        metrics.histogram("mdm_rewrite_seconds").observe(
            time.perf_counter() - total_started
        )
        return RewriteResult(
            walk=walk,
            expanded_walk=expansion.expanded,
            column_names=expansion.columns,
            projection=projection,
            queries=tuple(queries),
            plan=plan,
            sparql=expansion.sparql,
        )

    # ------------------------------------------------------------------ #
    # phase (a): expansion
    # ------------------------------------------------------------------ #

    def expand(self, walk: Walk) -> WalkExpansion:
        """Phase (a) for ``walk``: validated, expanded and translated.

        With :attr:`expansions` set, the result is kept there under the
        walk's :func:`~repro.core.rewrite_cache.walk_cache_key` and the
        stamps of the global graph and its namespace bindings, which is
        all it reads besides the walk, and served from there while both
        stamps hold.  A walk that fails validation raises every time;
        nothing is kept.
        """
        expansions = self.expansions
        if expansions is None:
            return self._expand(walk)
        graph = self.global_graph.graph
        memo_key = (walk_cache_key(walk), graph.stamp, graph.namespaces.stamp)
        expansion = expansions.probe(memo_key)
        if expansion is None:
            expansion = self._expand(walk)
            expansions.store(memo_key, expansion)
        return expansion

    def _expand(self, walk: Walk) -> WalkExpansion:
        global_graph = self.global_graph
        walk.validate(global_graph)
        expanded = walk.expand(global_graph)
        identifiers = self._identifiers(expanded)
        relevant = self._relevant_features(expanded, identifiers)
        columns = feature_column_names(global_graph, relevant)
        edges = tuple(expanded.sorted_edges())
        concepts = {
            concept: ConceptFacts(
                required=frozenset(expanded.features_of(global_graph, concept)),
                optional=frozenset(
                    f
                    for f in expanded.optional_features
                    if global_graph.concept_of(f) == concept
                ),
                identifiers=frozenset(ids),
                incident=tuple(e for e in edges if concept in (e.subject, e.object)),
                specializations=self._specializations(concept),
            )
            for concept, ids in identifiers.items()
        }
        projected_features = sorted(
            set(walk.features) | set(expanded.optional_features),
            key=lambda i: i.value,
        )
        projection = tuple(columns[f] for f in projected_features) or tuple(
            columns[f] for f in expanded.sorted_features()
        )
        return WalkExpansion(
            expanded=expanded,
            concepts=concepts,
            edges=edges,
            relevant=frozenset(relevant),
            columns=columns,
            projection=projection,
            read=frozenset(projection).union(
                columns[c.feature] for c in walk.filters
            ),
            predicate=_filter_predicate(walk, columns),
            sparql=walk.to_sparql(global_graph),
        )

    # ------------------------------------------------------------------ #
    # shared helpers
    # ------------------------------------------------------------------ #

    def _specializations(self, concept: IRI) -> FrozenSet[IRI]:
        """The concept plus its declared subclasses (taxonomy support).

        A wrapper mapped to a subclass populates instances of the
        superclass too, so its views are applicable to superclass walks —
        provided it still populates the queried concept's identifier.
        """
        return frozenset(
            c
            for c in subclass_closure(self.global_graph.graph, concept)
            if isinstance(c, IRI) and self.global_graph.is_concept(c)
        )

    @staticmethod
    def _edge_witnessed_by(
        view: MappingView,
        edge: Triple,
        other_ids: FrozenSet[IRI],
        expansion: WalkExpansion,
    ) -> bool:
        """Whether ``view`` carries ``edge`` (up to concept taxonomy) and
        populates an identifier of the edge's other endpoint."""
        if not (set(view.feature_attributes) & other_ids):
            return False
        if view.covers_edge(edge):
            return True
        subject_specs = expansion.concepts[edge.subject].specializations  # type: ignore[index]
        object_specs = expansion.concepts[edge.object].specializations  # type: ignore[index]
        for candidate in view.edges:
            if (
                candidate.predicate == edge.predicate
                and candidate.subject in subject_specs
                and candidate.object in object_specs
            ):
                return True
        return False

    def _identifiers(self, walk: Walk) -> Dict[IRI, List[IRI]]:
        """Identifier features per walk concept, in concept order
        (raises if a concept has none)."""
        out: Dict[IRI, List[IRI]] = {}
        for concept in walk.sorted_concepts():
            identifiers = self.global_graph.identifiers_of(concept)
            if not identifiers:
                raise MissingIdentifierError(concept)
            out[concept] = identifiers
        return out

    def _relevant_features(
        self, walk: Walk, identifiers: Dict[IRI, List[IRI]]
    ) -> Set[IRI]:
        """Walk features plus every identifier of every walk concept.

        Identifier features of walk concepts matter even when not
        requested: they are the join columns wrappers meet on.  Optional
        features are relevant too — wrappers providing them get to
        contribute the column.
        """
        relevant: Set[IRI] = set(walk.features) | set(walk.optional_features)
        for concept_ids in identifiers.values():
            relevant.update(concept_ids)
        return relevant

    # ------------------------------------------------------------------ #
    # phase (b): intra-concept generation
    # ------------------------------------------------------------------ #

    def _covers_for_concept(
        self,
        concept: IRI,
        expansion: WalkExpansion,
        views: Sequence[MappingView],
    ) -> List[Tuple[MappingView, ...]]:
        """Minimal wrapper combinations providing the concept's features.

        A view is *applicable* when its named graph covers the concept and
        it populates one of the concept's identifiers (otherwise its rows
        cannot be joined unambiguously).  Views of the same concept join
        on the identifier, so every cover shares at least one identifier
        feature across all its views.

        Minimality is judged over both *features* and *edge witnessing*: a
        combination is dominated only by a strict wrapper-subset that
        still covers all required features AND witnesses at least the same
        incident walk edges (a wrapper kept solely because it carries a
        relation to a neighbouring concept — e.g. a memberships endpoint —
        must survive pruning).
        """
        facts = expansion.concepts[concept]
        required = facts.required
        id_set = facts.identifiers
        applicable = [
            v
            for v in views
            if (v.concepts & facts.specializations)
            and (set(v.feature_attributes) & id_set)
        ]
        applicable.sort(key=lambda v: v.wrapper_name)
        if not applicable:
            raise NoCoverError(concept, required or id_set)

        def witnessed_edges(combo: Tuple[MappingView, ...]) -> FrozenSet[Triple]:
            out: Set[Triple] = set()
            for edge in facts.incident:
                other = edge.object if edge.subject == concept else edge.subject
                other_ids = expansion.concepts[other].identifiers  # type: ignore[index]
                for view in combo:
                    if self._edge_witnessed_by(view, edge, other_ids, expansion):
                        out.add(edge)
                        break
            return frozenset(out)

        candidates: List[
            Tuple[
                Tuple[MappingView, ...],
                FrozenSet[str],
                FrozenSet[Triple],
                FrozenSet[IRI],
            ]
        ] = []
        max_size = min(self.max_cover_size, len(applicable))
        for size in range(1, max_size + 1):
            for combo in itertools.combinations(applicable, size):
                provided: Set[IRI] = set()
                for view in combo:
                    provided |= set(view.feature_attributes)
                if not required <= provided:
                    continue
                # Joinability within the cover: all views must share an
                # identifier of this concept.
                shared_ids = set(id_set)
                for view in combo:
                    shared_ids &= set(view.feature_attributes)
                if not shared_ids:
                    continue
                names = frozenset(v.wrapper_name for v in combo)
                candidates.append(
                    (
                        combo,
                        names,
                        witnessed_edges(combo),
                        frozenset(provided & facts.optional),
                    )
                )
        # Dominance over three dimensions: a strict wrapper-subset must
        # witness at least the same edges AND provide at least the same
        # optional features to eliminate a combination.
        covers = [
            combo
            for combo, names, edges, optionals in candidates
            if not any(
                other_names < names
                and other_edges >= edges
                and other_optionals >= optionals
                for _, other_names, other_edges, other_optionals in candidates
            )
        ]
        if not covers:
            provided_union: Set[IRI] = set()
            for view in applicable:
                provided_union |= set(view.feature_attributes)
            raise NoCoverError(concept, required - provided_union or required)
        return covers

    def _view_plan(
        self,
        view: MappingView,
        relevant: Set[IRI],
        columns: Mapping[IRI, str],
    ) -> Tuple[PlanNode, FrozenSet[str]]:
        """The per-wrapper plan: rename attributes to feature columns and
        project the relevant ones.  Returns (plan, produced column names).
        """
        rename: Dict[str, str] = {}
        produced: List[str] = []
        for feature, attribute in sorted(
            view.feature_attributes.items(), key=lambda kv: kv[0].value
        ):
            if feature not in relevant:
                continue
            column = columns[feature]
            produced.append(column)
            if attribute != column:
                rename[attribute] = column
        if not produced:
            raise RewritingError(
                f"wrapper {view.wrapper_name} provides no relevant feature"
            )
        plan: PlanNode = Scan(view.wrapper_name)
        if rename:
            plan = Rename.from_dict(plan, rename)
        produced_sorted = tuple(sorted(set(produced)))
        plan = Project(plan, produced_sorted)
        return plan, frozenset(produced_sorted)

    @staticmethod
    def _cover_plan(
        cover: Tuple[MappingView, ...],
        leaves: Mapping[str, Tuple[PlanNode, FrozenSet[str]]],
    ) -> Tuple[PlanNode, FrozenSet[str]]:
        """Join the cover's views (natural join on shared identifier cols)."""
        plans = [leaves[v.wrapper_name] for v in cover]
        plan, cols = plans[0]
        for other_plan, other_cols in plans[1:]:
            plan = NaturalJoin(plan, other_plan)
            cols = cols | other_cols
        return plan, cols

    # ------------------------------------------------------------------ #
    # phase (c): inter-concept generation
    # ------------------------------------------------------------------ #

    def _combine(
        self,
        expansion: WalkExpansion,
        concept_covers: Dict[IRI, List[Tuple[MappingView, ...]]],
    ) -> List[ConjunctiveQuery]:
        """Enumerate concept-cover combinations and join them over edges.

        Each wrapper's view plan is built once, so every CQ that uses the
        wrapper shares one leaf node.
        """
        concepts = list(expansion.concepts)
        views = {
            view.wrapper_name: view
            for covers in concept_covers.values()
            for cover in covers
            for view in cover
        }
        leaves = {
            name: self._view_plan(view, expansion.relevant, expansion.columns)
            for name, view in views.items()
        }
        queries: List[ConjunctiveQuery] = []
        for combo in itertools.product(*(concept_covers[c] for c in concepts)):
            assignment = dict(zip(concepts, combo))
            if not self._edges_supported(expansion, assignment):
                continue
            assembled = self._assemble(expansion, concepts, assignment, leaves)
            if assembled is None:
                continue
            plan, produced = assembled
            covers = tuple(
                (concept, tuple(sorted(v.wrapper_name for v in assignment[concept])))
                for concept in concepts
            )
            queries.append(
                ConjunctiveQuery(covers=covers, plan=plan, columns=produced)
            )
        return queries

    def _edges_supported(
        self,
        expansion: WalkExpansion,
        assignment: Mapping[IRI, Tuple[MappingView, ...]],
    ) -> bool:
        """Every walk edge must be witnessed by a wrapper of one endpoint
        that includes the edge in its named graph and populates an
        identifier of the *other* endpoint — that identifier column is the
        join key (the Figure 7 intersection at sc:SportsTeam's id)."""
        for edge in expansion.edges:
            source = edge.subject
            target = edge.object
            source_ids = expansion.concepts[source].identifiers  # type: ignore[index]
            target_ids = expansion.concepts[target].identifiers  # type: ignore[index]
            witnessed = any(
                self._edge_witnessed_by(view, edge, target_ids, expansion)
                for view in assignment[source]  # type: ignore[index]
            ) or any(
                self._edge_witnessed_by(view, edge, source_ids, expansion)
                for view in assignment[target]  # type: ignore[index]
            )
            if not witnessed:
                return False
        return True

    def _assemble(
        self,
        expansion: WalkExpansion,
        concepts: Sequence[IRI],
        assignment: Mapping[IRI, Tuple[MappingView, ...]],
        leaves: Mapping[str, Tuple[PlanNode, FrozenSet[str]]],
    ) -> Optional[Tuple[PlanNode, FrozenSet[str]]]:
        """Join the per-concept cover plans along the walk's edges.

        Concepts are attached BFS-style so each join shares at least one
        column (the identifier carried by the edge witness).  Returns the
        joined plan and the set of columns it produces.
        """
        cover_plans: Dict[IRI, Tuple[PlanNode, FrozenSet[str]]] = {
            c: self._cover_plan(assignment[c], leaves) for c in concepts
        }
        adjacency: Dict[IRI, Set[IRI]] = {c: set() for c in concepts}
        for edge in expansion.edges:
            adjacency[edge.subject].add(edge.object)  # type: ignore[index]
            adjacency[edge.object].add(edge.subject)  # type: ignore[index]
        start = concepts[0]
        plan, cols = cover_plans[start]
        attached = {start}
        # Fixpoint: attach any not-yet-joined concept that is adjacent to
        # the attached region *and* shares a join column with it.  One
        # pass may postpone a concept whose join key arrives later, so
        # iterate until no progress.
        progress = True
        while progress and attached != set(concepts):
            progress = False
            for concept in concepts:
                if concept in attached:
                    continue
                if not (adjacency[concept] & attached):
                    continue
                other_plan, other_cols = cover_plans[concept]
                if not (cols & other_cols):
                    continue
                plan = NaturalJoin(plan, other_plan)
                cols = cols | other_cols
                attached.add(concept)
                progress = True
        if attached != set(concepts):
            return None
        return plan, frozenset(cols)


def _dedupe(queries: List[ConjunctiveQuery]) -> List[ConjunctiveQuery]:
    """Drop only exact-duplicate cover assignments (no containment check)."""
    seen: Set[Tuple] = set()
    unique: List[ConjunctiveQuery] = []
    for query in queries:
        if query.covers not in seen:
            seen.add(query.covers)
            unique.append(query)
    return unique


def _filter_predicate(walk: Walk, columns: Mapping[IRI, str]) -> Optional[Expr]:
    """The conjunction of the walk's filter conditions as a row predicate."""
    if not walk.filters:
        return None
    predicate: Optional[Expr] = None
    for condition in walk.filters:
        clause = Cmp(condition.op, Col(columns[condition.feature]), Const(condition.value))
        predicate = clause if predicate is None else And(predicate, clause)
    return predicate


def _leaf_shape(
    query: ConjunctiveQuery, read: FrozenSet[str], keys: Dict[int, str]
) -> Tuple[FrozenSet[Tuple[str, int]], Dict[str, str], Dict[str, str]]:
    """A CQ's join leaves as (bag, first providers, guarded providers).

    A leaf is the π/ρ over one Scan that ``_view_plan`` builds, keyed by
    ``plan_key``.  The bag holds ``(key, n)`` for the *n*-th occurrence
    of a key, so sub-bag is subset.  ``first`` maps each produced column
    to the key of its leftmost provider — the leaf whose raw value the
    join keeps; ``guarded`` keeps its ``read`` columns that several
    leaves provide.  ``keys`` is ``plan_key``'s cache, shared across the
    CQs, whose leaves are shared nodes.
    """
    seen: Counter[str] = Counter()
    first: Dict[str, str] = {}
    shared: Set[str] = set()
    for leaf in flatten_union(query.plan, NaturalJoin):
        key = plan_key(leaf, keys)
        seen[key] += 1
        for column in leaf.names:  # type: ignore[attr-defined]
            if column in first:
                shared.add(column)
            else:
                first[column] = key
    bag = frozenset((key, n) for key, count in seen.items() for n in range(count))
    return bag, first, {column: first[column] for column in shared & read}


def _drop_redundant(
    queries: List[ConjunctiveQuery], read: FrozenSet[str]
) -> List[ConjunctiveQuery]:
    """Minimize the UCQ by conjunctive-query containment over join leaves.

    CQ *i* is contained in CQ *j* — the identity-mapping case of the
    homomorphism test (Chandra & Merlin 1977) — when

    * *j*'s leaf multiset is a sub-bag of *i*'s: *i* joins *j*'s leaves
      with extra ones, and an extra leaf can only filter rows.  Bags, not
      sets: a repeated leaf is a self-join, which drops rows with a NULL
      in any of its columns, so it is not a no-op;
    * *j* produces every column *i* produces (so both pad the same
      optional columns with NULL);
    * every column in ``read`` (projected or filtered) that several of
      *i*'s leaves provide has the same leftmost provider in *j*.  The
      lenient join equates ``'100'`` with ``100`` and keeps the first
      provider's raw value, so another provider would change the bytes
      and the type of the column.

    *i* is dropped when some *j* with a strictly smaller bag contains it,
    or an earlier *j* with an equal bag (equal bags contain each other).
    Distinct leaves that are not comparable — e.g. the v1 and v2 wrappers
    of an evolved source — are both kept, which is exactly how evolution
    governance unions the schema versions.
    """
    keys: Dict[int, str] = {}
    shapes = [_leaf_shape(q, read, keys) for q in queries]

    def contained(i: int, j: int) -> bool:
        bag_i, _, guarded_i = shapes[i]
        bag_j, first_j, _ = shapes[j]
        return (
            (bag_j < bag_i or (bag_j == bag_i and j < i))
            and queries[j].columns >= queries[i].columns
            and all(first_j[c] == key for c, key in guarded_i.items())
        )

    return [
        query
        for i, query in enumerate(queries)
        if not any(contained(i, j) for j in range(len(queries)))
    ]
