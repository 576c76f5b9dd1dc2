"""The MDM facade: the end-to-end Metadata Management System.

One object ties together the four interaction kinds of paper §2:

(a) *definition of the global graph* — :meth:`add_concept`,
    :meth:`add_feature`, :meth:`add_identifier`, :meth:`relate`,
    :meth:`load_uml`;
(b) *registration of wrappers* — :meth:`register_source`,
    :meth:`register_wrapper` (with release governance and attribute
    reuse);
(c) *definition of LAV mappings* — :meth:`define_mapping` and the
    semi-automatic :meth:`suggest_mapping` / :meth:`apply_suggestion`;
(d) *querying the global graph* — :meth:`walk_from_nodes`,
    :meth:`rewrite`, :meth:`execute` (walk → SPARQL + UCQ algebra →
    federated execution → table).

State lives in one RDF :class:`~repro.rdf.dataset.Dataset` (global graph
and source graph as named graphs, one named graph per wrapper for LAV)
plus a metadata :class:`~repro.docstore.store.DocumentStore` — mirroring
the paper's Jena TDB + MongoDB split.
"""

from __future__ import annotations

import contextvars
import copy
import itertools
import threading
import time
import uuid
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..docstore.store import DocumentStore
from ..obs import get_metrics, get_tracer
from ..obs.profile import (
    MemoryWatch,
    PhaseTimer,
    ResourceProfile,
    rollup_operators,
)
from ..obs.querylog import QueryLogRecord, get_query_log
from ..rdf.dataset import Dataset
from ..rdf.namespaces import RDF
from ..rdf.terms import IRI, Triple
from ..relational.algebra import PlanNode, Scan
from ..relational.executor import Executor, OperatorStats, apply_pushdown
from ..relational.optimizer import OptimizationStats, PlanOptimizer
from ..relational.relation import Relation
from ..sources.wrappers import FetchResult, RetryPolicy, Wrapper, sharing_requests
from ..sparql.evaluator import evaluate_text
from .config import DEFAULT_MAX_IN_FLIGHT, ExecutionConfig, env_capacity
from .errors import (
    ImpactGateError,
    MappingError,
    MdmError,
    PlanValidationError,
    SourceGraphError,
)
from .global_graph import GlobalGraph, UmlModel
from .lav import LavMappingStore, MappingView
from .locking import ReadWriteLock
from .registry import QueryRegistry
from .releases import (
    KIND_EVOLUTION,
    KIND_NEW_SOURCE,
    GovernanceLog,
    MappingSuggestion,
    suggest_mapping,
)
from .rewrite_cache import RewriteCache, RewriteEntry, walk_cache_key
from .rewriting import Rewriter, RewriteResult
from .source_graph import SourceGraph, WrapperRegistration
from .vocabulary import G, M, S, mdm_namespace_manager, mint_local
from .walks import Walk

__all__ = ["MDM", "QueryOutcome"]

#: One wrapper's fetch: ``(result, attempts)``, or the exception it raised.
FetchOutcome = Union[Tuple[FetchResult, int], Exception]

#: Threads in the process-wide fetch-helper pool: enough for every query
#: the HTTP service admits at once to fetch its endpoint groups in
#: parallel at the default ``max_fetch_workers`` (32 queries x 3
#: helpers).  Past that, a query gets the helpers that are free and
#: fetches the other groups itself.
_FETCH_HELPERS = DEFAULT_MAX_IN_FLIGHT * (ExecutionConfig.max_fetch_workers - 1)
#: Fetch-pool threads started in this process (they never exit before
#: the interpreter does), guarded by ``_helpers_lock``.
_helpers_started = 0
_helpers_lock = threading.Lock()


def _count_helpers(started: int) -> None:
    """Add ``started`` to the fetch-pool threads and set the
    ``mdm_fetch_helpers`` gauge to their number.

    The pool's initializer adds 1 as each thread starts; a query that
    submits a helper adds 0, which sets the gauge again in whatever
    metrics registry is current.
    """
    global _helpers_started
    with _helpers_lock:
        _helpers_started += started
        get_metrics().gauge("mdm_fetch_helpers").set(_helpers_started)


#: The fetch helpers every MDM and query shares.  Its threads start on
#: demand and stay alive; the idle ones are joined at interpreter exit
#: by :mod:`concurrent.futures`.
_FETCH_POOL = ThreadPoolExecutor(
    max_workers=_FETCH_HELPERS,
    thread_name_prefix="mdm-fetch",
    initializer=_count_helpers,
    initargs=(1,),
)


class QueryOutcome:
    """The result of executing one OMQ end-to-end."""

    def __init__(
        self,
        rewrite: RewriteResult,
        relation: Relation,
        skipped_wrappers: Tuple[str, ...] = (),
        executor: Optional[Executor] = None,
        operator_stats: Optional[OperatorStats] = None,
        fetch_attempts: Optional[Mapping[str, int]] = None,
        naive_plan=None,
        executed_plan=None,
        optimization: Optional[OptimizationStats] = None,
        plan_findings: Tuple = (),
        profile: Optional[ResourceProfile] = None,
        generation: int = -1,
        result_cache: str = "off",
        pushdown: Optional[Dict[str, object]] = None,
    ):
        self.rewrite = rewrite
        self.relation = relation
        #: Wrappers whose fetch failed and were skipped (empty when
        #: ``on_wrapper_error="raise"``).
        self.skipped_wrappers = skipped_wrappers
        self._executor = executor
        #: Per-operator execution statistics (``execute(..., analyze=True)``
        #: or any execution while tracing is enabled); None otherwise.
        self.operator_stats = operator_stats
        #: Fetch attempts spent per wrapper (1 = first-try success; absent
        #: wrappers were not needed by this query's UCQ).
        self.fetch_attempts: Dict[str, int] = dict(fetch_attempts or {})
        #: The UCQ plan as emitted by the LAV rewriting (pre-optimization).
        self.naive_plan = naive_plan
        #: The plan that was actually executed (== naive_plan when the
        #: logical optimizer is off or changed nothing).
        self.executed_plan = executed_plan
        #: What the logical optimizer did (None when it was off).
        self.optimization = optimization
        #: Non-error findings from the static plan schema check (errors
        #: raise before an outcome exists).
        self.plan_findings = tuple(plan_findings)
        #: Per-query resource profile (phase wall times, rows, peak
        #: memory, per-operator self time); always present for outcomes
        #: produced by :meth:`MDM.execute`.
        self.profile = profile
        #: The metadata generation this outcome was computed under — the
        #: whole execution runs inside one read-locked snapshot, so the
        #: value is exact (two outcomes at the same generation for the
        #: same walk are byte-identical).
        self.generation = generation
        #: Result-cache disposition: "off" (cache disabled), "miss",
        #: "bypass" (``use_cache=False``) or "hit" (this outcome was
        #: served from :class:`~repro.core.result_cache.ResultCache`).
        self.result_cache = result_cache
        #: Federated-pushdown summary for this query (None when pushdown
        #: was off): per-wrapper request shape (pushed/full), canonical
        #: request, wrapper-cache disposition and row-transfer counts,
        #: plus the per-query totals.
        self.pushdown = pushdown

    @property
    def optimized(self) -> bool:
        """True when the logical optimizer rewrote the executed plan."""
        return (
            self.optimization is not None
            and self.executed_plan is not None
            and self.executed_plan is not self.naive_plan
        )

    @property
    def partial(self) -> bool:
        """True when failed wrappers degraded the union (CQs were dropped)."""
        return bool(self.skipped_wrappers)

    def explain_analyze(self) -> str:
        """EXPLAIN ANALYZE-style tree: rows-in/rows-out/elapsed per operator.

        Available when the outcome was produced with ``analyze=True`` (or
        while the process tracer was enabled).
        """
        if self.operator_stats is None:
            raise MdmError(
                "explain_analyze() needs execute(walk, analyze=True)"
            )
        lines = [
            f"EXPLAIN ANALYZE  union of {self.rewrite.ucq_size} CQs, "
            f"{len(self.relation)} rows"
        ]
        if self.result_cache == "hit":
            lines.append(
                f"Result cache: hit (outcome reused at generation "
                f"{self.generation}; stats below are from the original run)"
            )
        elif self.result_cache in ("miss", "bypass"):
            lines.append(
                f"Result cache: {self.result_cache} "
                f"(generation {self.generation})"
            )
        if self.optimization is not None and self.naive_plan is not None:
            lines.append(f"Plan (rewritten):  {self.naive_plan.pretty()}")
            if self.optimized:
                lines.append(
                    f"Plan (optimized):  {self.executed_plan.pretty()}"
                )
            summary = self.optimization
            rules = ", ".join(
                f"{name}={count}"
                for name, count in sorted(summary.rules.items())
            )
            lines.append(
                f"Optimizer: {summary.total} rule applications in "
                f"{summary.elapsed_s * 1000.0:.3f}ms over {summary.passes} "
                f"passes" + (f" ({rules})" if rules else "")
            )
        if self.pushdown is not None:
            pd = self.pushdown
            lines.append(
                f"Pushdown: {pd['pushed']} pushed / {pd['full']} full "
                f"fetch(es); rows transferred={pd['rows_transferred']} "
                f"saved={pd['rows_pushed_down']}"
            )
            for name, info in sorted(pd["requests"].items()):
                if info["kind"] != "pushed":
                    continue
                suffix = (
                    f" [cache {info['cache']}]"
                    if info["cache"] != "off"
                    else ""
                )
                lines.append(f"  {name} ⇐ {info['request']}{suffix}")
            wc = pd.get("wrapper_cache") or {}
            if wc.get("enabled"):
                lines.append(
                    f"Wrapper cache: {wc['hits']} hit(s) / "
                    f"{wc['misses']} miss(es)"
                )
        if self.plan_findings:
            lines.append(
                f"Plan check: passed with {len(self.plan_findings)} "
                "non-error finding(s): "
                + "; ".join(f.render() for f in self.plan_findings)
            )
        else:
            lines.append("Plan check: passed (no findings)")
        if self.profile is not None:
            lines.append(self.profile.render())
        lines.append(self.operator_stats.pretty())
        return "\n".join(lines)

    def provenance(self) -> List[Dict[str, object]]:
        """Per-CQ lineage: which wrapper combination produced which rows.

        Each entry describes one conjunctive query of the union — its
        per-concept wrapper cover, the distinct rows it contributed, and
        how many of them no *other* CQ produced (its exclusive
        contribution).  After an evolution release this shows exactly
        what each schema version delivers.
        """
        if self._executor is None:
            raise MdmError("provenance requires an executed outcome")
        from ..relational.algebra import Distinct, Project

        per_cq: List[Tuple[str, set]] = []
        for query in self.rewrite.queries:
            if self.skipped_wrappers and (
                set(query.wrapper_names) & set(self.skipped_wrappers)
            ):
                per_cq.append((query.describe(), set()))
                continue
            branch = Distinct(Project(query.plan, self.rewrite.projection))
            rows = set(self._executor.execute(branch).rows)
            per_cq.append((query.describe(), rows))
        report: List[Dict[str, object]] = []
        for index, (description, rows) in enumerate(per_cq):
            others: set = set()
            for other_index, (_, other_rows) in enumerate(per_cq):
                if other_index != index:
                    others |= other_rows
            report.append(
                {
                    "cq": description,
                    "rows": len(rows),
                    "exclusive_rows": len(rows - others),
                    "skipped": not rows
                    and bool(
                        set(self.rewrite.queries[index].wrapper_names)
                        & set(self.skipped_wrappers)
                    ),
                }
            )
        return report

    def to_table(self) -> str:
        """The tabular rendering MDM shows the analyst (Table 1)."""
        return self.relation.to_table()

    def aggregate(
        self,
        group_by: Sequence[str],
        metrics: Sequence[Tuple[str, str, str]],
    ) -> Relation:
        """Group/aggregate the result the way a BI layer over MDM would.

        ``metrics`` are ``(function, column, alias)`` triples with
        function in count/sum/avg/min/max (``column="*"`` for count).

        >>> outcome.aggregate(["teamName"], [("count", "*", "players")])
        """
        from ..relational.algebra import Aggregate

        executor = Executor({"__result__": self.relation})
        plan = Aggregate(
            Scan("__result__"), tuple(group_by), tuple(metrics)
        )
        return executor.execute(plan).sorted()

    def __repr__(self) -> str:
        return (
            f"<QueryOutcome {len(self.relation)} rows via "
            f"{self.rewrite.ucq_size} CQs>"
        )


def _given(**values: object) -> Dict[str, object]:
    """The keyword arguments that were passed (None means "keep")."""
    return {name: value for name, value in values.items() if value is not None}


def _merge_optimization_stats(
    stage_a: Optional[OptimizationStats],
    stage_b: Optional[OptimizationStats],
) -> Optional[OptimizationStats]:
    """One summary covering pushdown extraction plus the logical pass."""
    if stage_a is None:
        return stage_b
    if stage_b is None:
        return stage_a
    merged = OptimizationStats(
        rules=dict(stage_a.rules),
        passes=stage_a.passes + stage_b.passes,
        elapsed_s=stage_a.elapsed_s + stage_b.elapsed_s,
    )
    for rule, count in stage_b.rules.items():
        merged.count(rule, count)
    return merged


def _count_optimizer_failure() -> None:
    """Count a best-effort optimizer pass that fell back to its input."""
    get_metrics().counter("mdm_optimizer_failures_total").inc()


@dataclass(frozen=True)
class QueryContext:
    """Everything one query reads from its MDM, captured once at entry.

    The metadata generation and the execution configuration are taken
    together under the read lock; every stage of the query (result-cache
    key, stage A, fetch, stage B, validation, the pushdown summary, the
    cache fill) reads them from here, so a concurrent
    :meth:`MDM.configure_execution` cannot split one query across two
    configurations.
    """

    walk: Walk
    generation: int
    config: ExecutionConfig
    analyze: bool
    use_cache: bool
    on_wrapper_error: str


@dataclass(frozen=True)
class _QueryPlan:
    """What one rewrite plans before the fetch, for one pushdown setting.

    Kept on the walk's :class:`~repro.core.rewrite_cache.RewriteEntry`,
    so it is planned once per walk, generation and setting.  ``plan`` and
    ``stats`` are stage A's (the rewritten plan and None with pushdown
    off); ``requests`` and ``derived`` are :meth:`MDM._scan_requests`'s,
    keyed by the entry's ``wrappers``.
    """

    plan: PlanNode
    stats: Optional[OptimizationStats]
    requests: Mapping[str, Scan]
    derived: Mapping[str, Tuple[Scan, ...]]


@dataclass
class _QueryRun:
    """What one query has produced so far; its query-log record is
    written from this on every exit, whether or not it was answered."""

    started_wall: float = field(default_factory=time.time)
    result: Optional[RewriteResult] = None
    #: The walk's description, once the query has reached its rewrite.
    walk_text: Optional[str] = None
    rewrite_cache: str = "bypass"
    result_cache: str = "off"
    relations: Dict[str, Relation] = field(default_factory=dict)
    attempts: Dict[str, int] = field(default_factory=dict)
    fetch_meta: Dict[str, Dict[str, object]] = field(default_factory=dict)
    failed: List[str] = field(default_factory=list)
    rows_returned: int = 0


class MDM:
    """The Metadata Management System."""

    def __init__(
        self,
        *,
        max_fetch_workers: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
        result_cache_size: Optional[int] = None,
        optimize: Optional[bool] = None,
        pushdown: Optional[bool] = None,
        wrapper_cache_size: Optional[int] = None,
        impact_gate: Optional[str] = None,
    ):
        self.dataset = Dataset(namespaces=mdm_namespace_manager())
        self.global_graph = GlobalGraph(self.dataset.graph(M.globalGraph))
        self.source_graph = SourceGraph(self.dataset.graph(M.sourceGraph))
        self.mappings = LavMappingStore(
            self.dataset, self.global_graph, self.source_graph
        )
        #: LRU cache of rewrites keyed by (canonical walk, generation); an
        #: entry also keeps what each query of the walk plans before it
        #: fetches.
        self.rewrite_cache = RewriteCache()
        self.rewriter = Rewriter(
            self.global_graph,
            self.mappings,
            expansions=self.rewrite_cache.expansions,
        )
        self.metadata = DocumentStore()
        self.governance = GovernanceLog(self.metadata)
        #: Runtime wrapper objects by name (the executable side of S:Wrapper).
        self.wrappers: Dict[str, Wrapper] = {}
        #: The live execution configuration (the ``MDM_*`` environment
        #: overridden by the arguments); replaced whole, never mutated.
        self.config = replace(
            ExecutionConfig.from_env(),
            **_given(
                max_fetch_workers=max_fetch_workers,
                retry_policy=retry_policy,
                optimize=optimize,
                pushdown=pushdown,
                impact_gate=impact_gate,
            ),
        )
        #: Serializes reconfigurations (each is a read-modify-write).
        self._config_lock = threading.Lock()
        #: Ring of the most recent :class:`ImpactReport` objects, newest
        #: last (served by ``GET /impact/recent``).
        self.impact_log: "deque" = deque(maxlen=50)
        #: ``((dataset stamp, rewriter stamp), generation)`` as last read,
        #: replaced whole.
        self._clock = ((self.dataset.stamp, self.rewriter.stamp), 0)
        self._clock_lock = threading.Lock()
        #: Readers–writer lock guarding the metadata snapshot: the nine
        #: metadata mutators hold it exclusively, queries and read
        #: endpoints hold it shared — a query can never observe a
        #: half-applied release.
        self.metadata_lock = ReadWriteLock()
        from .result_cache import ResultCache

        #: LRU cache of full query outcomes keyed by (canonical walk,
        #: generation, outcome-shaping config flags); 0 disables.
        self.result_cache = ResultCache(
            env_capacity("MDM_RESULT_CACHE")
            if result_cache_size is None
            else result_cache_size
        )
        from .wrapper_cache import WrapperCache

        #: LRU cache of fetched wrapper relations keyed by
        #: (wrapper, canonical fetch request, generation); 0 disables.
        self.wrapper_cache = WrapperCache(
            env_capacity("MDM_WRAPPER_CACHE")
            if wrapper_cache_size is None
            else wrapper_cache_size
        )

    @property
    def saved_queries(self):
        """Saved analytical processes (named walks) with revalidation.

        A fresh view each time: the registry's only state is this MDM
        and the metadata store, and holding it here would make a
        reference cycle that outlives every impact-analysis shadow.
        """
        return QueryRegistry(self)

    # ------------------------------------------------------------------ #
    # metadata generation & execution configuration
    # ------------------------------------------------------------------ #

    @property
    def generation(self) -> int:
        """The metadata generation, which the caches key on: one more
        each time this MDM reads a :attr:`dataset` stamp or a
        :attr:`rewriter` stamp other than the last.  Any change to its
        graphs or bindings, by a mutator or not, moves it, and so does a
        new rewriter setting or a new rewriter; nothing else does.  Read
        it under the metadata lock (the stamp reads every named graph).
        """
        with self._clock_lock:
            stamp = (self.dataset.stamp, self.rewriter.stamp)
            if stamp != self._clock[0]:
                self._clock = (stamp, self._clock[1] + 1)
            return self._clock[1]

    def configure_execution(
        self,
        result_cache_size: Optional[int] = None,
        wrapper_cache_size: Optional[int] = None,
        **changes: object,
    ) -> Dict[str, object]:
        """Reconfigure execution, all or nothing; returns the live config.

        ``changes`` are :class:`~repro.core.config.ExecutionConfig`
        fields (None keeps a value).  A call that raises changes nothing;
        otherwise the caches are resized and the new config is swapped in
        by one assignment (a running query keeps the one it captured).
        """
        with self._config_lock:
            config = replace(self.config, **_given(**changes))
            sizes = _given(result_cache=result_cache_size, wrapper_cache=wrapper_cache_size)
            for name, size in sizes.items():
                getattr(self, name).check_capacity(size)
            for name, size in sizes.items():
                getattr(self, name).resize(size)
            self.config = config
        return self.execution_config()

    def execution_config(self) -> Dict[str, object]:
        """The live execution configuration (JSON-shaped)."""
        config = self.config
        with self.metadata_lock.read_locked():
            generation = self.generation
        return {
            "max_fetch_workers": config.max_fetch_workers,
            "retry": config.retry_policy.describe(),
            "optimize": config.optimize,
            "pushdown": config.pushdown,
            "impact_gate": config.impact_gate,
            "generation": generation,
            "rewrite_cache": self.rewrite_cache.stats(),
            "result_cache": self.result_cache.stats(),
            "wrapper_cache": self.wrapper_cache.stats(),
            "metadata_lock": self.metadata_lock.state(),
        }

    # ------------------------------------------------------------------ #
    # (a) global graph definition
    # ------------------------------------------------------------------ #

    def add_concept(self, concept: IRI, label: Optional[str] = None) -> IRI:
        """Declare a concept in the global graph."""
        with self.metadata_lock.write_locked():
            return self.global_graph.add_concept(concept, label)

    def add_feature(
        self, feature: IRI, concept: IRI, label: Optional[str] = None
    ) -> IRI:
        """Attach a (non-identifier) feature to a concept."""
        with self.metadata_lock.write_locked():
            return self.global_graph.add_feature(feature, concept, label)

    def add_identifier(
        self, feature: IRI, concept: IRI, label: Optional[str] = None
    ) -> IRI:
        """Attach an identifier feature (``rdfs:subClassOf sc:identifier``)."""
        with self.metadata_lock.write_locked():
            return self.global_graph.add_identifier(feature, concept, label)

    def relate(self, source: IRI, prop: IRI, target: IRI) -> Triple:
        """Relate two concepts with a user-defined property."""
        with self.metadata_lock.write_locked():
            return self.global_graph.relate(source, prop, target)

    def load_uml(self, model: UmlModel) -> GlobalGraph:
        """Compile a UML model (Figure 1) into this MDM's global graph."""
        compiled = model.compile()
        with self.metadata_lock.write_locked():
            self.global_graph.graph.add_all(iter(compiled.graph))
            return self.global_graph

    # ------------------------------------------------------------------ #
    # (b) source & wrapper registration
    # ------------------------------------------------------------------ #

    def register_source(self, name: str, label: Optional[str] = None) -> IRI:
        """Declare a data source; returns its IRI (idempotent: see
        :meth:`SourceGraph.add_data_source`)."""
        with self.metadata_lock.write_locked():
            return self.source_graph.add_data_source(name, label)

    def source_iri(self, name: str) -> IRI:
        """The IRI of a registered source (raises if unknown)."""
        iri = mint_local(M, "dataSource", name)
        if (iri, RDF.type, S.DataSource) not in self.source_graph.graph:
            raise SourceGraphError(f"unknown data source {name!r}")
        return iri

    def source_name_of(self, source: IRI) -> Optional[str]:
        """The name of a registered source IRI (None if unknown)."""
        return {iri: name for name, iri in self.sources().items()}.get(source)

    def sources(self) -> Dict[str, IRI]:
        """All registered sources as a ``name -> IRI`` mapping; each name
        is read back from its minted IRI (``my-source`` as ``my_source``)."""
        prefix = M.base + "dataSource/"
        return {
            source.value[len(prefix):]: source
            for source in self.source_graph.data_sources()
            if source.value.startswith(prefix)
        }

    def register_wrapper(
        self,
        source_name: str,
        wrapper: Wrapper,
        kind: Optional[str] = None,
        changes: Sequence[str] = (),
    ) -> WrapperRegistration:
        """Register a wrapper release under a source.

        The signature is taken from the wrapper object; attribute IRIs are
        reused across the source's previous wrappers; the release is
        recorded in the governance log.  ``kind`` defaults to
        ``new-source`` for the source's first wrapper and ``evolution``
        afterwards.  A release the log cannot record (an unknown
        ``kind``, a failed write) is not registered: the error propagates
        and the source graph is left as it was.

        When ``config.impact_gate`` is not ``"off"`` the release is first
        run through :meth:`analyze_impact` against the *unmodified*
        metadata; ``blocking`` raises :class:`ImpactGateError` for a
        BROKEN verdict before a single triple mutates, ``advisory`` just
        records the verdict on the release document.
        """
        gate = self.config.impact_gate
        with self.metadata_lock.write_locked():
            source = self.source_iri(source_name)
            previous = self.source_graph.wrappers_of(source)
            resolved_kind = kind or (
                KIND_EVOLUTION if previous else KIND_NEW_SOURCE
            )
            impact_report = None
            if gate != "off":
                from ..analysis.impact import WrapperRelease

                impact_report = self.analyze_impact(
                    WrapperRelease(
                        source=source_name,
                        wrapper=wrapper.name,
                        attributes=tuple(wrapper.attributes),
                        auto_map=False,
                        kind=resolved_kind,
                    )
                )
                if gate == "blocking" and not impact_report.ok:
                    raise ImpactGateError(
                        f"impact gate: release of wrapper {wrapper.name!r} "
                        f"under {source_name!r} is classified "
                        f"{str(impact_report.verdict).upper()} — blocked "
                        "before any metadata mutation",
                        report=impact_report,
                    )
            graph = self.source_graph.graph
            before = graph.copy(graph.namespaces)
            registration = self.source_graph.register_wrapper(
                source, wrapper.name, wrapper.attributes
            )
            try:
                self.governance.record(
                    source_name,
                    registration,
                    resolved_kind,
                    changes,
                    impact=impact_report,
                    gate=gate,
                )
            except BaseException:
                # An unrecorded release must not stay registered, nor
                # move the generation.
                graph.restore(before)
                raise
            self.wrappers[wrapper.name] = wrapper
            return registration

    def wrapper_iri(self, wrapper_name: str) -> IRI:
        """The IRI of a registered wrapper (raises if unknown)."""
        iri = self.source_graph.wrapper_by_name(wrapper_name)
        if iri is None:
            raise SourceGraphError(f"unknown wrapper {wrapper_name!r}")
        return iri

    def bootstrap_wrapper(
        self,
        source_name: str,
        wrapper_name: str,
        server,
        path: str,
        params: Optional[Mapping[str, str]] = None,
        paginate: bool = False,
    ):
        """Infer a wrapper's signature from a live endpoint and register it.

        The signature is sampled from the endpoint
        (:func:`repro.sources.inference.infer_signature`), a
        :class:`~repro.sources.wrappers.RestWrapper` with the identity
        attribute map is created, and the registration goes through the
        normal release governance.  Returns
        ``(registration, signature_profile)``.
        """
        from ..sources.inference import infer_signature
        from ..sources.wrappers import RestWrapper

        profile = infer_signature(server, path, params)
        wrapper = RestWrapper(
            wrapper_name,
            list(profile.attribute_names),
            server,
            path,
            params=params,
            paginate=paginate,
        )
        registration = self.register_wrapper(source_name, wrapper)
        return registration, profile

    def suggest_links_for(
        self,
        wrapper_name: str,
        concepts: Optional[Sequence[IRI]] = None,
    ):
        """Name-similarity sameAs suggestions for a new wrapper's attributes.

        See :func:`repro.core.matching.suggest_links`; the steward reviews
        the ranking and feeds the confirmed pairs to
        :meth:`define_mapping`.
        """
        from .matching import suggest_links

        with self.metadata_lock.read_locked():
            return suggest_links(
                self.global_graph,
                self.source_graph,
                self.wrapper_iri(wrapper_name),
                concepts=concepts,
            )

    def profile_wrapper(self, wrapper_name: str):
        """Profile a registered wrapper's live output (types, nullability).

        Reuses the signature-inference machinery over the wrapper's actual
        ``fetch()`` rows; the steward uses this to spot data-quality drift
        between releases (a column suddenly going all-null, a type
        changing representation) even when the signature itself held.
        """
        from ..sources.inference import SignatureProfile, profile_attributes

        wrapper = self.wrappers.get(wrapper_name)
        if wrapper is None:
            raise SourceGraphError(
                f"wrapper {wrapper_name!r} has no runtime object to profile"
            )
        rows = wrapper.fetch()
        return SignatureProfile(
            path=getattr(wrapper, "path", wrapper_name),
            record_count=len(rows),
            attributes=profile_attributes(wrapper.attributes, rows),
        )

    def diff_wrapper_versions(self, old_name: str, new_name: str):
        """Signature diff between two registered wrappers (rename detection).

        Uses live sample rows when both wrappers have runtime objects, so
        value overlap can confirm renames that names alone would miss.
        """
        from .diffing import diff_signatures

        def signature(name: str) -> List[str]:
            iri = self.wrapper_iri(name)
            return [
                self.source_graph.attribute_name(a) or a.local_name()
                for a in self.source_graph.attributes_of(iri)
            ]

        def sample(name: str):
            wrapper = self.wrappers.get(name)
            if wrapper is None:
                return None
            try:
                return wrapper.fetch()[:50]
            except Exception:  # noqa: BLE001 — sampling is best-effort
                return None

        return diff_signatures(
            sorted(signature(old_name)),
            sorted(signature(new_name)),
            old_rows=sample(old_name),
            new_rows=sample(new_name),
        )

    # ------------------------------------------------------------------ #
    # (c) LAV mapping definition
    # ------------------------------------------------------------------ #

    def define_mapping(
        self,
        wrapper_name: str,
        features_by_attribute: Mapping[str, IRI],
        edges: Iterable[Tuple[IRI, IRI, IRI]] = (),
    ) -> MappingView:
        """Define the LAV mapping for ``wrapper_name`` by names.

        ``features_by_attribute`` maps *signature attribute names* to
        feature IRIs (the ``owl:sameAs`` gesture); ``edges`` are the
        concept relations inside the contour.  The named graph is derived:
        the ``hasFeature`` edge of every mapped feature plus the given
        relation edges.
        """
        with self.metadata_lock.write_locked():
            wrapper = self.wrapper_iri(wrapper_name)
            registration_attributes = {
                (self.source_graph.attribute_name(a) or ""): a
                for a in self.source_graph.attributes_of(wrapper)
            }
            same_as: Dict[IRI, IRI] = {}
            for attribute_name, feature in features_by_attribute.items():
                attribute = registration_attributes.get(attribute_name)
                if attribute is None:
                    raise MappingError(
                        f"wrapper {wrapper_name!r} has no attribute "
                        f"{attribute_name!r}; signature is "
                        f"{self.source_graph.signature_of(wrapper)}"
                    )
                same_as[attribute] = feature
            subgraph: List[Triple] = []
            for feature in sorted(set(same_as.values()), key=lambda i: i.value):
                concept = self.global_graph.concept_of(feature)
                if concept is None:
                    raise MappingError(
                        f"{feature} is not attached to any concept"
                    )
                subgraph.append(Triple(concept, G.hasFeature, feature))
            for s, p, o in edges:
                subgraph.append(Triple(s, p, o))
            self.mappings.define(wrapper, subgraph, same_as)
            return self.mappings.view(wrapper)

    def suggest_mapping(self, wrapper_name: str) -> MappingSuggestion:
        """Semi-automatic accommodation for an evolved source's wrapper."""
        self.metadata_lock.acquire_read()
        try:
            return self._suggest_mapping_locked(wrapper_name)
        finally:
            self.metadata_lock.release_read()

    def _suggest_mapping_locked(self, wrapper_name: str) -> MappingSuggestion:
        wrapper = self.wrapper_iri(wrapper_name)
        source = self.source_graph.source_of(wrapper)
        if source is None:
            raise SourceGraphError(f"wrapper {wrapper_name!r} has no source")
        attributes = tuple(
            (self.source_graph.attribute_name(a) or "", a)
            for a in self.source_graph.attributes_of(wrapper)
        )
        # Rebuild a registration view for the suggestion helper.
        registration = WrapperRegistration(
            source=source,
            wrapper=wrapper,
            wrapper_name=wrapper_name,
            attributes=attributes,
            reused_attributes=tuple(
                name
                for name, iri in attributes
                if self.mappings.same_as_of_attribute(iri)
            ),
        )
        return suggest_mapping(self.source_graph, self.mappings, registration)

    def apply_suggestion(
        self,
        suggestion: MappingSuggestion,
        extra_features_by_attribute: Optional[Mapping[str, IRI]] = None,
        extra_edges: Iterable[Tuple[IRI, IRI, IRI]] = (),
    ) -> MappingView:
        """Apply a mapping suggestion, optionally completed by the steward."""
        with self.metadata_lock.write_locked():
            wrapper = suggestion.wrapper
            same_as = dict(suggestion.same_as)
            if extra_features_by_attribute:
                by_name = {
                    (self.source_graph.attribute_name(a) or ""): a
                    for a in self.source_graph.attributes_of(wrapper)
                }
                for attribute_name, feature in (
                    extra_features_by_attribute.items()
                ):
                    attribute = by_name.get(attribute_name)
                    if attribute is None:
                        raise MappingError(
                            f"wrapper has no attribute {attribute_name!r}"
                        )
                    same_as[attribute] = feature
            subgraph: List[Triple] = list(suggestion.subgraph)
            for feature in set(same_as.values()):
                concept = self.global_graph.concept_of(feature)
                if concept is None:
                    raise MappingError(
                        f"{feature} is not attached to any concept"
                    )
                triple = Triple(concept, G.hasFeature, feature)
                if triple not in subgraph:
                    subgraph.append(triple)
            for s, p, o in extra_edges:
                triple = Triple(s, p, o)
                if triple not in subgraph:
                    subgraph.append(triple)
            self.mappings.define(wrapper, subgraph, same_as)
            return self.mappings.view(wrapper)

    # ------------------------------------------------------------------ #
    # (d) querying
    # ------------------------------------------------------------------ #

    def walk_from_nodes(self, nodes: Iterable[IRI]) -> Walk:
        """Complete a node selection into a validated walk."""
        with self.metadata_lock.read_locked():
            walk = Walk.from_nodes(self.global_graph, nodes)
            walk.validate(self.global_graph)
            return walk

    def walk_from_sparql(self, text: str) -> Walk:
        """Interpret SPARQL text as a validated walk (see
        :mod:`repro.core.sparql_frontend`), reading one metadata state."""
        from .sparql_frontend import walk_from_sparql

        with self.metadata_lock.read_locked():
            return walk_from_sparql(self.global_graph, text)

    def rewrite(self, walk: Walk, use_cache: bool = True) -> RewriteResult:
        """Run the three-phase LAV rewriting for a walk.

        Plans are served from :attr:`rewrite_cache` when an entry exists
        for the walk *at the current metadata generation* — any wrapper,
        mapping or ontology registration since the plan was cached makes
        it cold, so evolution never replays a stale UCQ.  The metadata
        ``queries`` collection logs each posed query, here and in
        :meth:`execute` short of a result-cache hit, cached plan or not;
        :meth:`replay` logs nothing.

        ``use_cache`` is honored regardless of tracing: a traced cache
        hit shows up as a ``rewrite-cache`` span tagged ``cache=hit``
        instead of forcing a re-rewrite (the pre-observability versions
        bypassed the cache whenever the tracer was enabled, so traced
        runs never exercised the code path users actually run).
        """
        with self.metadata_lock.read_locked():
            entry, _ = self._rewrite_with_status(walk, self.generation, use_cache)
            self._log_posed(entry)
            return entry.result

    def replay(self, walks: Iterable[Walk]) -> List[Union[RewriteResult, MdmError]]:
        """Rewrite walks to check them, not pose them: per walk, its
        :class:`RewriteResult` or the :class:`MdmError` it raised (any
        other exception propagates).

        Plans go through the rewrite cache, so a walk is rewritten once
        per generation however many checks replay it.  The read lock
        spans the pass, so no plan is cached under another generation.
        """
        results: List[Union[RewriteResult, MdmError]] = []
        with self.metadata_lock.read_locked():
            generation = self.generation
            for walk in walks:
                try:
                    results.append(self._rewrite_with_status(walk, generation)[0].result)
                except MdmError as exc:
                    results.append(exc)
        return results

    def _rewrite_with_status(
        self, walk: Walk, generation: int, use_cache: bool = True
    ) -> Tuple[RewriteEntry, str]:
        """The rewrite-cache entry and its disposition (hit/miss/bypass).

        A miss takes the rewriter's result from the cache's inputs map
        when the rewriter's inputs are unchanged since it was stored,
        and rewrites otherwise; either way the new entry's plan slots
        start empty.  With ``use_cache=False`` neither map is read or
        filled: the entry is a fresh one that no other query sees, so
        whatever is planned on it is planned again next time.  (The
        rewriter still reads each walk's phase (a) from the cache's
        expansions map, which is keyed by all that phase reads.)
        """
        with get_tracer().span("rewrite-cache") as cache_span:
            if not use_cache:
                entry, status = RewriteEntry(self.rewriter.rewrite(walk)), "bypass"
            else:
                key = walk_cache_key(walk)
                entry = self.rewrite_cache.get(key, generation)
                status = "hit"
                if entry is None:
                    status = "miss"
                    inputs = (key, self.rewriter.inputs())
                    result = self.rewrite_cache.by_inputs.probe(inputs)
                    if result is None:
                        result = self.rewriter.rewrite(walk)
                        self.rewrite_cache.by_inputs.store(inputs, result)
                    entry = RewriteEntry(result)
                    self.rewrite_cache.put(key, generation, entry)
            cache_span.set_tag("cache", status)
        return entry, status

    def _log_posed(self, entry: RewriteEntry) -> None:
        """Append a posed query to the metadata ``queries`` collection."""
        self.metadata.collection("queries").insert_one(
            {
                "walk": entry.describe(self.global_graph),
                "ucq_size": entry.result.ucq_size,
                "wrappers": list(entry.wrappers),
            }
        )

    def execute(
        self,
        walk: Walk,
        on_wrapper_error: str = "raise",
        analyze: bool = False,
        use_cache: bool = True,
    ) -> QueryOutcome:
        """Rewrite a walk and execute the UCQ over the live wrappers.

        ``on_wrapper_error="skip"`` (alias: ``"partial"``) drops CQ
        branches whose wrappers fail to fetch (reporting them in the
        outcome, whose :attr:`QueryOutcome.partial` flag flips to True)
        instead of raising — useful while a source migration is in flight.

        Leaf wrappers of the UCQ are deduplicated (a wrapper shared by
        several CQs is fetched once per query), each fetch governed by
        ``config.retry_policy``.  The calling thread fetches the source
        endpoints one after another; up to ``config.max_fetch_workers - 1``
        long-lived helper threads take the endpoints it has not reached
        while it waits on a source, so blocking sources overlap and
        CPU-bound ones run as they would serially.  Helpers run under a
        copy of the caller's context whether or not the process tracer
        is enabled, so their fetch spans parent correctly to this
        query's ``execute`` root, whose ``fetch_helpers`` tag counts the
        endpoints they fetched.

        ``analyze=True`` (implied when this query's trace is being
        recorded) collects per-operator rows-in/rows-out/elapsed
        statistics; the outcome then supports
        :meth:`QueryOutcome.explain_analyze`.

        Every call — traced or not, successful or not — appends exactly
        one :class:`~repro.obs.querylog.QueryLogRecord` to the process
        query log, and every returned outcome carries a
        :class:`~repro.obs.profile.ResourceProfile`.
        """
        if on_wrapper_error not in ("raise", "skip", "partial"):
            raise ValueError(
                "on_wrapper_error must be 'raise', 'skip' or 'partial'"
            )
        with self.metadata_lock.read_locked():
            return self._execute_locked(walk, on_wrapper_error, analyze, use_cache)

    def _execute_locked(
        self,
        walk: Walk,
        on_wrapper_error: str,
        analyze: bool,
        use_cache: bool,
    ) -> QueryOutcome:
        """The body of :meth:`execute`, run under the metadata read lock.

        Holding the read lock end-to-end means the whole query — rewrite,
        fetch, optimize, execute — sees one metadata generation; the
        captured ``generation`` is therefore exact, which is what makes
        the result cache's generation keying sound.  The execution
        configuration is captured with it, once, in a
        :class:`QueryContext`.  Every
        exit — result-cache hit, error or answer — writes its one query
        log record in the ``finally`` below.
        """
        root = get_tracer().span("execute")
        ctx = QueryContext(
            walk=walk,
            generation=self.generation,
            config=self.config,
            analyze=analyze or root.is_recording,
            use_cache=use_cache,
            on_wrapper_error=on_wrapper_error,
        )
        run = _QueryRun()
        timer = PhaseTimer()
        memory = MemoryWatch()
        error: Optional[BaseException] = None
        try:
            with memory, root:
                outcome = self._cached_outcome(ctx, root, run)
                if outcome is None:
                    outcome = self._answer(ctx, root, timer, run)
        except BaseException as exc:
            error = exc
            raise
        finally:
            phase_ms = timer.finish()
            self._log_query(root, ctx, run, phase_ms, timer.total_s, error)
            if error is None:  # failed queries are logged, not counted
                metrics = get_metrics()
                metrics.counter("mdm_queries_total").inc()
                metrics.histogram("mdm_execute_seconds").observe(timer.total_s)
        if outcome.result_cache == "hit":
            return outcome
        fetch_meta = run.fetch_meta.values()
        rows_fetched = sum(len(rel) for rel in run.relations.values())
        rows_transferred = sum(int(m["rows_transferred"]) for m in fetch_meta)
        rows_pushed_down = sum(
            int(m["rows_source"]) - int(m["rows_transferred"])
            for m in fetch_meta
            if m.get("rows_source") is not None
            and int(m["rows_source"]) > int(m["rows_transferred"])
        )
        outcome.profile = ResourceProfile(
            total_ms=timer.total_s * 1000.0,
            phase_ms=phase_ms,
            rows_fetched=rows_fetched,
            rows_scanned=self._rows_scanned(outcome.operator_stats, rows_fetched),
            rows_returned=len(outcome.relation),
            peak_memory_bytes=memory.peak_bytes,
            operator_ms=rollup_operators(outcome.operator_stats),
            rows_transferred=rows_transferred,
            rows_pushed_down=rows_pushed_down,
        )
        if ctx.config.pushdown:
            pushed_count = sum(1 for m in fetch_meta if m["kind"] == "pushed")
            outcome.pushdown = {
                "enabled": True,
                "pushed": pushed_count,
                "full": len(run.fetch_meta) - pushed_count,
                "requests": run.fetch_meta,
                "rows_transferred": rows_transferred,
                "rows_pushed_down": rows_pushed_down,
                "wrapper_cache": {
                    "enabled": self.wrapper_cache.enabled,
                    "hits": sum(1 for m in fetch_meta if m["cache"] == "hit"),
                    "misses": sum(1 for m in fetch_meta if m["cache"] == "miss"),
                },
            }
        if run.result_cache == "miss":
            # put() refuses partial outcomes; everything else computed at
            # this generation is safe to serve until the next mutation.
            self.result_cache.put(walk, ctx.generation, ctx.config, outcome)
        return outcome

    def _cached_outcome(
        self, ctx: QueryContext, root, run: _QueryRun
    ) -> Optional[QueryOutcome]:
        """A copy of the result-cache entry for this query, or None."""
        if not self.result_cache.enabled:
            return None
        run.result_cache = "bypass"
        if not ctx.use_cache:
            return None
        with get_tracer().span("result-cache") as span:
            cached = self.result_cache.get(
                ctx.walk, ctx.generation, ctx.config, require_analyzed=ctx.analyze
            )
            run.result_cache = "hit" if cached is not None else "miss"
            span.set_tag("cache", run.result_cache)
        if cached is None:
            return None
        served = copy.copy(cached)
        served.result_cache = "hit"
        root.set_tag("cache", "result-hit")
        root.set_tag("rows", len(served.relation))
        root.set_tag("generation", ctx.generation)
        run.result = served.rewrite
        run.rewrite_cache = "hit"
        run.rows_returned = len(served.relation)
        return served

    def _answer(
        self, ctx: QueryContext, root, timer: PhaseTimer, run: _QueryRun
    ) -> QueryOutcome:
        """Rewrite, fetch, optimize, validate and execute one query.

        What a query plans before it fetches depends only on the walk,
        the metadata generation and the pushdown setting, so it is
        planned once per rewrite-cache entry and setting
        (:meth:`_query_plan`): stage A, the fetch requests and, with the
        entry, the walk's description.  Stage B and plan validation run
        on every query, after the fetch, because they read the column
        types the fetch produced.  A partial answer rebuilds its plans
        from the entry's stage-A plan.

        Returns the outcome without its profile and pushdown summary,
        which need the finished timer and memory watch.
        """
        with timer.phase("rewrite"):
            entry, run.rewrite_cache = self._rewrite_with_status(
                ctx.walk, ctx.generation, ctx.use_cache
            )
            self._log_posed(entry)
        result = run.result = entry.result
        run.walk_text = entry.describe(self.global_graph)
        root.set_tag("cache", run.rewrite_cache)
        executor = Executor()
        if ctx.config.pushdown:
            with timer.phase("optimize"):
                planned = self._query_plan(entry, True)
        else:
            planned = self._query_plan(entry, False)
        pushed_plan, pushdown_stats = planned.plan, planned.stats
        requests, derived = planned.requests, planned.derived
        with timer.phase("fetch"):
            run.relations, run.attempts, errors, run.fetch_meta, helped = (
                self._fetch_requests(requests, ctx)
            )
        if errors and ctx.on_wrapper_error == "raise":
            raise errors[min(errors)]
        run.failed = sorted(errors)
        registered: Dict[str, Relation] = {}
        for name in sorted(run.relations):
            relation = run.relations[name]
            registered[requests[name].binding_name()] = relation
            # A wrapper fetched in full but scanned pushed elsewhere in
            # the plan: derive those bindings mediator-side (executor
            # semantics, so exact).
            for scan in derived[name]:
                registered[scan.binding_name()] = apply_pushdown(relation, scan)
        for name in sorted(registered):
            executor.register(name, registered[name])
        if ctx.config.pushdown:
            executor.base_resolver = self._base_resolver(ctx)
        naive_plan, plan = result.plan, pushed_plan
        if run.failed:
            get_metrics().counter("mdm_query_partial_total").inc()
            failed = set(run.failed)
            naive_plan = self._drop_failed_branches(result.plan, failed)
            plan = (
                naive_plan
                if pushed_plan is result.plan
                else self._drop_failed_branches(pushed_plan, failed)
            )
        optimization = pushdown_stats
        if ctx.config.optimize:
            with timer.phase("optimize"):
                plan, stage_b = self._optimize_plan(plan, executor)
                optimization = _merge_optimization_stats(pushdown_stats, stage_b)
        with timer.phase("validate"):
            plan_findings = self._validate_plan(plan, executor)
        stats: Optional[OperatorStats] = None
        with timer.phase("execute"):
            if ctx.analyze:
                relation, stats = executor.execute_analyzed(plan)
            else:
                relation = executor.execute(plan)
        with timer.phase("finalize"):
            if ctx.walk.optional_features:
                optional_columns = [
                    result.column_names[f]
                    for f in ctx.walk.optional_features
                    if result.column_names.get(f) in relation.schema
                ]
                relation = relation.without_subsumed(optional_columns)
            relation = relation.sorted()
        run.rows_returned = len(relation)
        root.set_tag("ucq_size", result.ucq_size)
        root.set_tag("rows", len(relation))
        root.set_tag("fetch_attempts", sum(run.attempts.values()))
        root.set_tag("fetch_helpers", helped)
        if run.failed:
            root.set_tag("skipped_wrappers", run.failed)
        return QueryOutcome(
            result,
            relation,
            tuple(run.failed),
            executor=executor,
            operator_stats=stats,
            fetch_attempts=run.attempts,
            naive_plan=naive_plan,
            executed_plan=plan,
            optimization=optimization,
            plan_findings=plan_findings,
            generation=ctx.generation,
            result_cache=run.result_cache,
        )

    @staticmethod
    def _rows_scanned(stats: Optional[OperatorStats], fallback: int) -> int:
        """Rows emitted by Scan operators (≈ rows entering the plan).

        Needs an analyzed run; otherwise the fetched-row total is the
        best available approximation.
        """
        if stats is None:
            return fallback
        return sum(
            node.rows_out
            for node in stats.iter_nodes()
            if node.label.startswith("Scan(")
        )

    def _log_query(
        self,
        root,
        ctx: QueryContext,
        run: _QueryRun,
        phase_ms: Mapping[str, float],
        total_s: float,
        error: Optional[BaseException],
    ) -> QueryLogRecord:
        """Append this query's record to the process query log.

        The correlation id is the trace_id of the query's trace — kept
        even for unsampled traces; a fresh id is minted only when the
        tracer is off entirely (so records always join on something).
        """
        trace_id = getattr(root, "trace_id", None)
        # The sampling decision: final on finished roots; a span nested
        # under an outer trace (e.g. the HTTP request span) reports its
        # inherited sampling verdict, since the real root is still open.
        decision = getattr(root, "decision", None)
        if decision is None:
            if trace_id is None:
                decision = "off"
            elif getattr(root, "sampled", False):
                decision = "sampled"
            elif getattr(root, "is_recording", False):
                # Recorded but unsampled: kept only if the root ends slow.
                decision = "deferred"
            else:
                decision = "dropped"
        walk_text = run.walk_text
        if walk_text is None:
            try:
                walk_text = ctx.walk.describe(self.global_graph)
            except Exception:  # noqa: BLE001 — logging must not mask errors
                walk_text = repr(ctx.walk)
        if error is not None:
            status = "error"
        else:
            status = "partial" if run.failed else "ok"
        record = QueryLogRecord(
            correlation_id=trace_id or uuid.uuid4().hex,
            started_at=run.started_wall,
            duration_ms=total_s * 1000.0,
            status=status,
            walk=walk_text,
            ucq_size=run.result.ucq_size if run.result is not None else 0,
            rows_fetched=sum(len(rel) for rel in run.relations.values()),
            rows_returned=run.rows_returned,
            rewrite_cache=run.rewrite_cache,
            phase_ms=dict(phase_ms),
            fetch_attempts=dict(run.attempts),
            skipped_wrappers=tuple(run.failed),
            trace_decision=decision,
            error=f"{type(error).__name__}: {error}" if error is not None else None,
            result_cache=run.result_cache,
        )
        return get_query_log().record(record)

    @staticmethod
    def _validate_plan(plan, executor: Executor) -> Tuple:
        """Statically schema-check ``plan`` against the fetched catalog.

        The cheap post-optimizer assertion: error findings abort the
        query with :class:`PlanValidationError` (carrying the findings)
        *before* the executor touches the plan; warnings are returned and
        surfaced on the outcome / in EXPLAIN ANALYZE.  Checks are counted
        in ``mdm_plan_validation_total{result}``.
        """
        from ..analysis.plan_checker import check_plan

        findings, _ = check_plan(plan, executor.catalog)
        errors = [f for f in findings if f.severity.rank >= 2]
        get_metrics().counter("mdm_plan_validation_total").inc(
            1, result="rejected" if errors else "ok"
        )
        if errors:
            raise PlanValidationError(
                "plan rejected by the static schema checker: "
                + "; ".join(f.render() for f in errors),
                findings=findings,
            )
        return tuple(findings)

    @staticmethod
    def _optimize_plan(plan, executor: Executor):
        """Run the logical optimizer; fall back to the naive plan on error.

        An optimizer bug must degrade to the unoptimized (correct) plan
        rather than failing the query — the failure is counted so it is
        visible in /metrics instead of silent.
        """
        try:
            optimizer = PlanOptimizer(executor.catalog)
            return optimizer.optimize(plan)
        except Exception:  # noqa: BLE001 — optimization is best-effort
            _count_optimizer_failure()
            return plan, None

    def _fetch_requests(
        self,
        requests: Mapping[str, Scan],
        ctx: QueryContext,
    ) -> Tuple[
        Dict[str, Relation],
        Dict[str, int],
        Dict[str, Exception],
        Dict[str, Dict[str, object]],
    ]:
        """Serve each wrapper's fetch request: cache first, then the source.

        The wrapper cache is probed serially (cheap, lock-bound) under a
        ``wrapper-cache`` span per wrapper.  The misses are grouped by
        :meth:`~Wrapper.endpoint`: a group's wrappers are fetched in
        name order under one :func:`sharing_requests` block, so the
        source sees one GET per endpoint (a wrapper without an endpoint
        is a group of its own).

        The calling thread fetches the groups one after another.  Up to
        ``max_fetch_workers - 1`` helpers from the process-wide pool
        take the groups it has not reached yet; each drainer, the caller
        first, submits the next helper before it takes a group.  A
        helper needs the interpreter lock to take one, so while the
        caller computes they take nothing, and while it waits on a
        source they overlap the wait.  Each helper runs under its own
        copy of the caller's :mod:`contextvars` context, so
        ``fetch:<name>`` spans opened in a helper parent to the caller's
        current span.

        Returns ``(relations, attempts, errors, meta, helped)``: the
        first four keyed by wrapper name, and the number of groups the
        helpers fetched.  Cache hits report 0 attempts and 0 rows
        transferred; ``errors`` holds the terminal exception per failed
        wrapper — any ``Exception`` counts, because ``fetch()`` is
        source-side code whose failures must be degradable to a partial
        result.
        """
        names = sorted(requests)
        for name in names:
            if self.wrappers.get(name) is None:
                raise MdmError(
                    f"wrapper {name!r} is mapped but has no runtime object"
                )
        generation = ctx.generation
        policy = ctx.config.retry_policy
        tracer = get_tracer()
        cache = self.wrapper_cache
        relations: Dict[str, Relation] = {}
        attempts: Dict[str, int] = {}
        errors: Dict[str, Exception] = {}
        meta: Dict[str, Dict[str, object]] = {}
        to_fetch: List[str] = []
        for name in names:
            request = requests[name]
            entry: Dict[str, object] = {
                "kind": "pushed" if request.is_pushed() else "full",
                "request": request.request,
                "cache": "off",
                "rows_transferred": 0,
                "rows_source": None,
            }
            meta[name] = entry
            if cache.enabled:
                with tracer.span("wrapper-cache") as span:
                    span.set_tag("wrapper", name)
                    cached = cache.lookup(request, generation)
                    span.set_tag(
                        "cache", "hit" if cached is not None else "miss"
                    )
                if cached is not None:
                    entry["cache"] = "hit"
                    relations[name] = cached
                    attempts[name] = 0
                    continue
                entry["cache"] = "miss"
            to_fetch.append(name)

        groups: List[List[str]] = []
        by_endpoint: Dict[object, List[str]] = {}
        for name in to_fetch:
            endpoint = self.wrappers[name].endpoint()
            if endpoint is None:
                groups.append([name])
            elif endpoint in by_endpoint:
                by_endpoint[endpoint].append(name)
            else:
                by_endpoint[endpoint] = [name]
                groups.append(by_endpoint[endpoint])

        pending = deque(groups)
        helpers: List[Future] = []
        room = min(ctx.config.max_fetch_workers, len(groups)) - 1
        turns = itertools.count()

        def drain() -> Tuple[int, Dict[str, FetchOutcome]]:
            """Call one more helper while groups are left, then fetch
            groups until none is: how many, and each wrapper's
            ``(result, attempts)`` or exception."""
            # Each drainer that starts, the caller first, calls the next
            # helper, so a query whose caller never lets go of the
            # interpreter lock queues one helper, not all of them.
            # ``next`` on a count is atomic: at most ``room`` are called.
            if pending and next(turns) < room:
                helpers.append(
                    _FETCH_POOL.submit(contextvars.copy_context().run, drain)
                )
                _count_helpers(0)
            taken = 0
            fetched: Dict[str, FetchOutcome] = {}
            while True:
                try:
                    group = pending.popleft()
                except IndexError:
                    return taken, fetched
                taken += 1
                with sharing_requests():
                    for name in group:
                        try:
                            fetched[name] = self.wrappers[name].fetch_request(
                                requests[name], policy
                            )
                        except Exception as exc:  # noqa: BLE001 — mode decides
                            fetched[name] = exc

        try:
            _, outcomes = drain()
        finally:
            # No fetch outlives its query: once the deque is empty no
            # drainer takes a group or calls a helper.  A helper that
            # has not started is cancelled, never waited for, so a
            # saturated pool degrades to a serial fetch instead of a
            # deadlock.  One that has started is waited for before the
            # list is read further: it appends the helper it called
            # before it returns, so this pass reaches every helper.
            pending.clear()
            started = []
            for helper in helpers:
                if not helper.cancel():
                    wait((helper,))
                    started.append(helper)
            # ``drain`` calls itself on helpers; dropping the name breaks
            # that reference cycle, so the query's futures and fetched
            # relations are freed by reference counting, not left for
            # the cycle collector.
            del drain
        helped = 0
        for helper in started:
            taken, fetched = helper.result()
            helped += taken
            outcomes.update(fetched)
        for name in to_fetch:
            outcome = outcomes[name]
            if isinstance(outcome, Exception):
                errors[name] = outcome
                attempts[name] = getattr(outcome, "attempts", 1)
                continue
            fetched, attempts[name] = outcome
            relations[name] = fetched.relation
            meta[name]["rows_transferred"] = fetched.rows_transferred
            meta[name]["rows_source"] = fetched.rows_source
            cache.put(requests[name], generation, fetched.relation)
        metrics = get_metrics()
        request_counter = metrics.counter("mdm_pushdown_requests_total")
        for name, entry in meta.items():
            if name in errors:
                continue
            request_counter.inc(1, kind=str(entry["kind"]))
            metrics.counter("mdm_pushdown_rows_transferred_total").inc(
                int(entry["rows_transferred"])
            )
            source_rows = entry["rows_source"]
            if (
                source_rows is not None
                and int(source_rows) > int(entry["rows_transferred"])
            ):
                metrics.counter("mdm_pushdown_rows_saved_total").inc(
                    int(source_rows) - int(entry["rows_transferred"])
                )
        return relations, attempts, errors, meta, helped

    def _query_plan(self, entry: RewriteEntry, pushdown: bool) -> _QueryPlan:
        """The entry's plan for this pushdown setting, planned on first use.

        The slot is filled by one assignment of the finished plan, so a
        query that races another on a fresh entry plans too, and neither
        reads a half-built plan.
        """
        planned = entry.plans.get(pushdown)
        if planned is None:
            plan, stats = entry.result.plan, None
            if pushdown:
                plan, stats = self._extract_pushdown(plan, entry.wrappers)
            requests, derived = self._scan_requests(plan, entry.wrappers)
            planned = _QueryPlan(
                plan, stats, MappingProxyType(requests), MappingProxyType(derived)
            )
            entry.plans[pushdown] = planned
        return planned

    def _extract_pushdown(self, plan, needed: Iterable[str]):
        """Stage-A optimization: fold pushable work into the Scans.

        Built on the wrappers' declared signatures with every attribute
        typed ANY (no optimizer rule reads a type) and their declared
        capabilities.  Best-effort exactly like :meth:`_optimize_plan`:
        a bug here degrades to the naive full-fetch plan, never fails
        the query.
        """
        try:
            from ..relational.schema import Attribute, RelationSchema
            from ..relational.types import AttrType

            catalog = {}
            capabilities = {}
            for name in sorted(needed):
                wrapper = self.wrappers.get(name)
                if wrapper is None:
                    continue
                catalog[name] = RelationSchema(
                    Attribute(a, AttrType.ANY) for a in wrapper.attributes
                )
                capabilities[name] = wrapper.capabilities()
            optimizer = PlanOptimizer(catalog, pushdown_capabilities=capabilities)
            return optimizer.extract_pushdown(plan)
        except Exception:  # noqa: BLE001 — pushdown is best-effort
            _count_optimizer_failure()
            return plan, None

    @staticmethod
    def _scan_requests(plan, needed: Iterable[str]):
        """Decide what to ask each wrapper for, from the plan's Scans.

        Per wrapper: exactly one distinct pushed Scan and no plain Scan
        → that Scan is the request pushed to the source, and its result
        is registered under the Scan's binding name.  Anything else
        (plain scans, several divergent pushed scans) → a full fetch,
        ``Scan(name)``, with each pushed Scan derived from it
        mediator-side (never fetch the same source twice for one query).

        Returns ``(requests, derived)`` keyed by wrapper name: the Scan
        to fetch and the pushed Scans to derive from its result.
        """
        pushed: Dict[str, Dict[str, Scan]] = {}
        plain: set = set()
        for node in plan.nodes():
            if not isinstance(node, Scan):
                continue
            if node.is_pushed():
                pushed.setdefault(node.relation_name, {})[node.binding_name()] = node
            else:
                plain.add(node.relation_name)
        requests: Dict[str, Scan] = {}
        derived: Dict[str, Tuple[Scan, ...]] = {}
        for name in sorted(needed):
            scans = pushed.get(name, {})
            if len(scans) == 1 and name not in plain:
                requests[name] = next(iter(scans.values()))
                derived[name] = ()
            else:
                requests[name] = Scan(name)
                derived[name] = tuple(scans[key] for key in sorted(scans))
        return requests, derived

    def _base_resolver(self, ctx: QueryContext):
        """An on-demand base-relation fetcher for the executor.

        When pushdown registered only a Scan's binding, a later plan
        over the same executor (provenance re-executes the original CQ
        branches) may still scan the *base* name; the resolver fetches
        it lazily — through the wrapper cache when enabled — under the
        query's captured generation and retry policy.
        """
        generation = ctx.generation

        def resolve(name: str) -> Relation:
            wrapper = self.wrappers.get(name)
            if wrapper is None:
                raise MdmError(
                    f"wrapper {name!r} is mapped but has no runtime object"
                )
            full = Scan(name)
            cached = self.wrapper_cache.lookup(full, generation)
            if cached is not None:
                return cached
            fetched, _ = wrapper.fetch_request(full, ctx.config.retry_policy)
            self.wrapper_cache.put(full, generation, fetched.relation)
            return fetched.relation

        return resolve

    @staticmethod
    def _drop_failed_branches(plan, failed: set):
        """Remove UCQ branches of a plan that scan a failed wrapper.

        Serves both the rewritten plan (``Distinct`` over a union of one
        ``Project`` per CQ) and the pushed plan, whose surviving branches
        keep their pushed Scans.  Pushed Scans report their *base*
        wrapper name from ``scans()``, so membership checks work
        unchanged.
        """
        from ..relational.algebra import Distinct, flatten_union, union_all

        inner = plan
        wrapped = isinstance(inner, Distinct)
        if wrapped:
            inner = inner.child
        surviving = [
            branch
            for branch in flatten_union(inner)
            if not (set(branch.scans()) & failed)
        ]
        if not surviving:
            raise MdmError(
                f"every CQ depends on a failed wrapper: {sorted(failed)}"
            )
        rebuilt = union_all(surviving)
        return Distinct(rebuilt) if wrapped else rebuilt

    def sparql_query(self, text: str, on_wrapper_error: str = "raise") -> QueryOutcome:
        """Pose an OMQ written as SPARQL text (the expert-analyst path).

        The query is interpreted as a walk (see
        :mod:`repro.core.sparql_frontend`), rewritten through the LAV
        algorithm and executed — identical semantics to the graphical
        interface.
        """
        with self.metadata_lock.read_locked():
            walk = self.walk_from_sparql(text)
            return self.execute(walk, on_wrapper_error=on_wrapper_error)

    def sparql(self, text: str):
        """Evaluate SPARQL over the whole MDM dataset (union of graphs).

        Useful for metadata introspection — e.g. listing concepts, or
        querying LAV named graphs with ``GRAPH``.
        """
        with self.metadata_lock.read_locked():
            return evaluate_text(text, self.dataset, union_default=True)

    def analyze_impact(self, change):
        """Statically classify a proposed change's blast radius.

        ``change`` is a :class:`repro.analysis.impact.WrapperRelease`,
        :class:`~repro.analysis.impact.WrapperRetirement` or
        :class:`~repro.analysis.impact.MetadataMutation`.  The analysis
        runs under the metadata *read* lock against a shadow copy of the
        graphs — the live generation stays, no wrapper fetches — and
        returns an :class:`~repro.analysis.impact.ImpactReport` whose
        verdict is SAFE, DEGRADED or BROKEN.  Every analysis is traced
        (an ``impact`` span), counted
        (``mdm_impact_checks_total{verdict}``) and kept in
        :attr:`impact_log`.
        """
        from ..analysis.impact import analyze_impact as _analyze_impact

        with self.metadata_lock.read_locked():
            with get_tracer().span("impact") as span:
                report = _analyze_impact(self, change)
                span.set_tag("verdict", str(report.verdict))
                span.set_tag("queries", report.checked_queries)
        get_metrics().counter("mdm_impact_checks_total").inc(
            1, verdict=str(report.verdict)
        )
        self.impact_log.append(report)
        return report

    def recent_impact(self, limit: int = 20) -> List:
        """The most recent impact reports, newest first."""
        reports = list(self.impact_log)
        reports.reverse()
        return reports[: max(0, limit)]

    def impact_of_source(self, source_name: str) -> Dict[str, object]:
        """Impact analysis for an upcoming release of ``source_name``.

        "The maintenance of such data analysis processes is critical in
        scenarios integrating tenths of sources and exploiting them in
        hundreds of analytical processes" (paper §1).  This report tells
        the steward, before a release lands, which wrappers belong to the
        source, which logged queries depend on them, and which global
        features would lose coverage if the source's wrappers all broke.
        """
        with self.metadata_lock.read_locked():
            source = self.source_iri(source_name)
            wrapper_names = sorted(
                self.source_graph.wrapper_name(w) or w.local_name()
                for w in self.source_graph.wrappers_of(source)
            )
            wrapper_set = set(wrapper_names)
            affected_queries = [
                q
                for q in self.metadata.collection("queries").find()
                if wrapper_set & set(q.get("wrappers", []))
            ]
            # Features populated only by this source's wrappers.
            coverage: Dict[str, set] = {}
            for view in self.mappings.views():
                for feature in view.features:
                    coverage.setdefault(feature.value, set()).add(
                        view.wrapper_name
                    )
            exclusive = sorted(
                feature
                for feature, providers in coverage.items()
                if providers and providers <= wrapper_set
            )
        return {
            "source": source_name,
            "wrappers": wrapper_names,
            "affected_queries": len(affected_queries),
            "affected_query_walks": [q["walk"] for q in affected_queries],
            "exclusively_covered_features": exclusive,
        }

    # ------------------------------------------------------------------ #
    # introspection & persistence
    # ------------------------------------------------------------------ #

    def summary(self) -> Dict[str, int]:
        """Counts of the main metadata entities."""
        with self.metadata_lock.read_locked():
            return {
                "concepts": len(self.global_graph.concepts()),
                "features": len(self.global_graph.features()),
                "sources": len(self.source_graph.data_sources()),
                "wrappers": len(self.source_graph.wrappers()),
                "mappings": len(self.mappings.mapped_wrappers()),
                "releases": len(self.governance.history()),
                "triples": len(self.dataset),
            }

    def validate(self) -> List[str]:
        """All structural issues across global graph, source graph, mappings."""
        with self.metadata_lock.read_locked():
            issues = self.global_graph.validate()
            issues.extend(self.source_graph.validate())
            for wrapper_iri in self.mappings.mapped_wrappers():
                name = self.source_graph.wrapper_name(wrapper_iri)
                if name is not None and name not in self.wrappers:
                    issues.append(
                        f"mapped wrapper {name!r} has no runtime object"
                    )
            return issues

    def to_trig(self) -> str:
        """Serialize the full metadata dataset as TriG (TDB snapshot)."""
        from ..rdf.trig import serialize_trig

        with self.metadata_lock.read_locked():
            return serialize_trig(self.dataset)
