"""Static evolution-impact analysis: a what-if gate over the metadata graph.

Given a *proposed* change — a wrapper release (optionally expressed as
:class:`~repro.sources.evolution.SchemaChange` operators over the
predecessor's signature), a wrapper retirement, or one of the nine MDM
metadata mutations — :func:`analyze_impact` applies it to a **shadow
copy** of the metadata graph and statically classifies the blast radius
per concept, feature and saved query *without fetching a single source
row*:

``BROKEN``
    a saved query stops rewriting, a concept loses its last mapped
    wrapper, or the proposed mapping violates MDM012–MDM018;
``DEGRADED``
    a saved query's UCQ changes shape, pushdown capability is lost, the
    plan checker would report new MDM1xx findings, a feature loses all
    providers;
``SAFE``
    nothing above — at most the cache invalidation (MDM207, info) of a
    change that moves the generation.

The shadow is a deep copy of the RDF dataset only; its runtime wrappers
are no-fetch proxies, so any code path that tried to touch a source
during analysis raises instead of fetching.  The real MDM is only ever
*read* — its graphs and generation stay as they are — bar the rewrite-cache
entries its replayed saved queries store at the current generation and
the rewrites both sides store in the rewrite cache's inputs map, which
the shadow shares.

:func:`apply_change` is the shared "make it real" primitive: the
analyzer runs it against the shadow, the governance workflow (and the
differential oracle test) run the very same function against the live
MDM, which is what makes the static verdict falsifiable.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from ..rdf.terms import IRI
from ..relational.algebra import Scan
from ..sources.evolution import (
    AddField,
    ChangeType,
    FlattenField,
    NestFields,
    RemoveField,
    RenameField,
    SchemaChange,
    evolve_signature,
)
from ..sources.wrappers import FetchResult, RetryPolicy, StaticWrapper, Wrapper
from .diagnostics import (
    Finding,
    Severity,
    SourceLocation,
    render_json,
    render_text,
    severity_counts,
    sort_findings,
)
from .evolution_rules import (
    IMPACT_RULES,
    Verdict,
    verdict_of_findings,
    verdict_of_severity,
)
from .lint import wrapper_catalog
from .plan_checker import check_plan

if TYPE_CHECKING:
    from ..core.mdm import MDM
    from ..core.walks import Walk

__all__ = [
    "WrapperRelease",
    "WrapperRetirement",
    "MetadataMutation",
    "ProposedChange",
    "QueryImpact",
    "ImpactReport",
    "analyze_impact",
    "apply_change",
    "shadow_mdm",
    "change_from_json",
    "MUTATORS",
]

#: The nine MDM metadata mutators a :class:`MetadataMutation` may name
#: (paper §2's interaction kinds a–c).
MUTATORS = (
    "add_concept",
    "add_feature",
    "add_identifier",
    "relate",
    "load_uml",
    "register_source",
    "register_wrapper",
    "define_mapping",
    "apply_suggestion",
)


# ---------------------------------------------------------------------- #
# proposed changes
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class WrapperRelease:
    """A proposed wrapper release under an existing source.

    The new signature is either given verbatim (``attributes``) or
    derived statically from ``base_wrapper``'s registered signature
    pushed through ``changes`` (:func:`evolve_signature`).  The mapping
    is either explicit (``map_attributes`` + ``edges``) or, with
    ``auto_map``, produced by the semi-automatic suggestion machinery —
    exactly the steward workflow the scenarios script.  ``rows`` seeds
    the release's :class:`StaticWrapper` when the change is applied for
    real (the analyzer itself never reads them).
    """

    source: str
    wrapper: str
    attributes: Optional[Tuple[str, ...]] = None
    base_wrapper: Optional[str] = None
    changes: Tuple[SchemaChange, ...] = ()
    map_attributes: Optional[Mapping[str, IRI]] = None
    edges: Tuple[Tuple[IRI, IRI, IRI], ...] = ()
    auto_map: bool = True
    rows: Tuple[Mapping[str, Any], ...] = ()
    kind: Optional[str] = None

    def describe(self) -> str:
        suffix = f" ({len(self.changes)} change(s))" if self.changes else ""
        return f"release {self.wrapper} @ {self.source}{suffix}"

    def resolved_attributes(self, mdm: "MDM") -> List[str]:
        """The proposed signature, derived without touching any source."""
        if self.attributes is not None:
            return list(self.attributes)
        if self.base_wrapper is None:
            raise ValueError(
                "a WrapperRelease needs either attributes or base_wrapper"
            )
        from ..core.errors import SourceGraphError

        base = mdm.source_graph.wrapper_by_name(self.base_wrapper)
        if base is None:
            raise SourceGraphError(
                f"unknown base wrapper {self.base_wrapper!r}"
            )
        base_names = [
            mdm.source_graph.attribute_name(attr) or attr.local_name()
            for attr in mdm.source_graph.attributes_of(base)
        ]
        return evolve_signature(sorted(base_names), self.changes)


@dataclass(frozen=True)
class WrapperRetirement:
    """A proposed wrapper retirement (registration + mapping removed)."""

    wrapper: str

    def describe(self) -> str:
        return f"retire {self.wrapper}"


@dataclass(frozen=True)
class MetadataMutation:
    """One of the nine MDM metadata mutations, by method name."""

    method: str
    args: Tuple[Any, ...] = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        return f"mutation {self.method}"


ProposedChange = Union[WrapperRelease, WrapperRetirement, MetadataMutation]


# ---------------------------------------------------------------------- #
# applying a change (shadow and real share these semantics)
# ---------------------------------------------------------------------- #


def apply_change(mdm: "MDM", change: ProposedChange) -> None:
    """Apply a proposed change to ``mdm`` — shadow or live, same semantics.

    The analyzer calls this against the shadow; the governance workflow
    (and the differential oracle test) call it against the real MDM, so
    the static verdict is about exactly the mutation that would happen.
    """
    if isinstance(change, WrapperRelease):
        _apply_release(mdm, change)
    elif isinstance(change, WrapperRetirement):
        _retire_wrapper(mdm, change.wrapper)
    elif isinstance(change, MetadataMutation):
        if change.method not in MUTATORS:
            raise ValueError(
                f"unknown metadata mutation {change.method!r}; "
                f"use one of {MUTATORS}"
            )
        getattr(mdm, change.method)(*change.args, **dict(change.kwargs))
    else:
        raise TypeError(f"not a proposed change: {change!r}")


def _apply_release(mdm: "MDM", change: WrapperRelease) -> None:
    attributes = change.resolved_attributes(mdm)
    wrapper = StaticWrapper(
        change.wrapper, attributes, [dict(r) for r in change.rows]
    )
    mdm.register_wrapper(
        change.source,
        wrapper,
        kind=change.kind,
        changes=tuple(c.describe() for c in change.changes),
    )
    if change.map_attributes is not None:
        mdm.define_mapping(
            change.wrapper, dict(change.map_attributes), change.edges
        )
    elif change.auto_map:
        suggestion = mdm.suggest_mapping(change.wrapper)
        mdm.apply_suggestion(suggestion, extra_edges=change.edges)


def _retire_wrapper(mdm: "MDM", wrapper_name: str) -> None:
    """Remove a wrapper's registration, mapping and runtime object.

    Attribute IRIs (and their ``owl:sameAs`` links) are kept: they are
    shared across the source's releases, so a sibling wrapper reusing
    them keeps working.
    """
    from ..core.errors import SourceGraphError

    with mdm.metadata_lock.write_locked():
        wrapper = mdm.source_graph.wrapper_by_name(wrapper_name)
        if wrapper is None:
            raise SourceGraphError(f"unknown wrapper {wrapper_name!r}")
        graph = mdm.source_graph.graph
        graph.remove_pattern((wrapper, None, None))
        graph.remove_pattern((None, None, wrapper))
        if mdm.dataset.has_graph(wrapper):
            mdm.dataset.remove_graph(wrapper)
        mdm.wrappers.pop(wrapper_name, None)


# ---------------------------------------------------------------------- #
# the shadow MDM
# ---------------------------------------------------------------------- #


class _NoFetchWrapper(Wrapper):
    """A wrapper proxy that answers metadata questions but never fetches.

    The shadow MDM's runtime wrappers are all wrapped in this, which is
    what makes "impact analysis performs zero wrapper fetches" a hard
    guarantee rather than a convention: any analysis code path reaching
    for rows raises immediately.
    """

    def __init__(self, inner: Wrapper) -> None:
        super().__init__(inner.name, list(inner.attributes))
        self._inner = inner

    def capabilities(self) -> frozenset:
        return self._inner.capabilities()

    def _refuse(self) -> Exception:
        from ..core.errors import MdmError

        return MdmError(
            f"impact analysis is static: refusing to fetch from wrapper "
            f"{self.name!r}"
        )

    def fetch(self) -> List[Dict[str, Any]]:
        raise self._refuse()

    def fetch_request(
        self,
        scan: Optional[Scan] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> Tuple[FetchResult, int]:
        raise self._refuse()


def shadow_mdm(mdm: "MDM") -> "MDM":
    """A shadow MDM the analyzer can mutate without consequence.

    Only the RDF dataset, all analysis reads, is copied; the graph stack
    (global graph, source graph, LAV store, rewriter) is rebuilt over
    the copy, the rewriter with the live one's settings so both sides of
    an analysis rewrite alike; runtime wrappers become no-fetch proxies;
    the impact gate is off (the shadow must accept the proposal so its
    consequences can be measured).  The shadow keeps its own empty
    document store.  The copied graphs keep their stamps, so the
    shadow's LAV store starts from the live store's views and compiles
    only those the proposal touches.  Its rewrite cache shares the live
    one's inputs and expansions maps
    (:attr:`~repro.core.rewrite_cache.RewriteCache.by_inputs`,
    :attr:`~repro.core.rewrite_cache.RewriteCache.expansions`), so once
    the analysed change is applied to the live MDM, the live replays
    find the shadow's rewrites there.  Its generation-keyed entries
    stay its own: its generation starts at the live one and moves as
    the live one would, so shared entries could serve its plans to live
    queries.  The caller is expected to hold the real MDM's read lock
    so the copy is a consistent snapshot.
    """
    from ..core.global_graph import GlobalGraph
    from ..core.lav import LavMappingStore
    from ..core.mdm import MDM
    from ..core.rewrite_cache import RewriteCache
    from ..core.rewriting import Rewriter
    from ..core.source_graph import SourceGraph
    from ..core.vocabulary import M

    shadow = MDM(
        max_fetch_workers=1,
        result_cache_size=0,
        wrapper_cache_size=0,
        impact_gate="off",
    )
    shadow.dataset = mdm.dataset.copy()
    shadow.global_graph = GlobalGraph(shadow.dataset.graph(M.globalGraph))
    shadow.source_graph = SourceGraph(shadow.dataset.graph(M.sourceGraph))
    shadow.mappings = LavMappingStore(
        shadow.dataset, shadow.global_graph, shadow.source_graph, seed=mdm.mappings
    )
    live_cache = mdm.rewrite_cache
    shadow.rewrite_cache = RewriteCache(
        live_cache.capacity, live_cache.by_inputs, live_cache.expansions
    )
    shadow.rewriter = Rewriter(
        shadow.global_graph,
        shadow.mappings,
        mdm.rewriter.max_cover_size,
        mdm.rewriter.minimize,
        live_cache.expansions,
    )
    shadow.rewriter.stamp = mdm.rewriter.stamp
    shadow._clock = mdm._clock  # the copy keeps the stamps it counts
    shadow.wrappers = {
        name: _NoFetchWrapper(w) for name, w in mdm.wrappers.items()
    }
    return shadow


# ---------------------------------------------------------------------- #
# static state capture & diffing
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class _QueryState:
    """What the metadata alone says about one saved query."""

    name: str
    ok: bool
    error: str
    ucq_size: int
    wrappers: Tuple[str, ...]
    plan_codes: Mapping[str, int]
    plan_findings: Tuple[Finding, ...]
    capabilities: FrozenSet[str]


def _query_states(mdm: "MDM", walks: Mapping[str, Walk]) -> Dict[str, _QueryState]:
    from ..core.errors import MdmError

    catalog = wrapper_catalog(mdm)
    states: Dict[str, _QueryState] = {}
    for name, result in zip(walks, mdm.replay(walks.values())):
        if isinstance(result, MdmError):
            states[name] = _QueryState(
                name=name,
                ok=False,
                error=f"{type(result).__name__}: {result}",
                ucq_size=0,
                wrappers=(),
                plan_codes={},
                plan_findings=(),
                capabilities=frozenset(),
            )
            continue
        wrappers = tuple(
            sorted({w for q in result.queries for w in q.wrapper_names})
        )
        plan_findings, _schema = check_plan(result.plan, catalog)
        caps: Optional[FrozenSet[str]] = None
        for wrapper_name in wrappers:
            runtime = mdm.wrappers.get(wrapper_name)
            wrapper_caps = (
                frozenset(runtime.capabilities())
                if runtime is not None
                else frozenset()
            )
            caps = wrapper_caps if caps is None else (caps & wrapper_caps)
        states[name] = _QueryState(
            name=name,
            ok=result.ucq_size > 0,
            error="" if result.ucq_size > 0 else "empty UCQ",
            ucq_size=result.ucq_size,
            wrappers=wrappers,
            plan_codes=dict(Counter(f.code for f in plan_findings)),
            plan_findings=tuple(plan_findings),
            capabilities=caps if caps is not None else frozenset(),
        )
    return states


def _coverage(mdm: "MDM") -> Tuple[FrozenSet[IRI], FrozenSet[IRI]]:
    """(covered concepts, populated features) across all mapped wrappers."""
    concepts: set = set()
    features: set = set()
    for view in mdm.mappings.views():
        concepts |= set(view.concepts)
        features |= set(view.features)
    return frozenset(concepts), frozenset(features)


# ---------------------------------------------------------------------- #
# the report
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class QueryImpact:
    """The per-saved-query row of the blast-radius report."""

    name: str
    verdict: Verdict
    before_ucq: int
    after_ucq: int
    before_wrappers: Tuple[str, ...]
    after_wrappers: Tuple[str, ...]
    note: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "verdict": str(self.verdict),
            "before_ucq": self.before_ucq,
            "after_ucq": self.after_ucq,
            "before_wrappers": list(self.before_wrappers),
            "after_wrappers": list(self.after_wrappers),
            "note": self.note,
        }


@dataclass(frozen=True)
class ImpactReport:
    """One impact analysis: the change, its verdict, the blast radius."""

    change: str
    verdict: Verdict
    findings: Tuple[Finding, ...]
    queries: Tuple[QueryImpact, ...]
    concepts_lost: Tuple[str, ...]
    features_lost: Tuple[str, ...]
    checked_queries: int
    generation: int
    applied: bool

    @property
    def summary(self) -> Dict[str, int]:
        return severity_counts(self.findings)

    @property
    def ok(self) -> bool:
        """True when the change would not break anything."""
        return self.verdict is not Verdict.BROKEN

    def exit_code(self, strict: bool = False) -> int:
        """CLI exit code, matching lint: 1 on BROKEN, 1 on DEGRADED when
        ``strict``, else 0."""
        if self.verdict is Verdict.BROKEN:
            return 1
        if strict and self.verdict is Verdict.DEGRADED:
            return 1
        return 0

    def render_text(self) -> str:
        """The blast-radius report the steward reads."""
        lines = [
            f"Impact analysis: {self.change}",
            f"Verdict: {str(self.verdict).upper()} "
            f"({self.checked_queries} saved quer"
            f"{'y' if self.checked_queries == 1 else 'ies'} checked, "
            f"generation {self.generation})",
        ]
        lines.append(render_text(self.findings))
        if self.queries:
            lines.append("Saved queries:")
            for query in self.queries:
                delta = f"UCQ {query.before_ucq} -> {query.after_ucq}"
                note = f"  [{query.note}]" if query.note else ""
                lines.append(
                    f"  {query.name}: {str(query.verdict)} ({delta}){note}"
                )
        if self.concepts_lost:
            lines.append(
                "Concepts losing all coverage: "
                + ", ".join(self.concepts_lost)
            )
        if self.features_lost:
            lines.append(
                "Features losing all providers: "
                + ", ".join(self.features_lost)
            )
        return "\n".join(lines)

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "change": self.change,
            "verdict": str(self.verdict),
            "ok": self.ok,
            "applied": self.applied,
            "findings": [f.to_dict() for f in sort_findings(self.findings)],
            "summary": self.summary,
            "queries": [q.to_dict() for q in self.queries],
            "concepts_lost": list(self.concepts_lost),
            "features_lost": list(self.features_lost),
            "checked_queries": self.checked_queries,
            "generation": self.generation,
        }

    def render_json(self) -> str:
        return render_json(
            self.findings,
            extra={
                "change": self.change,
                "verdict": str(self.verdict),
                "ok": self.ok,
                "queries": [q.to_dict() for q in self.queries],
                "concepts_lost": list(self.concepts_lost),
                "features_lost": list(self.features_lost),
                "checked_queries": self.checked_queries,
            },
        )


# ---------------------------------------------------------------------- #
# the analyzer
# ---------------------------------------------------------------------- #


def analyze_impact(mdm: "MDM", change: ProposedChange) -> ImpactReport:
    """Statically classify ``change``'s blast radius against ``mdm``.

    Pure read on ``mdm`` (the caller is expected to hold its read lock;
    :meth:`repro.core.mdm.MDM.analyze_impact` does); all mutation happens
    on a :func:`shadow_mdm` copy whose wrappers refuse to fetch.
    """
    from ..core.errors import MappingError, MdmError

    description = change.describe()
    release_location = SourceLocation("release", description)
    walks = mdm.saved_queries.walks()
    before_states = _query_states(mdm, walks)
    before_concepts, before_features = _coverage(mdm)
    generation = mdm.generation
    findings: List[Finding] = []
    shadow = shadow_mdm(mdm)
    shadow_generation = shadow.generation
    applied = True
    try:
        apply_change(shadow, change)
    except MappingError as exc:
        applied = False
        nested = getattr(exc, "findings", ())
        detail = (
            f" ({len(nested)} mapping finding(s): "
            + ", ".join(sorted({f.code for f in nested}))
            + ")"
            if nested
            else ""
        )
        findings.append(
            IMPACT_RULES["MDM203"].finding(
                f"{description}: mapping would be rejected: {exc}{detail}",
                release_location,
            )
        )
    except (MdmError, ValueError, TypeError, KeyError) as exc:
        applied = False
        findings.append(
            IMPACT_RULES["MDM209"].finding(
                f"{description}: cannot be applied: "
                f"{type(exc).__name__}: {exc}",
                release_location,
            )
        )

    queries: List[QueryImpact] = []
    concepts_lost: Tuple[str, ...] = ()
    features_lost: Tuple[str, ...] = ()
    if applied:
        after_states = _query_states(shadow, walks)
        after_concepts, after_features = _coverage(shadow)
        concepts_lost = tuple(
            sorted(c.value for c in before_concepts - after_concepts)
        )
        features_lost = tuple(
            sorted(f.value for f in before_features - after_features)
        )
        for concept in concepts_lost:
            findings.append(
                IMPACT_RULES["MDM204"].finding(
                    f"{description}: concept {concept} loses its last "
                    "mapped wrapper",
                    SourceLocation("graph-node", concept),
                )
            )
        for feature in features_lost:
            findings.append(
                IMPACT_RULES["MDM205"].finding(
                    f"{description}: feature {feature} loses all providers",
                    SourceLocation("graph-node", feature),
                )
            )
        for name in sorted(before_states):
            before = before_states[name]
            after = after_states[name]
            query_findings: List[Finding] = []
            note = ""
            if not before.ok:
                note = "already broken before the change"
            elif not after.ok:
                query_findings.append(
                    IMPACT_RULES["MDM201"].finding(
                        f"saved query {name!r} stops rewriting: "
                        f"{after.error}",
                        SourceLocation("saved-query", name),
                    )
                )
            else:
                if (
                    after.ucq_size != before.ucq_size
                    or after.wrappers != before.wrappers
                ):
                    lost = sorted(set(before.wrappers) - set(after.wrappers))
                    gained = sorted(set(after.wrappers) - set(before.wrappers))
                    bits = [f"UCQ {before.ucq_size} -> {after.ucq_size}"]
                    if lost:
                        bits.append("loses wrapper(s) " + ", ".join(lost))
                    if gained:
                        bits.append("gains wrapper(s) " + ", ".join(gained))
                    query_findings.append(
                        IMPACT_RULES["MDM202"].finding(
                            f"saved query {name!r} rewrite changes: "
                            + "; ".join(bits),
                            SourceLocation("saved-query", name),
                        )
                    )
                lost_caps = sorted(before.capabilities - after.capabilities)
                if lost_caps:
                    query_findings.append(
                        IMPACT_RULES["MDM206"].finding(
                            f"saved query {name!r} loses pushdown "
                            "capability(ies): " + ", ".join(lost_caps),
                            SourceLocation("saved-query", name),
                        )
                    )
                for code in sorted(after.plan_codes):
                    if after.plan_codes[code] <= before.plan_codes.get(code, 0):
                        continue
                    sample = next(
                        f for f in after.plan_findings if f.code == code
                    )
                    query_findings.append(
                        IMPACT_RULES["MDM208"].finding(
                            f"saved query {name!r}: plan check would newly "
                            f"report {code}: {sample.message}",
                            SourceLocation("saved-query", name, code),
                            severity=(
                                Severity.ERROR
                                if sample.severity is Severity.ERROR
                                else None
                            ),
                        )
                    )
            findings.extend(query_findings)
            query_verdict = Verdict.SAFE
            for finding in query_findings:
                query_verdict = query_verdict.join(
                    verdict_of_severity(finding.severity)
                )
            queries.append(
                QueryImpact(
                    name=name,
                    verdict=query_verdict,
                    before_ucq=before.ucq_size,
                    after_ucq=after.ucq_size,
                    before_wrappers=before.wrappers,
                    after_wrappers=after.wrappers,
                    note=note,
                )
            )
        if shadow.generation != shadow_generation:
            findings.append(
                IMPACT_RULES["MDM207"].finding(
                    f"{description}: all generation-keyed caches (rewrite "
                    "plans, query results, wrapper data) go cold on apply",
                    release_location,
                )
            )
    return ImpactReport(
        change=description,
        verdict=verdict_of_findings(findings),
        findings=tuple(sort_findings(findings)),
        queries=tuple(queries),
        concepts_lost=concepts_lost,
        features_lost=features_lost,
        checked_queries=len(before_states),
        generation=generation,
        applied=applied,
    )


# ---------------------------------------------------------------------- #
# JSON parsing (shared by the CLI and POST /impact)
# ---------------------------------------------------------------------- #


def _change_op(spec: Mapping[str, Any]) -> SchemaChange:
    op = str(spec.get("op", ""))
    if op == "rename":
        return RenameField(str(spec["old"]), str(spec["new"]))
    if op == "remove":
        return RemoveField(str(spec["name"]))
    if op == "add":
        value = spec.get("value")
        return AddField(str(spec["name"]), compute=lambda record: value)
    if op == "retype":
        return ChangeType(str(spec["name"]), converter=str)
    if op == "nest":
        return NestFields(tuple(spec["names"]), str(spec["under"]))
    if op == "flatten":
        return FlattenField(str(spec["name"]), str(spec.get("prefix", "")))
    raise ValueError(
        f"unknown schema-change op {op!r}; use one of "
        "rename/remove/add/retype/nest/flatten"
    )


def _json_term(value: Any) -> Any:
    if isinstance(value, Mapping):
        if set(value) == {"iri"}:
            return IRI(str(value["iri"]))
        return {str(k): _json_term(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_json_term(v) for v in value]
    return value


def change_from_json(payload: Mapping[str, Any]) -> ProposedChange:
    """Parse a proposed change from its JSON shape.

    ``{"release": {...}}``, ``{"retire": "wrapperName"}`` or
    ``{"mutation": {"method": ..., "args": [...], "kwargs": {...}}}``;
    IRIs inside mutation arguments are written ``{"iri": "http://..."}``.
    """
    if not isinstance(payload, Mapping):
        raise ValueError("proposed change must be a JSON object")
    if "release" in payload:
        spec = payload["release"]
        mapping = spec.get("mapping")
        return WrapperRelease(
            source=str(spec["source"]),
            wrapper=str(spec["wrapper"]),
            attributes=(
                tuple(str(a) for a in spec["attributes"])
                if spec.get("attributes") is not None
                else None
            ),
            base_wrapper=spec.get("base_wrapper"),
            changes=tuple(_change_op(op) for op in spec.get("changes", ())),
            map_attributes=(
                {str(k): IRI(str(v)) for k, v in mapping.items()}
                if mapping is not None
                else None
            ),
            edges=tuple(
                (IRI(str(s)), IRI(str(p)), IRI(str(o)))
                for s, p, o in spec.get("edges", ())
            ),
            auto_map=bool(spec.get("auto_map", True)),
            rows=tuple(dict(r) for r in spec.get("rows", ())),
            kind=spec.get("kind"),
        )
    if "retire" in payload:
        return WrapperRetirement(str(payload["retire"]))
    if "mutation" in payload:
        spec = payload["mutation"]
        return MetadataMutation(
            method=str(spec.get("method", "")),
            args=tuple(_json_term(a) for a in spec.get("args", ())),
            kwargs={
                str(k): _json_term(v)
                for k, v in spec.get("kwargs", {}).items()
            },
        )
    raise ValueError(
        "proposed change needs one of 'release', 'retire' or 'mutation'; "
        f"got keys {sorted(payload)}"
    )


def change_from_json_text(text: str) -> ProposedChange:
    """:func:`change_from_json` over raw JSON text."""
    return change_from_json(json.loads(text))
