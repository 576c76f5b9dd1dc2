"""The MDM REST-style service: the four interaction kinds over HTTP shapes.

Endpoints (JSON in / JSON out, see :mod:`repro.service.http`):

Global graph (steward):
    ``POST /globalGraph/concepts``       {"iri", "label"?}
    ``POST /globalGraph/features``       {"iri", "concept", "label"?, "identifier"?}
    ``POST /globalGraph/relations``      {"source", "property", "target"}
    ``GET  /globalGraph``                summary with concepts/features/relations

Sources & wrappers (steward):
    ``POST /sources``                    {"name", "label"?}
    ``GET  /sources``
    ``POST /sources/:name/wrappers``     {"name", "attributes": [...], "rows": [...]?, "changes": [...]?}
    ``GET  /releases``

LAV mappings (steward):
    ``POST /wrappers/:name/mapping``     {"features": {attr: featureIRI}, "edges": [[s,p,o], ...]}
    ``GET  /wrappers/:name/suggestion``  semi-automatic accommodation

Querying (analyst):
    ``POST /query``                      {"nodes": [iri, ...], "execute"?: bool, "use_cache"?: bool,
                                          "on_wrapper_error"?: "raise"|"skip"|"partial"}
    ``POST /query/sparql``               {"sparql": text, ...}; the other keys and the answer as above
    ``GET  /metadata/trig``              the TriG snapshot
    ``GET  /lint``                       static diagnostics (?saved=false, ?plans=false)

Impact analysis (steward):
    ``POST /impact``                     what-if over a proposed change:
                                         {"retire": name} | {"release": {...}} | {"mutation": {...}}
    ``GET  /impact/recent``              recent what-if reports (?limit=N)
    ``GET  /impact/:source``             descriptive impact of one source

Observability (operator):
    ``GET  /metrics``                    Prometheus text exposition
    ``GET  /metrics/summary``            per-histogram count/mean/p50/p95/p99
    ``GET  /traces/recent``              recent root spans (?limit=N)
    ``GET  /traces/:trace_id``           one buffered trace by id
    ``GET  /querylog/recent``            recent query-log records (?limit=N)
    ``POST /obs/tracing``                {"enabled"?: bool, "sample_rate"?: float,
                                          "slow_threshold_ms"?: float|null}
    ``GET  /config/execution``           the ExecutionConfig fields, generation, cache stats
    ``POST /config/execution``           any ExecutionConfig field, cache sizes, "retry"?: {...}

Wrapper rows posted through the service back a
:class:`repro.sources.wrappers.StaticWrapper`; programmatic embedders
attach live :class:`RestWrapper` objects through the facade instead.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Mapping, Optional

from ..core.mdm import MDM
from ..core.errors import MdmError
from ..core.walks import Walk
from ..rdf.terms import IRI
from ..sources.wrappers import StaticWrapper, WrapperFetchError, WrapperSchemaError
from .http import JsonRequest, JsonResponse, Router, ServiceError

__all__ = ["MdmService"]


def _iri(value: Any, what: str) -> IRI:
    if not isinstance(value, str) or not value:
        raise ServiceError(400, f"{what} must be a non-empty IRI string")
    try:
        return IRI(value)
    except ValueError as exc:
        raise ServiceError(400, f"invalid {what}: {exc}") from exc


class MdmService:
    """Binds an :class:`MDM` facade to a :class:`Router`."""

    def __init__(self, mdm: Optional[MDM] = None):
        self.mdm = mdm if mdm is not None else MDM()
        self.router = Router()
        self._bind()

    # Convenience passthrough. ------------------------------------------ #

    def request(
        self,
        method: str,
        path: str,
        body: Any = None,
        query: Optional[Mapping[str, str]] = None,
    ) -> JsonResponse:
        """Dispatch one request against this service."""
        return self.router.dispatch(method, path, body, query)

    # Handlers. ---------------------------------------------------------- #

    def _bind(self) -> None:
        add = self.router.add
        add("POST", "/globalGraph/concepts", self._post_concept)
        add("POST", "/globalGraph/features", self._post_feature)
        add("POST", "/globalGraph/relations", self._post_relation)
        add("GET", "/globalGraph", self._get_global_graph)
        add("POST", "/sources", self._post_source)
        add("GET", "/sources", self._get_sources)
        add("POST", "/sources/:name/wrappers", self._post_wrapper)
        add("GET", "/releases", self._get_releases)
        add("POST", "/wrappers/:name/mapping", self._post_mapping)
        add("GET", "/wrappers/:name/suggestion", self._get_suggestion)
        add("POST", "/query", self._post_query)
        add("POST", "/query/sparql", self._post_sparql_query)
        add("POST", "/queries/saved", self._post_saved_query)
        add("GET", "/queries/saved", self._get_saved_queries)
        add("POST", "/queries/saved/:name/run", self._run_saved_query)
        add("DELETE", "/queries/saved/:name", self._delete_saved_query)
        add("GET", "/queries/revalidate", self._revalidate_saved)
        # literal /impact/recent must register before the :source pattern.
        add("POST", "/impact", self._post_impact)
        add("GET", "/impact/recent", self._get_recent_impact)
        add("GET", "/impact/:source", self._get_impact)
        add("GET", "/lint", self._get_lint)
        add("GET", "/report", self._get_report)
        add("GET", "/metadata/trig", self._get_trig)
        add("GET", "/summary", self._get_summary)
        add("GET", "/metrics", self._get_metrics)
        add("GET", "/metrics/summary", self._get_metrics_summary)
        # /traces/recent must bind before the :trace_id pattern so the
        # literal path wins (routes match in registration order).
        add("GET", "/traces/recent", self._get_recent_traces)
        add("GET", "/traces/:trace_id", self._get_trace)
        add("GET", "/querylog/recent", self._get_recent_querylog)
        add("POST", "/obs/tracing", self._post_tracing)
        add("GET", "/config/execution", self._get_execution_config)
        add("POST", "/config/execution", self._post_execution_config)
        add("GET", "/failpoints", self._get_failpoints)
        add("POST", "/failpoints", self._post_failpoints)

    def _post_concept(self, request: JsonRequest) -> Dict[str, Any]:
        (iri_text,) = request.require("iri")
        label = request.body.get("label") if isinstance(request.body, dict) else None
        concept = self.mdm.add_concept(_iri(iri_text, "concept IRI"), label)
        return {"iri": concept.value}

    def _post_feature(self, request: JsonRequest) -> Dict[str, Any]:
        iri_text, concept_text = request.require("iri", "concept")
        body = request.body
        label = body.get("label")
        identifier = request.typed("identifier", "boolean", False)
        feature = _iri(iri_text, "feature IRI")
        concept = _iri(concept_text, "concept IRI")
        if identifier:
            self.mdm.add_identifier(feature, concept, label)
        else:
            self.mdm.add_feature(feature, concept, label)
        return {"iri": feature.value, "concept": concept.value, "identifier": identifier}

    def _post_relation(self, request: JsonRequest) -> Dict[str, Any]:
        source, prop, target = request.require("source", "property", "target")
        triple = self.mdm.relate(
            _iri(source, "source concept"),
            _iri(prop, "property"),
            _iri(target, "target concept"),
        )
        return {"triple": triple.n3()}

    def _get_global_graph(self, request: JsonRequest) -> Dict[str, Any]:
        gg = self.mdm.global_graph
        return {
            "concepts": [c.value for c in gg.concepts()],
            "features": [
                {
                    "iri": f.value,
                    "concept": (gg.concept_of(f) or f).value,
                    "identifier": gg.is_identifier(f),
                }
                for f in gg.features()
            ],
            "relations": [t.n3() for t in gg.relations()],
            "issues": gg.validate(),
        }

    def _post_source(self, request: JsonRequest) -> Dict[str, Any]:
        (name,) = request.require("name")
        label = request.body.get("label")
        iri = self.mdm.register_source(name, label)
        return {"name": name, "iri": iri.value}

    def _get_sources(self, request: JsonRequest) -> List[Dict[str, Any]]:
        sg = self.mdm.source_graph
        return [
            {
                "iri": source.value,
                "wrappers": [
                    {
                        "iri": w.value,
                        "name": sg.wrapper_name(w),
                        "signature": sg.signature_of(w),
                    }
                    for w in sg.wrappers_of(source)
                ],
            }
            for source in sg.data_sources()
        ]

    def _post_wrapper(self, request: JsonRequest) -> Dict[str, Any]:
        (name,) = request.require("name")
        attributes = request.typed("attributes", "list of strings")
        rows = request.typed("rows", "list of objects", [])
        changes = request.typed("changes", "list of strings", [])
        source_name = request.path_params["name"]
        wrapper = StaticWrapper(name, attributes, rows)
        try:
            registration = self.mdm.register_wrapper(
                source_name, wrapper, changes=changes
            )
        except MdmError as exc:
            raise ServiceError(409, str(exc)) from exc
        return {
            "wrapper": registration.wrapper.value,
            "signature": registration.signature,
            "reused_attributes": list(registration.reused_attributes),
        }

    def _get_releases(self, request: JsonRequest) -> List[Dict[str, Any]]:
        return [
            {
                "sequence": r.sequence,
                "source": r.source_name,
                "wrapper": r.wrapper_name,
                "kind": r.kind,
                "breaking": r.is_breaking,
                "changes": list(r.changes),
            }
            for r in self.mdm.governance.history()
        ]

    def _post_mapping(self, request: JsonRequest) -> Dict[str, Any]:
        (features,) = request.require("features")
        wrapper_name = request.path_params["name"]
        edges_raw = request.body.get("edges", [])
        if not isinstance(features, Mapping):
            raise ServiceError(400, "features must map attribute names to feature IRIs")
        features_by_attribute = {
            attr: _iri(feature, f"feature for attribute {attr!r}")
            for attr, feature in features.items()
        }
        edges = []
        for edge in edges_raw:
            if not (isinstance(edge, list) and len(edge) == 3):
                raise ServiceError(400, "each edge must be [subject, property, object]")
            edges.append(tuple(_iri(part, "edge term") for part in edge))
        try:
            view = self.mdm.define_mapping(wrapper_name, features_by_attribute, edges)
        except MdmError as exc:
            raise ServiceError(422, str(exc)) from exc
        return {
            "wrapper": view.wrapper.value,
            "concepts": sorted(c.value for c in view.concepts),
            "features": sorted(f.value for f in view.features),
        }

    def _get_suggestion(self, request: JsonRequest) -> Dict[str, Any]:
        wrapper_name = request.path_params["name"]
        try:
            suggestion = self.mdm.suggest_mapping(wrapper_name)
        except MdmError as exc:
            raise ServiceError(404, str(exc)) from exc
        return {
            "wrapper": suggestion.wrapper.value,
            "carried_links": {
                a.value: f.value for a, f in suggestion.same_as.items()
            },
            "unmapped_attributes": list(suggestion.unmapped_attributes),
            "complete": suggestion.is_complete,
        }

    def _post_query(self, request: JsonRequest) -> Dict[str, Any]:
        (nodes,) = request.require("nodes")
        if not isinstance(nodes, list) or not nodes:
            raise ServiceError(400, "nodes must be a non-empty list of IRIs")
        walk = self.mdm.walk_from_nodes([_iri(n, "walk node") for n in nodes])
        return self._query_response(walk, request)

    def _post_sparql_query(self, request: JsonRequest) -> Dict[str, Any]:
        """Pose an OMQ as SPARQL text: ``{"sparql": "...", ...}``, the
        other keys as for ``POST /query``."""
        (text,) = request.require("sparql")
        try:
            walk = self.mdm.walk_from_sparql(text)
        except MdmError as exc:
            raise ServiceError(422, str(exc)) from exc
        return self._query_response(walk, request)

    def _query_response(self, walk: Walk, request: JsonRequest) -> Dict[str, Any]:
        """Rewrite the walk, and run it unless ``execute`` is false,
        honouring ``on_wrapper_error`` and ``use_cache``.

        A wrapper that fails the query (its source errs, times out or
        sends what it cannot decode) answers 502: the upstream is at
        fault, not the request."""
        execute = request.typed("execute", "boolean", True)
        on_error = request.body.get("on_wrapper_error", "raise")
        use_cache = request.typed("use_cache", "boolean", True)
        outcome = None
        try:
            if execute:
                outcome = self.mdm.execute(
                    walk, on_wrapper_error=on_error, use_cache=use_cache
                )
                rewrite = outcome.rewrite
                rows = [list(r) for r in outcome.relation.rows]
                columns = list(outcome.relation.schema.names)
            else:
                rewrite = self.mdm.rewrite(walk)
                rows, columns = None, list(rewrite.projection)
        except (WrapperSchemaError, WrapperFetchError) as exc:
            raise ServiceError(502, str(exc)) from exc
        except ValueError as exc:
            raise ServiceError(400, str(exc)) from exc
        except MdmError as exc:
            raise ServiceError(422, str(exc)) from exc
        payload: Dict[str, Any] = {
            "sparql": rewrite.sparql,
            "algebra": rewrite.pretty(),
            "ucq_size": rewrite.ucq_size,
            "columns": columns,
        }
        if rows is not None:
            payload["rows"] = rows
        if outcome is not None:
            payload["partial"] = outcome.partial
            payload["generation"] = outcome.generation
            payload["result_cache"] = outcome.result_cache
            if outcome.pushdown is not None:
                payload["pushdown"] = outcome.pushdown
            if outcome.partial:
                payload["skipped_wrappers"] = list(outcome.skipped_wrappers)
        return payload

    def _post_saved_query(self, request: JsonRequest) -> Dict[str, Any]:
        """Save a named query: ``{"name", "nodes": [...], "description"?}``."""
        name, nodes = request.require("name", "nodes")
        description = request.body.get("description", "")
        if not isinstance(nodes, list) or not nodes:
            raise ServiceError(400, "nodes must be a non-empty list of IRIs")
        try:
            walk = self.mdm.walk_from_nodes([_iri(n, "walk node") for n in nodes])
            saved = self.mdm.saved_queries.save(name, walk, description)
        except MdmError as exc:
            raise ServiceError(422, str(exc)) from exc
        return {"name": saved.name, "walk": saved.walk.to_json_dict()}

    def _get_saved_queries(self, request: JsonRequest) -> List[Dict[str, Any]]:
        return [
            {
                "name": saved.name,
                "description": saved.description,
                "walk": saved.walk.to_json_dict(),
            }
            for saved in self.mdm.saved_queries.all()
        ]

    def _run_saved_query(self, request: JsonRequest) -> Dict[str, Any]:
        name = request.path_params["name"]
        try:
            outcome = self.mdm.saved_queries.run(name, on_wrapper_error="skip")
        except KeyError as exc:
            raise ServiceError(404, str(exc)) from exc
        except MdmError as exc:
            raise ServiceError(422, str(exc)) from exc
        return {
            "columns": list(outcome.relation.schema.names),
            "rows": [list(r) for r in outcome.relation.rows],
            "ucq_size": outcome.rewrite.ucq_size,
            "skipped_wrappers": list(outcome.skipped_wrappers),
        }

    def _delete_saved_query(self, request: JsonRequest) -> Dict[str, Any]:
        name = request.path_params["name"]
        removed = self.mdm.saved_queries.delete(name)
        if not removed:
            raise ServiceError(404, f"no saved query named {name!r}")
        return {"deleted": name}

    def _revalidate_saved(self, request: JsonRequest) -> List[Dict[str, Any]]:
        execute = request.query.get("execute", "false").lower() == "true"
        return [
            {
                "name": entry.name,
                "ok": entry.ok,
                "ucq_size": entry.ucq_size,
                "rows": entry.rows,
                "error": entry.error,
            }
            for entry in self.mdm.saved_queries.revalidate(execute=execute)
        ]

    def _get_impact(self, request: JsonRequest) -> Dict[str, Any]:
        """Release impact analysis for one source."""
        try:
            return dict(self.mdm.impact_of_source(request.path_params["source"]))
        except MdmError as exc:
            raise ServiceError(404, str(exc)) from exc

    def _post_impact(self, request: JsonRequest) -> Dict[str, Any]:
        """Static what-if analysis of a proposed change.

        Body: the proposed-change JSON — ``{"retire": "w1"}``,
        ``{"release": {"source", "wrapper", "attributes"? | "base_wrapper"?
        + "changes"?, ...}}`` or ``{"mutation": {"method", "args"?,
        "kwargs"?}}`` (see :func:`repro.analysis.impact.change_from_json`).
        Runs against a shadow copy of the metadata graph: no source rows
        are fetched and the generation does not move.
        """
        from ..analysis.impact import change_from_json

        body = request.body
        if not isinstance(body, Mapping):
            raise ServiceError(400, "body must be a proposed-change object")
        try:
            change = change_from_json(body)
        except (TypeError, ValueError, KeyError) as exc:
            raise ServiceError(400, f"invalid proposed change: {exc}") from exc
        report = self.mdm.analyze_impact(change)
        return report.to_json_dict()

    def _get_recent_impact(self, request: JsonRequest) -> Dict[str, Any]:
        """The most recent impact analyses (``?limit=N``, default 20)."""
        try:
            limit = int(request.query.get("limit", "20"))
        except ValueError:
            raise ServiceError(400, "limit must be an integer") from None
        reports = self.mdm.recent_impact(limit)
        return {
            "total": len(self.mdm.impact_log),
            "reports": [r.to_json_dict() for r in reports],
        }

    def _get_lint(self, request: JsonRequest) -> Dict[str, Any]:
        """Static diagnostics: metadata rules plus saved-plan schema checks.

        ``?saved=false`` skips replaying saved queries; ``?plans=false``
        skips the relational schema checker.
        """
        from ..analysis import lint_mdm

        replay = request.query.get("saved", "true").lower() != "false"
        plans = request.query.get("plans", "true").lower() != "false"
        report = lint_mdm(self.mdm, replay_saved=replay, check_plans=plans)
        return report.to_json_dict()

    def _get_report(self, request: JsonRequest) -> Dict[str, Any]:
        """The full governance report (see repro.core.reporting)."""
        from ..core.reporting import governance_report

        execute = request.query.get("execute", "false").lower() == "true"
        metrics = request.query.get("metrics", "false").lower() == "true"
        return dict(
            governance_report(
                self.mdm, execute_queries=execute, include_metrics=metrics
            )
        )

    def _get_metrics(self, request: JsonRequest) -> str:
        """Prometheus text exposition of the process metrics registry."""
        from ..obs import get_metrics

        return get_metrics().render_prometheus()

    def _get_recent_traces(self, request: JsonRequest) -> Dict[str, Any]:
        """The most recent completed root spans (``?limit=N``, default 10)."""
        from ..obs import get_tracer

        try:
            limit = int(request.query.get("limit", "10"))
        except ValueError:
            raise ServiceError(400, "limit must be an integer") from None
        tracer = get_tracer()
        return {
            "enabled": tracer.enabled,
            "traces": [span.to_dict() for span in tracer.recent(limit)],
        }

    def _get_metrics_summary(self, request: JsonRequest) -> Dict[str, Any]:
        """Histogram percentile summary (p50/p95/p99 per series)."""
        from ..obs import get_metrics

        return get_metrics().summary()

    def _get_trace(self, request: JsonRequest) -> Dict[str, Any]:
        """One buffered trace by id: the full span tree, or 404.

        Only sampled (or kept-as-slow) traces live in the ring; a
        correlation id from the query log may legitimately miss here
        when its trace was dropped by the sampler.
        """
        from ..obs import get_tracer

        trace_id = request.path_params["trace_id"]
        span = get_tracer().find_trace(trace_id)
        if span is None:
            raise ServiceError(404, f"no buffered trace with id {trace_id!r}")
        return span.to_dict()

    def _get_recent_querylog(self, request: JsonRequest) -> Dict[str, Any]:
        """The most recent query-log records (``?limit=N``, default 20)."""
        from ..obs import get_query_log

        try:
            limit = int(request.query.get("limit", "20"))
        except ValueError:
            raise ServiceError(400, "limit must be an integer") from None
        log = get_query_log()
        return {
            "total": log.total,
            "records": [r.to_dict() for r in log.recent(limit)],
        }

    def _post_tracing(self, request: JsonRequest) -> Dict[str, Any]:
        """Configure tracing for this process.

        Body: ``{"enabled"?: bool, "sample_rate"?: float,
        "slow_threshold_ms"?: float|null}`` — omitted knobs keep their
        current value.  Changes apply to the *current* tracer in place so
        the recent-span ring and any attached sinks survive the toggle.
        """
        from ..obs import get_tracer

        body = request.body
        if not isinstance(body, Mapping) or not (
            set(body) & {"enabled", "sample_rate", "slow_threshold_ms"}
        ):
            raise ServiceError(
                400,
                "body must set at least one of enabled / sample_rate / "
                "slow_threshold_ms",
            )
        enabled = request.typed("enabled", "boolean", None)
        tracer = get_tracer()
        if enabled is not None:
            tracer.enabled = enabled
        try:
            tracer.configure_sampling(
                sample_rate=body.get("sample_rate"),
                slow_threshold_ms=(
                    body["slow_threshold_ms"]
                    if "slow_threshold_ms" in body
                    else "keep"
                ),
            )
        except (TypeError, ValueError) as exc:
            raise ServiceError(400, str(exc)) from exc
        return tracer.sampling_config()

    def _get_execution_config(self, request: JsonRequest) -> Dict[str, Any]:
        return self.mdm.execution_config()

    def _post_execution_config(self, request: JsonRequest) -> Dict[str, Any]:
        """Reconfigure execution at runtime, all or nothing.

        Body: ``{"max_fetch_workers"?: int, "optimize"?: bool,
        "pushdown"?: bool, "impact_gate"?: "off"|"advisory"|"blocking",
        "result_cache_size"?: int, "wrapper_cache_size"?: int,
        "retry"?: {"attempts"?, "timeout_s"?, "backoff_base_s"?,
        "backoff_multiplier"?, "max_backoff_s"?}}`` — omitted parts keep
        their current value.  An unknown key or a mistyped value (flags
        must be JSON booleans) is a 400 that changes nothing.
        """
        request.require()
        changes = dict(request.body)
        retry = changes.pop("retry", None)
        try:
            if retry is not None:
                policy = self.mdm.config.retry_policy
                fields = policy.describe()
                if not isinstance(retry, dict) or not set(retry) <= set(fields):
                    raise ValueError(
                        f"retry must be an object with keys among {sorted(fields)}"
                    )
                changes["retry_policy"] = replace(policy, **retry)
            return self.mdm.configure_execution(**changes)
        except (TypeError, ValueError) as exc:
            raise ServiceError(400, str(exc)) from exc

    def _get_failpoints(self, request: JsonRequest) -> Dict[str, Any]:
        """Armed failpoints, trigger counts and the recent trigger log."""
        from ..chaos.failpoints import get_failpoints

        return get_failpoints().state()

    def _post_failpoints(self, request: JsonRequest) -> Dict[str, Any]:
        """Operate the process failpoint registry (chaos testing surface).

        Body (any combination; applied in this order):
        ``{"clear"?: true, "spec"?: "site=mode:cond;…",
        "disarm"?: "site", "release"?: "site" | true}`` — ``release``
        frees threads blocked on ``hang`` failpoints.  Returns the
        registry state, like ``GET /failpoints``.
        """
        from ..chaos.failpoints import get_failpoints

        body = request.body
        if not isinstance(body, dict) or not body:
            raise ServiceError(
                400, "body must be an object with spec/disarm/release/clear"
            )
        registry = get_failpoints()
        if request.typed("clear", "boolean", False):
            registry.clear()
        spec = body.get("spec")
        if spec is not None:
            if not isinstance(spec, str):
                raise ServiceError(400, "spec must be a failpoint spec string")
            try:
                registry.arm_spec(spec)
            except ValueError as exc:
                raise ServiceError(400, str(exc)) from exc
        disarm = body.get("disarm")
        if disarm is not None:
            registry.disarm(str(disarm))
        release = body.get("release")
        if release is not None:
            registry.release(None if release is True else str(release))
        return registry.state()

    def _get_trig(self, request: JsonRequest) -> Dict[str, Any]:
        return {"trig": self.mdm.to_trig()}

    def _get_summary(self, request: JsonRequest) -> Dict[str, Any]:
        return dict(self.mdm.summary())
