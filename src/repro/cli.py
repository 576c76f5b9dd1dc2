"""Command-line interface for the MDM reproduction.

Usage (``python -m repro <command>``):

``demo``
    run the motivational use case end-to-end and print every artifact
    (walk, SPARQL, algebra, result table);
``query``
    pose an OMQ against a built-in scenario, either as node IRIs
    (``--nodes``) or as SPARQL text (``--sparql`` / ``--sparql-file``);
``summary`` / ``validate`` / ``impact``
    introspection over a scenario or a saved snapshot directory;
``snapshot``
    build a scenario and persist it (TriG + JSONL) to a directory;
``evolve``
    run the governance demo: ship the breaking Players API v2 and show
    the before/after algebra;
``trace``
    execute an OMQ with tracing enabled and print the span tree (the
    three rewriting phases, wrapper fetches, per-operator execution)
    plus the EXPLAIN ANALYZE operator statistics;
``lint``
    run the static diagnostics over a scenario or snapshot: the
    metadata rule pack (MDM0xx) plus the relational schema checker over
    every saved query's plan (MDM1xx).  ``--format json`` for machines,
    ``--strict`` to fail on warnings too;
``serve``
    expose the REST API over real HTTP sockets
    (:mod:`repro.service.server`): scenario or snapshot behind a
    threading server with admission control and the query result and
    wrapper data caches enabled (``--port``, ``--max-in-flight``,
    ``--result-cache``, ``--wrapper-cache``).

Snapshot-based commands (``--store DIR``) work without runtime wrappers;
query execution needs live wrappers and therefore runs against the
built-in scenarios (``--scenario football|supersede``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core.mdm import MDM
from .core.sparql_frontend import walk_from_sparql
from .rdf.terms import IRI

__all__ = ["main", "build_parser"]


def _load_scenario(name: str):
    if name == "football":
        from .scenarios.football import FootballScenario

        return FootballScenario.build(anchors_only=True)
    if name == "football-large":
        from .scenarios.football import FootballScenario

        return FootballScenario.build(seed=2018)
    if name == "supersede":
        from .scenarios.supersede import SupersedeScenario

        return SupersedeScenario.build()
    raise SystemExit(f"unknown scenario {name!r}; use football | football-large | supersede")


def _lint_mdm_for(args) -> MDM:
    """Lint targets: snapshots plus every bundled scenario, including
    the synthetic generators and the deliberately broken fixture."""
    if getattr(args, "store", None):
        from .service.persistence import load_mdm

        return load_mdm(args.store)
    name = args.scenario
    if name == "broken":
        from .scenarios.broken import broken_mdm

        return broken_mdm()
    if name == "chain":
        from .scenarios.synthetic import chain_mdm

        return chain_mdm(4)[0]
    if name == "versioned":
        from .scenarios.synthetic import versioned_concept_mdm

        return versioned_concept_mdm(3)[0]
    return _load_scenario(name).mdm


def _mdm_for(args) -> MDM:
    if getattr(args, "store", None):
        from .service.persistence import load_mdm

        return load_mdm(args.store)
    return _load_scenario(args.scenario).mdm


def cmd_demo(args) -> int:
    from .scenarios.football import FootballScenario

    scenario = FootballScenario.build(anchors_only=True)
    mdm = scenario.mdm
    walk = scenario.walk_player_team_names()
    outcome = mdm.execute(walk)
    print("walk:", walk.describe(mdm.global_graph))
    print("\nSPARQL:\n" + outcome.rewrite.sparql)
    print("\nrelational algebra:\n" + outcome.rewrite.pretty())
    print("\n" + outcome.rewrite.explain())
    print("\nresult:\n" + outcome.to_table())
    return 0


def _apply_execution_flags(mdm, args, **sizes) -> None:
    """Fold the flags of :func:`_add_execution_flags` (and any cache
    ``sizes``) into the MDM in one reconfiguration."""
    changes = {"max_fetch_workers": args.fetch_workers}
    if args.retry_attempts is not None or args.retry_timeout is not None:
        from .sources.wrappers import RetryPolicy

        changes["retry_policy"] = RetryPolicy(
            attempts=args.retry_attempts or 1, timeout_s=args.retry_timeout
        )
    for flag in ("optimize", "pushdown", "validate_plans"):
        if getattr(args, f"no_{flag}"):
            changes[flag] = False
    mdm.configure_execution(**changes, **sizes)


def cmd_query(args) -> int:
    scenario = _load_scenario(args.scenario)
    mdm = scenario.mdm
    _apply_execution_flags(mdm, args)
    if args.sparql or args.sparql_file:
        text = args.sparql or open(args.sparql_file).read()
        walk = walk_from_sparql(mdm.global_graph, text)
    elif args.nodes:
        walk = mdm.walk_from_nodes([IRI(n) for n in args.nodes])
    else:
        raise SystemExit("query needs --nodes or --sparql/--sparql-file")
    outcome = mdm.execute(walk, on_wrapper_error="skip")
    if args.explain:
        print(outcome.rewrite.explain())
        print("\nalgebra: " + outcome.rewrite.pretty())
        print()
    print(outcome.to_table())
    if outcome.skipped_wrappers:
        print(f"\n(skipped failing wrappers: {', '.join(outcome.skipped_wrappers)})",
              file=sys.stderr)
    return 0


def cmd_summary(args) -> int:
    mdm = _mdm_for(args)
    for key, value in mdm.summary().items():
        print(f"{key:>9}: {value}")
    return 0


def cmd_validate(args) -> int:
    mdm = _mdm_for(args)
    issues = mdm.validate()
    if not issues:
        print("OK: no structural issues")
        return 0
    for issue in issues:
        print(f"ISSUE: {issue}")
    return 1


def cmd_impact(args) -> int:
    mdm = _mdm_for(args)

    proposals = []
    if args.retire:
        from .analysis.impact import WrapperRetirement

        proposals.extend(WrapperRetirement(name) for name in args.retire)
    if args.propose or args.propose_file:
        from .analysis.impact import change_from_json_text

        text = args.propose or open(args.propose_file).read()
        proposals.append(change_from_json_text(text))

    if proposals:
        exit_code = 0
        payloads = []
        for change in proposals:
            report = mdm.analyze_impact(change)
            if args.format == "json":
                payloads.append(report.to_json_dict())
            else:
                if payloads:  # separator between multiple reports
                    print()
                payloads.append(None)
                print(report.render_text())
            exit_code = max(exit_code, report.exit_code(strict=args.strict))
        if args.format == "json":
            import json

            out = payloads[0] if len(payloads) == 1 else payloads
            print(json.dumps(out, indent=2, sort_keys=True))
        return exit_code

    if not args.source:
        raise SystemExit(
            "impact needs a SOURCE (descriptive report) or a proposed "
            "change (--retire / --propose / --propose-file)"
        )
    report = mdm.impact_of_source(args.source)
    if args.format == "json":
        import json

        print(json.dumps(report, indent=2, sort_keys=True, default=str))
        return 0
    print(f"source   : {report['source']}")
    print(f"wrappers : {', '.join(report['wrappers'])}")
    print(f"affected queries : {report['affected_queries']}")
    for walk in report["affected_query_walks"]:
        print(f"  - {walk}")
    print("features exclusively covered by this source:")
    for feature in report["exclusively_covered_features"]:
        print(f"  - {feature}")
    return 0


def cmd_snapshot(args) -> int:
    from .service.persistence import save_mdm

    scenario = _load_scenario(args.scenario)
    target = save_mdm(scenario.mdm, args.out)
    print(f"saved {scenario.mdm.summary()['triples']} triples to {target}")
    return 0


def cmd_show(args) -> int:
    mdm = _mdm_for(args)
    if args.format == "dot":
        print(mdm.global_graph.to_dot())
    elif args.format == "turtle":
        from .rdf.turtle import serialize_turtle

        print(serialize_turtle(mdm.global_graph.graph))
    else:
        gg = mdm.global_graph
        ns = gg.graph.namespaces
        for concept in gg.concepts():
            features = ", ".join(
                (ns.compact(f) or f.value)
                + (" [id]" if gg.is_identifier(f) else "")
                for f in gg.features_of(concept)
            )
            print(f"{ns.compact(concept) or concept.value}: {features}")
        for relation in gg.relations():
            print(
                f"{ns.compact(relation.subject)} --"
                f"{ns.compact(relation.predicate)}--> "
                f"{ns.compact(relation.object)}"
            )
    return 0


def cmd_report(args) -> int:
    from .core.reporting import governance_report, render_report

    mdm = _mdm_for(args)
    report = governance_report(
        mdm,
        execute_queries=args.execute,
        include_metrics=args.metrics,
    )
    print(render_report(report))
    return 0 if not report["issues"] and not report["saved_queries"]["broken"] else 1


def _default_walk(args, scenario):
    """The traced walk: explicit ``--nodes``/``--sparql`` or a scenario default."""
    mdm = scenario.mdm
    if args.sparql or args.sparql_file:
        text = args.sparql or open(args.sparql_file).read()
        return walk_from_sparql(mdm.global_graph, text)
    if args.nodes:
        return mdm.walk_from_nodes([IRI(n) for n in args.nodes])
    if hasattr(scenario, "walk_league_nationality"):
        return scenario.walk_league_nationality()
    return scenario.walk_feedback_by_product()


def _follow_querylog(args) -> int:
    """Tail a query-log JSONL file, one summary line per record.

    Polls the file for appended lines; stops after ``--max-records``
    records or ``--idle-timeout`` quiet seconds (both unbounded by
    default, so interactive use runs until ctrl-c).
    """
    import json
    import os
    import time

    from .obs.querylog import QueryLogRecord

    path = args.querylog or os.environ.get("MDM_QUERYLOG")
    if not path:
        raise SystemExit(
            "trace --follow needs --querylog PATH (or $MDM_QUERYLOG)"
        )
    position = 0
    if not args.from_start and os.path.exists(path):
        position = os.path.getsize(path)
    print(f"following query log {path} (ctrl-c to stop)", file=sys.stderr)
    printed = 0
    idle_s = 0.0
    try:
        while True:
            lines: List[str] = []
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    fh.seek(position)
                    lines = fh.readlines()
                    position = fh.tell()
            fresh = 0
            for line in lines:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = QueryLogRecord.from_dict(json.loads(line))
                except (ValueError, TypeError):
                    continue
                print(record.summary_line())
                fresh += 1
                printed += 1
                if args.max_records is not None and printed >= args.max_records:
                    return 0
            if fresh:
                idle_s = 0.0
                continue
            idle_s += args.poll_interval
            if args.idle_timeout is not None and idle_s >= args.idle_timeout:
                return 0
            time.sleep(args.poll_interval)
    except KeyboardInterrupt:
        return 0


def cmd_trace(args) -> int:
    from .obs import JsonlSink, Tracer, get_tracer, set_tracer

    if args.follow:
        return _follow_querylog(args)

    scenario = _load_scenario(args.scenario)
    mdm = scenario.mdm
    _apply_execution_flags(mdm, args)
    walk = _default_walk(args, scenario)
    tracer = Tracer(
        enabled=True,
        sample_rate=args.sample_rate if args.sample_rate is not None else 1.0,
        slow_threshold_ms=args.slow_ms,
    )
    sink = None
    previous = get_tracer()
    try:
        if args.jsonl:
            sink = JsonlSink(args.jsonl)
            tracer.add_sink(sink)
        set_tracer(tracer)
        outcome = mdm.execute(walk, on_wrapper_error="skip", analyze=True)
    finally:
        # Restore the previous tracer and release the JSONL file handle
        # even when the traced command raises.
        set_tracer(previous)
        if sink is not None:
            sink.close()
    print("walk:", walk.describe(mdm.global_graph))
    print()
    roots = tracer.recent()
    if roots:
        for span in roots:
            print(span.tree())
    else:
        print(
            f"(no trace recorded: sample_rate={tracer.sample_rate}, "
            f"slow_threshold_ms={tracer.slow_threshold_ms})"
        )
    print()
    print(outcome.explain_analyze())
    if outcome.skipped_wrappers:
        print(f"\n(skipped failing wrappers: {', '.join(outcome.skipped_wrappers)})",
              file=sys.stderr)
    if args.jsonl:
        print(f"\n(spans appended to {args.jsonl})", file=sys.stderr)
    return 0


def cmd_save_query(args) -> int:
    from .service.persistence import load_mdm, save_mdm

    mdm = load_mdm(args.store)
    walk = mdm.walk_from_nodes([IRI(n) for n in args.nodes])
    mdm.saved_queries.save(args.name, walk, args.description or "")
    save_mdm(mdm, args.store)
    print(f"saved query {args.name!r} "
          f"({walk.describe(mdm.global_graph)}) to {args.store}")
    return 0


def cmd_revalidate(args) -> int:
    mdm = _mdm_for(args)
    report = mdm.saved_queries.revalidate(execute=args.execute)
    if not report:
        print("no saved queries registered")
        return 0
    broken = 0
    for entry in report:
        if entry.ok:
            rows = f", {entry.rows} rows" if entry.rows is not None else ""
            print(f"OK     {entry.name} (UCQ size {entry.ucq_size}{rows})")
        else:
            broken += 1
            print(f"BROKEN {entry.name}: {entry.error}")
    print(f"\n{len(report) - broken}/{len(report)} healthy")
    return 1 if broken else 0


def cmd_lint(args) -> int:
    from .analysis import lint_mdm

    mdm = _lint_mdm_for(args)
    report = lint_mdm(
        mdm,
        replay_saved=not args.no_saved_queries,
        check_plans=not args.no_plans,
    )
    if args.format == "json":
        import json

        print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    else:
        print(report.render_text())
    return report.exit_code(strict=args.strict)


def cmd_evolve(args) -> int:
    from .scenarios.football import FootballScenario

    scenario = FootballScenario.build(anchors_only=True)
    walk = scenario.walk_player_team_names()
    before = scenario.mdm.execute(walk)
    print("before release:", before.rewrite.pretty())
    scenario.release_players_v2(retire_v1=args.retire_v1)
    after = scenario.mdm.execute(walk, on_wrapper_error="skip")
    print("after release :", after.rewrite.pretty())
    print(f"\nUCQ grew {before.rewrite.ucq_size} -> {after.rewrite.ucq_size}; "
          f"rows identical: {set(after.relation.rows) == set(before.relation.rows)}")
    return 0


def cmd_serve(args) -> int:
    import time as _time

    from .service.api import MdmService
    from .service.server import MdmHttpServer

    mdm = MDM() if args.empty else _mdm_for(args)
    # Behind a server the metadata only changes through the write-locked
    # mutators, so generation-keyed result and wrapper-data caching are
    # safe — enable them by default (unlike the library, where wrappers
    # may be live feeds).
    _apply_execution_flags(
        mdm,
        args,
        result_cache_size=args.result_cache,
        wrapper_cache_size=args.wrapper_cache,
    )
    if args.failpoints:
        from .chaos.failpoints import get_failpoints

        armed = get_failpoints().arm_spec(args.failpoints)
        print(f"armed failpoints: {', '.join(p.site for p in armed)}")
    service = MdmService(mdm)
    server = MdmHttpServer(
        service,
        host=args.host,
        port=args.port,
        max_in_flight=args.max_in_flight,
        retry_after_s=args.retry_after,
    )
    print(
        f"serving MDM on {server.url} "
        f"(max in-flight {server.max_in_flight}, "
        f"result cache {mdm.result_cache.capacity}, "
        f"wrapper cache {mdm.wrapper_cache.capacity}, ctrl-C to stop)"
    )
    server.start()
    try:
        if args.duration is not None:
            _time.sleep(args.duration)
        else:
            while True:
                _time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    print("server stopped")
    return 0


def _add_execution_flags(parser) -> None:
    parser.add_argument(
        "--fetch-workers",
        type=int,
        help="bound on concurrent wrapper fetches (default: "
        "$MDM_FETCH_WORKERS or 4)",
    )
    parser.add_argument(
        "--retry-attempts",
        type=int,
        help="fetch attempts per wrapper before giving up (default 1)",
    )
    parser.add_argument(
        "--retry-timeout",
        type=float,
        help="per-attempt wrapper fetch timeout in seconds",
    )
    parser.add_argument(
        "--no-optimize",
        action="store_true",
        help="execute the UCQ as rewritten, skipping the logical plan "
        "optimizer (default: optimize, or $MDM_OPTIMIZE)",
    )
    parser.add_argument(
        "--no-validate-plans",
        action="store_true",
        help="skip the static plan schema check before execution "
        "(default: check, or $MDM_VALIDATE_PLANS)",
    )
    parser.add_argument(
        "--no-pushdown",
        action="store_true",
        help="fetch full wrapper payloads instead of pushing predicates/"
        "projections to the sources (default: push, or $MDM_PUSHDOWN)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MDM reproduction: ontology-based integration under schema evolution",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_demo = sub.add_parser("demo", help="run the motivational use case")
    p_demo.set_defaults(func=cmd_demo)

    p_query = sub.add_parser("query", help="pose an OMQ against a scenario")
    p_query.add_argument("--scenario", default="football")
    p_query.add_argument("--nodes", nargs="*", help="global-graph node IRIs")
    p_query.add_argument("--sparql", help="inline SPARQL text")
    p_query.add_argument("--sparql-file", help="file with SPARQL text")
    p_query.add_argument("--explain", action="store_true")
    _add_execution_flags(p_query)
    p_query.set_defaults(func=cmd_query)

    for name, func in (
        ("summary", cmd_summary),
        ("validate", cmd_validate),
    ):
        p = sub.add_parser(name, help=f"{name} of a scenario or snapshot")
        p.add_argument("--scenario", default="football")
        p.add_argument("--store", help="snapshot directory (overrides --scenario)")
        p.set_defaults(func=func)

    p_impact = sub.add_parser(
        "impact",
        help="impact analysis: source report or what-if over proposed changes",
        description=(
            "With SOURCE alone, print the descriptive impact report for an "
            "existing source. With --retire/--propose/--propose-file, run "
            "the static what-if analyzer: the proposed change is applied to "
            "a shadow copy of the metadata graph and every saved query, "
            "concept and feature is classified SAFE / DEGRADED / BROKEN "
            "(MDM2xx diagnostics) without fetching a single source row."
        ),
        epilog=(
            "exit codes mirror `lint`: 0 = SAFE (or DEGRADED without "
            "--strict), 1 = BROKEN, or DEGRADED under --strict."
        ),
    )
    p_impact.add_argument(
        "source",
        nargs="?",
        help="source name for the descriptive report (omit for what-if mode)",
    )
    p_impact.add_argument("--scenario", default="football")
    p_impact.add_argument("--store", help="snapshot directory")
    p_impact.add_argument(
        "--retire",
        action="append",
        metavar="WRAPPER",
        help="what-if: retire this wrapper (repeatable)",
    )
    p_impact.add_argument(
        "--propose",
        help="what-if: proposed change as inline JSON "
        '(e.g. \'{"retire": "w1"}\' or \'{"release": {...}}\')',
    )
    p_impact.add_argument(
        "--propose-file", help="what-if: file with the proposed-change JSON"
    )
    p_impact.add_argument("--format", choices=["text", "json"], default="text")
    p_impact.add_argument(
        "--strict", action="store_true", help="exit non-zero on DEGRADED too"
    )
    p_impact.set_defaults(func=cmd_impact)

    p_snapshot = sub.add_parser("snapshot", help="persist a scenario to a directory")
    p_snapshot.add_argument("out")
    p_snapshot.add_argument("--scenario", default="football")
    p_snapshot.set_defaults(func=cmd_snapshot)

    p_lint = sub.add_parser(
        "lint",
        help="static diagnostics: metadata rules + plan schema checks",
        epilog=(
            "exit codes: 0 = clean, or warnings only without --strict; "
            "1 = any error-severity finding, or any warning under "
            "--strict. --format json changes the output shape only, "
            "never the exit code."
        ),
    )
    p_lint.add_argument(
        "--scenario",
        default="football",
        help="football | football-large | supersede | chain | versioned | broken",
    )
    p_lint.add_argument("--store", help="snapshot directory (overrides --scenario)")
    p_lint.add_argument("--format", choices=["text", "json"], default="text")
    p_lint.add_argument(
        "--strict", action="store_true", help="exit non-zero on warnings too"
    )
    p_lint.add_argument(
        "--no-saved-queries",
        action="store_true",
        help="skip replaying saved queries through the rewriter",
    )
    p_lint.add_argument(
        "--no-plans",
        action="store_true",
        help="skip the relational schema check over saved-query plans",
    )
    p_lint.set_defaults(func=cmd_lint)

    p_evolve = sub.add_parser("evolve", help="run the governance demo")
    p_evolve.add_argument("--retire-v1", action="store_true")
    p_evolve.set_defaults(func=cmd_evolve)

    p_save_query = sub.add_parser(
        "save-query", help="save a named walk into a snapshot"
    )
    p_save_query.add_argument("name")
    p_save_query.add_argument("--store", required=True)
    p_save_query.add_argument("--nodes", nargs="+", required=True)
    p_save_query.add_argument("--description")
    p_save_query.set_defaults(func=cmd_save_query)

    p_revalidate = sub.add_parser(
        "revalidate", help="re-check all saved queries (exit 1 if any broke)"
    )
    p_revalidate.add_argument("--scenario", default="football")
    p_revalidate.add_argument("--store", help="snapshot directory")
    p_revalidate.add_argument(
        "--execute", action="store_true", help="also execute each query"
    )
    p_revalidate.set_defaults(func=cmd_revalidate)

    p_report = sub.add_parser("report", help="full governance report")
    p_report.add_argument("--scenario", default="football")
    p_report.add_argument("--store", help="snapshot directory")
    p_report.add_argument("--execute", action="store_true")
    p_report.add_argument(
        "--metrics", action="store_true",
        help="append a snapshot of the process metrics registry",
    )
    p_report.set_defaults(func=cmd_report)

    p_trace = sub.add_parser(
        "trace", help="execute an OMQ with tracing and print the span tree"
    )
    p_trace.add_argument("--scenario", default="football")
    p_trace.add_argument("--nodes", nargs="*", help="global-graph node IRIs")
    p_trace.add_argument("--sparql", help="inline SPARQL text")
    p_trace.add_argument("--sparql-file", help="file with SPARQL text")
    p_trace.add_argument("--jsonl", help="also append spans to this JSONL file")
    p_trace.add_argument(
        "--sample-rate",
        type=float,
        help="probability a trace is kept (default 1.0 for this command)",
    )
    p_trace.add_argument(
        "--slow-ms",
        type=float,
        help="also keep unsampled traces slower than this many milliseconds",
    )
    p_trace.add_argument(
        "--follow",
        action="store_true",
        help="tail the query-log JSONL instead of executing a query",
    )
    p_trace.add_argument(
        "--querylog",
        help="query-log JSONL file to tail (default: $MDM_QUERYLOG)",
    )
    p_trace.add_argument(
        "--from-start",
        action="store_true",
        help="with --follow, print existing records before tailing",
    )
    p_trace.add_argument(
        "--poll-interval",
        type=float,
        default=0.2,
        help="with --follow, seconds between polls (default 0.2)",
    )
    p_trace.add_argument(
        "--idle-timeout",
        type=float,
        help="with --follow, stop after this many quiet seconds",
    )
    p_trace.add_argument(
        "--max-records",
        type=int,
        help="with --follow, stop after printing this many records",
    )
    _add_execution_flags(p_trace)
    p_trace.set_defaults(func=cmd_trace)

    p_serve = sub.add_parser(
        "serve", help="serve the REST API over real HTTP sockets"
    )
    p_serve.add_argument("--scenario", default="football")
    p_serve.add_argument("--store", help="serve a persisted snapshot directory")
    p_serve.add_argument(
        "--empty", action="store_true", help="start from an empty MDM"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8585, help="port to bind (0 = ephemeral)"
    )
    p_serve.add_argument(
        "--max-in-flight",
        type=int,
        default=32,
        help="admission control: concurrent requests before 429 (default 32)",
    )
    p_serve.add_argument(
        "--retry-after",
        type=int,
        default=1,
        help="Retry-After seconds advertised on 429 responses (default 1)",
    )
    p_serve.add_argument(
        "--result-cache",
        type=int,
        default=256,
        help="query result cache capacity, 0 disables (default 256)",
    )
    p_serve.add_argument(
        "--wrapper-cache",
        type=int,
        default=128,
        help="wrapper data cache capacity (fetched relations keyed by "
        "request and generation), 0 disables (default 128)",
    )
    p_serve.add_argument(
        "--duration",
        type=float,
        default=None,
        help="serve for N seconds then exit (smoke tests; default: forever)",
    )
    p_serve.add_argument(
        "--failpoints",
        default=None,
        metavar="SPEC",
        help="arm failpoints before serving, e.g. "
        "'wrapper.fetch[w1]=error:nth(2);retry.sleep=delay(0)' "
        "(also settable live via POST /failpoints)",
    )
    _add_execution_flags(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_show = sub.add_parser("show", help="print the global graph")
    p_show.add_argument("--scenario", default="football")
    p_show.add_argument("--store", help="snapshot directory")
    p_show.add_argument(
        "--format", choices=["text", "dot", "turtle"], default="text"
    )
    p_show.set_defaults(func=cmd_show)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a closed reader (e.g. `| head`): exit quietly.
        try:
            sys.stdout.close()
        except Exception:  # noqa: BLE001
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
