"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_execution_flags_become_one_config(self):
        from repro.cli import _apply_execution_flags
        from repro.core.mdm import MDM

        args = build_parser().parse_args(
            [
                "serve",
                "--fetch-workers", "2",
                "--retry-attempts", "3",
                "--no-optimize",
                "--no-pushdown",
                "--no-validate-plans",
            ]
        )
        mdm = MDM()
        _apply_execution_flags(mdm, args, result_cache_size=args.result_cache)
        config = mdm.config
        assert (config.max_fetch_workers, config.retry_policy.attempts) == (2, 3)
        assert not (config.optimize or config.pushdown or config.validate_plans)
        assert mdm.result_cache.capacity == args.result_cache

    def test_validation_has_only_an_off_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "--validate-plans"])


class TestCommands:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "SPARQL" in out
        assert "Lionel Messi" in out
        assert "phase (a)" in out

    def test_query_by_nodes(self, capsys):
        code = main(
            [
                "query",
                "--nodes",
                "http://www.essi.upc.edu/example/Player",
                "http://www.essi.upc.edu/example/playerName",
            ]
        )
        assert code == 0
        assert "Zlatan Ibrahimovic" in capsys.readouterr().out

    def test_query_by_sparql(self, capsys):
        sparql = (
            "PREFIX ex: <http://www.essi.upc.edu/example/> "
            "SELECT ?playerName WHERE { ?p rdf:type ex:Player . "
            "?p ex:playerName ?playerName . ?p ex:height ?h FILTER(?h > 190) }"
        )
        assert main(["query", "--sparql", sparql]) == 0
        out = capsys.readouterr().out
        assert "Zlatan Ibrahimovic" in out
        assert "Lionel Messi" not in out

    def test_query_explain(self, capsys):
        assert (
            main(
                [
                    "query",
                    "--explain",
                    "--nodes",
                    "http://www.essi.upc.edu/example/Player",
                    "http://www.essi.upc.edu/example/playerName",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "phase (b)" in out and "algebra:" in out

    def test_query_without_input_fails(self):
        with pytest.raises(SystemExit):
            main(["query"])

    def test_summary(self, capsys):
        assert main(["summary"]) == 0
        assert "concepts: 4" in capsys.readouterr().out

    def test_summary_supersede(self, capsys):
        assert main(["summary", "--scenario", "supersede"]) == 0
        assert "wrappers: 4" in capsys.readouterr().out

    def test_validate_ok(self, capsys):
        assert main(["validate"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_impact(self, capsys):
        assert main(["impact", "players"]) == 0
        out = capsys.readouterr().out
        assert "w1, w1n" in out

    def test_snapshot_and_summary_from_store(self, tmp_path, capsys):
        target = str(tmp_path / "snap")
        assert main(["snapshot", target]) == 0
        capsys.readouterr()
        assert main(["summary", "--store", target]) == 0
        assert "concepts: 4" in capsys.readouterr().out

    def test_evolve(self, capsys):
        assert main(["evolve"]) == 0
        out = capsys.readouterr().out
        assert "UCQ grew 1 -> 2" in out
        assert "rows identical: True" in out

    def test_unknown_scenario_fails(self):
        with pytest.raises(SystemExit):
            main(["summary", "--scenario", "bogus"])

    def test_save_query_and_revalidate_on_snapshot(self, tmp_path, capsys):
        store = str(tmp_path / "snap")
        assert main(["snapshot", store]) == 0
        assert (
            main(
                [
                    "save-query",
                    "rosters",
                    "--store",
                    store,
                    "--nodes",
                    "http://www.essi.upc.edu/example/Player",
                    "http://www.essi.upc.edu/example/playerName",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["revalidate", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "OK     rosters" in out and "1/1 healthy" in out

    def test_revalidate_reports_broken(self, tmp_path, capsys):
        store = str(tmp_path / "snap")
        main(["snapshot", store])
        main(
            [
                "save-query",
                "rosters",
                "--store",
                store,
                "--nodes",
                "http://www.essi.upc.edu/example/Player",
                "http://www.essi.upc.edu/example/playerName",
            ]
        )
        # Corrupt the snapshot: strip all wrapper named graphs.
        from repro.service.persistence import load_mdm, save_mdm

        mdm = load_mdm(store)
        for wrapper in list(mdm.mappings.mapped_wrappers()):
            mdm.dataset.remove_graph(wrapper)
        save_mdm(mdm, store)
        capsys.readouterr()
        assert main(["revalidate", "--store", store]) == 1
        assert "BROKEN rosters" in capsys.readouterr().out

    def test_revalidate_no_queries(self, capsys):
        assert main(["revalidate"]) == 0
        assert "no saved queries" in capsys.readouterr().out


class TestReportCommand:
    def test_report_clean(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "governance report" in out
        assert "validation: clean" in out

    def test_report_on_snapshot(self, tmp_path, capsys):
        store = str(tmp_path / "snap")
        main(["snapshot", store])
        capsys.readouterr()
        assert main(["report", "--store", store]) == 0
        assert "4 sources" in capsys.readouterr().out


class TestShowCommand:
    def test_show_text(self, capsys):
        assert main(["show"]) == 0
        out = capsys.readouterr().out
        assert "ex:Player:" in out
        assert "[id]" in out
        assert "--ex:hasTeam-->" in out

    def test_show_dot(self, capsys):
        assert main(["show", "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph globalGraph {")
        assert "lightblue" in out and "lightyellow" in out

    def test_show_turtle(self, capsys):
        assert main(["show", "--format", "turtle"]) == 0
        out = capsys.readouterr().out
        assert "G:hasFeature" in out or "hasFeature" in out


class TestTraceCommand:
    def test_trace_prints_span_tree_and_explain(self, capsys):
        assert main(["trace"]) == 0
        out = capsys.readouterr().out
        # The three rewriting phases of the span tree.
        assert "phase:expansion" in out
        assert "phase:intra-concept" in out
        assert "phase:inter-concept" in out
        # Wrapper fetches and per-operator row flow.
        assert "fetch:w1" in out
        assert "rows_out=" in out
        assert "op:Scan" in out
        assert "EXPLAIN ANALYZE" in out

    def test_trace_restores_previous_tracer(self):
        from repro.obs import get_tracer

        before = get_tracer()
        assert main(["trace"]) == 0
        assert get_tracer() is before

    def test_trace_with_nodes(self, capsys):
        code = main(
            [
                "trace",
                "--nodes",
                "http://www.essi.upc.edu/example/Player",
                "http://www.essi.upc.edu/example/playerName",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "execute" in out and "rewrite" in out

    def test_trace_jsonl_appends_spans(self, tmp_path, capsys):
        import json

        path = tmp_path / "spans.jsonl"
        assert main(["trace", "--jsonl", str(path)]) == 0
        capsys.readouterr()
        lines = path.read_text().strip().splitlines()
        names = [json.loads(line)["name"] for line in lines]
        assert "execute" in names

    def test_trace_supersede_default_walk(self, capsys):
        assert main(["trace", "--scenario", "supersede"]) == 0
        out = capsys.readouterr().out
        assert "phase:inter-concept" in out


class TestReportMetricsFlag:
    def test_report_metrics_section(self, capsys):
        assert main(["report", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "metrics  :" in out

    def test_report_metrics_after_trace_shows_series(self, capsys):
        from repro.obs import capture

        with capture():
            main(["trace"])
            capsys.readouterr()
            assert main(["report", "--metrics"]) == 0
            out = capsys.readouterr().out
        assert "mdm_rewrite_phase_seconds{phase=expansion}" in out
        assert "mdm_queries_total" in out


class TestTraceSamplingFlags:
    def test_sample_rate_zero_prints_the_no_trace_note(self, capsys):
        assert main(["trace", "--sample-rate", "0.0"]) == 0
        out = capsys.readouterr().out
        assert "(no trace recorded:" in out
        assert "EXPLAIN ANALYZE" in out  # the query itself still ran

    def test_slow_ms_zero_keeps_the_unsampled_trace(self, capsys):
        assert main(
            ["trace", "--sample-rate", "0.0", "--slow-ms", "0.0"]
        ) == 0
        out = capsys.readouterr().out
        assert "execute" in out
        assert "(no trace recorded:" not in out


class TestTraceFollow:
    def records(self, path, n):
        import json

        from repro.obs import QueryLog, get_query_log, set_query_log
        from repro.obs.querylog import QueryLogRecord

        previous = get_query_log()
        try:
            log = set_query_log(QueryLog(jsonl_path=str(path)))
            for i in range(n):
                log.record(
                    QueryLogRecord(
                        correlation_id=f"trace{i:02d}{'0' * 24}",
                        started_at=float(i),
                        duration_ms=1.5,
                        status="ok",
                        walk="Thing->thingName",
                        ucq_size=2,
                        rows_fetched=4,
                        rows_returned=4,
                        rewrite_cache="miss",
                        subplan_hits=0,
                        subplan_misses=0,
                    )
                )
            log.close()
        finally:
            set_query_log(previous)

    def test_follow_replays_the_log_from_start(self, tmp_path, capsys):
        path = tmp_path / "querylog.jsonl"
        self.records(path, 3)
        code = main(
            [
                "trace",
                "--follow",
                "--querylog",
                str(path),
                "--from-start",
                "--max-records",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        assert len(lines) == 3
        assert all("ok" in line and "cache=miss" in line for line in lines)

    def test_follow_idle_timeout_exits_cleanly(self, tmp_path, capsys):
        path = tmp_path / "querylog.jsonl"
        self.records(path, 1)
        code = main(
            [
                "trace",
                "--follow",
                "--querylog",
                str(path),
                "--poll-interval",
                "0.01",
                "--idle-timeout",
                "0.05",
            ]
        )
        assert code == 0
        # Without --from-start the tailer starts at EOF: nothing printed.
        assert capsys.readouterr().out.strip() == ""

    def test_follow_without_a_path_errors(self, monkeypatch):
        monkeypatch.delenv("MDM_QUERYLOG", raising=False)
        with pytest.raises(SystemExit):
            main(["trace", "--follow"])
