"""The structured query log: exactly one record per MDM.execute call."""

import json

import pytest

from repro.core.mdm import MDM
from repro.obs import (
    QueryLog,
    QueryLogRecord,
    capture,
    get_metrics,
    get_query_log,
    reset_metrics,
    set_metrics,
    set_query_log,
)
from repro.rdf.namespaces import EX
from repro.sources.wrappers import StaticWrapper


class ExplodingWrapper(StaticWrapper):
    def fetch(self):
        raise RuntimeError("wrapper down")


def rows_for(prefix, n=2):
    return [
        {"id": f"{prefix}-{i}", "name": f"{prefix} thing {i}"}
        for i in range(n)
    ]


def build_mdm(wrappers, **mdm_kwargs):
    mdm = MDM(**mdm_kwargs)
    mdm.add_concept(EX.Thing, "Thing")
    mdm.add_identifier(EX.thingId, EX.Thing)
    mdm.add_feature(EX.thingName, EX.Thing)
    mdm.register_source("things")
    for wrapper in wrappers:
        mdm.register_wrapper("things", wrapper)
        mdm.define_mapping(
            wrapper.name, {"id": EX.thingId, "name": EX.thingName}
        )
    return mdm


def healthy_mdm(**mdm_kwargs):
    return build_mdm(
        [
            StaticWrapper("w1", ["id", "name"], rows_for("w1")),
            StaticWrapper("w2", ["id", "name"], rows_for("w2")),
        ],
        **mdm_kwargs,
    )


@pytest.fixture()
def fresh_log():
    previous = get_query_log()
    log = set_query_log(QueryLog())
    yield log
    set_query_log(previous)


def name_walk(mdm):
    return mdm.walk_from_nodes([EX.Thing, EX.thingName])


class TestOneRecordPerExecute:
    def test_successful_execute_logs_exactly_one_ok_record(self, fresh_log):
        mdm = healthy_mdm()
        outcome = mdm.execute(name_walk(mdm))
        assert len(fresh_log) == 1
        record = fresh_log.recent()[0]
        assert record.status == "ok"
        assert record.rows_returned == len(outcome.relation)
        assert record.rows_fetched == 4
        assert record.ucq_size == outcome.rewrite.ucq_size
        assert record.trace_decision == "off"
        assert record.error is None
        assert set(record.fetch_attempts) == {"w1", "w2"}

    def test_failed_execute_still_logs_exactly_one_error_record(
        self, fresh_log
    ):
        mdm = build_mdm([ExplodingWrapper("bad", ["id", "name"], [])])
        with pytest.raises(Exception):
            mdm.execute(name_walk(mdm))
        assert len(fresh_log) == 1
        record = fresh_log.recent()[0]
        assert record.status == "error"
        assert "wrapper down" in (record.error or "")
        assert record.rows_returned == 0

    def test_partial_execute_logs_partial_with_skipped_wrappers(
        self, fresh_log
    ):
        mdm = build_mdm(
            [
                StaticWrapper("good", ["id", "name"], rows_for("good")),
                ExplodingWrapper("bad", ["id", "name"], []),
            ]
        )
        outcome = mdm.execute(name_walk(mdm), on_wrapper_error="skip")
        assert outcome.partial
        record = fresh_log.recent()[0]
        assert record.status == "partial"
        assert record.skipped_wrappers == ("bad",)

    def test_every_exit_logs_once_and_counts_only_answers(self, fresh_log):
        """The partial, error, ok and result-cache-hit exits each write
        one record; all but the error count a query and a latency."""

        class FlakyWrapper(StaticWrapper):
            broken = True

            def fetch(self):
                if self.broken:
                    raise RuntimeError("wrapper down")
                return super().fetch()

        flaky = FlakyWrapper("bad", ["id", "name"], rows_for("bad"))
        mdm = build_mdm(
            [StaticWrapper("good", ["id", "name"], rows_for("good")), flaky],
            result_cache_size=8,
        )
        walk = name_walk(mdm)
        previous = get_metrics()
        registry = reset_metrics()

        def counts():
            queries = registry.get("mdm_queries_total")
            seconds = registry.get("mdm_execute_seconds")
            return (
                queries.value() if queries is not None else 0,
                seconds.count() if seconds is not None else 0,
                len(fresh_log),
            )

        def deltas(before):
            return tuple(b - a for a, b in zip(before, counts()))

        try:
            before = counts()
            mdm.execute(walk, on_wrapper_error="skip")
            partial = deltas(before)
            before = counts()
            with pytest.raises(Exception):
                mdm.execute(walk)
            error = deltas(before)
            flaky.broken = False
            before = counts()
            mdm.execute(walk)
            ok = deltas(before)
            before = counts()
            mdm.execute(walk)
            hit = deltas(before)
        finally:
            set_metrics(previous)
        assert [(r.status, r.result_cache) for r in fresh_log.recent()] == [
            ("partial", "miss"),
            ("error", "miss"),
            ("ok", "miss"),
            ("ok", "hit"),
        ]
        assert (hit, ok, partial, error) == (
            (1, 1, 1),
            (1, 1, 1),
            (1, 1, 1),
            (0, 0, 1),
        )

    def test_phase_ms_covers_the_whole_duration(self, fresh_log):
        mdm = healthy_mdm()
        mdm.execute(name_walk(mdm))
        record = fresh_log.recent()[0]
        assert record.phase_ms  # rewrite/fetch/execute/... plus "other"
        assert {"rewrite", "fetch", "execute", "other"} <= set(record.phase_ms)
        total_phases = sum(record.phase_ms.values())
        # Acceptance contract: phases sum within 10% of wall time.
        assert total_phases == pytest.approx(record.duration_ms, rel=0.10)


class TestTraceCorrelation:
    def test_correlation_id_is_the_trace_id_when_sampled(self, fresh_log):
        mdm = healthy_mdm()
        with capture() as (tracer, _registry):
            mdm.execute(name_walk(mdm))
            root = tracer.recent()[0]
        record = fresh_log.recent()[0]
        assert record.correlation_id == root.trace_id
        assert record.trace_decision == "sampled"

    def test_dropped_trace_keeps_a_correlation_id(self, fresh_log):
        from repro.obs import Tracer, get_tracer, set_tracer

        mdm = healthy_mdm()
        previous = get_tracer()
        try:
            with capture():  # isolates the metrics registry
                tracer = set_tracer(
                    Tracer(enabled=True, sample_rate=0.0, slow_threshold_ms=None)
                )
                mdm.execute(name_walk(mdm))
                assert tracer.recent() == []
        finally:
            set_tracer(previous)
        record = fresh_log.recent()[0]
        assert record.trace_decision == "dropped"
        assert len(record.correlation_id) == 32  # still joinable downstream

    def test_untraced_records_mint_distinct_correlation_ids(self, fresh_log):
        mdm = healthy_mdm()
        mdm.execute(name_walk(mdm))
        mdm.execute(name_walk(mdm))
        first, second = fresh_log.recent()
        assert first.correlation_id != second.correlation_id


class TestCacheStatusUnderTracing:
    def test_use_cache_is_honored_while_traced(self, fresh_log):
        """The traced-run cache bypass is gone: a repeated traced query
        reports a rewrite-cache hit instead of silently re-rewriting."""
        mdm = healthy_mdm()
        walk = name_walk(mdm)
        with capture():
            mdm.execute(walk)
            mdm.execute(walk)
        first, second = fresh_log.recent()
        assert first.rewrite_cache == "miss"
        assert second.rewrite_cache == "hit"

    def test_use_cache_false_reports_bypass(self, fresh_log):
        mdm = healthy_mdm()
        walk = name_walk(mdm)
        with capture():
            mdm.execute(walk)
            mdm.execute(walk, use_cache=False)
        assert fresh_log.recent()[-1].rewrite_cache == "bypass"


class TestRingAndJsonl:
    def test_ring_capacity_bounds_memory_but_total_keeps_counting(self):
        log = QueryLog(capacity=2)
        for i in range(5):
            log.record(
                QueryLogRecord(
                    correlation_id=f"c{i}",
                    started_at=0.0,
                    duration_ms=1.0,
                    status="ok",
                    walk="w",
                    ucq_size=1,
                    rows_fetched=0,
                    rows_returned=0,
                    rewrite_cache="miss",
                )
            )
        assert len(log) == 2
        assert log.total == 5
        assert [r.correlation_id for r in log.recent()] == ["c3", "c4"]

    def test_jsonl_mirror_roundtrips_through_from_dict(self, tmp_path):
        path = tmp_path / "querylog.jsonl"
        previous = get_query_log()
        try:
            log = set_query_log(QueryLog(jsonl_path=str(path)))
            mdm = healthy_mdm()
            mdm.execute(name_walk(mdm))
            log.close()
        finally:
            set_query_log(previous)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        original = log.recent()[0]
        restored = QueryLogRecord.from_dict(json.loads(lines[0]))
        assert restored.correlation_id == original.correlation_id
        assert restored.status == original.status
        assert restored.rows_returned == original.rows_returned
        assert restored.rewrite_cache == original.rewrite_cache
        assert restored.summary_line() == original.summary_line()

    def test_summary_line_mentions_failures(self):
        record = QueryLogRecord(
            correlation_id="abc123def4567890",
            started_at=0.0,
            duration_ms=3.25,
            status="error",
            walk="Thing->thingName",
            ucq_size=2,
            rows_fetched=0,
            rows_returned=0,
            rewrite_cache="miss",
            error="RuntimeError: wrapper down",
        )
        line = record.summary_line()
        assert "error" in line
        assert "wrapper down" in line
        assert record.correlation_id[:12] in line
