"""Unit tests for counters, gauges, histograms and the Prometheus format."""

import re

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
    Tracer,
    get_metrics,
    reset_metrics,
    set_metrics,
    timed,
)


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("demo_total", "A demo counter.")
        assert counter.value() == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_labels_make_distinct_series(self):
        counter = Counter("hits_total", "Hits.", labelnames=("route",))
        counter.inc(route="/a")
        counter.inc(3, route="/b")
        assert counter.value(route="/a") == 1.0
        assert counter.value(route="/b") == 3.0

    def test_rejects_negative_increments(self):
        counter = Counter("down_total", "Nope.")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_rejects_wrong_label_set(self):
        counter = Counter("l_total", "Labels.", labelnames=("a",))
        with pytest.raises(ValueError):
            counter.inc(b=1)
        with pytest.raises(ValueError):
            counter.inc()

    def test_rejects_bad_names(self):
        with pytest.raises(ValueError):
            Counter("1bad", "Starts with digit.")
        with pytest.raises(ValueError):
            Counter("ok_total", "Bad label.", labelnames=("with-dash",))


class TestGauge:
    def test_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("queue_depth", "Depth.")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value() == 7.0


class TestHistogramBucketing:
    def test_boundary_value_lands_in_that_bucket(self):
        hist = Histogram("lat_seconds", "Latency.", buckets=(0.1, 0.5, 1.0))
        hist.observe(0.5)  # exactly on a boundary: le semantics
        cumulative = dict(hist.cumulative_buckets())
        assert cumulative[0.1] == 0
        assert cumulative[0.5] == 1
        assert cumulative[1.0] == 1
        assert cumulative[float("inf")] == 1

    def test_overflow_counts_only_toward_inf(self):
        hist = Histogram("lat_seconds", "Latency.", buckets=(0.1,))
        hist.observe(5.0)
        cumulative = dict(hist.cumulative_buckets())
        assert cumulative[0.1] == 0
        assert cumulative[float("inf")] == 1
        assert hist.count() == 1
        assert hist.sum() == 5.0

    def test_cumulative_counts_are_monotone(self):
        hist = Histogram("lat_seconds", "Latency.")
        for value in (0.00002, 0.0004, 0.003, 0.003, 0.2, 9.0):
            hist.observe(value)
        counts = [n for _, n in hist.cumulative_buckets()]
        assert counts == sorted(counts)
        assert counts[-1] == 6

    def test_default_buckets_strictly_increasing(self):
        assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))

    def test_rejects_unordered_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h_seconds", "Bad.", buckets=(1.0, 0.5))


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", "X.")
        b = registry.counter("x_total", "X.")
        assert a is b
        assert registry.names() == ["x_total"]

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "X.")
        with pytest.raises(ValueError):
            registry.histogram("x_total", "X.")

    def test_labelnames_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "X.", labelnames=("a",))
        with pytest.raises(ValueError):
            registry.counter("x_total", "X.", labelnames=("b",))

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "C.").inc(2)
        registry.histogram("h_seconds", "H.").observe(0.01)
        snapshot = registry.snapshot()
        assert snapshot["c_total"]["type"] == "counter"
        assert snapshot["c_total"]["series"][0]["value"] == 2.0
        assert snapshot["h_seconds"]["series"][0]["count"] == 1
        assert snapshot["h_seconds"]["series"][0]["mean"] == pytest.approx(0.01)

    def test_reset_drops_everything(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "C.").inc()
        registry.reset()
        assert registry.names() == []


SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (\+Inf|-?[0-9][0-9.e+-]*)$"
)


class TestPrometheusExposition:
    def test_every_line_is_comment_or_sample(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "Requests.", labelnames=("route",)).inc(
            route='/q"uo\\te'
        )
        registry.gauge("depth", "Depth.").set(3)
        registry.histogram("lat_seconds", "Latency.").observe(0.004)
        text = registry.render_prometheus()
        assert text.endswith("\n")
        for line in text.strip().splitlines():
            if line.startswith("# HELP") or line.startswith("# TYPE"):
                continue
            assert SAMPLE_LINE.match(line), line

    def test_counter_exposition(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "Requests.", labelnames=("route",)).inc(
            2, route="/x"
        )
        text = registry.render_prometheus()
        assert "# HELP req_total Requests." in text
        assert "# TYPE req_total counter" in text
        assert 'req_total{route="/x"} 2' in text

    def test_histogram_exposition_is_cumulative_with_inf(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", "Latency.", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(7.0)
        text = registry.render_prometheus()
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3' in text
        assert "lat_seconds_sum 7.55" in text
        assert "lat_seconds_count 3" in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("e_total", "Esc.", labelnames=("v",)).inc(v='a"b\nc\\d')
        text = registry.render_prometheus()
        assert r'v="a\"b\nc\\d"' in text


class TestTimedDecorator:
    def test_observes_into_named_histogram(self):
        registry = MetricsRegistry()

        @timed("step_seconds", "Step latency.", registry=registry, step="build")
        def build(x):
            return x * 2

        assert build(21) == 42
        hist = registry.get("step_seconds")
        assert hist.count(step="build") == 1
        assert hist.sum(step="build") >= 0.0

    def test_observes_even_when_the_function_raises(self):
        registry = MetricsRegistry()

        @timed("step_seconds", registry=registry, step="explode")
        def explode():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            explode()
        assert registry.get("step_seconds").count(step="explode") == 1

    def test_emits_a_span_when_tracing(self):
        registry = MetricsRegistry()
        tracer = Tracer(enabled=True)

        @timed("step_seconds", registry=registry, tracer=tracer, step="s")
        def step():
            return "done"

        step()
        names = [s.name for s in tracer.recent()]
        assert any(name.startswith("timed:") and "step" in name for name in names)

    def test_resolves_process_registry_at_call_time(self):
        previous = get_metrics()
        try:
            registry = reset_metrics()

            @timed("late_seconds", step="late")
            def late():
                pass

            late()
            assert registry.get("late_seconds").count(step="late") == 1
        finally:
            set_metrics(previous)


class TestHistogramPercentiles:
    def hist(self):
        return Histogram("lat", "t", buckets=(1.0, 2.0, 4.0, 8.0))

    def test_empty_series_yields_none(self):
        # "No data" must be distinguishable from "p95 of zero seconds".
        assert self.hist().percentile(95.0) is None

    def test_empty_series_percentiles_are_all_none(self):
        assert self.hist().percentiles() == {
            "p50": None,
            "p95": None,
            "p99": None,
        }

    def test_unknown_labeled_series_yields_none(self):
        h = Histogram("lat", "t", buckets=(1.0,), labelnames=("route",))
        h.observe(0.5, route="/query")
        assert h.percentile(95.0, route="/nope") is None
        assert h.percentile(95.0, route="/query") is not None

    def test_still_rejects_out_of_range_quantiles_when_empty(self):
        with pytest.raises(ValueError):
            self.hist().percentile(101.0)

    def test_empty_series_summary_reports_none(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", "t", labelnames=("route",))
        hist.observe(0.5, route="/query")
        # Force an empty series into existence alongside the real one.
        series_cls = type(next(iter(hist._series.values())))
        hist._series.setdefault(
            hist._key({"route": "/empty"}), series_cls(len(hist.buckets))
        )
        summary = registry.summary()["lat_seconds"]["series"]
        by_route = {s["labels"]["route"]: s for s in summary}
        assert by_route["/empty"]["mean"] is None
        assert by_route["/empty"]["p99"] is None
        assert by_route["/query"]["p99"] is not None

    def test_interpolates_within_a_bucket(self):
        h = self.hist()
        # 10 observations uniform in (1, 2]: the p50 target falls halfway
        # through the second bucket -> 1.0 + 0.5 * (2.0 - 1.0).
        for _ in range(10):
            h.observe(1.5)
        assert h.percentile(50.0) == pytest.approx(1.5)
        assert h.percentile(100.0) == pytest.approx(2.0)

    def test_spread_across_buckets(self):
        h = self.hist()
        for v in (0.5, 0.5, 3.0, 3.0):
            h.observe(v)
        # p50 target = 2 observations: exactly the first bucket's worth.
        assert h.percentile(50.0) == pytest.approx(1.0)
        # p75 target = 3: halfway through the (2, 4] bucket's 2 counts.
        assert h.percentile(75.0) == pytest.approx(3.0)

    def test_overflow_clamps_to_last_finite_bound(self):
        h = self.hist()
        for _ in range(4):
            h.observe(100.0)  # +Inf bucket only
        assert h.percentile(99.0) == pytest.approx(8.0)

    def test_rejects_out_of_range_quantiles(self):
        with pytest.raises(ValueError):
            self.hist().percentile(101.0)
        with pytest.raises(ValueError):
            self.hist().percentile(-1.0)

    def test_percentiles_shape(self):
        h = self.hist()
        h.observe(1.5)
        named = h.percentiles()
        assert set(named) == {"p50", "p95", "p99"}

    def test_labeled_series_are_independent(self):
        h = Histogram("lat", "t", labelnames=("op",), buckets=(1.0, 2.0))
        h.observe(0.5, op="fast")
        h.observe(1.5, op="slow")
        assert h.percentile(50.0, op="fast") < h.percentile(50.0, op="slow")


class TestRegistrySummary:
    def test_summary_covers_histograms_only(self):
        registry = MetricsRegistry()
        registry.counter("mdm_queries_total").inc()
        hist = registry.histogram("mdm_execute_seconds")
        for v in (0.001, 0.002, 0.004):
            hist.observe(v)
        summary = registry.summary()
        assert set(summary) == {"mdm_execute_seconds"}
        series = summary["mdm_execute_seconds"]["series"]
        assert len(series) == 1
        entry = series[0]
        assert entry["count"] == 3
        assert entry["mean"] == pytest.approx(0.007 / 3)
        assert {"p50", "p95", "p99"} <= set(entry)
        assert entry["p50"] <= entry["p95"] <= entry["p99"]

    def test_histogram_snapshot_includes_percentiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", "t", labelnames=("op",))
        hist.observe(0.001, op="scan")
        entry = hist.snapshot()["series"][0]
        assert {"p50", "p95", "p99"} <= set(entry)
