"""Unit tests for the generation-keyed query result cache."""

from dataclasses import replace

import pytest

from repro.core.config import ExecutionConfig
from repro.core.mdm import MDM, QueryOutcome
from repro.core.result_cache import ResultCache
from repro.obs import get_metrics, reset_metrics, set_metrics
from repro.rdf.namespaces import Namespace
from repro.relational.optimizer import PlanOptimizer
from repro.sources.wrappers import RetryPolicy, StaticWrapper

NS = Namespace("http://rc.test/")
CONFIG = ExecutionConfig()


@pytest.fixture()
def fresh_metrics():
    previous = get_metrics()
    registry = reset_metrics()
    yield registry
    set_metrics(previous)


def tiny_mdm(result_cache_size=0):
    mdm = MDM(result_cache_size=result_cache_size)
    mdm.add_concept(NS.C)
    mdm.add_identifier(NS.id, NS.C)
    mdm.add_feature(NS.val, NS.C)
    mdm.register_source("s0")
    mdm.register_wrapper(
        "s0",
        StaticWrapper("w0", ["id", "val"], [{"id": 1, "val": "a"}]),
    )
    mdm.define_mapping("w0", {"id": NS.id, "val": NS.val})
    return mdm


def the_walk(mdm):
    return mdm.walk_from_nodes([NS.C, NS.id, NS.val])


class FakeOutcome:
    def __init__(self, partial=False, operator_stats=None):
        self.partial = partial
        self.operator_stats = operator_stats


class TestResultCacheUnit:
    def test_capacity_zero_is_disabled(self, fresh_metrics):
        cache = ResultCache(0)
        mdm = tiny_mdm()
        walk = the_walk(mdm)
        assert not cache.enabled
        cache.put(walk, 1, CONFIG, FakeOutcome())
        assert cache.get(walk, 1, CONFIG) is None
        # Disabled probes are bypasses, not misses.
        assert cache.stats()["misses"] == 0
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(-1)

    def test_put_get_roundtrip_keyed_by_generation(self, fresh_metrics):
        cache = ResultCache(4)
        mdm = tiny_mdm()
        walk = the_walk(mdm)
        outcome = FakeOutcome()
        cache.put(walk, 7, CONFIG, outcome)
        assert cache.get(walk, 7, CONFIG) is outcome
        # Any other generation or outcome-shaping flag is a different key.
        assert cache.get(walk, 8, CONFIG) is None
        for flag in ("optimize", "pushdown"):
            assert cache.get(walk, 7, replace(CONFIG, **{flag: False})) is None
        # The fetch pool and retry policy do not shape the outcome.
        tuned = replace(
            CONFIG, max_fetch_workers=1, retry_policy=RetryPolicy(attempts=3)
        )
        assert cache.get(walk, 7, tuned) is outcome
        assert cache.stats()["hits"] == 2
        assert cache.stats()["misses"] == 3

    def test_partial_outcomes_are_never_cached(self, fresh_metrics):
        cache = ResultCache(4)
        mdm = tiny_mdm()
        walk = the_walk(mdm)
        cache.put(walk, 1, CONFIG, FakeOutcome(partial=True))
        assert len(cache) == 0
        assert cache.get(walk, 1, CONFIG) is None

    def test_require_analyzed_misses_on_plain_entry(self, fresh_metrics):
        cache = ResultCache(4)
        mdm = tiny_mdm()
        walk = the_walk(mdm)
        plain = FakeOutcome(operator_stats=None)
        analyzed = FakeOutcome(operator_stats=object())
        cache.put(walk, 1, CONFIG, plain)
        assert cache.get(walk, 1, CONFIG, require_analyzed=True) is None
        cache.put(walk, 1, CONFIG, analyzed)
        assert cache.get(walk, 1, CONFIG, require_analyzed=True) is analyzed
        # Plain probes accept analyzed entries (strictly more data).
        assert cache.get(walk, 1, CONFIG) is analyzed

    def test_lru_eviction_and_resize(self, fresh_metrics):
        cache = ResultCache(2)
        mdm = tiny_mdm()
        walk = the_walk(mdm)
        first, second, third = FakeOutcome(), FakeOutcome(), FakeOutcome()
        cache.put(walk, 1, CONFIG, first)
        cache.put(walk, 2, CONFIG, second)
        cache.get(walk, 1, CONFIG)  # refresh 1 -> 2 becomes LRU
        cache.put(walk, 3, CONFIG, third)
        assert cache.get(walk, 2, CONFIG) is None  # evicted
        assert cache.get(walk, 1, CONFIG) is first
        assert cache.stats()["evictions"] == 1
        cache.resize(1)
        assert len(cache) == 1
        cache.resize(0)
        assert len(cache) == 0 and not cache.enabled
        # Shrinking evicts too, and /metrics agrees with stats().
        assert cache.stats()["evictions"] == 3
        evictions = fresh_metrics.get("mdm_result_cache_evictions_total")
        assert evictions.value() == 3
        with pytest.raises(ValueError):
            cache.resize(-5)


class TestResultCacheInMdm:
    def test_execute_miss_then_hit_same_rows(self, fresh_metrics):
        mdm = tiny_mdm(result_cache_size=8)
        walk = the_walk(mdm)
        first = mdm.execute(walk)
        second = mdm.execute(walk)
        assert first.result_cache == "miss"
        assert second.result_cache == "hit"
        assert second.relation.rows == first.relation.rows
        assert second.generation == first.generation
        assert mdm.result_cache.stats()["hits"] == 1

    def test_mutation_invalidates_via_generation(self, fresh_metrics):
        mdm = tiny_mdm(result_cache_size=8)
        walk = the_walk(mdm)
        before = mdm.execute(walk)
        assert mdm.execute(walk).result_cache == "hit"
        mdm.register_source("s1")
        mdm.register_wrapper(
            "s1",
            StaticWrapper("w1", ["id", "val"], [{"id": 2, "val": "b"}]),
        )
        mdm.define_mapping("w1", {"id": NS.id, "val": NS.val})
        after = mdm.execute(walk)
        assert after.result_cache == "miss"
        assert after.generation > before.generation
        assert len(after.relation.rows) == len(before.relation.rows) + 1

    def test_use_cache_false_bypasses(self, fresh_metrics):
        mdm = tiny_mdm(result_cache_size=8)
        walk = the_walk(mdm)
        mdm.execute(walk)
        bypassed = mdm.execute(walk, use_cache=False)
        assert bypassed.result_cache == "bypass"

    def test_disabled_cache_reports_off(self, fresh_metrics):
        mdm = tiny_mdm()
        outcome = mdm.execute(the_walk(mdm))
        assert outcome.result_cache == "off"
        # "off" keeps EXPLAIN ANALYZE output identical to pre-cache runs.
        analyzed = mdm.execute(the_walk(mdm), analyze=True)
        assert "Result cache" not in analyzed.explain_analyze()

    def test_explain_analyze_annotates_cache_state(self, fresh_metrics):
        mdm = tiny_mdm(result_cache_size=8)
        walk = the_walk(mdm)
        miss = mdm.execute(walk, analyze=True)
        assert (
            f"Result cache: miss (generation {miss.generation})"
            in miss.explain_analyze()
        )
        hit = mdm.execute(walk, analyze=True)
        assert hit.result_cache == "hit"
        assert "Result cache: hit" in hit.explain_analyze()

    def test_analyze_is_not_served_a_plain_cached_outcome(
        self, fresh_metrics
    ):
        mdm = tiny_mdm(result_cache_size=8)
        walk = the_walk(mdm)
        mdm.execute(walk)  # plain entry, no operator stats
        analyzed = mdm.execute(walk, analyze=True)
        assert analyzed.result_cache == "miss"
        assert analyzed.operator_stats is not None
        # The analyzed rerun replaced the plain entry...
        again = mdm.execute(walk, analyze=True)
        assert again.result_cache == "hit"
        assert again.operator_stats is not None

    def test_partial_outcome_not_cached_end_to_end(self, fresh_metrics):
        class FailingWrapper(StaticWrapper):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.broken = False

            def fetch(self):
                if self.broken:
                    raise RuntimeError("source down")
                return super().fetch()

        mdm = MDM(result_cache_size=8)
        mdm.add_concept(NS.C)
        mdm.add_identifier(NS.id, NS.C)
        mdm.add_feature(NS.val, NS.C)
        mdm.register_source("s0")
        good = StaticWrapper("w0", ["id", "val"], [{"id": 1, "val": "a"}])
        bad = FailingWrapper("w1", ["id", "val"], [{"id": 2, "val": "b"}])
        mdm.register_wrapper("s0", good)
        mdm.define_mapping("w0", {"id": NS.id, "val": NS.val})
        mdm.register_source("s1")
        mdm.register_wrapper("s1", bad)
        mdm.define_mapping("w1", {"id": NS.id, "val": NS.val})
        walk = the_walk(mdm)
        bad.broken = True
        degraded = mdm.execute(walk, on_wrapper_error="skip")
        assert degraded.partial
        assert len(mdm.result_cache) == 0
        # Once the source recovers, the full answer is computed fresh —
        # the degraded result was never cached to be served stale.
        bad.broken = False
        recovered = mdm.execute(walk, on_wrapper_error="skip")
        assert recovered.result_cache == "miss"
        assert not recovered.partial
        assert len(recovered.relation.rows) == 2

    def test_config_is_read_once_per_query(self, fresh_metrics):
        """A reconfiguration racing a query does not split its config:
        the plan, outcome and cache key all use the config at entry."""

        class ReconfiguringWrapper(StaticWrapper):
            def fetch(self):
                mdm.configure_execution(optimize=False, pushdown=False)
                return super().fetch()

        mdm = MDM(result_cache_size=8, optimize=True, pushdown=True)
        mdm.add_concept(NS.C)
        mdm.add_identifier(NS.id, NS.C)
        mdm.add_feature(NS.val, NS.C)
        mdm.register_source("s0")
        mdm.register_wrapper(
            "s0",
            ReconfiguringWrapper("w0", ["id", "val"], [{"id": 1, "val": "a"}]),
        )
        mdm.define_mapping("w0", {"id": NS.id, "val": NS.val})
        walk = the_walk(mdm)
        entry = mdm.config
        stage_b_calls = []
        real_optimize = PlanOptimizer.optimize

        def counting_optimize(optimizer, plan):
            stage_b_calls.append(plan)
            return real_optimize(optimizer, plan)

        PlanOptimizer.optimize = counting_optimize
        try:
            outcome = mdm.execute(walk)
        finally:
            PlanOptimizer.optimize = real_optimize
        live = mdm.config
        assert not (live.optimize or live.pushdown)
        # Stage B (the typed pass after the fetch) ran exactly once.
        assert len(stage_b_calls) == 1
        assert outcome.optimization is not None
        assert outcome.pushdown is not None
        cache = mdm.result_cache
        assert cache.get(walk, outcome.generation, entry) is outcome
        assert cache.get(walk, outcome.generation, live) is None
        for flag in ("optimize", "pushdown"):
            mixed = replace(entry, **{flag: False})
            assert cache.get(walk, outcome.generation, mixed) is None

    def test_configure_execution_resizes_and_reports(self, fresh_metrics):
        mdm = tiny_mdm()
        assert mdm.execution_config()["result_cache"]["enabled"] is False
        mdm.configure_execution(result_cache_size=16)
        config = mdm.execution_config()
        assert config["result_cache"]["capacity"] == 16
        assert config["metadata_lock"] == {
            "readers": 0,
            "writer_held": 0,
            "writers_waiting": 0,
        }

    def test_hit_is_a_shallow_copy_not_the_entry(self, fresh_metrics):
        mdm = tiny_mdm(result_cache_size=8)
        walk = the_walk(mdm)
        first = mdm.execute(walk)
        hit = mdm.execute(walk)
        assert isinstance(hit, QueryOutcome)
        assert hit is not first
        assert hit.result_cache == "hit"
        # The cached entry itself still reads "miss": mutating the
        # served copy's status must not corrupt the stored outcome.
        assert mdm.execute(walk).result_cache == "hit"
