"""The failpoint registry: grammar, trigger modes, determinism, overhead."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro

from repro.chaos import (
    SITES,
    FailpointError,
    FailpointRegistry,
    VirtualClock,
    fire,
    parse_spec,
    set_failpoints,
    use_clock,
)
from repro.obs import capture


# --------------------------------------------------------------------- #
# spec grammar
# --------------------------------------------------------------------- #


class TestSpecGrammar:
    def test_single_entry(self):
        (point,) = parse_spec("wrapper.fetch=error")
        assert point.site == "wrapper.fetch"
        assert point.mode == "error"
        assert point.key is None and point.nth is None and point.prob is None

    def test_full_entry_with_key_and_conditions(self):
        (point,) = parse_spec("wrapper.fetch[w1]=delay(0.5):nth(3):times(2)")
        assert point.key == "w1"
        assert point.mode == "delay"
        assert point.arg == "0.5"
        assert point.nth == 3
        assert point.times == 2

    def test_multiple_entries_split_on_semicolon(self):
        points = parse_spec(
            "wrapper.fetch=error; retry.sleep=delay(0);; cache.result=hang(1)"
        )
        assert [p.site for p in points] == [
            "wrapper.fetch", "retry.sleep", "cache.result"
        ]

    def test_error_message_argument(self):
        (point,) = parse_spec("x.site=error(backend exploded)")
        assert point.arg == "backend exploded"

    @pytest.mark.parametrize(
        "bad",
        [
            "no-equals-sign",
            "x.s=explode",          # unknown mode
            "x.s=delay",            # delay without seconds
            "x.s=error:nth",        # condition without argument
            "x.s=error:maybe(2)",   # unknown condition
            "x.s=error:prob(1.5)",  # probability outside [0, 1]
        ],
    )
    def test_bad_entries_raise_value_error(self, bad):
        with pytest.raises(ValueError):
            parse_spec(bad)

    def test_unknown_site_is_rejected_on_arm(self):
        registry = FailpointRegistry()
        with pytest.raises(ValueError, match="unknown failpoint site"):
            registry.arm_spec("wrapper.fetchh=error")

    def test_x_prefix_escapes_the_catalog_check(self):
        registry = FailpointRegistry()
        registry.arm_spec("x.anything=error")
        assert registry.armed

    def test_catalog_is_nonempty_and_sorted_sites_are_stable(self):
        assert "wrapper.fetch" in SITES
        assert "persistence.save.commit" in SITES
        assert len(SITES) >= 20


# --------------------------------------------------------------------- #
# trigger modes
# --------------------------------------------------------------------- #


class TestTriggerModes:
    def test_error_mode_raises_with_site_and_message(self, failpoints):
        failpoints.arm_spec("x.err=error(storage gone)")
        with pytest.raises(FailpointError, match="storage gone") as exc:
            fire("x.err")
        assert exc.value.site == "x.err"

    def test_delay_mode_sleeps_on_the_chaos_clock(self, failpoints):
        failpoints.arm_spec("x.slow=delay(7.5)")
        with use_clock(VirtualClock()) as clock:
            fire("x.slow")
        assert clock.sleeps == [7.5]

    def test_hang_mode_blocks_until_release(self, failpoints):
        failpoints.arm_spec("x.hang=hang(5)")
        unblocked = threading.Event()

        def worker():
            fire("x.hang")
            unblocked.set()

        thread = threading.Thread(target=worker, daemon=True)
        thread.start()
        time.sleep(0.05)
        assert not unblocked.is_set()  # still hanging
        assert failpoints.release("x.hang") == 1
        assert unblocked.wait(timeout=2.0)
        thread.join(timeout=2.0)

    def test_hang_mode_times_out_on_its_own(self, failpoints):
        failpoints.arm_spec("x.hang=hang(0.05)")
        started = time.perf_counter()
        fire("x.hang")
        assert 0.04 <= time.perf_counter() - started < 2.0

    def test_corrupt_mode_mangles_payloads_deterministically(self, failpoints):
        failpoints.arm_spec("x.c=corrupt:times(10)")
        assert fire("x.c", payload="hello!") == "hel\x00corrupt\x00"
        assert fire("x.c", payload=b"hello!") == b"hel\x00corrupt\x00"
        # Lists drop their last element; nested values are mangled too.
        assert fire("x.c", payload=[{"a": 5}, {"a": 6}]) == [{"a": -6}]
        assert fire("x.c", payload=(1, 2)) == (-2,)
        assert fire("x.c", payload=True) is True  # bools pass through
        assert fire("x.c", payload=None) is None

    def test_disarmed_site_passes_payload_through(self, failpoints):
        assert fire("x.other", payload={"k": 1}) == {"k": 1}


# --------------------------------------------------------------------- #
# firing conditions
# --------------------------------------------------------------------- #


class TestConditions:
    def test_nth_fires_exactly_on_the_nth_call(self, failpoints):
        failpoints.arm_spec("x.n=error:nth(3)")
        fire("x.n")
        fire("x.n")
        with pytest.raises(FailpointError):
            fire("x.n")
        fire("x.n")  # call 4: past nth, silent again

    def test_times_caps_total_firings(self, failpoints):
        failpoints.arm_spec("x.t=error:times(2)")
        for _ in range(2):
            with pytest.raises(FailpointError):
                fire("x.t")
        fire("x.t")  # cap reached: silent
        state = failpoints.state()["armed"][0]
        assert state["fired"] == 2 and state["calls"] == 3

    def test_key_filter_scopes_the_failpoint(self, failpoints):
        failpoints.arm_spec("wrapper.fetch[w2]=error")
        fire("wrapper.fetch", key="w1")  # other key: silent
        fire("wrapper.fetch")  # no key: silent
        with pytest.raises(FailpointError):
            fire("wrapper.fetch", key="w2")

    def test_probability_is_deterministic_per_seed(self):
        def sequence(seed):
            registry = FailpointRegistry(seed=seed)
            set_failpoints(registry)
            registry.arm_spec("x.p=error:prob(0.4)")
            out = []
            for _ in range(32):
                try:
                    fire("x.p")
                    out.append(0)
                except FailpointError:
                    out.append(1)
            set_failpoints(None)
            return out

        first, second = sequence(1234), sequence(1234)
        assert first == second  # same seed → identical firing sequence
        assert 0 < sum(first) < 32  # it actually fires sometimes, not always
        assert sequence(99) != first  # another seed → another sequence

    def test_rearming_a_site_replaces_it(self, failpoints):
        failpoints.arm_spec("x.r=error")
        failpoints.arm_spec("x.r=delay(0)")
        assert failpoints.state()["armed"][0]["mode"] == "delay"
        fire("x.r")  # delay(0): must not raise


# --------------------------------------------------------------------- #
# registry lifecycle + observability
# --------------------------------------------------------------------- #


class TestRegistry:
    def test_disarm_and_clear(self, failpoints):
        failpoints.arm_spec("x.a=error;x.b=error")
        assert failpoints.disarm("x.a") is True
        assert failpoints.disarm("x.a") is False
        fire("x.a")  # silent now
        failpoints.clear()
        assert not failpoints.armed
        fire("x.b")
        assert failpoints.trigger_log() == []

    def test_trigger_log_orders_and_numbers_firings(self, failpoints):
        failpoints.arm_spec("x.a=error;x.b=delay(0)")
        with pytest.raises(FailpointError):
            fire("x.a", key="k1")
        fire("x.b")
        log = failpoints.trigger_log()
        assert [(e["seq"], e["site"], e["mode"]) for e in log] == [
            (1, "x.a", "error"),
            (2, "x.b", "delay"),
        ]
        assert log[0]["key"] == "k1"

    def test_state_snapshot_shape(self, failpoints):
        failpoints.arm_spec("x.s=error:nth(1)")
        with pytest.raises(FailpointError):
            fire("x.s")
        state = failpoints.state()
        assert state["seed"] == 0
        assert state["triggers"] == 1
        assert state["armed"][0]["site"] == "x.s"
        assert state["log"][0]["site"] == "x.s"

    def test_without_any_registry_fire_is_a_passthrough(self):
        set_failpoints(None)
        assert fire("wrapper.fetch", payload=[1, 2]) == [1, 2]

    def test_triggers_counted_in_metrics_and_tagged_on_spans(self, failpoints):
        failpoints.arm_spec("x.m=error")
        with capture() as (tracer, registry):
            with tracer.span("query") as span:
                with pytest.raises(FailpointError):
                    fire("x.m")
            counter = registry.counter(
                "mdm_failpoint_triggers_total", "", labelnames=("site", "mode")
            )
            assert counter.value(site="x.m", mode="error") == 1
        assert span.tags["failpoint"] == "x.m:error"

    def test_disarmed_overhead_is_negligible(self, failpoints):
        # The acceptance budget proper is enforced by the parallel-fetch
        # benchmark; this is the microcheck that the disarmed fast path
        # stays O(two loads + branch): 100k disarmed fires in well under
        # a second even on a slow CI box.
        failpoints.clear()
        started = time.perf_counter()
        for _ in range(100_000):
            fire("wrapper.fetch", key="w1")
        assert time.perf_counter() - started < 1.0


# --------------------------------------------------------------------- #
# fetch.apply: every application of a pushed Scan to a full relation
# --------------------------------------------------------------------- #


def filtered_chain():
    """One capable StaticWrapper ``w0`` and a walk whose filter and
    projection are pushed into its Scan: every CQ needs ``w0``."""
    from repro.core.walks import FilterCondition
    from tests.integration.test_rewriting_properties import NS, build_chain_mdm

    mdm, concepts, _, _ = build_chain_mdm(1, 5, seed=3)
    mdm.configure_execution(result_cache_size=0)
    walk = mdm.walk_from_nodes([concepts[0], NS["id0"], NS["val0"]]).with_filters(
        FilterCondition(NS["val0"], "=", "c0v1")
    )
    return mdm, walk


class TestFetchApplySite:
    def test_pushed_fetch_fails_as_a_wrapper_failure(self, failpoints):
        mdm, walk = filtered_chain()
        failpoints.arm_spec("fetch.apply[w0]=error")
        with capture() as (_, registry):
            with pytest.raises(FailpointError, match="fetch.apply"):
                mdm.execute(walk)
            errors = registry.counter(
                "mdm_wrapper_errors_total", "", labelnames=("wrapper",)
            )
            assert errors.value(wrapper="w0") == 1
        assert [(e["site"], e["key"]) for e in failpoints.trigger_log()] == [
            ("fetch.apply", "w0")
        ]

    def test_skip_cannot_degrade_when_every_cq_needs_the_wrapper(self, failpoints):
        from repro.core.errors import MdmError

        mdm, walk = filtered_chain()
        failpoints.arm_spec("fetch.apply[w0]=error")
        with pytest.raises(MdmError, match="every CQ depends on a failed wrapper"):
            mdm.execute(walk, on_wrapper_error="skip")

    def test_deriving_from_a_cached_full_fetch_raises_out_of_execute(
        self, failpoints
    ):
        mdm, walk = filtered_chain()
        mdm.configure_execution(wrapper_cache_size=16, pushdown=False)
        expected = mdm.execute(walk).relation  # caches w0's full fetch
        mdm.configure_execution(pushdown=True)
        failpoints.arm_spec("fetch.apply[w0]=error:times(1)")
        with pytest.raises(FailpointError, match="fetch.apply"):
            mdm.execute(walk, on_wrapper_error="skip")
        # Disarmed by times(1): the same derivation now serves the query.
        outcome = mdm.execute(walk)
        assert outcome.pushdown["requests"]["w0"]["cache"] == "hit"
        assert outcome.relation.rows == expected.rows


# --------------------------------------------------------------------- #
# cache.rewrite: every rewrite-cache lookup, posed queries and replays
# --------------------------------------------------------------------- #


def football_with_saved_query():
    from repro.scenarios.football import FootballScenario

    scenario = FootballScenario.build(anchors_only=True)
    walk = scenario.walk_player_team_names()
    scenario.mdm.saved_queries.save("player-team", walk)
    return scenario.mdm, walk


class TestCacheRewriteSite:
    def test_execute_raises(self, failpoints):
        mdm, walk = football_with_saved_query()
        failpoints.arm_spec("cache.rewrite=error")
        with pytest.raises(FailpointError, match="cache.rewrite"):
            mdm.execute(walk)
        assert [e["site"] for e in failpoints.trigger_log()] == ["cache.rewrite"]

    @pytest.mark.parametrize("check", ["revalidate", "lint", "impact"])
    def test_replay_raises_it_because_only_mdm_errors_are_results(
        self, failpoints, check
    ):
        from repro.analysis.impact import WrapperRetirement
        from repro.analysis.lint import lint_mdm

        mdm, _ = football_with_saved_query()
        generation = mdm.generation
        failpoints.arm_spec("cache.rewrite=error")
        run = {
            "revalidate": lambda: mdm.saved_queries.revalidate(),
            "lint": lambda: lint_mdm(mdm),
            "impact": lambda: mdm.analyze_impact(WrapperRetirement("w1")),
        }[check]
        with pytest.raises(FailpointError, match="cache.rewrite"):
            run()
        assert mdm.generation == generation
        failpoints.disarm("cache.rewrite")
        run()  # disarmed: the same pass completes


# --------------------------------------------------------------------- #
# docstore.write: every document insert, replace and delete
# --------------------------------------------------------------------- #


class TestDocstoreWriteSite:
    def test_save_raises_and_leaves_the_collection(self, failpoints):
        mdm, walk = football_with_saved_query()
        saved = mdm.metadata.collection("saved_queries")
        before = saved.find()
        failpoints.arm_spec("docstore.write[saved_queries]=error")
        for name in ("player-team", "new-name"):
            with pytest.raises(FailpointError, match="docstore.write"):
                mdm.saved_queries.save(name, walk, "changed")
        assert saved.find() == before

    def test_delete_raises_and_leaves_the_collection(self, failpoints):
        mdm, _ = football_with_saved_query()
        saved = mdm.metadata.collection("saved_queries")
        before = saved.find()
        failpoints.arm_spec("docstore.write[saved_queries]=error")
        with pytest.raises(FailpointError, match="docstore.write"):
            mdm.saved_queries.delete("player-team")
        assert saved.find() == before
        failpoints.disarm("docstore.write")
        assert mdm.saved_queries.delete("player-team") is True

    def test_execute_raises_and_logs_no_query_document(self, failpoints):
        from repro.obs.querylog import get_query_log

        mdm, walk = football_with_saved_query()
        queries = mdm.metadata.collection("queries")
        logged = queries.find()
        failpoints.arm_spec("docstore.write[queries]=error")
        with pytest.raises(FailpointError, match="docstore.write"):
            mdm.execute(walk)
        assert queries.find() == logged
        assert get_query_log().recent(1)[0].status == "error"


# --------------------------------------------------------------------- #
# arming surfaces
# --------------------------------------------------------------------- #


class TestArmingSurfaces:
    def test_env_variable_arms_the_process_registry(self):
        code = (
            "from repro.chaos import get_failpoints;"
            "state = get_failpoints().state();"
            "print(state['seed'], state['armed'][0]['site'])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            # The caller's environment (PYTHONDONTWRITEBYTECODE among it)
            # plus the package's own source root, wherever pytest runs.
            env=dict(
                os.environ,
                PYTHONPATH=str(Path(repro.__file__).resolve().parent.parent),
                MDM_FAILPOINTS="wrapper.fetch=error:nth(2)",
                MDM_FAILPOINT_SEED="77",
            ),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["77", "wrapper.fetch"]
