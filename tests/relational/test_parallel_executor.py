"""Concurrent federated execution: shared fetch helpers, retries, partial results.

The doubles here simulate the three ways a real wrapper misbehaves —
slowness (:class:`SlowWrapper`), transient failure (:class:`FlakyWrapper`)
and permanent failure (:class:`DeadWrapper`) — and the tests prove the
executor's concurrency is real (a barrier only N simultaneous fetches can
pass), bounded, retried per policy, and degraded to partial results
instead of an exception when asked.

Backoff runs on the :mod:`repro.chaos.clock` virtual clock (the
``virtual_clock`` fixture), so the retry tests assert the exact sleep
schedule without spending wall time; only the doubles whose *point* is
real concurrency (barriers, staggered completion order) touch real time.
"""

import gc
import sys
import threading
import time
from concurrent.futures import wait

import pytest

from repro.chaos import VirtualClock, use_clock
from repro.chaos import clock as chaos_clock
from repro.core import mdm as mdm_module
from repro.core.errors import MdmError
from repro.core.mdm import MDM
from repro.obs import MetricsRegistry, capture, set_metrics
from repro.rdf.namespaces import EX
from repro.sources.wrappers import (
    RetryPolicy,
    StaticWrapper,
    WrapperFetchError,
    WrapperTimeoutError,
)


# --------------------------------------------------------------------- #
# test doubles
# --------------------------------------------------------------------- #


class SlowWrapper(StaticWrapper):
    """Sleeps before answering (on the active chaos clock); counts fetches.

    Under the ``virtual_clock`` fixture the delay is instant; without it
    the delay is real — which the determinism test below relies on to
    shuffle thread completion order.
    """

    def __init__(self, name, attributes, rows, delay_s=0.0):
        super().__init__(name, attributes, rows)
        self.delay_s = delay_s
        self.fetch_count = 0

    def fetch(self):
        self.fetch_count += 1
        if self.delay_s:
            chaos_clock.sleep(self.delay_s)
        return super().fetch()


class BarrierWrapper(StaticWrapper):
    """Only answers once ``parties`` fetches are in flight simultaneously.

    threading.Barrier is the strongest concurrency proof available: if
    the executor fetched serially, the first fetch would block forever
    (here: until the barrier timeout breaks it).
    """

    def __init__(self, name, attributes, rows, barrier, wait_timeout=5.0):
        super().__init__(name, attributes, rows)
        self.barrier = barrier
        self.wait_timeout = wait_timeout

    def fetch(self):
        self.barrier.wait(timeout=self.wait_timeout)
        return super().fetch()


class FlakyWrapper(StaticWrapper):
    """Fails the first ``fail_times`` fetches, then succeeds."""

    def __init__(self, name, attributes, rows, fail_times):
        super().__init__(name, attributes, rows)
        self.fail_times = fail_times
        self.calls = 0

    def fetch(self):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise RuntimeError(f"transient outage #{self.calls}")
        return super().fetch()


class DeadWrapper(StaticWrapper):
    """Always fails."""

    def __init__(self, name, attributes):
        super().__init__(name, attributes, [])
        self.calls = 0

    def fetch(self):
        self.calls += 1
        raise RuntimeError("permanently down")


class HangingWrapper(StaticWrapper):
    """Blocks far longer than any per-attempt timeout under test.

    Event-based rather than ``time.sleep`` so tests can release the
    worker thread on exit instead of leaving a daemon thread sleeping
    out a 10-second stall in the background.
    """

    def __init__(self, name, attributes, hang_s=10.0):
        super().__init__(name, attributes, [])
        self.hang_s = hang_s
        self.released = threading.Event()

    def fetch(self):
        self.released.wait(timeout=self.hang_s)
        return super().fetch()


# --------------------------------------------------------------------- #
# fixtures
# --------------------------------------------------------------------- #


@pytest.fixture
def virtual_clock():
    """Route chaos-clock sleeps (incl. the default RetryPolicy backoff)
    through a recording :class:`VirtualClock` for one test."""
    with use_clock(VirtualClock()) as clock:
        yield clock


@pytest.fixture
def isolated_metrics():
    """A fresh metrics registry for the duration of one test."""
    from repro.obs import get_metrics

    previous = get_metrics()
    registry = MetricsRegistry()
    set_metrics(registry)
    try:
        yield registry
    finally:
        set_metrics(previous)


def union_mdm(wrappers, **mdm_kwargs):
    """An MDM whose UCQ unions one CQ per wrapper over a single concept."""
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


def name_walk(mdm):
    return mdm.walk_from_nodes([EX.Thing, EX.thingName])


def rows_for(prefix, n=2):
    return [
        {"id": f"{prefix}-{i}", "name": f"{prefix} thing {i}"}
        for i in range(n)
    ]


# --------------------------------------------------------------------- #
# concurrency
# --------------------------------------------------------------------- #


class TestConcurrentFetch:
    def test_fetches_overlap_when_pool_is_wide_enough(self):
        barrier = threading.Barrier(4)
        wrappers = [
            BarrierWrapper(f"w{i}", ["id", "name"], rows_for(f"w{i}"), barrier)
            for i in range(4)
        ]
        mdm = union_mdm(wrappers, max_fetch_workers=4)
        outcome = mdm.execute(name_walk(mdm))
        # All four fetches met at the barrier — serial execution would
        # have broken it (BrokenBarrierError) instead of returning rows.
        assert len(outcome.relation) == 8
        assert not outcome.partial

    def test_serial_pool_breaks_the_barrier(self):
        barrier = threading.Barrier(4)
        wrappers = [
            # A short wait: serial execution *must* break the barrier, so
            # the test's duration is exactly this timeout.
            BarrierWrapper(
                f"w{i}", ["id", "name"], rows_for(f"w{i}"), barrier,
                wait_timeout=0.25,
            )
            for i in range(4)
        ]
        mdm = union_mdm(wrappers, max_fetch_workers=1)
        with pytest.raises(threading.BrokenBarrierError):
            mdm.execute(name_walk(mdm))

    def test_parallel_and_serial_agree(self, virtual_clock):
        def build(workers):
            return union_mdm(
                [
                    SlowWrapper(
                        f"w{i}", ["id", "name"], rows_for(f"w{i}", 3), 0.01
                    )
                    for i in range(5)
                ],
                max_fetch_workers=workers,
            )

        serial = build(1)
        parallel = build(8)
        rows_serial = serial.execute(name_walk(serial)).relation.rows
        rows_parallel = parallel.execute(name_walk(parallel)).relation.rows
        assert rows_serial == rows_parallel

    def test_shared_wrapper_fetched_once_per_query(self):
        """A wrapper appearing in several CQs of the union fetches once."""
        mdm = MDM(max_fetch_workers=4)
        mdm.add_concept(EX.Thing, "Thing")
        mdm.add_identifier(EX.thingId, EX.Thing)
        mdm.add_concept(EX.Other, "Other")
        mdm.add_identifier(EX.otherId, EX.Other)
        mdm.add_feature(EX.otherName, EX.Other)
        mdm.relate(EX.Thing, EX.linksTo, EX.Other)
        mdm.register_source("things")
        shared = SlowWrapper("wshared", ["id", "oid"], [{"id": "t", "oid": "o"}])
        mdm.register_wrapper("things", shared)
        mdm.define_mapping(
            "wshared",
            {"id": EX.thingId, "oid": EX.otherId},
            edges=[(EX.Thing, EX.linksTo, EX.Other)],
        )
        for name in ("wa", "wb"):
            w = StaticWrapper(
                name, ["oid", "oname"], [{"oid": "o", "oname": f"{name}!"}]
            )
            mdm.register_wrapper("things", w)
            mdm.define_mapping(
                name, {"oid": EX.otherId, "oname": EX.otherName}
            )
        walk = mdm.walk_from_nodes([EX.Thing, EX.Other, EX.otherName])
        outcome = mdm.execute(walk)
        ucq_wrappers = [
            name
            for q in outcome.rewrite.queries
            for name in q.wrapper_names
        ]
        assert ucq_wrappers.count("wshared") >= 2
        assert shared.fetch_count == 1
        assert outcome.fetch_attempts["wshared"] == 1

    def test_worker_bound_is_validated(self):
        with pytest.raises(ValueError):
            MDM(max_fetch_workers=0)
        mdm = union_mdm([StaticWrapper("w0", ["id", "name"], [])])
        with pytest.raises(ValueError):
            mdm.configure_execution(max_fetch_workers=-2)


def barrier_wrappers(parties, wait_timeout=5.0):
    barrier = threading.Barrier(parties)
    return [
        BarrierWrapper(
            f"w{i}", ["id", "name"], rows_for(f"w{i}"), barrier, wait_timeout
        )
        for i in range(parties)
    ]


def static_wrappers(count):
    return [
        StaticWrapper(f"w{i}", ["id", "name"], rows_for(f"w{i}"))
        for i in range(count)
    ]


class TestFetchScheduling:
    """The calling thread fetches; shared helpers take what it has not
    reached, and only a helper that has started is ever waited for."""

    def test_every_query_overlaps_blocking_sources(self):
        # Not only the first query: a scheduler that learned from earlier
        # fetches to keep these sources on the calling thread would break
        # the barrier on a later one.
        mdm = union_mdm(barrier_wrappers(4, wait_timeout=2.0), max_fetch_workers=4)
        walk = name_walk(mdm)
        for _ in range(10):
            outcome = mdm.execute(walk)
            assert len(outcome.relation) == 8
            assert not outcome.partial

    def test_each_group_is_fetched_once_under_fast_switching(self):
        # More drainers than cores pop one shared deque; a group taken
        # twice or lost would move a fetch count off the query count.
        wrappers = [
            SlowWrapper(f"w{i:02d}", ["id", "name"], rows_for(f"w{i:02d}"))
            for i in range(12)
        ]
        mdm = union_mdm(wrappers, max_fetch_workers=8)
        walk = name_walk(mdm)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(20):
                assert len(mdm.execute(walk).relation) == 24
        finally:
            sys.setswitchinterval(previous)
        assert [w.fetch_count for w in wrappers] == [20] * 12

    def test_fetches_in_flight_stay_within_the_bound(self):
        # Each drainer calls the next helper; however they interleave,
        # a query never has more than max_fetch_workers groups in flight.
        lock = threading.Lock()
        in_flight = [0]
        peak = [0]

        class CountingWrapper(StaticWrapper):
            def fetch(self):
                with lock:
                    in_flight[0] += 1
                    peak[0] = max(peak[0], in_flight[0])
                time.sleep(0.02)
                with lock:
                    in_flight[0] -= 1
                return super().fetch()

        wrappers = [
            CountingWrapper(f"w{i}", ["id", "name"], rows_for(f"w{i}")) for i in range(6)
        ]
        mdm = union_mdm(wrappers, max_fetch_workers=2)
        walk = name_walk(mdm)
        for _ in range(5):
            assert len(mdm.execute(walk).relation) == 12
        assert peak[0] == 2

    def test_query_leaves_no_reference_cycle(self):
        # drain calls itself on helpers; the finished query must still
        # free it, and the futures holding its fetched relations, by
        # reference counting alone.
        mdm = union_mdm(barrier_wrappers(4), max_fetch_workers=4)
        walk = name_walk(mdm)
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            mdm.execute(walk)
            gc.collect()
            leaked = [
                obj
                for obj in gc.garbage
                if getattr(obj, "__qualname__", "").endswith("_fetch_requests.<locals>.drain")
            ]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert leaked == []

    def test_query_never_waits_for_a_free_helper(self):
        pool = mdm_module._FETCH_POOL
        release = threading.Event()
        running = threading.Semaphore(0)

        def occupy():
            running.release()
            release.wait(timeout=30.0)

        blockers = [pool.submit(occupy) for _ in range(mdm_module._FETCH_HELPERS)]
        try:
            for _ in blockers:
                assert running.acquire(timeout=5.0)
            mdm = union_mdm(static_wrappers(4), max_fetch_workers=4)
            outcomes = []
            query = threading.Thread(
                target=lambda: outcomes.append(mdm.execute(name_walk(mdm)))
            )
            query.start()
            query.join(timeout=10.0)
            # The helpers never started, so the caller fetched alone.
            assert not query.is_alive()
            assert len(outcomes[0].relation) == 8
        finally:
            release.set()
            wait(blockers)

    def test_no_fetch_outlives_a_query_that_raises(self):
        class Abort(BaseException):
            pass

        caller = threading.current_thread()
        barrier = threading.Barrier(2)
        helper_done = threading.Event()
        fetched = []

        class SplitWrapper(StaticWrapper):
            """Aborts on the calling thread; finishes late on a helper."""

            def fetch(self):
                fetched.append(self.name)
                barrier.wait(timeout=5.0)
                if threading.current_thread() is caller:
                    raise Abort()
                time.sleep(0.1)
                helper_done.set()
                return super().fetch()

        wrappers = [
            SplitWrapper(f"w{i}", ["id", "name"], rows_for(f"w{i}")) for i in range(3)
        ]
        mdm = union_mdm(wrappers, max_fetch_workers=2)
        with pytest.raises(Abort):
            mdm.execute(name_walk(mdm))
        assert helper_done.is_set()
        # The helper finished its group after the abort but took no other.
        assert sorted(fetched) == ["w0", "w1"]

    def test_serial_config_submits_nothing(self, monkeypatch):
        class NoPool:
            def submit(self, *args):
                raise AssertionError("max_fetch_workers=1 submitted a helper")

        monkeypatch.setattr(mdm_module, "_FETCH_POOL", NoPool())
        mdm = union_mdm(static_wrappers(4), max_fetch_workers=1)
        with capture() as (tracer, _registry):
            outcome = mdm.execute(name_walk(mdm))
            root = tracer.recent()[0]
        assert len(outcome.relation) == 8
        assert outcome.fetch_attempts == {f"w{i}": 1 for i in range(4)}
        assert root.tags["fetch_helpers"] == 0

    def test_root_span_counts_the_groups_helpers_fetched(self):
        # Four barrier groups: the caller holds one at the barrier, so
        # the three helpers must each have taken one.
        mdm = union_mdm(barrier_wrappers(4), max_fetch_workers=4)
        with capture() as (tracer, _registry):
            mdm.execute(name_walk(mdm))
            root = tracer.recent()[0]
        assert root.tags["fetch_helpers"] == 3


class TestDeterminism:
    @pytest.mark.slow
    def test_same_query_20_times_is_byte_identical(self):
        """Regression: thread completion order must not leak into output."""
        wrappers = [
            SlowWrapper(
                f"w{i}",
                ["id", "name"],
                rows_for(f"w{i}", 4),
                # Staggered delays shuffle completion order across runs.
                delay_s=0.001 * ((i * 7) % 5),
            )
            for i in range(6)
        ]
        mdm = union_mdm(wrappers, max_fetch_workers=8)
        walk = name_walk(mdm)
        renderings = {
            mdm.execute(walk).to_table().encode("utf-8") for _ in range(20)
        }
        assert len(renderings) == 1


# --------------------------------------------------------------------- #
# retries / backoff / timeout
# --------------------------------------------------------------------- #


class TestRetryPolicy:
    def test_flaky_wrapper_recovers_and_counts_attempts(
        self, isolated_metrics, virtual_clock
    ):
        # The *default* sleep — no hook: the policy goes through the
        # chaos clock, and the fixture's VirtualClock records the exact
        # backoff schedule while spending zero wall time.
        policy = RetryPolicy(
            attempts=4,
            backoff_base_s=0.01,
            backoff_multiplier=2.0,
        )
        flaky = FlakyWrapper("wf", ["id", "name"], rows_for("wf"), fail_times=2)
        rows, attempts = flaky.fetch_retrying(policy)
        assert attempts == 3
        assert len(rows) == 2
        assert virtual_clock.sleeps == [0.01, 0.02]
        retry_counter = isolated_metrics.counter("mdm_wrapper_retry_total")
        assert retry_counter.value(wrapper="wf") == 2

    def test_jitter_hook_shapes_backoff_deterministically(self):
        policy = RetryPolicy(
            attempts=3,
            backoff_base_s=0.1,
            backoff_multiplier=2.0,
            jitter=lambda attempt: attempt * 0.001,
        )
        assert policy.backoff_s(1) == pytest.approx(0.101)
        assert policy.backoff_s(2) == pytest.approx(0.202)

    def test_backoff_is_capped(self):
        policy = RetryPolicy(
            attempts=10,
            backoff_base_s=1.0,
            backoff_multiplier=10.0,
            max_backoff_s=2.5,
        )
        assert policy.backoff_s(5) == pytest.approx(2.5)

    def test_exhausted_retries_raise_wrapper_fetch_error(
        self, isolated_metrics, virtual_clock
    ):
        dead = DeadWrapper("wd", ["id", "name"])
        policy = RetryPolicy(attempts=3)
        with pytest.raises(WrapperFetchError) as exc:
            dead.fetch_retrying(policy)
        assert exc.value.wrapper_name == "wd"
        assert exc.value.attempts == 3
        assert dead.calls == 3
        assert virtual_clock.sleeps == [0.05, 0.1]  # default base × 2
        failure_counter = isolated_metrics.counter("mdm_wrapper_failure_total")
        assert failure_counter.value(wrapper="wd") == 1

    def test_per_attempt_timeout_is_enforced(self, virtual_clock):
        # Wall-time budget, asserted: this was the suite's slowest fault
        # test. Pre-virtual-clock/pre-Event it left two daemon threads in
        # real 10 s time.sleep calls and the whole file ran in ~6.8 s;
        # post-migration the file runs in ~1.6 s and this test's real
        # duration is just the two 0.05 s join timeouts (< 0.5 s total).
        hanging = HangingWrapper("wh", ["id", "name"], hang_s=10.0)
        policy = RetryPolicy(attempts=2, timeout_s=0.05)
        started = time.perf_counter()
        try:
            with pytest.raises(WrapperTimeoutError) as exc:
                hanging.fetch_retrying(policy)
        finally:
            hanging.released.set()  # free the worker threads immediately
        elapsed = time.perf_counter() - started
        assert elapsed < 0.5  # two bounded attempts, not 2 × 10 s hangs
        assert virtual_clock.sleeps == [0.05]  # backoff between attempts
        assert exc.value.wrapper_name == "wh"

    def test_single_attempt_policy_is_transparent(self):
        """The default policy must preserve the legacy exception contract."""
        dead = DeadWrapper("wd", ["id", "name"])
        with pytest.raises(RuntimeError, match="permanently down"):
            dead.fetch_retrying(RetryPolicy())
        assert dead.calls == 1

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=-0.1)


# --------------------------------------------------------------------- #
# partial results
# --------------------------------------------------------------------- #


class TestPartialResults:
    def build(self, **mdm_kwargs):
        self.dead = DeadWrapper("wdead", ["id", "name"])
        wrappers = [
            StaticWrapper("wa", ["id", "name"], rows_for("wa")),
            StaticWrapper("wb", ["id", "name"], rows_for("wb")),
            self.dead,
        ]
        return union_mdm(wrappers, **mdm_kwargs)

    def test_failed_wrapper_degrades_to_partial_outcome(
        self, isolated_metrics, virtual_clock
    ):
        mdm = self.build(
            max_fetch_workers=4,
            retry_policy=RetryPolicy(attempts=2),
        )
        outcome = mdm.execute(name_walk(mdm), on_wrapper_error="partial")
        assert outcome.partial is True
        assert outcome.skipped_wrappers == ("wdead",)
        assert self.dead.calls == 2  # the retry policy was honoured
        assert outcome.fetch_attempts["wdead"] == 2
        names = {row[0] for row in outcome.relation.rows}
        assert names == {f"wa thing {i}" for i in range(2)} | {
            f"wb thing {i}" for i in range(2)
        }
        partial_counter = isolated_metrics.counter("mdm_query_partial_total")
        assert partial_counter.value() == 1

    def test_skip_is_an_alias_for_partial(self):
        mdm = self.build(max_fetch_workers=4)
        outcome = mdm.execute(name_walk(mdm), on_wrapper_error="skip")
        assert outcome.partial is True
        assert outcome.skipped_wrappers == ("wdead",)

    def test_raise_mode_raises_the_wrapped_error(self, virtual_clock):
        mdm = self.build(
            max_fetch_workers=4,
            retry_policy=RetryPolicy(attempts=2),
        )
        with pytest.raises(WrapperFetchError) as exc:
            mdm.execute(name_walk(mdm))
        assert exc.value.wrapper_name == "wdead"

    def test_all_wrappers_failing_still_raises_in_partial_mode(self):
        mdm = union_mdm(
            [DeadWrapper("wd1", ["id", "name"]), DeadWrapper("wd2", ["id", "name"])],
            max_fetch_workers=4,
        )
        with pytest.raises(MdmError, match="every CQ depends"):
            mdm.execute(name_walk(mdm), on_wrapper_error="partial")

    def test_invalid_mode_is_rejected(self):
        mdm = self.build()
        with pytest.raises(ValueError):
            mdm.execute(name_walk(mdm), on_wrapper_error="explode")

    def test_timeout_degrades_to_partial_too(self, virtual_clock):
        hanging = HangingWrapper("whang", ["id", "name"], hang_s=10.0)
        mdm = union_mdm(
            [StaticWrapper("wa", ["id", "name"], rows_for("wa")), hanging],
            max_fetch_workers=4,
            retry_policy=RetryPolicy(attempts=2, timeout_s=0.05),
        )
        try:
            outcome = mdm.execute(name_walk(mdm), on_wrapper_error="partial")
        finally:
            hanging.released.set()
        assert outcome.partial
        assert outcome.skipped_wrappers == ("whang",)
