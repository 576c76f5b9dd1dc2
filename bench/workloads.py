"""The four workloads: what one pass builds, runs and checks.

A pass is a fixed amount of work.  It sets the scenario up from the seed
(timed as set-up, including the first, cold execution of each walk),
then runs a fixed number of operations in a closed loop and checks every
answer against :mod:`bench.oracles`.  :mod:`bench.run` repeats passes
until the run's time is spent, so every pass, on every commit, measures
the same work.

- ``paper_omq``: the paper's intro OMQ, league x nationality (a UCQ of
  13 CQs); one operation asks it of the anchor entities, then of the
  generated football data.  Plan-time work (stage-B optimization)
  dominates.
- ``scaled_join``: the same walk over 246 generated players, where
  fetch, decode and execution dominate instead.
- ``governance``: the steward's loop over the SUPERSEDE-style scenario.
  Every round analyses and applies a wrapper release and a retirement,
  revalidates the saved queries and runs them.  Each round bumps the
  metadata generation, so every cache goes cold, and the release
  history grows through the pass.
- ``service_mixed``: the HTTP service in its own process with the
  ``repro-mdm serve`` configuration, under two closed-loop client
  connections sending 95% queries and 5% source registrations.
"""

from __future__ import annotations

import gc
import http.client
import json
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.impact import WrapperRelease, WrapperRetirement, apply_change
from repro.rdf.namespaces import EX
from repro.scenarios.football import COUNTRY, LEAGUE, PLAYER, TEAM, FootballScenario
from repro.scenarios.supersede import SupersedeScenario
from repro.sources.datagen import FootballDataset

from bench import oracles
from bench.trace import Recorder, install

__all__ = ["WORKLOADS", "PassResult", "config_snapshot"]


@dataclass
class PassResult:
    """What one pass measured."""

    setup_s: float
    #: Latency of every operation, in seconds.
    latencies: List[float]
    #: Wall time of the closed loop (set-up excluded).
    loop_s: float
    attempted: int
    failed: int
    peak_rss_mb: float
    config: Dict[str, object]
    #: Documents in the metadata store's ``queries`` log after the pass.
    queries_docs: int
    #: :func:`reference_s` timed just before each operation.
    references: List[float]
    #: Median of :func:`reference_s` timed just before the set-up.
    setup_reference: float


def reference_s() -> float:
    """CPU time of a fixed slice of integer arithmetic on local variables.

    The slice allocates nothing and shares no lock or data with the
    program, and thread CPU time leaves out waits for the interpreter
    lock, so a change to the program does not change this time: the
    speed of the CPU running the benchmark does.  :mod:`bench.run`
    scales every time by it.
    """
    started = time.thread_time()
    total = 0
    for i in range(6000):
        total = (total + i * 7919) % 4093
    return time.thread_time() - started


def _setup_reference() -> float:
    return statistics.median(reference_s() for _ in range(7))


def config_snapshot(mdm) -> Dict[str, object]:
    """``MDM.execution_config()`` without the live statistics."""
    config = mdm.execution_config()
    del config["generation"], config["metadata_lock"]
    for cache in ("rewrite_cache", "result_cache", "wrapper_cache"):
        config[cache] = config[cache]["capacity"]
    return config


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def queries_docs(mdm) -> int:
    """Size of the query log the metadata store keeps."""
    return len(mdm.metadata.collection("queries"))


def _matches(expected, outcome) -> bool:
    relation = outcome.relation
    return oracles.matches(expected, relation.schema.names, relation.rows)


# ---------------------------------------------------------------------- #
# in-process workloads
# ---------------------------------------------------------------------- #


class _Queries:
    """One operation executes every ``(mdm, walk, expected)`` target once."""

    def __init__(self, targets) -> None:
        self.targets = targets
        self.mdms = [mdm for mdm, _, _ in targets]

    def cold(self) -> bool:
        return self.check(-1, self.op(-1))

    def op(self, i: int):
        return [mdm.execute(walk) for mdm, walk, _ in self.targets]

    def check(self, i: int, outcomes) -> bool:
        return all(
            _matches(expected, outcome)
            for (_, _, expected), outcome in zip(self.targets, outcomes)
        )


class _GovernanceRounds:
    """One steward round per operation."""

    ATTRIBUTES = ("id", "text", "sentiment", "followers", "productId")

    def __init__(self, seed: int) -> None:
        scenario = SupersedeScenario.build(seed=seed)
        self.mdm = scenario.mdm
        self.mdms = [self.mdm]
        self.walks = {
            "feedback_by_product": scenario.walk_feedback_by_product(),
            "metrics_by_product": scenario.walk_metrics_by_product(),
            "reviews": scenario.walk_reviews(),
        }
        self.expected = {
            name: getattr(oracles, name)(scenario.records) for name in self.walks
        }
        for name, walk in self.walks.items():
            self.mdm.saved_queries.save(name, walk)
        # Every release ships the same feedback rows under a new wrapper
        # version, so the answers never change while the history grows.
        self.rows = tuple(
            {
                "id": f["id"],
                "text": f["text"],
                "sentiment": f["sentiment"],
                "followers": f["user"]["followers"],
                "productId": f["product_id"],
            }
            for f in scenario.records["feedback"]
        )
        self.previous = "wFeedback"

    def cold(self) -> bool:
        return all(
            _matches(self.expected[name], self.mdm.execute(walk))
            for name, walk in self.walks.items()
        )

    def op(self, i: int):
        mdm = self.mdm
        release = WrapperRelease(
            source="twitter",
            wrapper=f"wFeedback_r{i}",
            attributes=self.ATTRIBUTES,
            rows=self.rows,
        )
        mdm.analyze_impact(release)
        apply_change(mdm, release)
        retirement = WrapperRetirement(self.previous)
        mdm.analyze_impact(retirement)
        apply_change(mdm, retirement)
        self.previous = release.wrapper
        revalidation = mdm.saved_queries.revalidate(execute=True)
        return revalidation, {
            name: mdm.execute(walk) for name, walk in self.walks.items()
        }

    def check(self, i: int, answer) -> bool:
        revalidation, outcomes = answer
        healthy = sorted(e.name for e in revalidation) == sorted(self.walks) and all(
            e.ok and e.rows == len(self.expected[e.name][1]) for e in revalidation
        )
        return healthy and all(
            _matches(self.expected[name], outcome) for name, outcome in outcomes.items()
        )


def _paper_omq(seed: int) -> _Queries:
    anchors = FootballScenario.build(anchors_only=True)
    generated = FootballScenario.build(seed=seed)
    return _Queries(
        [
            (
                anchors.mdm,
                anchors.walk_league_nationality(),
                oracles.ANCHOR_LEAGUE_NATIONALITY,
            ),
            (
                generated.mdm,
                generated.walk_league_nationality(),
                oracles.league_nationality(generated.data),
            ),
        ]
    )


#: Size of the ``scaled_join`` data: 6 + 40 x 6 = 246 players.
SCALED_TEAMS = 40
SCALED_PLAYERS_PER_TEAM = 6


def _scaled_join(seed: int) -> _Queries:
    scenario = FootballScenario.build(seed=seed)
    scaled = FootballDataset.generate(
        seed,
        extra_teams=SCALED_TEAMS,
        extra_players_per_team=SCALED_PLAYERS_PER_TEAM,
    )
    # The mock endpoints close over the scenario's dataset object and
    # read its lists on every request, so replacing them swaps the data.
    for collection in ("countries", "leagues", "teams", "players"):
        setattr(scenario.data, collection, getattr(scaled, collection))
    return _Queries(
        [
            (
                scenario.mdm,
                scenario.walk_league_nationality(),
                oracles.league_nationality(scaled),
            )
        ]
    )


class InProcess:
    """A workload run in the benchmark's own process, one client."""

    def __init__(self, name: str, setup, ops: Dict[str, int]) -> None:
        self.name = name
        self.setup = setup
        self.ops = ops

    def run_pass(
        self, seed: int, size: str, recorder: Optional[Recorder]
    ) -> PassResult:
        """Set up, run ``ops[size]`` operations, check every answer."""
        gc.collect()
        setup_reference = _setup_reference()
        started = time.perf_counter()
        fixture = self.setup(seed)
        cold_ok = fixture.cold()
        setup_s = time.perf_counter() - started
        attempted, failed = 1, int(not cold_ok)
        latencies: List[float] = []
        references: List[float] = []
        uninstall = install(recorder) if recorder is not None else None
        op_span = recorder.op if recorder is not None else nullcontext
        loop_started = time.perf_counter()
        try:
            for i in range(self.ops[size]):
                attempted += 1
                error: Optional[Exception] = None
                references.append(reference_s())
                with op_span():
                    began = time.perf_counter()
                    try:
                        answer = fixture.op(i)
                    except Exception as exc:  # noqa: BLE001 — counted as failed
                        error = exc
                    latencies.append(time.perf_counter() - began)
                if error is not None:
                    print(f"{self.name}: op {i} raised {error!r}", file=sys.stderr)
                    failed += 1
                elif not fixture.check(i, answer):
                    print(f"{self.name}: op {i} answered wrongly", file=sys.stderr)
                    failed += 1
            loop_s = time.perf_counter() - loop_started
        finally:
            if uninstall is not None:
                uninstall()
        return PassResult(
            setup_s=setup_s,
            latencies=latencies,
            loop_s=loop_s,
            attempted=attempted,
            failed=failed,
            peak_rss_mb=peak_rss_mb(),
            config=config_snapshot(fixture.mdms[-1]),
            queries_docs=sum(queries_docs(mdm) for mdm in fixture.mdms),
            references=references,
            setup_reference=setup_reference,
        )


# ---------------------------------------------------------------------- #
# the service workload
# ---------------------------------------------------------------------- #

#: The walks the service is asked, by oracle name.
SERVICE_WALKS = {
    "league_nationality": [PLAYER, EX.playerName, TEAM, LEAGUE, COUNTRY],
    "player_team_names": [PLAYER, EX.playerName, TEAM, EX.teamName],
    "single_concept": [
        PLAYER,
        EX.playerName,
        EX.height,
        EX.weight,
        EX.rating,
        EX.preferredFoot,
    ],
}
CHILD = Path(__file__).with_name("serve_child.py")


def _post(port: int, path: str, body) -> tuple:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request(
            "POST", path, json.dumps(body), {"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _answered(expected, status: int, payload) -> bool:
    return status == 200 and oracles.matches(
        expected, payload["columns"], payload["rows"]
    )


class Service:
    """The HTTP service in a child process, under two client connections."""

    name = "service_mixed"
    ops = {"full": 400, "smoke": 20}
    CLIENTS = 2
    #: Every twentieth request is a write; the walks of the rest are
    #: drawn from the seed.  Fixed write positions keep the share of
    #: result-cache hits, and so the latency distribution, the same
    #: across seeds.  With a write in ten, about half the requests
    #: missed the cache and the median swung between hits and misses.
    WRITE_EVERY = 20
    #: Distinct source names the writes cycle through.
    SOURCES = 8

    def requests(self, seed: int, count: int) -> list:
        """``(path, body, walk name or None)`` for every request, in order."""
        rng = random.Random(seed)
        requests = []
        for i in range(count):
            if i % self.WRITE_EVERY == self.WRITE_EVERY - 1:
                body = {"name": f"bench-source-{i // self.WRITE_EVERY % self.SOURCES}"}
                requests.append(("/sources", body, None))
            else:
                walk = rng.choice(sorted(SERVICE_WALKS))
                nodes = [node.value for node in SERVICE_WALKS[walk]]
                requests.append(("/query", {"nodes": nodes}, walk))
        return requests

    def run_pass(
        self, seed: int, size: str, recorder: Optional[Recorder]
    ) -> PassResult:
        """Serve the seed's football scenario and send it the request list.

        Set-up runs from spawning the server until its first correct
        answer.  A traced pass traces the server, whose spans and counts
        join ``recorder`` once the server stops.
        """
        data = FootballDataset.generate(seed)
        expected = {name: getattr(oracles, name)(data) for name in SERVICE_WALKS}
        requests = self.requests(seed, self.ops[size])
        gc.collect()
        setup_reference = _setup_reference()
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(CHILD), "--seed", str(seed)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            port = int(child.stdout.readline().split()[1])
            nodes = [node.value for node in SERVICE_WALKS["league_nationality"]]
            status, payload = _post(port, "/query", {"nodes": nodes})
            setup_s = time.perf_counter() - started
            failed = int(not _answered(expected["league_nationality"], status, payload))
            if recorder is not None:
                child.stdin.write("trace\n")
                child.stdin.flush()
                child.stdout.readline()
            loop = _ClosedLoop(port, requests, expected)
            loop_started = time.perf_counter()
            threads = [
                threading.Thread(target=loop.client, name=f"bench-client-{k}")
                for k in range(self.CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            loop_s = time.perf_counter() - loop_started
            child.stdin.write("stop\n")
            child.stdin.flush()
            summary = json.loads(child.stdout.readline())
            child.wait(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        failed += loop.failed
        if recorder is not None:
            counts = Counter(summary["counts"])
            if (counts["result_cache.lookups"], counts["result_cache.hits"]) != (
                loop.cache_lookups,
                loop.cache_hits,
            ):
                print(
                    f"{self.name}: the server counted {counts['result_cache.hits']} "
                    f"result-cache hits in {counts['result_cache.lookups']} lookups, "
                    f"the clients {loop.cache_hits} in {loop.cache_lookups}",
                    file=sys.stderr,
                )
                failed += 1
            recorder.absorb(summary["spans"], counts)
        return PassResult(
            setup_s=setup_s,
            latencies=loop.latencies,
            loop_s=loop_s,
            attempted=1 + len(requests),
            failed=failed,
            peak_rss_mb=summary["peak_rss_mb"],
            config=summary["config"],
            queries_docs=summary["queries_docs"],
            references=loop.references,
            setup_reference=setup_reference,
        )


class _ClosedLoop:
    """Clients that each send their next request once the last returned."""

    def __init__(self, port: int, requests: list, expected: dict) -> None:
        self.port = port
        self.requests = iter(requests)
        self.expected = expected
        self.latencies: List[float] = []
        self.references: List[float] = []
        self.failed = 0
        self.cache_lookups = 0
        self.cache_hits = 0
        self._lock = threading.Lock()

    def client(self) -> None:
        while True:
            with self._lock:
                request = next(self.requests, None)
            if request is None:
                return
            path, body, walk = request
            reference = reference_s()
            began = time.perf_counter()
            try:
                status, payload = _post(self.port, path, body)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                status, payload = 0, {"error": repr(exc)}
            latency = time.perf_counter() - began
            ok = status == 200 and (
                walk is None or _answered(self.expected[walk], status, payload)
            )
            with self._lock:
                self.latencies.append(latency)
                self.references.append(reference)
                if not ok:
                    self.failed += 1
                    print(f"service_mixed: {path} -> {status} {str(payload)[:200]}",
                          file=sys.stderr)
                if walk is not None and status == 200:
                    self.cache_lookups += 1
                    self.cache_hits += payload.get("result_cache") == "hit"


WORKLOADS = {
    "paper_omq": InProcess("paper_omq", _paper_omq, {"full": 50, "smoke": 2}),
    "scaled_join": InProcess("scaled_join", _scaled_join, {"full": 30, "smoke": 2}),
    "governance": InProcess("governance", _GovernanceRounds, {"full": 60, "smoke": 3}),
    "service_mixed": Service(),
}
