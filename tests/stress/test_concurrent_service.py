"""Stress: 8 query threads racing 2 mutator threads through the service.

The torn-read oracle: the metadata only evolves by *mutation steps*
(register source -> register wrapper -> define mapping, three write-locked
mutators), and every step's effect on the answer set of the probe walk is
known exactly.  Mutator threads read the generation after each mutator
and record the expected answer set under it; every concurrent query
reports the generation it executed under (exact, because ``execute``
holds the read lock end to end), so each response must equal the
expected set *at its own generation* — a response mixing pre- and
post-mutation metadata has no generation whose expectation it matches.

The result cache runs enabled throughout, so cache hits are held to the
same oracle as fresh executions.
"""

import itertools
import json
import threading
import time

import pytest

from repro.core.mdm import MDM
from repro.rdf.namespaces import Namespace
from repro.service.api import MdmService

pytestmark = pytest.mark.slow

NS = Namespace("http://stress.test/")

QUERY_THREADS = 8
MUTATOR_THREADS = 2
RUN_SECONDS = 2.0


def _mutation_step(service: MdmService, idx: int, then=lambda: None) -> None:
    """One metadata release: a new source/wrapper/mapping serving row idx.

    ``then`` runs after each of the first two requests.
    """
    response = service.request("POST", "/sources", {"name": f"s{idx}"})
    assert response.status == 200, response.body
    then()
    response = service.request(
        "POST",
        f"/sources/s{idx}/wrappers",
        {
            "name": f"w{idx}",
            "attributes": ["id", "val"],
            "rows": [{"id": idx, "val": f"v{idx}"}],
        },
    )
    assert response.status == 200, response.body
    then()
    response = service.request(
        "POST",
        f"/wrappers/w{idx}/mapping",
        {"features": {"id": NS.id.value, "val": NS.val.value}},
    )
    assert response.status == 200, response.body


def build_service() -> MdmService:
    """One concept (id + val), wrapper w0 serving row 0, cache enabled."""
    mdm = MDM(result_cache_size=64)
    mdm.add_concept(NS.C)
    mdm.add_identifier(NS.id, NS.C)
    mdm.add_feature(NS.val, NS.C)
    service = MdmService(mdm)
    _mutation_step(service, 0)
    return service


class TestConcurrentService:
    def test_queries_race_mutators_without_torn_reads(self):
        service = build_service()
        mdm = service.mdm
        nodes = [NS.C.value, NS.id.value, NS.val.value]

        #: generation -> the exact answer set (as mapped row ids) any
        #: query executed at that generation must return.
        expected_by_gen = {}
        mutation_lock = threading.Lock()
        mapped_ids = {0}
        step_counter = itertools.count(1)
        stop = threading.Event()
        failures = []
        #: (generation, serialized rows, row-id set) per query response.
        observations = []
        observations_lock = threading.Lock()

        start_gen = mdm.generation
        expected_by_gen[start_gen] = frozenset(mapped_ids)

        def record(answer: frozenset) -> None:
            """Key ``answer`` by the generation of the metadata as it is
            now: no other mutator runs, so queries see this state too."""
            expected_by_gen[mdm.generation] = answer

        def mutator(thread_id: int) -> None:
            try:
                while not stop.is_set():
                    # Steps are serialized test-side so each checkpoint's
                    # generation is exact; each step still races all eight
                    # query threads, which is what this test is about.
                    with mutation_lock:
                        idx = next(step_counter)
                        before = frozenset(mapped_ids)
                        # A registered-but-unmapped wrapper contributes no
                        # CQ, so the answer set is unchanged until the
                        # mapping lands.
                        _mutation_step(service, idx, then=lambda: record(before))
                        mapped_ids.add(idx)
                        record(frozenset(mapped_ids))
                    time.sleep(0.01)
            except Exception as exc:  # noqa: BLE001 — assert at the end
                failures.append(f"mutator {thread_id}: {type(exc).__name__}: {exc}")

        def querier(thread_id: int) -> None:
            try:
                while not stop.is_set():
                    response = service.request(
                        "POST", "/query", {"nodes": nodes}
                    )
                    if response.status != 200:
                        failures.append(
                            f"querier {thread_id}: status {response.status}: "
                            f"{response.body}"
                        )
                        continue
                    payload = response.body
                    rows = payload["rows"]
                    row_ids = frozenset(
                        value
                        for row in rows
                        for value in row
                        if isinstance(value, int)
                    )
                    with observations_lock:
                        observations.append(
                            (
                                payload["generation"],
                                json.dumps(rows, sort_keys=True),
                                row_ids,
                            )
                        )
            except Exception as exc:  # noqa: BLE001 — assert at the end
                failures.append(f"querier {thread_id}: {type(exc).__name__}: {exc}")

        threads = [
            threading.Thread(target=mutator, args=(i,), name=f"mutator-{i}")
            for i in range(MUTATOR_THREADS)
        ] + [
            threading.Thread(target=querier, args=(i,), name=f"querier-{i}")
            for i in range(QUERY_THREADS)
        ]
        for thread in threads:
            thread.start()
        time.sleep(RUN_SECONDS)
        stop.set()
        for thread in threads:
            thread.join()

        assert not failures, failures[:10]
        assert observations, "query threads recorded nothing"
        assert max(expected_by_gen) > start_gen, "mutators made no progress"

        # (1) no torn reads: every response matches the expected answer
        # set at exactly the generation it executed under.
        for generation, _, row_ids in observations:
            assert generation in expected_by_gen, (
                f"query saw unknown generation {generation}"
            )
            assert row_ids == expected_by_gen[generation], (
                f"torn read at generation {generation}: got {sorted(row_ids)}, "
                f"expected {sorted(expected_by_gen[generation])}"
            )

        # (2) identical walks at the same generation are byte-identical.
        serialized_by_gen = {}
        for generation, blob, _ in observations:
            serialized_by_gen.setdefault(generation, set()).add(blob)
        divergent = {
            generation: blobs
            for generation, blobs in serialized_by_gen.items()
            if len(blobs) > 1
        }
        assert not divergent, f"non-deterministic responses: {divergent}"

        # (3) the cache hit path is exercised and held to the oracle.
        # Whether the *race* produced hits is a coin flip (a hit needs
        # two queries inside one ~10ms generation window), so force a
        # deterministic same-generation pair now that the mutators have
        # stopped: the second response must be a cache hit and byte-
        # identical to the first.
        hits_before = mdm.result_cache.hits
        first = service.request("POST", "/query", {"nodes": nodes})
        second = service.request("POST", "/query", {"nodes": nodes})
        assert first.status == second.status == 200
        assert first.body["generation"] == second.body["generation"]
        assert json.dumps(first.body["rows"], sort_keys=True) == json.dumps(
            second.body["rows"], sort_keys=True
        )
        assert mdm.result_cache.hits > hits_before
