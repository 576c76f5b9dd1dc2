"""Seeded chaos harness: queries vs mutators vs failpoints, with an oracle.

``run_chaos(seed, steps)`` drives one MDM instance through a seeded
random interleaving of

* OMQ executions (``on_wrapper_error="skip"``),
* the nine metadata mutators (the same machine as
  ``tests/integration/test_result_cache_properties.py``), and
* failpoint arm/disarm steps — ``error`` on ``wrapper.fetch``,
  ``corrupt`` on ``wrapper.payload``, ``delay`` on ``retry.sleep``

and checks every query against a model-side oracle: the ids of the
mapped wrappers, minus broken ones (skipped branches), minus corrupted
ones (a corrupt single-row payload contributes nothing).  When *every*
mapped wrapper is broken the harness expects the documented
``MdmError`` ("every CQ depends on a failed wrapper").

Everything is deterministic by construction: the interleaving comes
from ``random.Random(seed)``, failpoint probability streams from the
registry's per-site ``Random(f"{seed}:{site}")``, retry backoff runs on
a :class:`~repro.chaos.clock.VirtualClock`, and fetches are serialized
(``max_fetch_workers=1``) so the trigger log has one possible order.
The returned digest (verdicts + ordered trigger log) must therefore be
bit-identical across runs of the same seed — which is exactly what the
tests assert.

The result cache stays OFF here on purpose: failpoints are not part of
the cache key, so a cached pre-failpoint outcome would falsify the
oracle without any real staleness bug.
"""

import random
from typing import Dict, List, Set, Tuple

from repro.chaos import FailpointRegistry, VirtualClock, set_failpoints, use_clock
from repro.core.errors import MdmError
from repro.core.global_graph import UmlClass, UmlModel
from repro.core.mdm import MDM
from repro.rdf.namespaces import Namespace
from repro.sources.wrappers import RetryPolicy, StaticWrapper

NS = Namespace("http://chaos.test/")

N_MUTATORS = 9

ACTIONS = (
    ("query", 40),
    ("mutate", 30),
    ("arm_error", 8),
    ("arm_corrupt", 8),
    ("arm_delay", 4),
    ("disarm", 10),
)


class ChaosMachine:
    """The nine-mutator machine, extended with failpoint bookkeeping."""

    def __init__(self, mdm: MDM, registry: FailpointRegistry, rng: random.Random):
        self.mdm = mdm
        self.registry = registry
        self.rng = rng
        self.mapped: Dict[str, int] = {"wA": 0}  # wrapper -> the id it serves
        self.unmapped: List[Tuple[str, int]] = []
        self.next_row = 1
        self.broken: Set[str] = set()  # wrapper.fetch=error armed
        self.corrupted: Set[str] = set()  # wrapper.payload=corrupt armed
        self.delay_armed = False

    # ------------------------------------------------------------------ #
    # the nine mutators (mirroring test_result_cache_properties.py)
    # ------------------------------------------------------------------ #

    def mutate(self, op_index: int, step: int) -> None:
        getattr(self, f"_op_{op_index}")(step)

    def _op_0(self, step: int) -> None:
        self.mdm.add_concept(NS[f"C{step}"])

    def _op_1(self, step: int) -> None:
        self.mdm.add_feature(NS[f"extra{step}"], NS.A)

    def _op_2(self, step: int) -> None:
        self.mdm.add_concept(NS[f"I{step}"])
        self.mdm.add_identifier(NS[f"idI{step}"], NS[f"I{step}"])

    def _op_3(self, step: int) -> None:
        self.mdm.add_concept(NS[f"R{step}"])
        self.mdm.relate(NS.A, NS[f"rel{step}"], NS[f"R{step}"])

    def _op_4(self, step: int) -> None:
        model = UmlModel(
            classes=[
                UmlClass(
                    f"U{step}",
                    NS[f"U{step}"],
                    ((f"uid{step}", NS[f"uid{step}"]),),
                    f"uid{step}",
                )
            ]
        )
        self.mdm.load_uml(model)

    def _op_5(self, step: int) -> None:
        self.mdm.register_source(f"src{step}")

    def _op_6(self, step: int) -> None:
        name = f"w{step}"
        row_id = self.next_row
        self.next_row += 1
        self.mdm.register_wrapper(
            "sA", StaticWrapper(name, ["id", "val"], [{"id": row_id, "val": f"a{row_id}"}])
        )
        self.unmapped.append((name, row_id))

    def _op_7(self, step: int) -> None:
        if not self.unmapped:
            self._op_6(step)
        name, row_id = self.unmapped.pop()
        self.mdm.define_mapping(name, {"id": NS.idA, "val": NS.valA})
        self.mapped[name] = row_id

    def _op_8(self, step: int) -> None:
        name = f"ws{step}"
        row_id = self.next_row
        self.next_row += 1
        self.mdm.register_wrapper(
            "sA", StaticWrapper(name, ["id", "val"], [{"id": row_id, "val": f"a{row_id}"}])
        )
        suggestion = self.mdm.suggest_mapping(name)
        assert suggestion.is_complete, suggestion
        self.mdm.apply_suggestion(suggestion)
        self.mapped[name] = row_id

    # ------------------------------------------------------------------ #
    # failpoint steps
    # ------------------------------------------------------------------ #

    def arm_error(self) -> None:
        name = self.rng.choice(sorted(self.mapped))
        self.registry.arm_spec(f"wrapper.fetch[{name}]=error")
        self.broken.add(name)

    def arm_corrupt(self) -> None:
        # Corrupting a broken wrapper is fine: the fetch error fires
        # first, and the corrupt point takes over if the error heals.
        name = self.rng.choice(sorted(self.mapped))
        self.registry.arm_spec(f"wrapper.payload[{name}]=corrupt")
        self.corrupted.add(name)

    def arm_delay(self) -> None:
        self.registry.arm_spec("retry.sleep=delay(0.05)")
        self.delay_armed = True

    def disarm(self) -> None:
        candidates: List[Tuple[str, str]] = [
            ("wrapper.fetch", n) for n in sorted(self.broken)
        ] + [("wrapper.payload", n) for n in sorted(self.corrupted)]
        if self.delay_armed:
            candidates.append(("retry.sleep", ""))
        if not candidates:
            return
        site, name = self.rng.choice(candidates)
        self.registry.disarm(site)
        if site == "wrapper.fetch":
            # disarm() removes the whole site: every broken wrapper heals
            # (each arm replaces the previous one at that site anyway —
            # the registry holds a single failpoint per site).
            self.broken.clear()
        elif site == "wrapper.payload":
            self.corrupted.clear()
        else:
            self.delay_armed = False

    # ------------------------------------------------------------------ #
    # the oracle
    # ------------------------------------------------------------------ #

    def query(self) -> Tuple:
        walk = self.mdm.walk_from_nodes([NS.A, NS.idA, NS.valA])
        # One failpoint per site: only the *latest* armed wrapper name is
        # live, so the effective broken/corrupted sets are singletons.
        live_broken = self._live("wrapper.fetch", self.broken)
        live_corrupt = self._live("wrapper.payload", self.corrupted)
        expected = {
            row_id
            for name, row_id in self.mapped.items()
            if name not in live_broken and name not in live_corrupt
        }
        if live_broken and live_broken >= set(self.mapped):
            try:
                self.mdm.execute(walk, on_wrapper_error="skip")
            except MdmError as exc:
                assert "every CQ depends on a failed wrapper" in str(exc)
                return ("all-failed", tuple(sorted(live_broken)))
            raise AssertionError(
                "query unexpectedly succeeded with every wrapper broken"
            )
        outcome = self.mdm.execute(walk, on_wrapper_error="skip")
        ids = {row[0] for row in outcome.relation.rows}
        assert ids == expected, (
            f"oracle mismatch: got {sorted(ids)}, expected {sorted(expected)} "
            f"(broken={sorted(live_broken)}, corrupted={sorted(live_corrupt)})"
        )
        assert set(outcome.skipped_wrappers) == live_broken
        assert outcome.partial is bool(live_broken)
        kind = "partial" if live_broken else "ok"
        return (kind, tuple(sorted(ids)), outcome.generation)

    def _live(self, site: str, armed_names: Set[str]) -> Set[str]:
        for point in self.registry.state()["armed"]:
            if point["site"] == site and point["key"] in armed_names:
                return {point["key"]}
        return set()


def run_chaos(seed: int, steps: int = 40) -> Dict[str, object]:
    """One full chaos run; returns a deterministic digest of everything
    observable: per-query verdicts, the ordered trigger log, the final
    generation and the total virtually slept backoff."""
    rng = random.Random(seed)
    registry = FailpointRegistry(seed=seed)
    set_failpoints(registry)
    try:
        with use_clock(VirtualClock()) as clock:
            mdm = MDM(
                result_cache_size=0,
                max_fetch_workers=1,
                retry_policy=RetryPolicy(attempts=2, backoff_base_s=0.01),
            )
            mdm.add_concept(NS.A)
            mdm.add_identifier(NS.idA, NS.A)
            mdm.add_feature(NS.valA, NS.A)
            mdm.register_source("sA")
            mdm.register_wrapper(
                "sA", StaticWrapper("wA", ["id", "val"], [{"id": 0, "val": "a0"}])
            )
            mdm.define_mapping("wA", {"id": NS.idA, "val": NS.valA})

            machine = ChaosMachine(mdm, registry, rng)
            population = [name for name, _ in ACTIONS]
            weights = [weight for _, weight in ACTIONS]
            verdicts: List[Tuple] = []
            for step in range(steps):
                action = rng.choices(population, weights)[0]
                if action == "query":
                    verdicts.append(machine.query())
                elif action == "mutate":
                    machine.mutate(rng.randrange(N_MUTATORS), step)
                elif action == "arm_error":
                    machine.arm_error()
                elif action == "arm_corrupt":
                    machine.arm_corrupt()
                elif action == "arm_delay":
                    machine.arm_delay()
                else:
                    machine.disarm()
            verdicts.append(machine.query())  # always end with a checked query
            return {
                "seed": seed,
                "steps": steps,
                "verdicts": tuple(verdicts),
                "triggers": tuple(
                    (e["seq"], e["site"], e["mode"], e["key"])
                    for e in registry.trigger_log()
                ),
                "generation": mdm.generation,
                "virtual_sleep": round(clock.total_slept, 6),
            }
    finally:
        registry.release()
        set_failpoints(None)
