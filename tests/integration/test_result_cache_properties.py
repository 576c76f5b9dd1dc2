"""Property: the result cache never serves a stale outcome.

Random interleavings of the nine metadata mutators (``add_concept``,
``add_feature``, ``add_identifier``, ``relate``, ``load_uml``,
``register_source``, ``register_wrapper``, ``define_mapping``,
``apply_suggestion``) with cached executes — after every mutation, a
cached execute (and a forced cache *hit*) must return exactly the rows
of a from-scratch execution with all caches bypassed.  This mirrors the
rewrite-cache coherence properties in ``test_rewriting_properties.py``,
extended from plans to rows: the only invalidation signal the result
cache has is the generation, so every mutation moving it is precisely
what keeps these assertions true.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.global_graph import UmlClass, UmlModel
from repro.core.mdm import MDM
from repro.rdf.namespaces import Namespace
from repro.sources.wrappers import StaticWrapper

NS = Namespace("http://rcprop.test/")

N_MUTATORS = 9


def build_base_mdm():
    """Concept A (idA + valA) answered by mapped wrapper wA (row 0)."""
    mdm = MDM(result_cache_size=32)
    mdm.add_concept(NS.A)
    mdm.add_identifier(NS.idA, NS.A)
    mdm.add_feature(NS.valA, NS.A)
    mdm.register_source("sA")
    mdm.register_wrapper(
        "sA", StaticWrapper("wA", ["id", "val"], [{"id": 0, "val": "a0"}])
    )
    mdm.define_mapping("wA", {"id": NS.idA, "val": NS.valA})
    return mdm


class MutatorMachine:
    """Applies one of the nine mutators per step, keeping its own state
    (unmapped wrappers, row counter) so every step is always legal."""

    def __init__(self, mdm: MDM):
        self.mdm = mdm
        self.unmapped = []  # wrapper names registered but not yet mapped
        self.next_row = 1

    def apply(self, op_index: int, step: int) -> None:
        getattr(self, f"_op_{op_index}")(step)

    # Each op moves the generation; only some change the walk's answer.

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
                    f"U{step}", NS[f"U{step}"], ((f"uid{step}", NS[f"uid{step}"]),), f"uid{step}"
                )
            ]
        )
        self.mdm.load_uml(model)

    def _op_5(self, step: int) -> None:
        self.mdm.register_source(f"src{step}")

    def _op_6(self, step: int) -> None:
        name = f"w{step}"
        row = {"id": self.next_row, "val": f"a{self.next_row}"}
        self.next_row += 1
        self.mdm.register_wrapper(
            "sA", StaticWrapper(name, ["id", "val"], [row])
        )
        self.unmapped.append(name)

    def _op_7(self, step: int) -> None:
        if not self.unmapped:
            self._op_6(step)  # nothing to map yet: register one first
        name = self.unmapped.pop()
        self.mdm.define_mapping(name, {"id": NS.idA, "val": NS.valA})

    def _op_8(self, step: int) -> None:
        # Evolution + semi-automatic accommodation: the new wrapper on
        # sA reuses the attribute IRIs, so the suggestion carries the
        # sameAs links of wA's mapping and applies completely.
        name = f"ws{step}"
        row = {"id": self.next_row, "val": f"a{self.next_row}"}
        self.next_row += 1
        self.mdm.register_wrapper(
            "sA", StaticWrapper(name, ["id", "val"], [row])
        )
        suggestion = self.mdm.suggest_mapping(name)
        assert suggestion.is_complete, suggestion
        self.mdm.apply_suggestion(suggestion)


@given(
    ops=st.lists(
        st.integers(min_value=0, max_value=N_MUTATORS - 1),
        min_size=1,
        max_size=10,
    )
)
@settings(max_examples=20, deadline=None)
def test_result_cache_never_serves_stale_rows(ops):
    mdm = build_base_mdm()
    machine = MutatorMachine(mdm)
    walk = mdm.walk_from_nodes([NS.A, NS.idA, NS.valA])
    # Prime the cache before any interleaving, and force a hit.
    assert mdm.execute(walk).result_cache == "miss"
    assert mdm.execute(walk).result_cache == "hit"
    for step, op_index in enumerate(ops):
        machine.apply(op_index, step)
        cached = mdm.execute(walk)  # fills at the new generation
        hit = mdm.execute(walk)  # must be served from the cache
        fresh = mdm.execute(walk, use_cache=False)  # ground truth
        assert hit.result_cache == "hit"
        assert fresh.result_cache == "bypass"
        assert cached.generation == hit.generation == fresh.generation
        assert set(cached.relation.rows) == set(fresh.relation.rows), (
            f"stale cached rows after mutator {op_index} at step {step}"
        )
        assert set(hit.relation.rows) == set(fresh.relation.rows), (
            f"stale cache hit after mutator {op_index} at step {step}"
        )


@given(
    ops=st.lists(
        st.integers(min_value=0, max_value=N_MUTATORS - 1),
        min_size=2,
        max_size=8,
    )
)
@settings(max_examples=10, deadline=None)
def test_every_mutator_invalidates_the_cached_entry(ops):
    """After any mutator, the next execute is a miss — never a hit on a
    pre-mutation entry (the invalidation is the generation key)."""
    mdm = build_base_mdm()
    machine = MutatorMachine(mdm)
    walk = mdm.walk_from_nodes([NS.A, NS.idA, NS.valA])
    mdm.execute(walk)
    for step, op_index in enumerate(ops):
        generation_before = mdm.generation
        machine.apply(op_index, step)
        assert mdm.generation > generation_before
        outcome = mdm.execute(walk)
        assert outcome.result_cache == "miss"
        assert outcome.generation == mdm.generation
