"""Compiled LAV views: built once per metadata state, never served stale.

:class:`LavMappingStore` keeps every wrapper's :class:`MappingView`
under the stamp of the dataset it reads.  Whatever changed it — one of
the nine MDM mutators, or a direct graph edit that no mutator sees —
the next ``views()`` / ``view(w)`` must equal a fresh build.
"""

import sys
import threading
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.impact import WrapperRetirement, apply_change
from repro.core import lav
from repro.core.errors import MappingError, MdmError
from repro.core.lav import LavMappingStore, MappingView
from repro.core.vocabulary import G
from repro.rdf.namespaces import EX, OWL, RDF
from repro.rdf.terms import Triple
from repro.scenarios.football import FootballScenario
from repro.sources.wrappers import StaticWrapper
from tests.integration.test_result_cache_properties import (
    N_MUTATORS,
    NS,
    MutatorMachine,
    build_base_mdm,
)


def fresh_views(mdm):
    """Every view built from scratch by a store that has compiled nothing."""
    return LavMappingStore(mdm.dataset, mdm.global_graph, mdm.source_graph).views()


def assert_views_fresh(mdm):
    expected = fresh_views(mdm)
    assert mdm.mappings.views() == expected
    for view in expected:
        assert mdm.mappings.view(view.wrapper) == view
    mapped = {view.wrapper for view in expected}
    for wrapper in mdm.source_graph.wrappers():
        if wrapper not in mapped:
            with pytest.raises(MappingError):
                mdm.mappings.view(wrapper)


EDITS = ("add", "remove", "clear", "remove_graph", "redefine")


class EditingMachine(MutatorMachine):
    """The nine mutators plus graph edits made behind the MDM's back.

    An edit changes the graphs through no mutator, as the shadow,
    ``apply_change``, tests and embedders may, and still moves the
    generation; a later mutator may then be invalid, and its
    :class:`MdmError` is part of the run.
    """

    def step(self, op_index: int, step: int, pick: int) -> None:
        try:
            if op_index < N_MUTATORS:
                self.apply(op_index, step)
                return
            generation, quads = self.mdm.generation, self._quads()
            getattr(self, f"_edit_{EDITS[op_index - N_MUTATORS]}")(step, pick)
            if self._quads() != quads:
                assert self.mdm.generation > generation
        except MdmError:
            pass

    def _quads(self):
        dataset = self.mdm.dataset
        return set(dataset.graph_names()), set(dataset.quads())

    def _op_8(self, step: int) -> None:
        # As in MutatorMachine, minus its completeness assertion: an edit
        # may have removed what the suggestion would carry over.
        name = f"ws{step}"
        row = {"id": self.next_row, "val": f"a{self.next_row}"}
        self.next_row += 1
        self.mdm.register_wrapper("sA", StaticWrapper(name, ["id", "val"], [row]))
        self.mdm.apply_suggestion(self.mdm.suggest_mapping(name))

    def _mapped(self, pick: int):
        mapped = self.mdm.mappings.mapped_wrappers()
        return mapped[pick % len(mapped)] if mapped else None

    def _edit_add(self, step: int, pick: int) -> None:
        # A new concept related to A inside a contour: the view gains an edge.
        wrapper = self._mapped(pick)
        if wrapper is not None:
            concept = NS[f"E{step}"]
            self.mdm.global_graph.graph.add((concept, RDF.type, G.Concept))
            self.mdm.dataset.graph(wrapper).add((NS.A, NS[f"to{step}"], concept))

    def _edit_remove(self, step: int, pick: int) -> None:
        # Drop one triple a view reads: a concept declaration, a sameAs
        # link or a contour triple.
        graphs = [
            (self.mdm.global_graph.graph, (None, RDF.type, G.Concept)),
            (self.mdm.source_graph.graph, (None, OWL.sameAs, None)),
        ] + [
            (self.mdm.dataset.graph(w), (None, None, None))
            for w in self.mdm.mappings.mapped_wrappers()
        ]
        candidates = [
            (graph, triple)
            for graph, pattern in graphs
            for triple in sorted(graph.triples(pattern), key=Triple.n3)
        ]
        if candidates:
            graph, triple = candidates[pick % len(candidates)]
            graph.remove(triple)

    def _edit_clear(self, step: int, pick: int) -> None:
        wrapper = self._mapped(pick)
        if wrapper is not None:
            self.mdm.dataset.graph(wrapper).clear()

    def _edit_remove_graph(self, step: int, pick: int) -> None:
        wrapper = self._mapped(pick)
        if wrapper is not None:
            self.mdm.dataset.remove_graph(wrapper)

    def _edit_redefine(self, step: int, pick: int) -> None:
        # Through the store itself, bypassing MDM.define_mapping: the
        # contour shrinks to A's identifier, so the view loses valA.
        wrapper = self._mapped(pick)
        if wrapper is None:
            return
        attributes = {
            self.mdm.source_graph.attribute_name(a): a
            for a in self.mdm.source_graph.attributes_of(wrapper)
        }
        self.mdm.mappings.define(
            wrapper,
            [Triple(NS.A, G.hasFeature, NS.idA)],
            {attributes["id"]: NS.idA},
        )


@given(
    steps=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=N_MUTATORS + len(EDITS) - 1),
            st.integers(min_value=0, max_value=50),
        ),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=40, deadline=None)
def test_views_equal_a_fresh_build_after_every_step(steps):
    mdm = build_base_mdm()
    machine = EditingMachine(mdm)
    assert_views_fresh(mdm)
    for step, (op_index, pick) in enumerate(steps):
        machine.step(op_index, step, pick)
        assert_views_fresh(mdm)


@pytest.fixture
def football():
    scenario = FootballScenario.build(anchors_only=True)
    walks = {
        "league-nat": scenario.walk_league_nationality(),
        "player-team": scenario.walk_player_team_names(),
        "single": scenario.walk_single_concept(),
    }
    for name, walk in walks.items():
        scenario.mdm.saved_queries.save(name, walk)
    return scenario.mdm


def test_revalidate_builds_each_view_once(football, monkeypatch):
    built = Counter()

    class CountingView(MappingView):
        def __init__(self, **fields):
            built[fields["wrapper"]] += 1
            super().__init__(**fields)

    monkeypatch.setattr(lav, "MappingView", CountingView)
    football.add_concept(EX.Stadium)  # a new metadata state: views cold
    entries = football.saved_queries.revalidate()
    assert len(entries) == 3 and all(e.ok for e in entries)
    assert built == Counter(football.mappings.mapped_wrappers())
    football.saved_queries.revalidate()
    football.register_source("players")  # graphs untouched: the views stay compiled
    football.saved_queries.revalidate()
    assert built == Counter(football.mappings.mapped_wrappers())


def test_views_are_shared_read_only(football):
    view = football.mappings.views()[0]
    with pytest.raises(TypeError):
        view.feature_attributes[EX.extra] = "extra"
    assert football.mappings.view(view.wrapper) is view


def test_concurrent_readers_see_the_views_of_their_generation():
    """8 readers rewrite and read views while a writer releases and
    retires wrappers; more threads than cores, switching every 1 µs."""
    mdm = build_base_mdm()
    walk = mdm.walk_from_nodes([NS.A, NS.idA, NS.valA])
    expected = {mdm.generation: fresh_views(mdm)}
    seen = []
    errors = []
    done = threading.Event()

    def writer():
        previous = "wA"
        try:
            for i in range(12):
                with mdm.metadata_lock.write_locked():
                    name = f"wr{i}"
                    mdm.register_wrapper(
                        "sA", StaticWrapper(name, ["id", "val"], [{"id": i, "val": "v"}])
                    )
                    mdm.define_mapping(name, {"id": NS.idA, "val": NS.valA})
                    apply_change(mdm, WrapperRetirement(previous))
                    previous = name
                    expected[mdm.generation] = fresh_views(mdm)
                # Let the readers observe this generation before the next.
                target, deadline = len(seen) + 8, time.monotonic() + 5
                while len(seen) < target and time.monotonic() < deadline:
                    time.sleep(0.001)
        except BaseException as exc:  # surfaced by the main thread
            errors.append(exc)
        finally:
            done.set()

    def reader():
        try:
            while not done.is_set():
                with mdm.metadata_lock.read_locked():
                    generation = mdm.generation
                    result = mdm.rewriter.rewrite(walk)
                    views = mdm.mappings.views()
                    each = [mdm.mappings.view(v.wrapper) for v in views]
                assert result.ucq_size > 0
                seen.append((generation, views, each))
        except BaseException as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader) for _ in range(8)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert len({generation for generation, _, _ in seen}) > 1
    for generation, views, each in seen:
        assert views == each == expected[generation]
