"""Governance at the cost of the change.

Under LAV a release adds one wrapper's mapping and a retirement removes
one; the global graph stays as it was.  So a steward round compiles only
the views of the wrappers it maps (:class:`LavMappingStore` keys each
view by what its compile reads), and its rewrites reuse each walk's
phase (a) (the rewrite cache's ``expansions`` map, keyed by the global
graph and its bindings).  These tests count that work, and check against
from-scratch builds that neither shortcut serves a view or a rewrite the
metadata no longer supports.
"""

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.impact import (
    WrapperRelease,
    WrapperRetirement,
    apply_change,
    shadow_mdm,
)
from repro.core.errors import MdmError, WalkError
from repro.core.global_graph import GlobalGraph
from repro.core.lav import LavMappingStore
from repro.core.mdm import MDM
from repro.core.rewriting import Rewriter
from repro.core.vocabulary import S
from repro.core.walks import FilterCondition, Walk
from repro.obs import get_metrics
from repro.rdf.namespaces import OWL, RDFS, Namespace
from repro.rdf.terms import Literal, Triple
from repro.scenarios.football import FootballScenario
from repro.sources.wrappers import StaticWrapper
from tests.core.test_rewrite_inputs import counting, governed, release

# --- one steward round, counted ------------------------------------------ #


def steward_round(mdm, wrapper, previous):
    """Analyse and apply a release, then the retirement of ``previous``,
    then revalidate and run the saved queries, as the benchmark does."""
    change = release(wrapper)
    mdm.analyze_impact(change)
    apply_change(mdm, change)
    retirement = WrapperRetirement(previous)
    mdm.analyze_impact(retirement)
    apply_change(mdm, retirement)
    return mdm.saved_queries.revalidate(execute=True)


def test_a_steward_round_compiles_two_views_and_renders_no_sparql():
    mdm, walks = governed()
    steward_round(mdm, "wFeedback_r1", "wFeedback")  # warm-up
    compiles = get_metrics().counter("mdm_lav_view_compiles_total")
    before = compiles.value()
    with counting(LavMappingStore, "_compile") as compiled, counting(
        Walk, "to_sparql"
    ) as rendered, counting(Rewriter, "rewrite") as rewritten:
        report = steward_round(mdm, "wFeedback_r2", "wFeedback_r1")
    assert sorted(entry.name for entry in report) == sorted(walks)
    assert all(entry.ok for entry in report)
    # The shadow's copy of the release and the live one: one view each.
    assert len(compiled) <= 2
    assert compiles.value() - before == len(compiled)
    assert rendered == []
    # Three walks before the release and three after it; the retirement
    # and the revalidation find the shadows' rewrites.
    assert len(rewritten) == 6


def test_the_stores_hold_only_what_is_current():
    mdm, walks = governed()
    previous = "wFeedback"
    for i in range(1, 6):
        steward_round(mdm, f"wFeedback_r{i}", previous)
        previous = f"wFeedback_r{i}"
    mdm.mappings.views()
    assert list(mdm.mappings._compiled[1]) == mdm.mappings.mapped_wrappers()
    cache = mdm.rewrite_cache
    # One expansion per walk: the rounds never touched the global graph.
    assert len(cache.expansions) == len(walks)
    cache.resize(2)
    assert len(cache.expansions) == 2
    cache.clear()
    assert len(cache.expansions) == 0
    assert shadow_mdm(mdm).rewrite_cache.expansions is cache.expansions


def test_a_walk_that_fails_validation_is_kept_nowhere():
    mdm, _ = governed()
    walk = Walk.build(concepts=[Namespace("http://nowhere.test/").C])
    with counting(Walk, "validate") as validated:
        for _ in range(2):
            with pytest.raises(WalkError):
                mdm.rewrite(walk)
    assert len(validated) == 2
    assert len(mdm.rewrite_cache.expansions) == 0


def test_the_fetch_helper_gauge_counts_the_live_helpers():
    scenario = FootballScenario.build(anchors_only=True)
    mdm = scenario.mdm
    mdm.configure_execution(max_fetch_workers=4)
    walk = scenario.walk_league_nationality()
    for _ in range(50):
        mdm.execute(walk)
    gauge = get_metrics().gauge("mdm_fetch_helpers")

    def live():
        return sum(t.name.startswith("mdm-fetch") for t in threading.enumerate())

    # A thread just started counts itself once it runs its initializer.
    deadline = time.monotonic() + 5
    while gauge.value() != live() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert gauge.value() == live() > 0


# --- random metadata histories against from-scratch builds --------------- #

NS = Namespace("http://govcost.test/")
OTHER = Namespace("http://govcost-other.test/")


def build_mdm():
    """Concepts A and B (related by toB), wrapper wA over A and the
    relation, wB over B."""
    mdm = MDM()
    for concept, identifier, feature in ((NS.A, NS.idA, NS.valA), (NS.B, NS.idB, NS.valB)):
        mdm.add_concept(concept)
        mdm.add_identifier(identifier, concept)
        mdm.add_feature(feature, concept)
    mdm.relate(NS.A, NS.toB, NS.B)
    mdm.register_source("s")
    mdm.register_wrapper("s", StaticWrapper("wA", ["id", "val", "b"], []))
    mdm.define_mapping(
        "wA", {"id": NS.idA, "val": NS.valA, "b": NS.idB}, [(NS.A, NS.toB, NS.B)]
    )
    mdm.register_source("t")
    mdm.register_wrapper("t", StaticWrapper("wB", ["id", "val"], []))
    mdm.define_mapping("wB", {"id": NS.idB, "val": NS.valB})
    return mdm


WALKS = (
    Walk.build(concepts=[NS.A], features=[NS.valA]),
    Walk.build(
        concepts=[NS.A, NS.B],
        features=[NS.valA, NS.valB],
        edges=[(NS.A, NS.toB, NS.B)],
    ),
    Walk.build(
        concepts=[NS.A],
        features=[NS.valA],
        filters=[FilterCondition(NS.valA, "=", "x")],
    ),
    # Invalid until a history adds the feature.
    Walk.build(concepts=[NS.A], features=[NS.late]),
)

#: Per source: the features a new wrapper's ``id`` and ``val`` map to.
FEATURES = {"s": (NS.idA, NS.valA), "t": (NS.idB, NS.valB)}


def outcome(call, *args):
    """What ``call`` returns, or the type and text of what it raises.

    A history may leave metadata no view can be compiled from (an
    attribute with two labels makes ``Graph.value`` raise): both sides
    must then fail alike."""
    try:
        return call(*args)
    except (MdmError, ValueError) as exc:
        return type(exc), str(exc)


def assert_fresh(mdm):
    """Views and rewrites equal those of a store and a rewriter that
    have compiled and kept nothing."""
    store = LavMappingStore(mdm.dataset, mdm.global_graph, mdm.source_graph)
    views = outcome(store.views)
    assert outcome(mdm.mappings.views) == views
    assert outcome(mdm.mappings.views_value) == outcome(store.views_value)
    rewriter = Rewriter(
        GlobalGraph(mdm.global_graph.graph),
        store,
        mdm.rewriter.max_cover_size,
        mdm.rewriter.minimize,
    )
    for walk in WALKS:
        expected = outcome(rewriter.rewrite, walk)
        assert outcome(mdm.rewriter.rewrite, walk) == expected
        # The rewrite cache reads the views before the walk, so it fails
        # otherwise when they do not compile.
        if isinstance(views, list):
            assert outcome(mdm.rewrite, walk) == expected


class History:
    """One metadata change per step, picked by ``(op, pick)``."""

    OPS = (
        "register",
        "map",
        "retire",
        "relabel",
        "same_as",
        "global_graph",
        "rebind",
        "restore",
        "shadow",
    )

    def __init__(self, mdm):
        self.mdm = mdm
        self.unmapped = []  # (wrapper name, source name)

    def step(self, op, step, pick):
        try:
            getattr(self, f"_{self.OPS[op]}")(step, pick)
        except (MdmError, ValueError):
            pass  # an earlier edit may make a later change invalid

    def _attributes(self):
        graph = self.mdm.source_graph.graph
        return sorted({o for o in graph.objects(None, S.hasAttribute)}, key=str)

    def _register(self, step, pick):
        source = "st"[pick % 2]
        name = f"w{step}"
        self.mdm.register_wrapper(source, StaticWrapper(name, ["id", "val"], []))
        self.unmapped.append((name, source))

    def _map(self, step, pick):
        if not self.unmapped:
            self._register(step, pick)
        name, source = self.unmapped.pop()
        identifier, feature = FEATURES[source]
        self.mdm.define_mapping(name, {"id": identifier, "val": feature})

    def _retire(self, step, pick):
        mapped = self.mdm.mappings.mapped_wrappers()
        if mapped:
            wrapper = mapped[pick % len(mapped)]
            name = self.mdm.source_graph.wrapper_name(wrapper)
            apply_change(self.mdm, WrapperRetirement(name))

    def _relabel(self, step, pick):
        attributes = self._attributes()
        if attributes:
            attribute = attributes[pick % len(attributes)]
            graph = self.mdm.source_graph.graph
            graph.remove_pattern((attribute, RDFS.label, None))
            graph.add((attribute, RDFS.label, Literal(f"a{step}")))

    def _same_as(self, step, pick):
        graph = self.mdm.source_graph.graph
        links = sorted(graph.triples((None, OWL.sameAs, None)), key=Triple.n3)
        if pick % 2 and links:
            graph.remove(links[pick % len(links)])
            return
        attributes = self._attributes()
        features = self.mdm.global_graph.features()
        if attributes:
            graph.add(
                (
                    attributes[pick % len(attributes)],
                    OWL.sameAs,
                    features[pick % len(features)],
                )
            )

    def _global_graph(self, step, pick):
        mdm = self.mdm
        if pick % 3 == 0:
            mdm.add_feature(NS.late, NS.A)
        elif pick % 3 == 1:
            mdm.add_feature(NS[f"f{step}"], NS.B)
        else:
            mdm.add_concept(NS[f"Sub{step}"])
            mdm.global_graph.add_subclass(NS[f"Sub{step}"], NS.A)

    def _rebind(self, step, pick):
        self.mdm.dataset.namespaces.bind("gc", (NS, OTHER)[pick % 2])

    def _restore(self, step, pick):
        # Change one graph, use it, and take the saved state back: a
        # restore must bring back the views and rewrites of that state.
        graph = (self.mdm.source_graph.graph, self.mdm.global_graph.graph)[pick % 2]
        saved = graph.copy()
        if graph is self.mdm.global_graph.graph:
            self._global_graph(step, pick)
        else:
            self._same_as(step, pick + 1)
            self._relabel(step, pick)
        assert_fresh(self.mdm)
        graph.restore(saved)

    def _shadow(self, step, pick):
        shadow = shadow_mdm(self.mdm)
        mapped = self.mdm.mappings.mapped_wrappers()
        if pick % 2 and mapped:
            wrapper = mapped[pick % len(mapped)]
            change = WrapperRetirement(self.mdm.source_graph.wrapper_name(wrapper))
        else:
            identifier, feature = FEATURES["st"[pick % 2]]
            change = WrapperRelease(
                source="st"[pick % 2],
                wrapper=f"wr{step}",
                attributes=("id", "val"),
                map_attributes={"id": identifier, "val": feature},
            )
        apply_change(shadow, change)
        assert_fresh(shadow)


@given(
    steps=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=len(History.OPS) - 1),
            st.integers(min_value=0, max_value=50),
        ),
        min_size=1,
        max_size=10,
    )
)
@settings(max_examples=40, deadline=None)
def test_views_and_rewrites_equal_fresh_builds_after_every_change(steps):
    mdm = build_mdm()
    history = History(mdm)
    assert_fresh(mdm)
    for step, (op, pick) in enumerate(steps):
        history.step(op, step, pick)
        assert_fresh(mdm)
