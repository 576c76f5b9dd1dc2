"""Differential proof: federated pushdown never changes an answer.

``MDM.execute`` sorts results canonically, so with pushdown on vs off
the whole :class:`Relation` — schema names, attribute types, row order,
cell values — must be byte-identical.  These tests drive randomized
chain ontologies, filtered walks, mixed capable/uncapable wrapper sets,
the supersede scenario, partial failures and the generation-keyed
wrapper cache through both modes and compare exactly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mdm import MDM
from repro.core.walks import FilterCondition
from repro.scenarios.supersede import SUP, SupersedeScenario
from repro.sources.wrappers import StaticWrapper

from .test_rewriting_properties import NS, build_chain_mdm


class UncapableWrapper(StaticWrapper):
    """A StaticWrapper that declares no pushdown capabilities at all."""

    def capabilities(self) -> frozenset:
        return frozenset()


class FailingWrapper(StaticWrapper):
    """A wrapper whose source is down."""

    def fetch(self):
        raise ConnectionError("source offline")


def identical(outcome_a, outcome_b):
    rel_a, rel_b = outcome_a.relation, outcome_b.relation
    assert rel_a.schema.names == rel_b.schema.names
    assert [a.type for a in rel_a.schema.attributes] == [
        a.type for a in rel_b.schema.attributes
    ]
    assert rel_a.rows == rel_b.rows


def run_both_modes(mdm, walk, on_wrapper_error="raise"):
    mdm.configure_execution(pushdown=False)
    plain = mdm.execute(walk, on_wrapper_error=on_wrapper_error)
    mdm.configure_execution(pushdown=True)
    pushed = mdm.execute(walk, on_wrapper_error=on_wrapper_error)
    return plain, pushed


@given(
    n_concepts=st.integers(min_value=1, max_value=3),
    rows=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
    filter_row=st.integers(min_value=0, max_value=5),
)
@settings(max_examples=20, deadline=None)
def test_filtered_chain_walks_byte_identical(n_concepts, rows, seed, filter_row):
    """Filtered walks (σ + π pushed into the Scans) match exactly."""
    mdm, concepts, _, _ = build_chain_mdm(n_concepts, rows, seed)
    nodes = list(concepts) + [NS[f"val{i}"] for i in range(n_concepts)]
    walk = mdm.walk_from_nodes(nodes).with_filters(
        FilterCondition(NS["val0"], "=", f"c0v{filter_row % rows}")
    )
    plain, pushed = run_both_modes(mdm, walk)
    identical(plain, pushed)
    assert pushed.pushdown is not None and pushed.pushdown["enabled"]


@given(
    rows=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=15, deadline=None)
def test_mixed_capable_and_uncapable_wrappers(rows, seed):
    """An uncapable second version falls back to full fetch + residual
    evaluation while the capable one pushes — the union must not care."""
    mdm, concepts, _, _ = build_chain_mdm(1, rows, seed)
    v1 = mdm.wrappers["w0"]
    mdm.register_wrapper(
        "s0", UncapableWrapper("w0v2", list(v1.attributes), v1.fetch())
    )
    mdm.define_mapping("w0v2", {"id": NS["id0"], "val": NS["val0"]})
    walk = mdm.walk_from_nodes([concepts[0], NS["id0"], NS["val0"]]).with_filters(
        FilterCondition(NS["val0"], "=", "c0v0")
    )
    plain, pushed = run_both_modes(mdm, walk)
    identical(plain, pushed)


def test_supersede_scenario_filtered_walk_byte_identical():
    scenario = SupersedeScenario.build()
    mdm = scenario.mdm
    walk = mdm.walk_from_nodes(
        [SUP.Feedback, SUP.feedbackId, SUP.sentiment]
    ).with_filters(FilterCondition(SUP.sentiment, "=", "positive"))
    plain, pushed = run_both_modes(mdm, walk)
    identical(plain, pushed)


def test_partial_failure_parity():
    """Branch dropping after a wrapper failure agrees across modes."""
    mdm, concepts, _, _ = build_chain_mdm(1, 5, seed=3)
    v1 = mdm.wrappers["w0"]
    mdm.register_wrapper(
        "s0", FailingWrapper("w0v2", list(v1.attributes), [])
    )
    mdm.define_mapping("w0v2", {"id": NS["id0"], "val": NS["val0"]})
    walk = mdm.walk_from_nodes([concepts[0], NS["id0"], NS["val0"]]).with_filters(
        FilterCondition(NS["val0"], "!=", "c0v1")
    )
    plain, pushed = run_both_modes(mdm, walk, on_wrapper_error="skip")
    identical(plain, pushed)
    assert plain.skipped_wrappers == pushed.skipped_wrappers == ("w0v2",)
    assert pushed.partial


def test_all_wrappers_failed_raises_in_both_modes():
    mdm = MDM()
    mdm.add_concept(NS.T)
    mdm.add_identifier(NS.tid, NS.T)
    mdm.register_source("s")
    mdm.register_wrapper("s", FailingWrapper("wf", ["id"], []))
    mdm.define_mapping("wf", {"id": NS.tid})
    walk = mdm.walk_from_nodes([NS.T, NS.tid])
    for pushdown in (False, True):
        mdm.configure_execution(pushdown=pushdown)
        with pytest.raises(Exception):
            mdm.execute(walk, on_wrapper_error="skip")


class TestWrapperCacheCoherence:
    def _simple_mdm(self, rows):
        mdm = MDM(wrapper_cache_size=16)
        mdm.add_concept(NS.T)
        mdm.add_identifier(NS.tid, NS.T)
        mdm.add_feature(NS.tval, NS.T)
        mdm.register_source("s")
        mdm.register_wrapper("s", StaticWrapper("wt", ["id", "val"], rows))
        mdm.define_mapping("wt", {"id": NS.tid, "val": NS.tval})
        return mdm

    def test_warm_cache_serves_pushed_request_from_full_entry(self):
        rows = [{"id": i, "val": "x" if i % 2 else "y"} for i in range(10)]
        mdm = self._simple_mdm(rows)
        plain_walk = mdm.walk_from_nodes([NS.T, NS.tid, NS.tval])
        first = mdm.execute(plain_walk)
        assert first.pushdown["requests"]["wt"]["cache"] == "miss"
        # Same generation, now a *pushed* request: served by deriving
        # from the cached full fetch — zero source transfer.
        filtered = mdm.walk_from_nodes([NS.T, NS.tid, NS.tval]).with_filters(
            FilterCondition(NS.tval, "=", "x")
        )
        second = mdm.execute(filtered)
        assert second.pushdown["requests"]["wt"]["cache"] == "hit"
        assert second.pushdown["rows_transferred"] == 0
        mdm.configure_execution(pushdown=False)
        reference = mdm.execute(filtered, use_cache=False)
        identical(reference, second)

    def test_generation_bump_invalidates_wrapper_cache(self):
        rows = [{"id": i, "val": "old"} for i in range(4)]
        mdm = self._simple_mdm(rows)
        walk = mdm.walk_from_nodes([NS.T, NS.tid, NS.tval])
        assert set(mdm.execute(walk).relation.column("tval")) == {"old"}
        # The source's data changed underneath us...
        for row in mdm.wrappers["wt"]._rows:
            row["val"] = "new"
        # ...but the cache only notices once a metadata change moves the
        # generation.
        mdm.add_concept(NS.Unrelated)
        outcome = mdm.execute(walk)
        assert set(outcome.relation.column("tval")) == {"new"}
        assert outcome.pushdown["requests"]["wt"]["cache"] == "miss"

    def test_cached_relation_rows_are_immutable(self):
        """Satellite regression: a caller cannot corrupt a cached
        relation — rows are a tuple, so mutation raises instead of
        silently poisoning every later cache hit."""
        rows = [{"id": i, "val": "v"} for i in range(3)]
        mdm = self._simple_mdm(rows)
        walk = mdm.walk_from_nodes([NS.T, NS.tid, NS.tval])
        outcome = mdm.execute(walk)
        with pytest.raises((TypeError, AttributeError)):
            outcome.relation.rows.append(("evil", "row"))
        again = mdm.execute(walk, use_cache=False)
        assert again.relation.rows == outcome.relation.rows
