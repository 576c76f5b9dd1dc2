"""The differential oracle for static impact analysis.

Hypothesis generates proposed changes (retirements, releases derived via
SchemaChange operators, additive mutations); for each one we

1. run the *static* analysis and assert it performed zero wrapper
   fetches and left the generation alone, then
2. apply the very same change for real (``apply_change``) and check the
   verdict against reality: every query classified BROKEN must now fail
   to rewrite (or rewrite to an empty UCQ), and every query classified
   SAFE must still execute to byte-identical results.

DEGRADED is the honest middle: results *may* differ, so the oracle
imposes no constraint there — which is exactly why the analyzer must
never classify a shape-changing rewrite as SAFE.
"""

import contextlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.evolution_rules import Verdict
from repro.analysis.impact import (
    MetadataMutation,
    WrapperRelease,
    WrapperRetirement,
    apply_change,
)
from repro.core.errors import MdmError
from repro.rdf.terms import IRI
from repro.scenarios.football import FootballScenario
from repro.sources import wrappers as wrappers_mod
from repro.sources.evolution import AddField, RemoveField, RenameField


def _signature(mdm, wrapper_name):
    iri = mdm.source_graph.wrapper_by_name(wrapper_name)
    return sorted(
        mdm.source_graph.attribute_name(a) or a.local_name()
        for a in mdm.source_graph.attributes_of(iri)
    )


def _source_name_of(mdm, wrapper_name):
    iri = mdm.source_graph.wrapper_by_name(wrapper_name)
    name = mdm.source_name_of(mdm.source_graph.source_of(iri))
    if name is None:
        raise AssertionError(f"wrapper {wrapper_name!r} has no source")
    return name


# One probe build to learn the wrapper universe the strategies draw from.
_PROBE = FootballScenario.build(anchors_only=True)
WRAPPER_NAMES = sorted(_PROBE.mdm.wrappers)
SIGNATURES = {name: _signature(_PROBE.mdm, name) for name in WRAPPER_NAMES}
SOURCES = {name: _source_name_of(_PROBE.mdm, name) for name in WRAPPER_NAMES}


def _schema_change(attrs, index, op):
    attr = attrs[index % len(attrs)]
    if op == "rename":
        return RenameField(attr, f"{attr}V2")
    if op == "remove":
        return RemoveField(attr)
    return AddField(f"extra{index}", compute=lambda record: None)


retirements = st.sampled_from(WRAPPER_NAMES).map(
    lambda name: WrapperRetirement(wrapper=name)
)

releases = st.builds(
    lambda base, ops: WrapperRelease(
        source=SOURCES[base],
        wrapper="wOracle",
        base_wrapper=base,
        changes=tuple(
            _schema_change(SIGNATURES[base], i, op)
            for i, op in enumerate(ops)
        ),
    ),
    st.sampled_from(WRAPPER_NAMES),
    st.lists(
        st.sampled_from(["rename", "remove", "add"]), min_size=0, max_size=3
    ),
)

mutations = st.sampled_from(
    [
        MetadataMutation(
            method="add_concept",
            args=(IRI("http://example.org/oracle/Thing"),),
        ),
        MetadataMutation(
            method="register_source",
            args=("oracle-source",),
        ),
    ]
)

proposed_changes = st.one_of(retirements, releases, mutations)


@contextlib.contextmanager
def _fetch_counter():
    """Count calls to every concrete wrapper fetch entry point."""
    calls = []
    patched = []
    for cls in (
        wrappers_mod.Wrapper,
        wrappers_mod.StaticWrapper,
        wrappers_mod.RestWrapper,
    ):
        for method in ("fetch", "_fetch_push", "fetch_request"):
            if method not in vars(cls):
                continue
            original = vars(cls)[method]

            def spy(self, *args, __orig=original, **kwargs):
                calls.append(self.name)
                return __orig(self, *args, **kwargs)

            setattr(cls, method, spy)
            patched.append((cls, method, original))
    try:
        yield calls
    finally:
        for cls, method, original in patched:
            setattr(cls, method, original)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(change=proposed_changes)
def test_static_verdicts_match_reality(change):
    scenario = FootballScenario.build(anchors_only=True)
    mdm = scenario.mdm
    mdm.saved_queries.save("player-team", scenario.walk_player_team_names())
    mdm.saved_queries.save("league-nat", scenario.walk_league_nationality())

    before_tables = {
        name: mdm.execute(mdm.saved_queries.get(name).walk).to_table()
        for name in mdm.saved_queries.names()
    }

    generation = mdm.generation
    with _fetch_counter() as calls:
        report = mdm.analyze_impact(change)
    # The analysis is static: zero fetches, the generation unmoved.
    assert calls == [], f"analysis fetched from {sorted(set(calls))}"
    assert mdm.generation == generation

    if not report.applied:
        # The analyzer predicted the change is unappliable — reality
        # must agree.
        assert report.verdict is Verdict.BROKEN
        with pytest.raises((MdmError, ValueError, TypeError, KeyError)):
            apply_change(mdm, change)
        return

    apply_change(mdm, change)
    assert mdm.generation > generation

    for query in report.queries:
        walk = mdm.saved_queries.get(query.name).walk
        if query.verdict is Verdict.BROKEN:
            try:
                result = mdm.rewriter.rewrite(walk)
            except MdmError:
                continue
            assert result.ucq_size == 0, (
                f"{query.name} was classified BROKEN but still rewrites "
                f"to {result.ucq_size} CQ(s)"
            )
        elif query.verdict is Verdict.SAFE:
            after = mdm.execute(walk).to_table()
            assert after == before_tables[query.name], (
                f"{query.name} was classified SAFE but its results "
                "changed after applying the change"
            )
