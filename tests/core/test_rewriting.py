"""Unit tests for the three-phase LAV rewriting (paper §2.4)."""

import dataclasses

import pytest

from repro.core.errors import (
    MissingIdentifierError,
    NoCoverError,
    RewritingError,
)
from repro.core.rewriting import Rewriter
from repro.core.walks import Walk
from repro.relational.algebra import Distinct, NaturalJoin, flatten_union
from repro.relational.executor import Executor
from repro.relational.types import AttrType
from repro.scenarios.football import (
    COUNTRY,
    LEAGUE,
    PLAYER,
    TEAM,
    FootballScenario,
)
from repro.rdf.namespaces import EX


@pytest.fixture(scope="module")
def scenario():
    return FootballScenario.build(anchors_only=True)


@pytest.fixture(scope="module")
def evolved_scenario():
    s = FootballScenario.build(anchors_only=True)
    s.release_players_v2()
    return s


class TestPhaseA:
    def test_expansion_recorded(self, scenario):
        result = scenario.mdm.rewriter.rewrite(scenario.walk_player_team_names())
        added = set(result.expanded_walk.features) - set(result.walk.features)
        assert added == {EX.playerId, EX.teamId}

    def test_projection_excludes_expanded_ids(self, scenario):
        result = scenario.mdm.rewriter.rewrite(scenario.walk_player_team_names())
        assert set(result.projection) == {"playerName", "teamName"}

    def test_explicit_identifier_projected(self, scenario):
        walk = scenario.mdm.walk_from_nodes([PLAYER, EX.playerId, EX.playerName])
        result = scenario.mdm.rewriter.rewrite(walk)
        assert "playerId" in result.projection


class TestPhaseB:
    def test_single_wrapper_cover(self, scenario):
        walk = scenario.mdm.walk_from_nodes([PLAYER, EX.playerName, EX.height])
        result = scenario.mdm.rewriter.rewrite(walk)
        assert result.ucq_size == 1
        assert result.queries[0].wrapper_names == ("w1",)

    def test_multi_wrapper_cover_same_source(self, scenario):
        # playerName comes from w1, nationality (countryId) via w1n: a
        # two-wrapper cover joined on the shared player identifier.
        walk = scenario.mdm.walk_from_nodes(
            [PLAYER, EX.playerName, COUNTRY, EX.countryName]
        )
        result = scenario.mdm.rewriter.rewrite(walk)
        names = {q.wrapper_names for q in result.queries}
        assert any("w1n" in group and "w1" in group for group in names)

    def test_no_cover_raises(self, scenario):
        # Remove every wrapper able to provide preferredFoot by asking for
        # a feature nobody maps: invent one on the fly.
        gg = scenario.mdm.global_graph
        gg.add_feature(EX.bootSize, PLAYER)
        try:
            walk = scenario.mdm.walk_from_nodes([PLAYER, EX.bootSize])
            with pytest.raises(NoCoverError) as exc:
                scenario.mdm.rewriter.rewrite(walk)
            assert exc.value.concept == PLAYER
        finally:
            gg.graph.remove((PLAYER, __import__("repro.core.vocabulary", fromlist=["G"]).G.hasFeature, EX.bootSize))

    def test_missing_identifier_raises(self, scenario):
        gg = scenario.mdm.global_graph
        gg.add_concept(EX.Referee)
        gg.add_feature(EX.refName, EX.Referee)
        walk = Walk.build(concepts=[EX.Referee], features=[EX.refName])
        with pytest.raises(MissingIdentifierError):
            scenario.mdm.rewriter.rewrite(walk)


class TestPhaseC:
    def test_two_concept_join_on_identifier(self, scenario):
        result = scenario.mdm.rewriter.rewrite(scenario.walk_player_team_names())
        assert result.ucq_size == 1
        pretty = result.pretty()
        # Join discovered between w2.id and w1.teamId through the teamId
        # identifier column (Figure 7's intersection).
        assert "teamId" in pretty
        assert "⋈" in pretty

    def test_four_concept_cycle_produces_ucq(self, scenario):
        result = scenario.mdm.rewriter.rewrite(scenario.walk_league_nationality())
        assert result.ucq_size >= 1
        for query in result.queries:
            concepts = [c for c, _ in query.covers]
            assert set(concepts) == {PLAYER, TEAM, LEAGUE, COUNTRY}

    def test_every_cq_joins_only_on_identifiers(self, scenario):
        result = scenario.mdm.rewriter.rewrite(scenario.walk_league_nationality())
        identifier_columns = {"playerId", "teamId", "leagueId", "countryId"}
        for query in result.queries:
            # every NaturalJoin in the plan shares at least one id column
            def check(node):
                from repro.relational.algebra import NaturalJoin

                if isinstance(node, NaturalJoin):
                    catalog = {
                        name: scenario.mdm.wrappers[name].fetch_relation().schema
                        for name in set(node.scans())
                    }
                    left_cols = set(node.left.output_schema(catalog).names)
                    right_cols = set(node.right.output_schema(catalog).names)
                    shared = left_cols & right_cols
                    assert shared & identifier_columns, (shared, node.pretty())
                for child in node.children():
                    check(child)

            check(query.plan)

    def test_plan_wrapped_in_distinct(self, scenario):
        result = scenario.mdm.rewriter.rewrite(scenario.walk_player_team_names())
        assert isinstance(result.plan, Distinct)

    def test_sparql_included(self, scenario):
        result = scenario.mdm.rewriter.rewrite(scenario.walk_player_team_names())
        assert "SELECT" in result.sparql

    def test_explain_mentions_three_phases(self, scenario):
        result = scenario.mdm.rewriter.rewrite(scenario.walk_player_team_names())
        text = result.explain()
        assert "phase (a)" in text
        assert "phase (b)" in text
        assert "phase (c)" in text


class TestEvolutionRewriting:
    def test_union_of_schema_versions(self, evolved_scenario):
        result = evolved_scenario.mdm.rewriter.rewrite(
            evolved_scenario.walk_player_team_names()
        )
        assert result.ucq_size == 2
        wrapper_groups = {q.wrapper_names for q in result.queries}
        assert ("w1", "w2") in wrapper_groups
        assert ("w1v2", "w2") in wrapper_groups

    def test_single_concept_versions_unioned(self, evolved_scenario):
        walk = evolved_scenario.mdm.walk_from_nodes([PLAYER, EX.playerName])
        result = evolved_scenario.mdm.rewriter.rewrite(walk)
        assert result.ucq_size == 2

    def test_subsumed_cq_dropped(self, evolved_scenario):
        result = evolved_scenario.mdm.rewriter.rewrite(
            evolved_scenario.walk_player_team_names()
        )
        # No CQ should use both w1 and w1v2 for Player — {w1} and {w1v2}
        # are each sufficient, so the pair is contained in both.
        for query in result.queries:
            for concept, names in query.covers:
                assert not {"w1", "w1v2"} <= set(names)


class TestDeterminism:
    def test_rewrite_is_deterministic(self, scenario):
        walk = scenario.walk_league_nationality()
        a = scenario.mdm.rewriter.rewrite(walk)
        b = scenario.mdm.rewriter.rewrite(walk)
        assert a.pretty() == b.pretty()
        assert [q.covers for q in a.queries] == [q.covers for q in b.queries]

    def test_max_cover_size_bounds_search(self, scenario):
        scenario.mdm.rewriter.max_cover_size = 1
        try:
            walk = scenario.mdm.walk_from_nodes(
                [PLAYER, EX.playerName, COUNTRY, EX.countryName]
            )
            # With single-wrapper covers only, Player cannot witness the
            # nationality edge together with playerName... the rewriting
            # either still finds a valid combination through the Country
            # side (w1n covers Country) or fails; it must not crash.
            try:
                result = scenario.mdm.rewriter.rewrite(walk)
                assert result.ucq_size >= 1
            except RewritingError:
                pass
        finally:
            scenario.mdm.rewriter.max_cover_size = 3


class TestMinimizationFlag:
    def test_minimize_off_keeps_contained_cqs(self, scenario):
        from repro.core.rewriting import Rewriter

        on = Rewriter(scenario.mdm.global_graph, scenario.mdm.mappings)
        off = Rewriter(
            scenario.mdm.global_graph, scenario.mdm.mappings, minimize=False
        )
        walk = scenario.walk_player_team_names()
        assert on.rewrite(walk).ucq_size <= off.rewrite(walk).ucq_size

    def test_minimize_off_still_dedupes_exact(self, scenario):
        from repro.core.rewriting import Rewriter

        off = Rewriter(
            scenario.mdm.global_graph, scenario.mdm.mappings, minimize=False
        )
        result = off.rewrite(scenario.walk_player_team_names())
        covers = [q.covers for q in result.queries]
        assert len(covers) == len(set(covers))

    def test_both_modes_same_answers(self, scenario):
        from repro.core.rewriting import Rewriter
        from repro.relational.executor import Executor

        walk = scenario.walk_league_nationality()
        rows = {}
        for minimize in (True, False):
            rewriter = Rewriter(
                scenario.mdm.global_graph,
                scenario.mdm.mappings,
                minimize=minimize,
            )
            result = rewriter.rewrite(walk)
            executor = Executor()
            for name in {n for q in result.queries for n in q.wrapper_names}:
                executor.register(
                    name, scenario.mdm.wrappers[name].fetch_relation()
                )
            rows[minimize] = set(executor.execute(result.plan).rows)
        assert rows[True] == rows[False]


def _answer(scenario, walk, minimize):
    """Rewrite ``walk`` with minimization on or off and execute the UCQ.

    Returns the rewrite and the answer as (schema, sorted row reprs), so
    raw values that the lenient join equates (``'100'`` and ``100``)
    still compare unequal.
    """
    result = Rewriter(
        scenario.mdm.global_graph, scenario.mdm.mappings, minimize=minimize
    ).rewrite(walk)
    executor = Executor()
    for name in {n for q in result.queries for n in q.wrapper_names}:
        executor.register(name, scenario.mdm.wrappers[name].fetch_relation())
    relation = executor.execute(result.plan)
    rows = sorted(tuple(repr(v) for v in row) for row in relation.rows)
    return result, (relation.schema, rows)


def _leaf_wrappers(query):
    return [leaf.scans()[0] for leaf in flatten_union(query.plan, NaturalJoin)]


class TestLeafBagContainment:
    def test_paper_omq_is_one_cq(self, scenario):
        result = scenario.mdm.rewriter.rewrite(scenario.walk_league_nationality())
        assert result.ucq_size == 1
        # No self-join: each wrapper is one leaf.
        assert _leaf_wrappers(result.queries[0]) == ["w1n", "w3", "w1", "w2m"]

    def test_paper_omq_is_one_cq_on_generated_data(self):
        generated = FootballScenario.build(seed=2018)
        walk = generated.walk_league_nationality()
        assert generated.mdm.rewriter.rewrite(walk).ucq_size == 1

    def test_evolved_walk_is_one_cq_per_schema_version(self, evolved_scenario):
        result = evolved_scenario.mdm.rewriter.rewrite(
            evolved_scenario.walk_league_nationality()
        )
        assert result.ucq_size == 2
        players = [
            {"w1", "w1v2"} & set(q.wrapper_names) for q in result.queries
        ]
        assert players == [{"w1"}, {"w1v2"}]

    def test_null_named_player_survives_minimization(self):
        """A repeated leaf is a self-join that drops rows with a NULL, so
        a CQ that repeats a leaf does not equal one that does not."""
        scenario = FootballScenario.build(anchors_only=True)
        ramos = next(p for p in scenario.data.players if p.name == "Sergio Ramos")
        new_id = max(p.id for p in scenario.data.players) + 1
        scenario.data.players.append(
            dataclasses.replace(ramos, id=new_id, name=None)
        )
        walk = scenario.walk_league_nationality()
        _, minimized = _answer(scenario, walk, minimize=True)
        _, reference = _answer(scenario, walk, minimize=False)
        assert ("None",) in minimized[1]
        assert minimized == reference

    def test_projected_column_keeps_its_first_provider(self, scenario):
        """leagueId is STRING in w2m and INTEGER in w3.  The join keeps
        the first provider's raw value, so a CQ may only replace another
        that reads a projected column from the same leaf."""
        walk = scenario.mdm.walk_from_nodes(
            [PLAYER, EX.playerName, TEAM, LEAGUE, EX.leagueId, COUNTRY]
        )
        result, minimized = _answer(scenario, walk, minimize=True)
        reference_result, reference = _answer(scenario, walk, minimize=False)
        assert minimized == reference
        schema = minimized[0]
        assert schema.attribute("leagueId").type is AttrType.STRING
        assert result.ucq_size < reference_result.ucq_size
