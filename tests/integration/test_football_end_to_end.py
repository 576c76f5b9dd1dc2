"""Integration tests: the full motivational use case (paper §1-3)."""

import pytest

from repro.core.errors import GavUnfoldingError
from repro.rdf.namespaces import EX
from repro.scenarios.football import (
    PLAYER,
    TEAM,
    FootballScenario,
)


@pytest.fixture(scope="module")
def anchors():
    return FootballScenario.build(anchors_only=True)


@pytest.fixture(scope="module")
def generated():
    return FootballScenario.build(seed=2018)


class TestTable1:
    """Table 1 of the paper: the exemplary query's sample output."""

    def test_exact_pairs_present(self, anchors):
        outcome = anchors.mdm.execute(anchors.walk_player_team_names())
        rows = set(outcome.relation.rows)
        assert ("Lionel Messi", "FC Barcelona") in rows
        assert ("Robert Lewandowski", "Bayern Munich") in rows
        assert ("Zlatan Ibrahimovic", "Manchester United") in rows

    def test_every_player_appears_once(self, anchors):
        outcome = anchors.mdm.execute(anchors.walk_player_team_names())
        players = [row[0] for row in outcome.relation.rows]
        assert len(players) == len(set(players)) == 6

    def test_ground_truth_join(self, generated):
        outcome = generated.mdm.execute(generated.walk_player_team_names())
        truth = {
            (p.name, generated.data.team_by_id(p.team_id).name)
            for p in generated.data.players
        }
        assert set(outcome.relation.rows) == truth


class TestIntroQuery:
    """"Who are the players that play in a league of their nationality?"""

    def test_anchor_answer(self, anchors):
        outcome = anchors.mdm.execute(anchors.walk_league_nationality())
        names = {row[0] for row in outcome.relation.rows}
        assert names == {"Sergio Ramos", "Thomas Muller", "Marcus Rashford"}

    def test_generated_answer_matches_ground_truth(self, generated):
        outcome = generated.mdm.execute(generated.walk_league_nationality())
        truth = {p.name for p in generated.data.players_in_national_league()}
        assert {row[0] for row in outcome.relation.rows} == truth

    def test_heterogeneous_formats_joined(self, anchors):
        # The answer requires JSON (players, leagues), XML (teams) and CSV
        # (countries) sources to be joined — the variety challenge.
        outcome = anchors.mdm.execute(anchors.walk_league_nationality())
        wrappers_used = {
            name for q in outcome.rewrite.queries for name in q.wrapper_names
        }
        assert {"w1", "w1n", "w2m", "w3"} & wrappers_used


class TestSingleConceptQueries:
    def test_player_profile(self, anchors):
        outcome = anchors.mdm.execute(anchors.walk_single_concept())
        assert len(outcome.relation) == 6
        messi = [r for r in outcome.relation.rows if "Lionel Messi" in r][0]
        assert 170.18 in messi and 159 in messi and 94 in messi and "left" in messi

    def test_team_features(self, anchors):
        walk = anchors.mdm.walk_from_nodes([TEAM, EX.teamName, EX.shortName])
        outcome = anchors.mdm.execute(walk)
        # Columns follow sorted feature IRIs: shortName before teamName.
        assert outcome.relation.schema.names == ("shortName", "teamName")
        assert ("FCB", "FC Barcelona") in set(outcome.relation.rows)


class TestEvolutionScenario:
    """Demo scenario 3: governance of evolution."""

    def test_queries_survive_breaking_release(self):
        scenario = FootballScenario.build(anchors_only=True)
        walk = scenario.walk_player_team_names()
        before = set(scenario.mdm.execute(walk).relation.rows)
        scenario.release_players_v2(retire_v1=False)
        after_outcome = scenario.mdm.execute(walk)
        assert set(after_outcome.relation.rows) == before
        assert after_outcome.rewrite.ucq_size == 2

    def test_queries_survive_even_with_v1_retired(self):
        scenario = FootballScenario.build(anchors_only=True)
        walk = scenario.walk_player_team_names()
        before = set(scenario.mdm.execute(walk).relation.rows)
        scenario.release_players_v2(retire_v1=True)
        outcome = scenario.mdm.execute(walk, on_wrapper_error="skip")
        assert set(outcome.relation.rows) == before
        assert outcome.skipped_wrappers == ("w1",)

    def test_gav_baseline_crashes_on_same_release(self):
        scenario = FootballScenario.build(anchors_only=True)
        gav = scenario.build_gav()
        walk = scenario.walk_player_team_names()
        assert len(gav.execute(walk)) == 6
        scenario.release_players_v2(retire_v1=True)
        with pytest.raises(GavUnfoldingError):
            gav.execute(walk)

    def test_multiple_successive_releases(self):
        scenario = FootballScenario.build(anchors_only=True)
        walk = scenario.mdm.walk_from_nodes([PLAYER, EX.playerName])
        before = set(scenario.mdm.execute(walk).relation.rows)
        scenario.release_players_v2()
        # A third version: rename again on top of v2.
        from repro.sources.evolution import RenameField, release_version
        from repro.sources.wrappers import RestWrapper

        v3 = scenario.players_v1.successor(
            list(scenario.V2_CHANGES)
        ).successor([RenameField("fullName", "displayName")])
        release_version(scenario.server, v3)
        w1v3 = RestWrapper(
            "w1v3",
            ["id", "pName"],
            scenario.server,
            "/v3/players",
            attribute_map={"pName": "displayName"},
        )
        scenario.mdm.register_wrapper("players", w1v3)
        suggestion = scenario.mdm.suggest_mapping("w1v3")
        scenario.mdm.apply_suggestion(suggestion)
        outcome = scenario.mdm.execute(walk)
        assert outcome.rewrite.ucq_size == 3  # w1 | w1v2 | w1v3
        assert set(outcome.relation.rows) == before

    def test_governance_history_after_release(self):
        scenario = FootballScenario.build(anchors_only=True)
        scenario.release_players_v2()
        history = scenario.mdm.governance.history("players")
        assert [r.wrapper_name for r in history] == ["w1", "w1n", "w1v2"]


class TestConsistencyInvariants:
    def test_rewriting_agrees_with_sparql_on_instances(self, anchors):
        """The walk's SPARQL, run over instance triples built from the
        ground truth, returns the same answer set as the LAV execution —
        the equivalence the demo claims."""
        from repro.rdf.dataset import Dataset
        from repro.rdf.namespaces import RDF
        from repro.rdf.terms import Literal
        from repro.sparql.evaluator import evaluate_text

        walk = anchors.walk_player_team_names()
        sparql = walk.to_sparql(anchors.mdm.global_graph)
        instances = Dataset()
        g = instances.default_graph
        for player in anchors.data.players:
            p = EX[f"inst/player{player.id}"]
            t = EX[f"inst/team{player.team_id}"]
            team = anchors.data.team_by_id(player.team_id)
            g.add((p, RDF.type, PLAYER))
            g.add((p, EX.playerName, Literal(player.name)))
            g.add((p, EX.hasTeam, t))
            g.add((t, RDF.type, TEAM))
            g.add((t, EX.teamName, Literal(team.name)))
        sparql_result = evaluate_text(sparql, instances)
        sparql_rows = set(sparql_result.to_python_rows())
        lav_rows = set(anchors.mdm.execute(walk).relation.rows)
        assert sparql_rows == lav_rows

    def test_all_mappings_validate(self, anchors):
        assert anchors.mdm.validate() == []

    def test_trig_snapshot_restores_identical_rewriting(self, anchors, tmp_path):
        from repro.service.persistence import attach_wrappers, load_mdm, save_mdm

        save_mdm(anchors.mdm, tmp_path)
        restored = load_mdm(tmp_path)
        attach_wrappers(restored, anchors.mdm.wrappers.values())
        walk = anchors.walk_player_team_names()
        walk2 = restored.walk_from_nodes(list(walk.concepts | walk.features))
        original = anchors.mdm.rewriter.rewrite(walk)
        again = restored.rewriter.rewrite(walk2)
        assert original.pretty() == again.pretty()
