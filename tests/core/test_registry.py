"""Unit tests for the saved-query registry and revalidation."""

import threading

import pytest

from repro.core.walks import FilterCondition, Walk
from repro.rdf.namespaces import EX
from repro.scenarios.football import FootballScenario
from repro.service.persistence import attach_wrappers, load_mdm, save_mdm


@pytest.fixture
def scenario():
    return FootballScenario.build(anchors_only=True)


class TestCrud:
    def test_save_and_get(self, scenario):
        walk = scenario.walk_player_team_names()
        scenario.mdm.saved_queries.save("rosters", walk, "desc")
        saved = scenario.mdm.saved_queries.get("rosters")
        assert saved.walk.concepts == walk.concepts
        assert saved.walk.features == walk.features
        assert saved.walk.edges == walk.edges
        assert saved.description == "desc"

    def test_save_replaces(self, scenario):
        registry = scenario.mdm.saved_queries
        registry.save("q", scenario.walk_player_team_names())
        registry.save("q", scenario.walk_single_concept())
        assert len(registry) == 1
        assert EX.height in registry.get("q").walk.features

    def test_save_validates_walk(self, scenario):
        bad = Walk.build(concepts=[EX.Ghost])
        with pytest.raises(Exception):
            scenario.mdm.saved_queries.save("bad", bad)

    def test_empty_name_rejected(self, scenario):
        with pytest.raises(ValueError):
            scenario.mdm.saved_queries.save("", scenario.walk_single_concept())

    def test_get_missing_raises(self, scenario):
        with pytest.raises(KeyError):
            scenario.mdm.saved_queries.get("nope")

    def test_delete(self, scenario):
        registry = scenario.mdm.saved_queries
        registry.save("q", scenario.walk_player_team_names())
        assert registry.delete("q") is True
        assert registry.delete("q") is False

    def test_concurrent_saves_of_one_name_keep_one_document(
        self, scenario, monkeypatch
    ):
        from repro.docstore.store import Collection

        registry = scenario.mdm.saved_queries
        walk = scenario.walk_player_team_names()
        replace_one = Collection.replace_one
        barrier = threading.Barrier(2, timeout=10)

        def replace_then_meet(self, query, document):
            result = replace_one(self, query, document)
            barrier.wait()
            return result

        monkeypatch.setattr(Collection, "replace_one", replace_then_meet)
        errors = []

        def save():
            try:
                registry.save("q", walk)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=save) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(registry) == 1
        assert registry.names() == ["q"]
        assert registry.delete("q") is True
        assert registry.names() == []

    def test_all_reads_every_saved_query_sorted(self, scenario):
        registry = scenario.mdm.saved_queries
        registry.save("zeta", scenario.walk_player_team_names(), "z")
        registry.save("alpha", scenario.walk_single_concept())
        saved = registry.all()
        assert [(q.name, q.description) for q in saved] == [("alpha", ""), ("zeta", "z")]
        assert saved == [registry.get("alpha"), registry.get("zeta")]
        assert registry.walks() == {q.name: q.walk for q in saved}

    def test_names_sorted(self, scenario):
        registry = scenario.mdm.saved_queries
        registry.save("zeta", scenario.walk_player_team_names())
        registry.save("alpha", scenario.walk_single_concept())
        assert registry.names() == ["alpha", "zeta"]

    def test_filters_survive_roundtrip(self, scenario):
        walk = scenario.walk_single_concept().with_filters(
            FilterCondition(EX.height, ">", 180)
        )
        scenario.mdm.saved_queries.save("tall", walk)
        restored = scenario.mdm.saved_queries.get("tall")
        assert restored.walk.filters == walk.filters


class TestRunAndRevalidate:
    def test_run(self, scenario):
        scenario.mdm.saved_queries.save("rosters", scenario.walk_player_team_names())
        outcome = scenario.mdm.saved_queries.run("rosters")
        assert len(outcome.relation) == 6

    def test_revalidate_all_green_initially(self, scenario):
        registry = scenario.mdm.saved_queries
        registry.save("rosters", scenario.walk_player_team_names())
        registry.save("national", scenario.walk_league_nationality())
        report = registry.revalidate(execute=True)
        assert all(entry.ok for entry in report)
        assert all(entry.rows is not None for entry in report)

    def test_revalidate_after_accommodated_release(self, scenario):
        registry = scenario.mdm.saved_queries
        registry.save("rosters", scenario.walk_player_team_names())
        scenario.release_players_v2(retire_v1=False)
        report = registry.revalidate(execute=True)
        assert report[0].ok
        assert report[0].ucq_size == 2  # both schema versions unioned

    def test_revalidate_detects_incomplete_migration(self, scenario):
        """w1v2 replaces w1, but the nationality wrapper w1n is left on
        the retired v1 endpoint — execution-level revalidation flags the
        saved query that depends on it."""
        registry = scenario.mdm.saved_queries
        registry.save("national", scenario.walk_league_nationality())
        scenario.release_players_v2(retire_v1=True)
        rewrite_only = registry.revalidate(execute=False)
        assert rewrite_only[0].ok  # coverage still exists on paper
        executed = registry.revalidate(execute=True)
        assert not executed[0].ok
        assert "w1n" in executed[0].error

    def test_revalidate_detects_coverage_loss(self, scenario):
        """Deleting a mapping (steward mistake) turns rewriting red."""
        registry = scenario.mdm.saved_queries
        registry.save("rosters", scenario.walk_player_team_names())
        scenario.mdm.dataset.remove_graph(scenario.mdm.wrapper_iri("w2"))
        report = registry.revalidate()
        assert not report[0].ok
        assert "SportsTeam" in report[0].error or "no wrapper cover" in report[0].error

    def test_health_summary(self, scenario):
        registry = scenario.mdm.saved_queries
        registry.save("rosters", scenario.walk_player_team_names())
        registry.save("profile", scenario.walk_single_concept())
        summary = registry.health_summary()
        assert summary == {"total": 2, "ok": 2, "broken": 0}


class TestPersistence:
    def test_saved_queries_survive_snapshot(self, scenario, tmp_path):
        registry = scenario.mdm.saved_queries
        registry.save("rosters", scenario.walk_player_team_names())
        save_mdm(scenario.mdm, tmp_path)
        loaded = load_mdm(tmp_path)
        attach_wrappers(loaded, scenario.mdm.wrappers.values())
        assert loaded.saved_queries.names() == ["rosters"]
        outcome = loaded.saved_queries.run("rosters")
        assert len(outcome.relation) == 6
