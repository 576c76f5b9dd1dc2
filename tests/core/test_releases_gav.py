"""Unit tests for release governance and the GAV baseline."""

import pytest

from repro.core.errors import GavUnfoldingError
from repro.core.releases import KIND_EVOLUTION, KIND_NEW_SOURCE
from repro.docstore.store import DocumentStore
from repro.rdf.namespaces import EX
from repro.scenarios.football import PLAYER, FootballScenario
from repro.sources.wrappers import StaticWrapper


@pytest.fixture
def scenario():
    return FootballScenario.build(anchors_only=True)


class TestGovernanceLog:
    def test_initial_releases_recorded(self, scenario):
        history = scenario.mdm.governance.history()
        assert len(history) == 6  # w1, w2, w2m, w1n, w3, w4
        assert history[0].kind == KIND_NEW_SOURCE

    def test_second_wrapper_same_source_is_evolution(self, scenario):
        players_releases = scenario.mdm.governance.history("players")
        kinds = [r.kind for r in players_releases]
        assert kinds == [KIND_NEW_SOURCE, KIND_EVOLUTION]  # w1, then w1n

    def test_sequence_monotonic(self, scenario):
        history = scenario.mdm.governance.history()
        assert [r.sequence for r in history] == sorted(r.sequence for r in history)

    def test_latest(self, scenario):
        latest = scenario.mdm.governance.latest("players")
        assert latest is not None and latest.wrapper_name == "w1n"
        assert scenario.mdm.governance.latest("ghost") is None

    def test_v2_release_recorded_with_changes(self, scenario):
        scenario.release_players_v2()
        latest = scenario.mdm.governance.latest("players")
        assert latest.wrapper_name == "w1v2"
        assert latest.kind == KIND_EVOLUTION
        assert any("rename" in c for c in latest.changes)

    def test_breaking_flag(self, scenario):
        scenario.release_players_v2()
        latest = scenario.mdm.governance.latest("players")
        # w1v2 reuses every attribute name, so the heuristic says
        # non-breaking at the *signature* level even though the payload
        # changed — the changes list carries the detail.
        assert latest.changes

    def test_invalid_kind_rejected(self, scenario):
        from repro.core.releases import GovernanceLog
        from repro.core.source_graph import WrapperRegistration

        log = GovernanceLog(DocumentStore())
        registration = scenario.mdm.source_graph.register_wrapper(
            scenario.mdm.source_iri("players"), "wx", ["a"]
        )
        with pytest.raises(ValueError):
            log.record("players", registration, "bogus-kind")


def _metadata_state(mdm):
    return (
        set(mdm.source_graph.graph),
        dict(mdm.wrappers),
        mdm.governance.history(),
        mdm.generation,
    )


class TestUnrecordedRelease:
    """A release the governance log cannot record is not registered."""

    @pytest.fixture(params=["bad-kind", "log-write"])
    def register_failing(self, request):
        """Register a wrapper under ``players`` whose release record fails."""
        from repro.chaos import FailpointError, FailpointRegistry, set_failpoints

        registry = FailpointRegistry(seed=0)
        set_failpoints(registry)

        def register(mdm, wrapper):
            if request.param == "bad-kind":
                with pytest.raises(ValueError, match="unknown release kind"):
                    mdm.register_wrapper("players", wrapper, kind="bogus")
                return
            registry.arm_spec("docstore.write[releases]=error")
            with pytest.raises(FailpointError):
                mdm.register_wrapper("players", wrapper)
            registry.disarm("docstore.write")

        yield register
        set_failpoints(None)

    def test_registration_is_undone(self, scenario, register_failing):
        before = _metadata_state(scenario.mdm)
        register_failing(scenario.mdm, StaticWrapper("wX", ["id", "fresh"], []))
        assert _metadata_state(scenario.mdm) == before

    def test_retired_wrappers_attribute_keeps_its_triples(
        self, scenario, register_failing
    ):
        from repro.analysis.impact import WrapperRetirement, apply_change

        mdm = scenario.mdm
        apply_change(mdm, WrapperRetirement("w1n"))
        before = _metadata_state(mdm)
        # nationalityId was w1n's alone: the release mints its IRI again.
        register_failing(mdm, StaticWrapper("wX", ["id", "nationalityId"], []))
        assert _metadata_state(mdm) == before

    def test_retry_records_one_release(self, scenario, register_failing):
        mdm = scenario.mdm
        wrapper = StaticWrapper("wX", ["id", "fresh"], [])
        register_failing(mdm, wrapper)
        mdm.register_wrapper("players", wrapper)
        assert [r.wrapper_name for r in mdm.governance.history()][6:] == ["wX"]
        assert mdm.wrappers["wX"] is wrapper


class TestMappingSuggestion:
    def test_full_reuse_gives_complete_suggestion(self, scenario):
        scenario.server and scenario.release_players_v2()
        # release_players_v2 already applied a suggestion; build another
        # wrapper to inspect the suggestion object itself.
        suggestion = scenario.mdm.suggest_mapping("w1v2")
        assert suggestion.is_complete
        assert len(suggestion.same_as) == 7
        assert suggestion.unmapped_attributes == ()

    def test_new_attribute_flagged_unmapped(self, scenario):
        from repro.sources.wrappers import StaticWrapper

        wrapper = StaticWrapper("w1x", ["id", "pName", "shirtNumber"], [])
        scenario.mdm.register_wrapper("players", wrapper)
        suggestion = scenario.mdm.suggest_mapping("w1x")
        assert "shirtNumber" in suggestion.unmapped_attributes
        assert not suggestion.is_complete
        # reused attributes carried their links
        assert len(suggestion.same_as) == 2

    def test_suggestion_carries_edges(self, scenario):
        scenario.release_players_v2()
        suggestion = scenario.mdm.suggest_mapping("w1v2")
        predicates = {t.predicate for t in suggestion.subgraph}
        assert EX.hasTeam in predicates


class TestGavBaseline:
    def test_gav_answers_before_evolution(self, scenario):
        gav = scenario.build_gav()
        result = gav.execute(scenario.walk_player_team_names())
        rows = set(result.rows)
        assert ("Lionel Messi", "FC Barcelona") in rows or (
            "FC Barcelona",
            "Lionel Messi",
        ) in rows

    def test_gav_single_plan_no_union(self, scenario):
        gav = scenario.build_gav()
        plan = gav.unfold(scenario.walk_player_team_names())
        assert "∪" not in plan.pretty()

    def test_gav_crashes_on_retired_endpoint(self, scenario):
        gav = scenario.build_gav()
        walk = scenario.walk_player_team_names()
        gav.execute(walk)
        scenario.release_players_v2(retire_v1=True)
        with pytest.raises(GavUnfoldingError):
            gav.execute(walk)

    def test_gav_crashes_on_payload_change_without_retirement(self, scenario):
        # Same URL, mutated payload: the strict wrapper detects the shape
        # change. Simulate by re-registering /v1/players with v2's shape.
        from repro.sources.evolution import release_version

        gav = scenario.build_gav()
        walk = scenario.walk_player_team_names()
        v2_shape = scenario.players_v1.successor(list(scenario.V2_CHANGES))
        v2_shape.version = 1  # provider mutates v1 in place (worst case)
        release_version(scenario.server, v2_shape)
        with pytest.raises(GavUnfoldingError):
            gav.execute(walk)

    def test_gav_silent_partial_results_with_lenient_wrapper(self, scenario):
        """The paper's other GAV failure mode: 'OMQs either crash or
        return partial results.'  With a lenient (non-strict) wrapper the
        payload change does not raise — the query silently returns NULLs
        where the renamed field used to be."""
        from repro.core.gav_baseline import GavSystem
        from repro.core.walks import Walk
        from repro.sources.evolution import release_version
        from repro.sources.wrappers import RestWrapper

        gav = GavSystem(scenario.mdm.global_graph)
        lenient = RestWrapper(
            "w1len",
            ["id", "pName"],
            scenario.server,
            "/v1/players",
            attribute_map={"pName": "name"},
            strict=False,
        )
        gav.register_wrapper(lenient)
        gav.define_feature(EX.playerId, "w1len", "id")
        gav.define_feature(EX.playerName, "w1len", "pName")
        walk = Walk.build(concepts=[PLAYER], features=[EX.playerName])
        before = gav.execute(walk)
        assert all(row[0] is not None for row in before.rows)
        # Provider mutates /v1 payload in place (rename without retiring).
        v2_shape = scenario.players_v1.successor(list(scenario.V2_CHANGES))
        v2_shape.version = 1
        release_version(scenario.server, v2_shape)
        after = gav.execute(walk)
        # No crash — but the data silently degraded to NULL names.
        assert all(row[0] is None for row in after.rows)

    def test_undefined_feature_rejected(self, scenario):
        gav = scenario.build_gav()
        gg = scenario.mdm.global_graph
        gg.add_feature(EX.bootSize, PLAYER)
        from repro.core.walks import Walk

        walk = Walk.build(concepts=[PLAYER], features=[EX.bootSize])
        with pytest.raises(GavUnfoldingError):
            gav.unfold(walk)

    def test_define_feature_checks_wrapper(self, scenario):
        gav = scenario.build_gav()
        with pytest.raises(GavUnfoldingError):
            gav.define_feature(EX.playerName, "ghost", "x")
        with pytest.raises(GavUnfoldingError):
            gav.define_feature(EX.playerName, "w1", "ghostattr")

    def test_migration_cost_counts_definitions(self, scenario):
        gav = scenario.build_gav()
        assert gav.migration_cost("w1") == 7  # 6 features + 1 edge

    def test_migrate_wrapper_repairs(self, scenario):
        gav = scenario.build_gav()
        walk = scenario.walk_player_team_names()
        scenario.release_players_v2(retire_v1=True)
        translation = {
            a: a for a in ("id", "pName", "height", "weight", "score", "foot", "teamId")
        }
        rewritten = gav.migrate_wrapper(
            "w1", scenario.mdm.wrappers["w1v2"], translation
        )
        assert rewritten == 7
        result = gav.execute(walk)
        assert len(result) > 0

    def test_migrate_missing_translation_fails(self, scenario):
        gav = scenario.build_gav()
        replacement = StaticWrapper("w1r", ["id", "other"], [])
        with pytest.raises(GavUnfoldingError):
            gav.migrate_wrapper("w1", replacement, {"id": "id"})
