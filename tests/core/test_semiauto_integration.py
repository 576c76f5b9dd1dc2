"""Unit tests for semi-automatic integration: signature inference,
name-based link suggestions and schema-version diffing."""

import pytest

from repro.core.diffing import SignatureDiff, diff_signatures
from repro.core.matching import name_similarity
from repro.rdf.namespaces import EX
from repro.relational.types import AttrType
from repro.scenarios.football import TEAM, FootballScenario
from repro.sources.evolution import EndpointVersion, release_version
from repro.sources.inference import infer_signature
from repro.sources.restapi import Endpoint, HttpError, MockRestServer


class TestNameSimilarity:
    def test_exact_match(self):
        assert name_similarity("teamId", "teamId") == 1.0

    def test_snake_vs_camel(self):
        assert name_similarity("team_id", "teamId") == 1.0

    def test_case_insensitive(self):
        assert name_similarity("TEAMID", "teamid") == 1.0

    def test_partial_token_overlap(self):
        score = name_similarity("stadium_name", "teamName")
        assert 0.2 < score < 0.8

    def test_abbreviation_scores_via_levenshtein(self):
        assert name_similarity("pName", "playerName") > 0.4

    def test_unrelated_scores_low(self):
        assert name_similarity("xyz", "countryCode") < 0.3

    def test_empty_names(self):
        assert name_similarity("", "x") == 0.0

    def test_symmetric(self):
        assert name_similarity("a_b", "bA") == name_similarity("bA", "a_b")


class TestSignatureInference:
    @pytest.fixture
    def server(self):
        s = MockRestServer()
        s.register(
            Endpoint(
                "stadiums",
                1,
                "json",
                lambda: [
                    {"id": 1, "name": "Camp Nou", "capacity": 99354},
                    {"id": 2, "name": "Allianz", "capacity": None},
                ],
            )
        )
        return s

    def test_attributes_and_types(self, server):
        profile = infer_signature(server, "/v1/stadiums")
        names = dict(
            (a.name, a.inferred_type) for a in profile.attributes
        )
        assert names["id"] == AttrType.INTEGER
        assert names["name"] == AttrType.STRING

    def test_nullability_tracked(self, server):
        profile = infer_signature(server, "/v1/stadiums")
        capacity = next(a for a in profile.attributes if a.name == "capacity")
        assert capacity.nullable
        assert capacity.present == 1

    def test_examples_captured(self, server):
        profile = infer_signature(server, "/v1/stadiums")
        name_attr = next(a for a in profile.attributes if a.name == "name")
        assert "'Camp Nou'" in name_attr.examples

    def test_describe(self, server):
        text = infer_signature(server, "/v1/stadiums").describe()
        assert "capacity" in text and "nullable" in text

    def test_nested_payload_flattened(self):
        s = MockRestServer()
        s.register(
            Endpoint(
                "x", 1, "json",
                lambda: [{"id": 1, "geo": {"lat": 1.0, "lon": 2.0}}],
            )
        )
        profile = infer_signature(s, "/v1/x")
        assert "geo_lat" in profile.attribute_names

    def test_xml_endpoint(self):
        s = MockRestServer()
        s.register(
            Endpoint("t", 1, "xml", lambda: [{"id": 1, "name": "A"}])
        )
        profile = infer_signature(s, "/v1/t")
        assert set(profile.attribute_names) == {"id", "name"}

    def test_empty_sample_rejected(self):
        s = MockRestServer()
        s.register(Endpoint("e", 1, "json", lambda: []))
        with pytest.raises(ValueError):
            infer_signature(s, "/v1/e")

    def test_missing_endpoint_raises(self, server):
        with pytest.raises(HttpError):
            infer_signature(server, "/v9/nothing")

    def test_sample_limit(self, server):
        profile = infer_signature(server, "/v1/stadiums", sample_limit=1)
        assert profile.record_count == 1


class TestBootstrapAndSuggestions:
    @pytest.fixture
    def scenario(self):
        s = FootballScenario.build(anchors_only=True)
        release_version(
            s.server,
            EndpointVersion(
                "stadiums",
                1,
                "json",
                lambda: [
                    {"id": 1, "stadium_name": "Camp Nou", "team_id": 25},
                ],
            ),
        )
        s.mdm.register_source("stadiums")
        return s

    def test_bootstrap_registers_and_fetches(self, scenario):
        registration, profile = scenario.mdm.bootstrap_wrapper(
            "stadiums", "wStad", scenario.server, "/v1/stadiums"
        )
        assert "team_id" in [n for n, _ in registration.attributes]
        rows = scenario.mdm.wrappers["wStad"].fetch()
        assert rows[0]["stadium_name"] == "Camp Nou"

    def test_bootstrap_records_release(self, scenario):
        scenario.mdm.bootstrap_wrapper(
            "stadiums", "wStad", scenario.server, "/v1/stadiums"
        )
        assert scenario.mdm.governance.latest("stadiums").wrapper_name == "wStad"

    def test_suggestions_rank_obvious_links_first(self, scenario):
        scenario.mdm.bootstrap_wrapper(
            "stadiums", "wStad", scenario.server, "/v1/stadiums"
        )
        suggestions = scenario.mdm.suggest_links_for("wStad", concepts=[TEAM])
        by_name = {s.attribute_name: s for s in suggestions}
        assert by_name["team_id"].best == EX.teamId
        assert by_name["team_id"].confident

    def test_suggestions_without_concept_scope(self, scenario):
        scenario.mdm.bootstrap_wrapper(
            "stadiums", "wStad", scenario.server, "/v1/stadiums"
        )
        suggestions = scenario.mdm.suggest_links_for("wStad")
        by_name = {s.attribute_name: s for s in suggestions}
        assert by_name["team_id"].best == EX.teamId  # still wins globally

    def test_no_candidates_below_minimum(self, scenario):
        scenario.mdm.bootstrap_wrapper(
            "stadiums", "wStad", scenario.server, "/v1/stadiums"
        )
        suggestions = scenario.mdm.suggest_links_for("wStad", concepts=[TEAM])
        by_name = {s.attribute_name: s for s in suggestions}
        assert by_name["id"].candidates == () or by_name["id"].candidates[0][1] < 0.8


class TestWrapperProfiling:
    def test_profile_live_wrapper(self):
        scenario = FootballScenario.build(anchors_only=True)
        profile = scenario.mdm.profile_wrapper("w1")
        assert profile.record_count == 6
        by_name = {a.name: a for a in profile.attributes}
        assert str(by_name["height"].inferred_type) == "float"
        assert by_name["pName"].nulls == 0

    def test_profile_unknown_wrapper(self):
        from repro.core.errors import SourceGraphError

        scenario = FootballScenario.build(anchors_only=True)
        with pytest.raises(SourceGraphError):
            scenario.mdm.profile_wrapper("ghost")

    def test_profile_detects_type_drift_between_versions(self):
        scenario = FootballScenario.build(anchors_only=True)
        scenario.release_players_v2()
        old = {a.name: a for a in scenario.mdm.profile_wrapper("w1").attributes}
        new = {a.name: a for a in scenario.mdm.profile_wrapper("w1v2").attributes}
        # v2 stringified team ids — the profile exposes the drift.
        assert str(old["teamId"].inferred_type) == "integer"
        assert str(new["teamId"].inferred_type) == "string"


class TestGraphDiff:
    def test_diff_detects_steward_edits(self):
        from repro.rdf.graph import Graph
        from repro.rdf.namespaces import EX

        scenario = FootballScenario.build(anchors_only=True)
        before = scenario.mdm.global_graph.graph.copy()
        scenario.mdm.add_concept(EX.Stadium)
        added, removed = scenario.mdm.global_graph.graph.diff(before)
        assert len(added) == 1
        assert len(removed) == 0

    def test_diff_symmetric(self):
        from repro.rdf.graph import Graph
        from repro.rdf.namespaces import EX

        a = Graph()
        a.add((EX.x, EX.p, EX.y))
        b = Graph()
        b.add((EX.q, EX.p, EX.y))
        only_a, only_b = a.diff(b)
        back_b, back_a = b.diff(a)
        assert only_a == back_a and only_b == back_b


class TestSignatureDiff:
    def test_pure_addition_not_breaking(self):
        diff = diff_signatures(["id"], ["id", "extra"])
        assert diff.added == ("extra",)
        assert not diff.is_breaking

    def test_removal_breaking(self):
        diff = diff_signatures(["id", "old"], ["id"])
        assert diff.removed == ("old",)
        assert diff.is_breaking

    def test_rename_by_name_similarity(self):
        diff = diff_signatures(["id", "team_id"], ["id", "teamId"])
        assert diff.renames == (("team_id", "teamId", 1.0),)
        assert diff.added == () and diff.removed == ()

    def test_rename_by_value_overlap(self):
        diff = diff_signatures(
            ["id", "name"],
            ["id", "zzz"],
            old_rows=[{"id": 1, "name": "Messi"}, {"id": 2, "name": "Lewa"}],
            new_rows=[{"id": 1, "zzz": "Messi"}, {"id": 2, "zzz": "Lewa"}],
        )
        assert diff.renames[0][:2] == ("name", "zzz")

    def test_greedy_matching_one_to_one(self):
        diff = diff_signatures(
            ["player_name", "team_name"],
            ["playerName", "teamName"],
        )
        pairs = {(old, new) for old, new, _ in diff.renames}
        assert pairs == {("player_name", "playerName"), ("team_name", "teamName")}

    def test_describe_lines(self):
        diff = diff_signatures(["a", "old_x"], ["a", "oldX", "brand_new"])
        lines = diff.describe()
        assert any(line.startswith("rename old_x -> oldX") for line in lines)
        assert "add brand_new" in lines

    def test_identical_signatures(self):
        diff = diff_signatures(["a", "b"], ["a", "b"])
        assert diff == SignatureDiff(kept=("a", "b"), added=(), removed=(), renames=())

    def test_mdm_diff_uses_live_samples(self):
        scenario = FootballScenario.build(anchors_only=True)
        scenario.release_players_v2()
        diff = scenario.mdm.diff_wrapper_versions("w1", "w1v2")
        assert not diff.is_breaking  # accommodated wrapper kept the names
