"""Ablation E — accuracy and cost of semi-automatic integration.

The paper's value proposition for stewards is assistance: "data stewards
are provided with mechanisms to semi-automatically integrate new sources
and accommodate schema evolution".  This bench quantifies the two
assists this reproduction implements beyond attribute reuse:

- **signature inference** from a live endpoint (time per bootstrap);
- **name-based link suggestions** — measured as top-1 accuracy over a
  synthetic battery of attribute-naming conventions (snake_case,
  camelCase, abbreviations, prefixes) against the football ontology;
- **rename detection** in signature diffs under value-overlap evidence.
"""

from benchmarks.conftest import emit
from repro.core.diffing import diff_signatures
from repro.sources.evolution import EndpointVersion, release_version
from repro.sources.inference import infer_signature

#: (attribute name as a source would spell it, expected feature local name)
NAMING_BATTERY = [
    ("player_id", "playerId"),
    ("playerId", "playerId"),
    ("player_name", "playerName"),
    ("pName", "playerName"),
    ("height", "height"),
    ("weight", "weight"),
    ("rating", "rating"),
    ("preferred_foot", "preferredFoot"),
    ("team_id", "teamId"),
    ("team_name", "teamName"),
    ("short_name", "shortName"),
    ("league_id", "leagueId"),
    ("league_name", "leagueName"),
    ("country_id", "countryId"),
    ("country_name", "countryName"),
    ("country_code", "countryCode"),
]


def test_signature_inference_speed(benchmark, anchors_scenario):
    profile = benchmark(
        lambda: infer_signature(anchors_scenario.server, "/v1/players")
    )
    assert "name" in profile.attribute_names
    assert profile.record_count == 6


def test_link_suggestion_accuracy(benchmark, anchors_scenario):
    mdm = anchors_scenario.mdm
    release_version(
        anchors_scenario.server,
        EndpointVersion(
            "battery",
            1,
            "json",
            lambda: [{name: 1 for name, _ in NAMING_BATTERY}],
        ),
    )
    mdm.register_source("battery")
    registration, _ = mdm.bootstrap_wrapper(
        "battery", "wBattery", anchors_scenario.server, "/v1/battery"
    )

    def run_suggestions():
        return mdm.suggest_links_for("wBattery")

    suggestions = benchmark(run_suggestions)
    by_name = {s.attribute_name: s for s in suggestions}
    hits = 0
    lines = []
    for attribute, expected in NAMING_BATTERY:
        best = by_name[attribute].best
        got = best.local_name() if best is not None else "-"
        correct = got == expected
        hits += correct
        lines.append(f"  {attribute:>16} -> {got:<16} {'✓' if correct else '✗ want ' + expected}")
    accuracy = hits / len(NAMING_BATTERY)
    emit(
        f"Ablation E — link suggestion top-1 accuracy: {accuracy:.0%}",
        "\n".join(lines),
    )
    assert accuracy >= 0.8  # the assist is useful, not perfect — by design


def test_rename_detection_with_value_evidence(benchmark):
    old_rows = [{"id": i, "name": f"player {i}", "team": i % 5} for i in range(50)]
    new_rows = [{"id": i, "displayName": f"player {i}", "team": i % 5} for i in range(50)]

    def run_diff():
        return diff_signatures(
            ["id", "name", "team"],
            ["id", "displayName", "team"],
            old_rows=old_rows,
            new_rows=new_rows,
        )

    diff = benchmark(run_diff)
    assert diff.renames[0][:2] == ("name", "displayName")
    assert diff.renames[0][2] == 1.0  # value overlap is decisive
