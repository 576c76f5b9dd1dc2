"""Static evolution-impact analysis: shadow isolation, verdicts, gate."""

import json

import pytest

from repro.analysis.evolution_rules import Verdict, verdict_of_findings
from repro.analysis.impact import (
    MetadataMutation,
    WrapperRelease,
    WrapperRetirement,
    analyze_impact,
    apply_change,
    change_from_json,
    change_from_json_text,
    shadow_mdm,
)
from repro.cli import main as cli_main
from repro.core.errors import ImpactGateError, MdmError
from repro.obs import get_metrics
from repro.rdf.namespaces import EX
from repro.scenarios.football import FootballScenario
from repro.service.api import MdmService
from repro.sources.evolution import NestFields, RenameField
from repro.sources.wrappers import StaticWrapper


@pytest.fixture()
def scenario():
    sc = FootballScenario.build(anchors_only=True)
    sc.mdm.saved_queries.save("player-team", sc.walk_player_team_names())
    sc.mdm.saved_queries.save("league-nat", sc.walk_league_nationality())
    return sc


def codes(report):
    return {f.code for f in report.findings}


# --- verdict lattice ---------------------------------------------------- #


def test_verdict_lattice_join():
    assert Verdict.SAFE.join(Verdict.DEGRADED) is Verdict.DEGRADED
    assert Verdict.DEGRADED.join(Verdict.BROKEN) is Verdict.BROKEN
    assert Verdict.BROKEN.join(Verdict.SAFE) is Verdict.BROKEN
    assert verdict_of_findings([]) is Verdict.SAFE


# --- shadow isolation --------------------------------------------------- #


def test_shadow_is_isolated_from_real_mdm(scenario):
    mdm = scenario.mdm
    shadow = shadow_mdm(mdm)
    apply_change(shadow, WrapperRetirement(wrapper="w1"))
    # Shadow mutated...
    assert "w1" not in shadow.wrappers
    assert mdm.source_graph.wrapper_by_name("w1") is not None
    # ...real MDM untouched.
    assert "w1" in mdm.wrappers
    result = mdm.rewriter.rewrite(scenario.walk_player_team_names())
    assert result.ucq_size >= 1


def test_analyze_leaves_generation_and_metadata_alone(scenario):
    mdm = scenario.mdm
    generation = mdm._generation
    wrappers = set(mdm.wrappers)
    releases = len(mdm.governance.history())
    report = mdm.analyze_impact(WrapperRetirement(wrapper="w1"))
    assert report.verdict is Verdict.BROKEN
    assert mdm._generation == generation
    assert set(mdm.wrappers) == wrappers
    assert len(mdm.governance.history()) == releases


def test_shadow_wrappers_refuse_to_fetch(scenario):
    shadow = shadow_mdm(scenario.mdm)
    proxy = shadow.wrappers["w1"]
    assert proxy.name == "w1"
    assert proxy.capabilities() == scenario.mdm.wrappers["w1"].capabilities()
    with pytest.raises(MdmError, match="refusing to fetch"):
        proxy.fetch()


def test_analysis_performs_zero_fetches(scenario, monkeypatch):
    from repro.sources import wrappers as wrappers_mod

    calls = []

    def record(self, *args, **kwargs):
        calls.append(self.name)
        raise AssertionError("impact analysis must not fetch")

    # Patch every concrete fetch entry point: subclasses override the
    # base methods, so patching Wrapper alone would miss them.
    for cls in (wrappers_mod.Wrapper, wrappers_mod.StaticWrapper):
        for method in ("fetch", "_fetch_push", "fetch_request"):
            if method in vars(cls):
                monkeypatch.setattr(cls, method, record)
    scenario.mdm.analyze_impact(WrapperRetirement(wrapper="w2"))
    scenario.mdm.analyze_impact(
        WrapperRelease(source="players", wrapper="wNew", base_wrapper="w1")
    )
    assert calls == []


# --- verdict classification --------------------------------------------- #


def test_retiring_sole_provider_is_broken(scenario):
    report = scenario.mdm.analyze_impact(WrapperRetirement(wrapper="w1"))
    assert report.verdict is Verdict.BROKEN
    assert "MDM201" in codes(report)  # saved query stops rewriting
    assert "MDM205" in codes(report)  # features lose all providers
    broken = {q.name for q in report.queries if q.verdict is Verdict.BROKEN}
    assert "player-team" in broken
    assert not report.ok
    assert report.exit_code(strict=False) == 1


def test_additive_release_is_degraded_not_safe(scenario):
    release = WrapperRelease(
        source="players", wrapper="wBis", base_wrapper="w1", auto_map=True
    )
    report = scenario.mdm.analyze_impact(release)
    # The UCQ gains conjunctive queries: results may change, so the
    # verdict must not claim byte-identical safety.
    assert report.verdict is Verdict.DEGRADED
    assert "MDM202" in codes(report)
    assert report.ok
    assert report.exit_code(strict=False) == 0
    assert report.exit_code(strict=True) == 1


def test_additive_concept_mutation_is_safe(scenario):
    report = scenario.mdm.analyze_impact(
        MetadataMutation(
            method="add_concept", args=(EX.Referee,), kwargs={"label": "Referee"}
        )
    )
    assert report.verdict is Verdict.SAFE
    assert report.ok
    # Cache invalidation is still reported, as info.
    assert "MDM207" in codes(report)


def test_invalid_release_is_broken_mdm209(scenario):
    report = scenario.mdm.analyze_impact(
        WrapperRelease(source="players", wrapper="wDup", attributes=("a", "a"))
    )
    assert report.verdict is Verdict.BROKEN
    assert "MDM209" in codes(report)
    assert not report.applied


def test_invalid_mapping_is_broken_mdm203(scenario):
    release = WrapperRelease(
        source="players",
        wrapper="wBadMap",
        attributes=("x",),
        map_attributes={"x": EX.noSuchFeature},
        auto_map=False,
    )
    report = scenario.mdm.analyze_impact(release)
    assert report.verdict is Verdict.BROKEN
    assert "MDM203" in codes(report)


def test_unknown_mutation_method_rejected(scenario):
    report = scenario.mdm.analyze_impact(
        MetadataMutation(method="bump_generation")
    )
    assert "MDM209" in codes(report)
    with pytest.raises(ValueError):
        apply_change(scenario.mdm, MetadataMutation(method="bump_generation"))


def test_unknown_base_wrapper_reported(scenario):
    report = scenario.mdm.analyze_impact(
        WrapperRelease(source="players", wrapper="wX", base_wrapper="nope")
    )
    assert report.verdict is Verdict.BROKEN
    assert "MDM209" in codes(report)


def test_query_broken_before_change_is_annotated(scenario):
    mdm = scenario.mdm
    apply_change(mdm, WrapperRetirement(wrapper="w1"))
    report = mdm.analyze_impact(
        MetadataMutation(method="add_concept", args=(EX.Coach,))
    )
    notes = {q.name: q.note for q in report.queries}
    assert "already broken" in notes["player-team"]
    # Pre-existing breakage is not blamed on the proposed change.
    assert "MDM201" not in codes(report)


# --- the differential primitive: apply_change for real ------------------ #


def test_apply_change_release_registers_and_maps(scenario):
    mdm = scenario.mdm
    release = WrapperRelease(
        source="players",
        wrapper="w1v2",
        base_wrapper="w1",
        changes=(
            RenameField("pName", "fullName"),
            NestFields(("height", "weight"), "physique"),
        ),
        auto_map=True,
    )
    generation = mdm._generation
    apply_change(mdm, release)
    assert "w1v2" in mdm.wrappers
    assert mdm._generation > generation
    history = mdm.governance.history("players")
    assert history[-1].wrapper_name == "w1v2"


def test_apply_change_retirement_removes_everything(scenario):
    mdm = scenario.mdm
    generation = mdm._generation
    apply_change(mdm, WrapperRetirement(wrapper="w1"))
    assert "w1" not in mdm.wrappers
    assert mdm.source_graph.wrapper_by_name("w1") is None
    assert mdm._generation > generation
    # The differential criterion for BROKEN: fails or rewrites to nothing.
    try:
        result = mdm.rewriter.rewrite(scenario.walk_player_team_names())
    except MdmError:
        pass
    else:
        assert result.ucq_size == 0


def test_retire_unknown_wrapper_raises(scenario):
    with pytest.raises(MdmError):
        apply_change(scenario.mdm, WrapperRetirement(wrapper="ghost"))


# --- the governance gate ------------------------------------------------ #


def test_gate_off_by_default(scenario):
    assert scenario.mdm.config.impact_gate == "off"
    assert scenario.mdm.execution_config()["impact_gate"] == "off"


def test_gate_validation():
    from repro.core.mdm import MDM

    with pytest.raises(ValueError):
        MDM(impact_gate="aggressive")
    mdm = MDM(impact_gate="advisory")
    assert mdm.config.impact_gate == "advisory"
    mdm.configure_execution(impact_gate="blocking")
    assert mdm.config.impact_gate == "blocking"
    with pytest.raises(ValueError):
        mdm.configure_execution(impact_gate="nope")


def test_advisory_gate_records_verdict_on_release(scenario):
    mdm = scenario.mdm
    mdm.configure_execution(impact_gate="advisory")
    mdm.register_wrapper(
        "players", StaticWrapper("wAdvised", ["id", "quirk"], [])
    )
    doc = mdm.metadata.collection("releases").find(
        {"wrapper": "wAdvised"}
    )[0]
    assert doc["impact"]["gate"] == "advisory"
    assert doc["impact"]["verdict"] in {"safe", "degraded", "broken"}


def test_blocking_gate_raises_before_mutation(scenario, monkeypatch):
    mdm = scenario.mdm
    mdm.configure_execution(impact_gate="blocking")

    broken_report = mdm.analyze_impact(WrapperRetirement(wrapper="w1"))
    assert not broken_report.ok
    monkeypatch.setattr(mdm, "analyze_impact", lambda change: broken_report)

    generation = mdm._generation
    with pytest.raises(ImpactGateError) as excinfo:
        mdm.register_wrapper(
            "players", StaticWrapper("wBlocked", ["id", "other"], [])
        )
    assert excinfo.value.report is broken_report
    # Nothing mutated: no registration, no release, no generation bump.
    assert mdm._generation == generation
    assert mdm.source_graph.wrapper_by_name("wBlocked") is None
    assert all(
        r.wrapper_name != "wBlocked" for r in mdm.governance.history()
    )


def test_record_gate_is_defense_in_depth(scenario):
    mdm = scenario.mdm
    report = mdm.analyze_impact(WrapperRetirement(wrapper="w1"))
    assert not report.ok
    registration = mdm.register_wrapper(
        "teams", StaticWrapper("wTmp", ["tid9"], [])
    )
    with pytest.raises(ImpactGateError):
        mdm.governance.record(
            "teams", registration, "evolution", impact=report, gate="blocking"
        )
    # Advisory: recorded, verdict stored.
    release = mdm.governance.record(
        "teams", registration, "evolution", impact=report, gate="advisory"
    )
    doc = mdm.metadata.collection("releases").find(
        {"sequence": release.sequence}
    )[0]
    assert doc["impact"]["verdict"] == "broken"


# --- observability ------------------------------------------------------ #


def test_impact_metrics_and_log(scenario):
    mdm = scenario.mdm
    counter = get_metrics().counter(
        "mdm_impact_checks_total", "", labelnames=("verdict",)
    )
    before = counter.value(verdict="broken")
    mdm.analyze_impact(WrapperRetirement(wrapper="w1"))
    assert counter.value(verdict="broken") == before + 1
    recent = mdm.recent_impact()
    assert recent and recent[0].change == "retire w1"


def test_recent_impact_is_newest_first(scenario):
    mdm = scenario.mdm
    mdm.analyze_impact(WrapperRetirement(wrapper="w1"))
    mdm.analyze_impact(WrapperRetirement(wrapper="w2"))
    recent = mdm.recent_impact(2)
    assert [r.change for r in recent] == ["retire w2", "retire w1"]


# --- JSON protocol ------------------------------------------------------ #


def test_change_from_json_roundtrips():
    retire = change_from_json({"retire": "w1"})
    assert isinstance(retire, WrapperRetirement) and retire.wrapper == "w1"

    release = change_from_json(
        {
            "release": {
                "source": "players",
                "wrapper": "w1v2",
                "base_wrapper": "w1",
                "changes": [
                    {"op": "rename", "old": "pName", "new": "fullName"},
                    {"op": "nest", "names": ["height", "weight"], "under": "physique"},
                    {"op": "retype", "name": "teamId"},
                ],
            }
        }
    )
    assert isinstance(release, WrapperRelease)
    assert len(release.changes) == 3

    mutation = change_from_json_text(
        json.dumps(
            {
                "mutation": {
                    "method": "add_concept",
                    "args": [{"iri": "http://example.org/Thing"}],
                }
            }
        )
    )
    assert isinstance(mutation, MetadataMutation)
    assert mutation.args[0].value == "http://example.org/Thing"


def test_change_from_json_rejects_garbage():
    with pytest.raises((ValueError, TypeError, KeyError)):
        change_from_json({"bogus": 1})
    with pytest.raises((ValueError, TypeError, KeyError)):
        change_from_json({"release": {"source": "s"}})  # no wrapper
    with pytest.raises((ValueError, TypeError, KeyError)):
        change_from_json(
            {
                "release": {
                    "source": "s",
                    "wrapper": "w",
                    "changes": [{"op": "explode"}],
                }
            }
        )


def test_report_json_shape(scenario):
    report = scenario.mdm.analyze_impact(WrapperRetirement(wrapper="w1"))
    payload = report.to_json_dict()
    assert payload["verdict"] == "broken"
    assert payload["ok"] is False
    assert payload["change"] == "retire w1"
    assert any(f["code"] == "MDM201" for f in payload["findings"])
    assert {q["name"] for q in payload["queries"]} == {
        "player-team",
        "league-nat",
    }
    json.dumps(payload)  # must be serializable as-is


# --- service ------------------------------------------------------------ #


def test_http_post_impact(scenario):
    service = MdmService(scenario.mdm)
    response = service.request("POST", "/impact", {"retire": "w1"})
    assert response.status == 200
    assert response.body["verdict"] == "broken"
    recent = service.request("GET", "/impact/recent")
    assert recent.status == 200
    assert recent.body["total"] == 1
    assert recent.body["reports"][0]["change"] == "retire w1"
    # The descriptive per-source route still answers.
    legacy = service.request("GET", "/impact/players")
    assert legacy.status == 200 and legacy.body["source"] == "players"


def test_http_post_impact_rejects_bad_body(scenario):
    service = MdmService(scenario.mdm)
    assert service.request("POST", "/impact", {"nope": True}).status == 400
    assert service.request("POST", "/impact", "not-a-dict").status == 400


def test_http_impact_gate_config(scenario):
    service = MdmService(scenario.mdm)
    response = service.request(
        "POST", "/config/execution", {"impact_gate": "advisory"}
    )
    assert response.status == 200
    assert response.body["impact_gate"] == "advisory"
    assert (
        service.request(
            "POST", "/config/execution", {"impact_gate": "nope"}
        ).status
        == 400
    )


# --- CLI ---------------------------------------------------------------- #


def test_cli_impact_retire_exits_on_broken(capsys):
    # The bundled football scenario has no saved queries, so retiring a
    # sole provider degrades (features lose providers) without breaking.
    code = cli_main(["impact", "--scenario", "football", "--retire", "w1"])
    out = capsys.readouterr().out
    assert "MDM205" in out
    assert code == 0
    assert (
        cli_main(
            ["impact", "--scenario", "football", "--retire", "w1", "--strict"]
        )
        == 1
    )
    capsys.readouterr()


def test_cli_impact_json_output(capsys):
    code = cli_main(
        [
            "impact",
            "--scenario",
            "football",
            "--propose",
            json.dumps({"retire": "w4"}),
            "--format",
            "json",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["change"] == "retire w4"
    assert code in (0, 1)


def test_cli_impact_legacy_source_report(capsys):
    assert cli_main(["impact", "players", "--scenario", "football"]) == 0
    out = capsys.readouterr().out
    assert "source   : players" in out


def test_cli_impact_requires_source_or_proposal():
    with pytest.raises(SystemExit):
        cli_main(["impact", "--scenario", "football"])
