"""End-to-end lint: scenario gates, CLI, HTTP, and the execute() hook."""

import json

import pytest

from repro.analysis import lint_mdm
from repro.cli import main as cli_main
from repro.core.errors import PlanValidationError
from repro.obs import capture, get_metrics
from repro.relational.algebra import Project
from repro.relational.optimizer import PlanOptimizer
from repro.scenarios.broken import EXPECTED_CODES, broken_mdm
from repro.scenarios.football import FootballScenario
from repro.scenarios.supersede import SupersedeScenario
from repro.scenarios.synthetic import chain_mdm, versioned_concept_mdm
from repro.service.api import MdmService


# --- the bundled scenarios lint clean (the pytest gate) --------------- #


def test_football_scenario_lints_clean():
    report = lint_mdm(FootballScenario.build(anchors_only=True).mdm)
    assert report.ok, report.render_text()


def test_supersede_scenario_lints_clean():
    report = lint_mdm(SupersedeScenario.build().mdm)
    assert report.ok, report.render_text()


def test_synthetic_scenarios_lint_clean():
    for mdm in (chain_mdm(4)[0], versioned_concept_mdm(3)[0]):
        report = lint_mdm(mdm)
        assert report.ok, report.render_text()


# --- the seeded-broken scenario ---------------------------------------- #


def test_broken_scenario_fails_lint_with_expected_codes():
    report = lint_mdm(broken_mdm())
    assert not report.ok
    assert report.exit_code() == 1
    fired = {f.code for f in report.findings}
    assert EXPECTED_CODES <= fired
    assert len(fired) >= 9


def test_strict_mode_fails_on_warnings_only():
    mdm = FootballScenario.build(anchors_only=True).mdm
    from repro.sources.wrappers import StaticWrapper

    mdm.register_wrapper("players", StaticWrapper("wSpare", ["x"], []))
    report = lint_mdm(mdm)
    assert report.errors == 0 and report.warnings >= 1
    assert report.exit_code(strict=False) == 0
    assert report.exit_code(strict=True) == 1


def test_lint_emits_metrics():
    counter = get_metrics().counter("mdm_lint_findings_total")
    before = counter.value(severity="error")
    lint_mdm(broken_mdm())
    after = counter.value(severity="error")
    assert after > before


def test_a_read_with_empty_help_before_lint_keeps_the_help_line():
    with capture() as (_, registry):
        assert registry.counter("mdm_lint_findings_total", "").value(severity="error") == 0
        lint_mdm(broken_mdm())
        text = registry.render_prometheus()
    assert (
        "# HELP mdm_lint_findings_total Static-analysis findings reported by mdm lint.\n"
        in text
    )


# --- saved-query plan checking inside lint ----------------------------- #


def test_lint_checks_saved_query_plans():
    scenario = FootballScenario.build(anchors_only=True)
    mdm = scenario.mdm
    mdm.saved_queries.save("league", scenario.walk_player_team_names(), "demo")
    report = lint_mdm(mdm)
    assert report.checked_plans == 1
    assert report.ok, report.render_text()
    skipped = lint_mdm(mdm, check_plans=False)
    assert skipped.checked_plans == 0


def test_saved_plan_findings_are_relabelled(monkeypatch):
    """No valid metadata yields an MDM1xx saved-plan finding, so the
    plan checker is stubbed: lint must anchor its findings at the saved
    query, keeping the operator path as the detail."""
    from repro.analysis import lint as lint_module
    from repro.analysis.diagnostics import Finding, SourceLocation
    from repro.analysis.plan_checker import PLAN_RULES

    stub = PLAN_RULES["MDM102"].finding(
        "stub message", SourceLocation("plan-operator", "Distinct/Union", "x")
    )
    monkeypatch.setattr(
        lint_module, "check_plan", lambda plan, catalog: ([stub], None)
    )
    scenario = FootballScenario.build(anchors_only=True)
    scenario.mdm.saved_queries.save("league", scenario.walk_player_team_names())
    report = lint_mdm(scenario.mdm)
    assert report.checked_plans == 1
    assert [f for f in report.findings if f.code == "MDM102"] == [
        Finding(
            code="MDM102",
            severity=stub.severity,
            message="saved query 'league': stub message",
            location=SourceLocation("saved-query", "league", "Distinct/Union"),
            rule=stub.rule,
        )
    ]
    assert not report.ok


# --- the post-optimizer validation hook in MDM.execute ----------------- #


def _corrupting_optimize(self, plan):
    """Simulate an optimizer bug: project a column that does not exist."""
    optimized, stats = PlanOptimizer.__wrapped_optimize__(self, plan)
    return Project(optimized, ("no_such_column",)), stats


def test_corrupted_optimizer_rejected_before_execution(monkeypatch):
    scenario = FootballScenario.build(anchors_only=True)
    mdm = scenario.mdm
    walk = scenario.walk_player_team_names()

    monkeypatch.setattr(
        PlanOptimizer, "__wrapped_optimize__", PlanOptimizer.optimize, raising=False
    )
    monkeypatch.setattr(PlanOptimizer, "optimize", _corrupting_optimize)
    with pytest.raises(PlanValidationError) as excinfo:
        mdm.execute(walk)
    assert any(f.code == "MDM102" for f in excinfo.value.findings)
    assert "MDM102" in str(excinfo.value)


def test_validation_metrics_and_explain_analyze():
    scenario = FootballScenario.build(anchors_only=True)
    mdm = scenario.mdm
    outcome = mdm.execute(scenario.walk_player_team_names(), analyze=True)
    assert outcome.plan_findings == ()
    assert "Plan check: passed (no findings)" in outcome.explain_analyze()
    ok_count = get_metrics().counter("mdm_plan_validation_total").value(result="ok")
    assert ok_count >= 1


# --- CLI ---------------------------------------------------------------- #


def test_cli_lint_clean_scenario_exits_zero(capsys):
    assert cli_main(["lint", "--scenario", "football"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_cli_lint_broken_scenario_exits_nonzero(capsys):
    assert cli_main(["lint", "--scenario", "broken"]) == 1
    out = capsys.readouterr().out
    assert "MDM001" in out


def test_cli_lint_json_format(capsys):
    assert cli_main(["lint", "--scenario", "broken", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    codes = {f["code"] for f in payload["findings"]}
    assert EXPECTED_CODES <= codes


# --- exit-code matrix: --strict × --format json × error/warning-only --- #


def _warning_only_store(tmp_path):
    """A snapshot that lints to warnings only (MDM011: no runtimes)."""
    from repro.service.persistence import save_mdm

    store = str(tmp_path / "snap")
    save_mdm(FootballScenario.build(anchors_only=True).mdm, store)
    return store


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("strict", [False, True])
def test_cli_lint_matrix_errors_always_exit_one(fmt, strict, capsys):
    argv = ["lint", "--scenario", "broken", "--format", fmt]
    if strict:
        argv.append("--strict")
    assert cli_main(argv) == 1
    out = capsys.readouterr().out
    if fmt == "json":
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["summary"]["error"] >= 1


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("strict,expected", [(False, 0), (True, 1)])
def test_cli_lint_matrix_warnings_gate_on_strict(
    fmt, strict, expected, tmp_path, capsys
):
    store = _warning_only_store(tmp_path)
    argv = ["lint", "--store", store, "--format", fmt]
    if strict:
        argv.append("--strict")
    assert cli_main(argv) == expected
    out = capsys.readouterr().out
    if fmt == "json":
        payload = json.loads(out)
        # JSON changes the output shape, never the verdict: warnings
        # only, no errors, identical regardless of --strict.
        assert payload["summary"].get("error", 0) == 0
        assert payload["summary"]["warning"] >= 1


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("strict", [False, True])
def test_cli_lint_matrix_clean_always_exit_zero(fmt, strict, capsys):
    argv = ["lint", "--scenario", "football", "--format", fmt]
    if strict:
        argv.append("--strict")
    assert cli_main(argv) == 0
    capsys.readouterr()


def test_lint_help_documents_exit_codes(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["lint", "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "exit codes" in out
    assert "--strict" in out


def test_lint_report_exit_code_unit_matrix():
    from repro.analysis.diagnostics import Severity, SourceLocation
    from repro.analysis.lint import LintReport
    from repro.analysis.metadata_rules import METADATA_RULES

    error = METADATA_RULES["MDM006"].finding(
        "dangling", SourceLocation("graph-node", "x")
    )
    warning = METADATA_RULES["MDM009"].finding(
        "unmapped", SourceLocation("wrapper", "w")
    )
    assert error.severity is Severity.ERROR
    assert warning.severity is Severity.WARNING

    def report(findings):
        from repro.analysis.diagnostics import severity_counts

        return LintReport(
            findings=tuple(findings), summary=severity_counts(findings)
        )

    clean = report([])
    warn_only = report([warning])
    err_only = report([error])
    both = report([error, warning])
    for strict in (False, True):
        assert clean.exit_code(strict=strict) == 0
        assert err_only.exit_code(strict=strict) == 1
        assert both.exit_code(strict=strict) == 1
    assert warn_only.exit_code(strict=False) == 0
    assert warn_only.exit_code(strict=True) == 1


# --- HTTP --------------------------------------------------------------- #


def test_http_lint_route():
    service = MdmService(broken_mdm())
    response = service.request("GET", "/lint")
    assert response.status == 200
    assert response.body["ok"] is False
    assert {f["code"] for f in response.body["findings"]} >= EXPECTED_CODES
    # Toggles.
    limited = service.request("GET", "/lint", query={"saved": "false"})
    assert "MDM010" not in {f["code"] for f in limited.body["findings"]}
