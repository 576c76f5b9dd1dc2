"""``mdm lint``: the whole-system static-analysis pass.

:func:`lint_mdm` runs the metadata rule pack (MDM001–MDM011,
MDM019–MDM020) and, for
every saved query that still rewrites, the plan schema checker
(MDM101–MDM105) against a catalog derived from the registered wrapper
signatures — no wrapper is fetched, so the pass is safe to run in CI or
against a production snapshot.  The result is a :class:`LintReport` that
renders as text or JSON and maps to a process exit code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from ..obs import get_metrics
from ..relational.schema import RelationSchema
from .diagnostics import (
    Finding,
    Severity,
    SourceLocation,
    render_json,
    render_text,
    severity_counts,
    sort_findings,
)
from .metadata_rules import run_metadata_rules
from .plan_checker import check_plan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.mdm import MDM

__all__ = ["LintReport", "lint_mdm", "wrapper_catalog"]


@dataclass(frozen=True)
class LintReport:
    """The outcome of one lint pass."""

    findings: Tuple[Finding, ...]
    #: How many saved queries had their plans schema-checked.
    checked_plans: int = 0
    summary: Dict[str, int] = field(default_factory=dict)

    @property
    def errors(self) -> int:
        return self.summary.get("error", 0)

    @property
    def warnings(self) -> int:
        return self.summary.get("warning", 0)

    @property
    def ok(self) -> bool:
        """True when nothing error-severity was found."""
        return self.errors == 0

    def exit_code(self, strict: bool = False) -> int:
        """CLI exit code: 1 on errors, 1 on warnings too when ``strict``."""
        if self.errors:
            return 1
        if strict and self.warnings:
            return 1
        return 0

    def render_text(self) -> str:
        lines = [render_text(self.findings)]
        lines.append(f"plans checked: {self.checked_plans}")
        return "\n".join(lines)

    def render_json(self) -> str:
        return render_json(
            self.findings, extra={"checked_plans": self.checked_plans}
        )

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "findings": [f.to_dict() for f in sort_findings(self.findings)],
            "summary": dict(self.summary),
            "checked_plans": self.checked_plans,
            "ok": self.ok,
        }


def wrapper_catalog(mdm: "MDM") -> Dict[str, RelationSchema]:
    """Scan-name → schema catalog from registered wrapper signatures.

    Mirrors what the executor's catalog looks like after fetching: one
    relation per wrapper, columns named after the signature attributes,
    all ANY-typed (static lint has no sample rows to infer from).
    """
    catalog: Dict[str, RelationSchema] = {}
    for wrapper in mdm.source_graph.wrappers():
        name = mdm.source_graph.wrapper_name(wrapper) or wrapper.local_name()
        names = [
            mdm.source_graph.attribute_name(a) or a.local_name()
            for a in mdm.source_graph.attributes_of(wrapper)
        ]
        if names:
            catalog[name] = RelationSchema.of(*names)
    return catalog


def _check_saved_plans(mdm: "MDM") -> Tuple[List[Finding], int]:
    """MDM1xx findings over the rewrite plans of all saved queries."""
    from ..core.errors import MdmError

    catalog = wrapper_catalog(mdm)
    findings: List[Finding] = []
    checked = 0
    walks = mdm.saved_queries.walks()
    for name, result in zip(walks, mdm.replay(walks.values())):
        if isinstance(result, MdmError):
            continue  # already reported as MDM010 by the governance rule
        plan_findings, _ = check_plan(result.plan, catalog)
        for finding in plan_findings:
            location = finding.location
            findings.append(
                Finding(
                    code=finding.code,
                    severity=finding.severity,
                    message=f"saved query {name!r}: {finding.message}",
                    location=SourceLocation(
                        "saved-query",
                        name,
                        location.name if location is not None else "",
                    ),
                    rule=finding.rule,
                )
            )
        checked += 1
    return findings, checked


def lint_mdm(mdm: "MDM", replay_saved: bool = True, check_plans: bool = True
) -> LintReport:
    """Run every static rule against ``mdm`` and return the report.

    ``replay_saved`` controls the MDM010 governance replay;
    ``check_plans`` the MDM1xx schema check of saved-query plans.  The
    pass holds the read lock, so it reports one generation.  The
    per-severity totals are observed into the
    ``mdm_lint_findings_total{severity}`` counter.
    """
    with mdm.metadata_lock.read_locked():
        findings = run_metadata_rules(mdm, replay_saved=replay_saved)
        checked = 0
        if check_plans:
            plan_findings, checked = _check_saved_plans(mdm)
            findings.extend(plan_findings)
    counts = severity_counts(findings)
    counter = get_metrics().counter("mdm_lint_findings_total")
    for severity in Severity:
        if counts[str(severity)]:
            counter.inc(counts[str(severity)], severity=str(severity))
    return LintReport(
        findings=tuple(sort_findings(findings)),
        checked_plans=checked,
        summary=counts,
    )
