"""The evolution-impact rule catalog: the ``MDM2xx`` range + verdict lattice.

The impact analyzer (:mod:`repro.analysis.impact`) classifies a *proposed*
change — a wrapper release, a wrapper retirement, or any of the nine MDM
metadata mutations — before it lands, by applying it to a shadow copy of
the metadata graph and diffing what the rewriting/plan machinery would do.
Every observable consequence gets a stable ``MDM2xx`` code here, in the
same catalog the lint pack (``MDM0xx``) and the plan checker (``MDM1xx``)
use, so CI gates and dashboards can reference the blast radius without
depending on message wording.

The verdict lattice orders ``SAFE < DEGRADED < BROKEN``; a report's
verdict is the join over its findings' severities (error → ``BROKEN``,
warning → ``DEGRADED``, info only → ``SAFE``).
"""

from __future__ import annotations

import enum
from typing import Iterable, Mapping

from .diagnostics import Finding, RuleInfo, Severity, register_rule_info

__all__ = ["Verdict", "IMPACT_RULES", "verdict_of_findings", "verdict_of_severity"]


class Verdict(enum.Enum):
    """Impact classification for a proposed change (a join-semilattice)."""

    SAFE = "safe"
    DEGRADED = "degraded"
    BROKEN = "broken"

    def __str__(self) -> str:
        return self.value

    @property
    def rank(self) -> int:
        """Numeric rank for joins (higher is worse)."""
        return {"safe": 0, "degraded": 1, "broken": 2}[self.value]

    def join(self, other: "Verdict") -> "Verdict":
        """The least upper bound of two verdicts."""
        return self if self.rank >= other.rank else other


def verdict_of_severity(severity: Severity) -> Verdict:
    """Map one finding severity onto the verdict lattice."""
    if severity is Severity.ERROR:
        return Verdict.BROKEN
    if severity is Severity.WARNING:
        return Verdict.DEGRADED
    return Verdict.SAFE


def verdict_of_findings(findings: Iterable[Finding]) -> Verdict:
    """The join over all findings' severities (``SAFE`` when empty)."""
    verdict = Verdict.SAFE
    for finding in findings:
        verdict = verdict.join(verdict_of_severity(finding.severity))
    return verdict


#: The impact rule catalog, ``code -> RuleInfo``.
IMPACT_RULES: Mapping[str, RuleInfo] = {
    "MDM201": register_rule_info(
        "MDM201",
        "saved-query-broken",
        Severity.ERROR,
        "A saved query that rewrites today would stop rewriting (the UCQ "
        "becomes empty or the rewriting raises) after the proposed change.",
    ),
    "MDM202": register_rule_info(
        "MDM202",
        "saved-query-rewrite-changed",
        Severity.WARNING,
        "A saved query's UCQ changes shape after the proposed change — it "
        "loses or gains conjunctive queries, so its results may differ.",
    ),
    "MDM203": register_rule_info(
        "MDM203",
        "proposed-mapping-invalid",
        Severity.ERROR,
        "The proposed release's LAV mapping violates the mapping "
        "well-formedness rules (MDM012–MDM018) and would be rejected.",
    ),
    "MDM204": register_rule_info(
        "MDM204",
        "concept-coverage-lost",
        Severity.ERROR,
        "A concept covered by at least one mapped wrapper today would be "
        "covered by none after the proposed change — every query touching "
        "it stops rewriting.",
    ),
    "MDM205": register_rule_info(
        "MDM205",
        "feature-coverage-lost",
        Severity.WARNING,
        "A feature populated by at least one mapped wrapper today would "
        "lose all providers after the proposed change.",
    ),
    "MDM206": register_rule_info(
        "MDM206",
        "pushdown-capability-lost",
        Severity.WARNING,
        "A saved query's wrapper set loses a pushdown capability "
        "(filters/projection/limit) after the proposed change — the "
        "mediator falls back to full fetches for it.",
    ),
    "MDM207": register_rule_info(
        "MDM207",
        "caches-invalidated",
        Severity.INFO,
        "Applying the change moves the metadata generation (it changes "
        "the graphs or namespace bindings), making every generation-keyed "
        "cache entry (rewrite/result/wrapper data) cold.",
    ),
    "MDM208": register_rule_info(
        "MDM208",
        "plan-check-regression",
        Severity.WARNING,
        "The static plan schema check (MDM1xx) reports findings on a "
        "saved query's rewritten plan after the change that it does not "
        "report today.",
    ),
    "MDM209": register_rule_info(
        "MDM209",
        "proposed-change-invalid",
        Severity.ERROR,
        "The proposed change cannot be applied at all (unknown source or "
        "wrapper, malformed mutation, signature conflict).",
    ),
}
