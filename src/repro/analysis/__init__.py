"""Static diagnostics for MDM: metadata lint and plan schema checking.

The governance promise of the paper — evolution must not silently break
saved analytical processes — only holds if misconfiguration is caught
*before* queries run.  This package is the compiler-front-end analogue
for MDM's metadata and plans:

- :mod:`repro.analysis.diagnostics` — the engine: stable error codes
  (``MDM001``…), severities, source locations, findings, a rule catalog
  and text/JSON renderers;
- :mod:`repro.analysis.metadata_rules` — the lint rule pack over the BDI
  ontology (global graph, source graph, LAV mappings, saved OMQs);
- :mod:`repro.analysis.plan_checker` — applies each operator's own
  schema rule (``PlanNode.derive``) bottom-up over
  :mod:`repro.relational.algebra` plans, reporting every failed check,
  plus type diagnostics on predicates and joins; used standalone by
  ``repro-mdm lint`` and as the post-optimizer assertion on every
  plan ``MDM.execute`` runs;
- :mod:`repro.analysis.lint` — the orchestrator producing a
  :class:`~repro.analysis.lint.LintReport` for the CLI (``lint``
  subcommand) and the service (``GET /lint``).
"""

from __future__ import annotations

from .diagnostics import (
    RULE_CATALOG,
    Finding,
    RuleInfo,
    Severity,
    SourceLocation,
    render_json,
    render_text,
)
from .lint import LintReport, lint_mdm
from .plan_checker import check_plan

__all__ = [
    "Severity",
    "SourceLocation",
    "Finding",
    "RuleInfo",
    "RULE_CATALOG",
    "render_text",
    "render_json",
    "check_plan",
    "lint_mdm",
    "LintReport",
]
