"""Exception hierarchy for the MDM core.

Every error raised by :mod:`repro.core` derives from :class:`MdmError`, so
callers embedding MDM can catch one type.  The rewriting errors are
deliberately fine-grained: the demo's value proposition is *explaining*
why a query cannot be answered (no wrapper covers a concept, a concept
has no identifier, the walk is disconnected), not just failing.
"""

from __future__ import annotations

__all__ = [
    "MdmError",
    "GlobalGraphError",
    "SourceGraphError",
    "MappingError",
    "WalkError",
    "RewritingError",
    "NoCoverError",
    "MissingIdentifierError",
    "DisconnectedWalkError",
    "GavUnfoldingError",
    "PlanValidationError",
    "ImpactGateError",
    "PersistenceError",
    "SnapshotMissingError",
    "SnapshotCorruptError",
]


class MdmError(Exception):
    """Base class of all MDM errors."""


class GlobalGraphError(MdmError):
    """Invalid global-graph construction (e.g. feature in two concepts)."""


class SourceGraphError(MdmError):
    """Invalid source-graph construction or wrapper registration."""


class MappingError(MdmError):
    """An invalid LAV mapping (not a subgraph, missing identifier, ...).

    ``findings`` carries the full diagnostic list when the mapping store
    validated the whole submission at once (one
    :class:`repro.analysis.diagnostics.Finding` per violation); it is
    empty for errors raised outside that batch validation.
    """

    def __init__(self, message, findings=()):
        super().__init__(message)
        self.findings = tuple(findings)


class PlanValidationError(MdmError):
    """A relational plan failed the static schema check before execution.

    Raised by ``MDM.execute`` when the post-optimizer plan has
    error-severity findings; ``findings`` holds the
    :class:`repro.analysis.diagnostics.Finding` list.
    """

    def __init__(self, message, findings=()):
        super().__init__(message)
        self.findings = tuple(findings)


class ImpactGateError(MdmError):
    """A blocking evolution-impact gate rejected a proposed release.

    Raised before any metadata mutation happens when the impact gate is
    ``"blocking"`` and the static analyzer classified the release as
    ``BROKEN``; ``report`` carries the full
    :class:`repro.analysis.impact.ImpactReport` so the steward can read
    the blast radius straight off the exception.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class PersistenceError(MdmError):
    """A saved MDM snapshot could not be written or read back."""


class SnapshotMissingError(PersistenceError, FileNotFoundError):
    """A snapshot file is absent from the saved directory.

    Also a :class:`FileNotFoundError` so callers that predate the typed
    hierarchy keep working.
    """

    def __init__(self, path, detail=""):
        self.path = path
        message = f"no snapshot file at {path}"
        if detail:
            message = f"{message}: {detail}"
        PersistenceError.__init__(self, message)


class SnapshotCorruptError(PersistenceError):
    """A snapshot file exists but does not parse (truncated or mangled).

    ``path`` names the offending file and ``cause`` keeps the original
    parser exception for post-mortems.
    """

    def __init__(self, path, cause=None):
        self.path = path
        self.cause = cause
        detail = f": {cause}" if cause is not None else ""
        super().__init__(f"corrupt snapshot file {path}{detail}")


class WalkError(MdmError):
    """An invalid analyst walk (disconnected, empty, unknown nodes...)."""


class RewritingError(MdmError):
    """The query rewriting algorithm could not produce a UCQ."""


class NoCoverError(RewritingError):
    """No combination of wrappers covers a concept's requested features."""

    def __init__(self, concept, missing_features):
        self.concept = concept
        self.missing_features = sorted(missing_features, key=str)
        super().__init__(
            f"no wrapper cover for concept {concept}: features "
            f"{[str(f) for f in self.missing_features]} are not provided "
            "by any applicable wrapper"
        )


class MissingIdentifierError(RewritingError):
    """A walk concept has no identifier feature, so joins are impossible."""

    def __init__(self, concept):
        self.concept = concept
        super().__init__(
            f"concept {concept} has no feature inheriting from sc:identifier; "
            "cannot be joined or queried unambiguously"
        )


class DisconnectedWalkError(WalkError):
    """The analyst's contour selects a disconnected subgraph."""


class GavUnfoldingError(MdmError):
    """The GAV baseline's unfolding hit a stale mapping (the 'crash')."""
