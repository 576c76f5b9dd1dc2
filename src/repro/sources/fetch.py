"""Pushed-down fetch requests across the wrapper boundary.

The optimizer's pushdown pass (``PlanOptimizer.extract_pushdown``) folds
eligible σ/π operators into the :class:`~repro.relational.algebra.Scan`
they sit on; this module is the *transport* form of that folded work: a
:class:`FetchRequest` travels from the mediator to a wrapper, which
answers with only the rows/columns the query needs (OBDA-style source
delegation, cf. arXiv:1801.05161 §5).

The contract is **exactness**, not best effort: a wrapper that declares
the ``filters`` capability must return exactly the rows an executor-side
``Select`` with the same conjunction would keep (NULL comparisons are
False; incomparable types fall back to string comparison for ``=``/``!=``
only).  Wrappers that can only *pre*-filter (e.g. a REST endpoint whose
query parameters compare stringified raw fields) must re-apply the exact
predicate to the typed relation before returning — see
``RestWrapper._fetch_push``.  Uncapable wrappers fall back to a full
fetch with the request applied mediator-side, so pushdown never changes
results, only where the filtering happens.

Requests are canonicalized (filters sorted, columns as fetched order)
so structurally equal scans dedupe to one source round-trip and one
wrapper-cache entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..relational.relation import Relation

__all__ = [
    "CAP_FILTERS",
    "CAP_PROJECTION",
    "CAP_LIMIT",
    "FetchRequest",
    "FetchResult",
    "apply_fetch_request",
]

#: Capability flags a wrapper may declare (see ``Wrapper.capabilities``).
CAP_FILTERS = "filters"
CAP_PROJECTION = "projection"
CAP_LIMIT = "limit"


@dataclass(frozen=True)
class FetchRequest:
    """What a scan needs from a wrapper: filters, columns, optional limit.

    ``filters`` holds ``(column, op, value)`` conjuncts in canonical
    order; ``columns`` is the needed-column tuple or ``None`` for every
    signature column; ``limit`` truncates after filtering.  The default
    instance is a *full* fetch, byte-identical to legacy ``fetch()``.
    """

    filters: Tuple[Tuple[str, str, Any], ...] = field(default=())
    columns: Optional[Tuple[str, ...]] = field(default=None)
    limit: Optional[int] = field(default=None)

    @property
    def is_full(self) -> bool:
        """Whether this request pushes nothing (plain full fetch)."""
        return not self.filters and self.columns is None and self.limit is None

    def canonical(self) -> str:
        """Deterministic key string (wrapper-cache / request dedup)."""
        if self.is_full:
            return "*"
        parts: List[str] = []
        if self.filters:
            rendered = ",".join(f"{c}{op}{v!r}" for c, op, v in self.filters)
            parts.append(f"σ[{rendered}]")
        if self.columns is not None:
            parts.append(f"π[{','.join(self.columns)}]")
        if self.limit is not None:
            parts.append(f"limit[{self.limit}]")
        return "".join(parts)

    def describe(self) -> Dict[str, Any]:
        """JSON-shaped summary for EXPLAIN / query-log payloads."""
        return {
            "filters": [list(f) for f in self.filters],
            "columns": None if self.columns is None else list(self.columns),
            "limit": self.limit,
        }


#: The full-fetch request (shared; FetchRequest is frozen).
FULL_FETCH = FetchRequest()


@dataclass(frozen=True)
class FetchResult:
    """A wrapper's answer to a :class:`FetchRequest`.

    ``rows_transferred`` counts rows that actually crossed the wrapper
    boundary (post source-side filtering); ``rows_source`` is the
    source's full cardinality when the wrapper knows it (``None`` for
    remote sources that never materialized the full payload here).
    """

    relation: Relation
    rows_transferred: int
    rows_source: Optional[int] = None


def apply_fetch_request(relation: Relation, request: FetchRequest) -> Relation:
    """Apply ``request`` to a full relation, mediator-side semantics.

    This is the residual/fallback evaluator: identical to running
    ``Select`` + ``Project`` in the executor, so capable and uncapable
    wrappers agree byte-for-byte.
    """
    from ..chaos.failpoints import fire as _failpoint
    from ..relational.executor import apply_pushdown

    _failpoint("fetch.apply", key=relation.name)
    return apply_pushdown(relation, request.filters, request.columns, request.limit)
