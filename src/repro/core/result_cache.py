"""An LRU cache of full query *outcomes*, coherent under evolution.

The rewrite cache (:mod:`repro.core.rewrite_cache`) already memoizes the
UCQ *plan*; a repeated OMQ still re-fetches every wrapper and re-runs the
executor.  For the interactive-analyst workload of paper §2.5 — many
users posing the same handful of walks between releases — the expensive
part is exactly that tail, so this cache stores the finished
:class:`~repro.core.mdm.QueryOutcome` keyed by::

    (canonical walk, metadata generation, optimize, pushdown)

where the two flags come from the
:class:`~repro.core.config.ExecutionConfig` the query captured.

Generation keying makes invalidation free: any change to the metadata
graphs moves the generation, so every cached outcome becomes
unreachable the moment the metadata it was computed under changes —
the same coherence argument as the rewrite cache, extended to rows.

Two deliberate exclusions:

- **Partial outcomes are never cached.**  A result degraded by wrapper
  failures (``QueryOutcome.partial``) is a transient condition, not a
  function of the metadata; serving it after the source recovered would
  be a freshness bug with no invalidation signal.
- **The cache is opt-in for embedders** (capacity 0 by default).
  Wrappers federate *live* sources whose rows can change without any
  metadata mutation; caching outcomes trades that freshness for
  throughput, which is the right default for the multi-client service
  (``repro-mdm serve`` enables it) but not for a library caller pointed
  at moving data.

The LRU is the shared :class:`~repro.core.lru.GenerationLRU`:
hit/miss/eviction counts flow into the process metrics registry
(``mdm_result_cache_*``); hits are visible per-query as a
``result-cache`` span tagged ``cache=hit`` and as a ``Result cache:``
line in ``EXPLAIN ANALYZE``.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from ..chaos.failpoints import fire as _failpoint
from .config import ExecutionConfig
from .lru import GenerationLRU
from .rewrite_cache import walk_cache_key
from .walks import Walk

__all__ = ["ResultCache"]


def _analyzed(outcome: Any) -> bool:
    return getattr(outcome, "operator_stats", None) is not None


class ResultCache(GenerationLRU):
    """Bounded LRU of ``(walk, generation, config flags) -> QueryOutcome``.

    Thread-safe; capacity 0 disables the cache entirely (every probe is
    a bypass, nothing is stored).
    """

    def __init__(self, capacity: int = 0):
        super().__init__(capacity, "result_cache")

    @staticmethod
    def key_for(
        walk: Walk, generation: int, config: ExecutionConfig
    ) -> Tuple[str, int, bool, bool]:
        """The canonical cache key for a walk at a generation.

        Of the configuration, only the flags that shape the outcome take
        part: the rows are byte-identical either way, but the attached
        plans, profiles and pushdown summary differ.
        """
        return walk_cache_key(walk), generation, config.optimize, config.pushdown

    def get(
        self,
        walk: Walk,
        generation: int,
        config: ExecutionConfig,
        require_analyzed: bool = False,
    ) -> Optional[Any]:
        """The cached outcome for ``walk`` at ``generation``, or None.

        ``require_analyzed=True`` treats an entry without operator
        statistics as a miss: an ``analyze=True`` caller (or a recorded
        trace) was promised per-operator stats, which a plain cached run
        cannot supply.  The re-executed, analyzed outcome then replaces
        the plain entry, so later analyzed probes hit.
        """
        if not self.enabled:
            return None
        _failpoint("cache.result")
        return self.probe(
            self.key_for(walk, generation, config),
            accept=_analyzed if require_analyzed else None,
        )

    def put(
        self, walk: Walk, generation: int, config: ExecutionConfig, outcome: Any
    ) -> None:
        """Cache ``outcome`` (LRU-evicting); partial outcomes are refused."""
        if getattr(outcome, "partial", False):
            return  # degraded by wrapper failures — never cacheable
        self.store(self.key_for(walk, generation, config), outcome)
