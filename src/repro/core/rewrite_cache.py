"""An LRU cache for LAV rewrite plans, coherent under evolution.

Rewriting re-runs the three phases of paper §2.4 from scratch on every
query, yet the UCQ for a walk only changes when the metadata changes —
a wrapper release, a new mapping, an ontology edit.  The cache therefore
keys each entry by the *canonicalized walk* plus a **generation counter**
that :class:`~repro.core.mdm.MDM` bumps on every mutation of the global
graph, source graph or mapping store: a cached plan can only be served
while the metadata that produced it is still current, so evolution can
never serve a stale UCQ (the governance guarantee this repo exists to
demonstrate).

The LRU itself is the shared :class:`~repro.core.lru.GenerationLRU`:
hit/miss/eviction counts flow into the process metrics registry
(``mdm_rewrite_cache_*``) so ``report --metrics`` and the
``GET /metrics`` endpoint expose the hit ratio.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from ..chaos.failpoints import fire as _failpoint
from .lru import GenerationLRU
from .walks import Walk

__all__ = ["RewriteCache"]


def walk_cache_key(walk: Walk) -> str:
    """A canonical, order-independent text key for a walk.

    Built from :meth:`Walk.to_json_dict`, whose collections are sorted —
    two walks selecting the same concepts/features/edges/filters compare
    equal regardless of construction order.
    """
    return json.dumps(
        walk.to_json_dict(), sort_keys=True, separators=(",", ":")
    )


class RewriteCache(GenerationLRU):
    """Bounded LRU of ``(walk, generation) -> RewriteResult``.

    Thread-safe: concurrent queries through the service layer may probe
    and fill the cache from multiple threads.  Always enabled.
    """

    min_capacity = 1

    def __init__(self, capacity: int = 128):
        super().__init__(capacity, "rewrite_cache")

    def get(self, walk: Walk, generation: int) -> Optional[Any]:
        """The cached rewrite for ``walk`` at ``generation``, or None."""
        _failpoint("cache.rewrite")
        return self.probe((walk_cache_key(walk), generation))

    def put(self, walk: Walk, generation: int, result: Any) -> None:
        """Cache ``result`` for ``walk`` at ``generation`` (LRU-evicting)."""
        self.store((walk_cache_key(walk), generation), result)
