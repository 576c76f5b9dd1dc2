"""A generation-keyed LRU of fetched wrapper *relations*.

One level below the result cache (:mod:`repro.core.result_cache`): where
that cache stores finished query outcomes, this one stores the typed
relation a single wrapper returned for a single canonical
:class:`~repro.sources.fetch.FetchRequest`, keyed by::

    (wrapper name, canonical request, metadata generation)

Generation keying reuses the write-lock generation counter: any metadata
mutation bumps it and every cached payload becomes unreachable, which is
exactly the invalidation semantics the rewrite and result caches already
follow.  Between generations the cache assumes *source stability* — the
same freshness trade the result cache makes, so it is likewise opt-in
(capacity 0 by default, enabled via ``MDM(wrapper_cache_size=…)``,
``$MDM_WRAPPER_CACHE`` or ``POST /config/execution``).

A lookup for a pushed request that misses may still be served from a
cached *full* fetch of the same wrapper at the same generation: the
request is applied mediator-side with executor semantics, so the derived
relation is byte-identical to what the source would have returned.
Relations are immutable (tuple-backed rows), so entries are shared
without copying.

The LRU is the shared :class:`~repro.core.lru.GenerationLRU`: hits,
misses and evictions flow into the process metrics registry
(``mdm_wrapper_cache_*``); per-query hits surface as ``wrapper-cache``
spans tagged ``cache=hit`` and in the ``EXPLAIN ANALYZE`` pushdown
section.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..chaos.failpoints import fire as _failpoint
from ..relational.relation import Relation
from ..sources.fetch import FULL_FETCH, FetchRequest, apply_fetch_request
from .lru import GenerationLRU

__all__ = ["WrapperCache"]

_Key = Tuple[str, str, int]


class WrapperCache(GenerationLRU):
    """Bounded LRU of ``(wrapper, request, generation) -> Relation``.

    Thread-safe; capacity 0 disables the cache entirely.
    """

    def __init__(self, capacity: int = 0):
        super().__init__(capacity, "wrapper_cache")

    @staticmethod
    def key_for(wrapper: str, request: FetchRequest, generation: int) -> _Key:
        """The canonical cache key for one wrapper fetch at a generation."""
        return (wrapper, request.canonical(), generation)

    def lookup(
        self, wrapper: str, request: FetchRequest, generation: int
    ) -> Optional[Relation]:
        """The relation answering ``request``, or None (one hit OR miss).

        Probes the exact request key first, then — for a pushed request —
        the wrapper's full-fetch entry at the same generation, deriving
        the pushed relation locally.  The derived relation is stored
        under the exact key so later probes hit directly.
        """
        if not self.enabled:
            return None
        _failpoint("cache.wrapper", key=wrapper)

        def derive() -> Optional[Relation]:
            full = self._entries.get(self.key_for(wrapper, FULL_FETCH, generation))
            return None if full is None else apply_fetch_request(full, request)

        return self.probe(
            self.key_for(wrapper, request, generation),
            derive=None if request.is_full else derive,
        )

    def put(
        self, wrapper: str, request: FetchRequest, generation: int, relation: Relation
    ) -> None:
        """Cache one fetched relation (LRU-evicting)."""
        self.store(self.key_for(wrapper, request, generation), relation)
