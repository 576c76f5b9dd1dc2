"""An LRU cache for LAV rewrite plans, coherent under evolution.

Rewriting re-runs the three phases of paper §2.4 from scratch on every
query, yet the UCQ for a walk only changes when the metadata changes —
a wrapper release, a new mapping, an ontology edit.  The cache therefore
keys each entry by the *canonicalized walk* plus the **metadata
generation** (:attr:`MDM.generation <repro.core.mdm.MDM.generation>`),
which moves with every change to the metadata graphs, mutator-made or
not: a cached plan can only be served while the metadata that produced
it is still current, so evolution can never serve a stale UCQ (the
governance guarantee this repo exists to demonstrate).

Within a generation everything MDM plans for a walk before it fetches
is a function of the rewrite too, so an entry (:class:`RewriteEntry`)
also carries the walk's description and, per pushdown setting, the
plan of :meth:`MDM._answer <repro.core.mdm.MDM._answer>`: a warm query
reads them instead of planning again.

Beneath the entries sits a second map, :attr:`RewriteCache.by_inputs`,
from exactly what the rewriter reads to what it returned: the
canonical walk plus :meth:`Rewriter.inputs
<repro.core.rewriting.Rewriter.inputs>` (the global graph's stamp and
namespace bindings, the mapped views by value and the rewriter's two
settings) ``-> RewriteResult``.  A miss at ``(walk, generation)``
consults it before the rewriter runs, so a new generation that leaves
the rewriter's inputs alone (a new data source, say) costs no rewrite.
The map holds no graph and no generation, so it can be shared: an
impact-analysis shadow's cache shares the live one's map (one object,
lock included), and applying the change the shadow analysed finds the
shadow's rewrites there.  The entries stay per MDM and per generation,
because plans read the runtime wrappers, which are not rewriter inputs,
and a shadow's generations collide with the live ones.

A third map, :attr:`RewriteCache.expansions`, keeps phase (a) of the
rewriting (:class:`~repro.core.rewriting.WalkExpansion`: validation,
expansion, column names, projection, the per-concept global-graph facts
and the SPARQL text) per canonical walk, global graph stamp and
namespace-bindings stamp.  A release or a retirement changes the views
but not the global graph, so the rewrite that follows runs only phases
(b) and (c).  It is shared with the shadow in the same way.

All three LRUs are the shared :class:`~repro.core.lru.GenerationLRU`:
hit/miss/eviction counts flow into the process metrics registry
(``mdm_rewrite_cache_*``, ``mdm_rewrite_inputs_*`` and
``mdm_rewrite_expansions_*``) so
``report --metrics`` and the ``GET /metrics`` endpoint expose the hit
ratios.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from ..chaos.failpoints import fire as _failpoint
from .lru import GenerationLRU
from .walks import Walk

if TYPE_CHECKING:
    from .global_graph import GlobalGraph
    from .rewriting import RewriteResult

__all__ = ["RewriteCache", "RewriteEntry"]


def walk_cache_key(walk: Walk) -> str:
    """A canonical, order-independent text key for a walk.

    Built from :meth:`Walk.to_json_dict`, whose collections are sorted —
    two walks selecting the same concepts/features/edges/filters compare
    equal regardless of construction order.
    """
    return json.dumps(
        walk.to_json_dict(), sort_keys=True, separators=(",", ":")
    )


class RewriteEntry:
    """One walk's rewrite at one generation, and what is planned from it.

    ``result`` is the rewriter's output, unchanged, and ``wrappers``
    the sorted names of the wrappers its UCQ reads.  The walk's
    description and the per-pushdown-setting plans are filled on first
    use, each by one assignment of a finished, immutable value: two
    queries racing on a fresh entry may both compute one, but neither
    reads half of it.  Checks that only replay a walk read ``result``
    and fill nothing.
    """

    __slots__ = ("result", "wrappers", "_walk_text", "plans")

    def __init__(self, result: "RewriteResult"):
        self.result = result
        self.wrappers: Tuple[str, ...] = tuple(
            sorted({name for q in result.queries for name in q.wrapper_names})
        )
        self._walk_text: Optional[str] = None
        #: ``pushdown`` flag -> the plan MDM derived for that setting.
        self.plans: Dict[bool, Any] = {}

    def describe(self, global_graph: "GlobalGraph") -> str:
        """``walk.describe(global_graph)``, rendered once per entry."""
        text = self._walk_text
        if text is None:
            text = self._walk_text = self.result.walk.describe(global_graph)
        return text


class RewriteCache(GenerationLRU):
    """Bounded LRU of ``(walk key, generation) -> RewriteEntry``, over
    the rewriter-inputs map :attr:`by_inputs` and the phase-(a) map
    :attr:`expansions`.

    Thread-safe: concurrent queries through the service layer may probe
    and fill the cache from multiple threads.  Always enabled.
    :meth:`resize` and :meth:`clear` apply to all three maps, so neither
    of the others ever holds more than the capacity.
    """

    min_capacity = 1

    def __init__(
        self,
        capacity: int = 128,
        by_inputs: Optional[GenerationLRU] = None,
        expansions: Optional[GenerationLRU] = None,
    ):
        super().__init__(capacity, "rewrite_cache")
        #: ``(walk key, Rewriter.inputs()) -> RewriteResult``; passed in
        #: to share it by reference (the impact shadow's cache does).
        self.by_inputs = (
            by_inputs
            if by_inputs is not None
            else GenerationLRU(capacity, "rewrite_inputs")
        )
        #: ``(walk key, global graph stamp, bindings stamp) ->
        #: WalkExpansion``; shared like :attr:`by_inputs`.
        self.expansions = (
            expansions
            if expansions is not None
            else GenerationLRU(capacity, "rewrite_expansions")
        )

    def get(self, key: str, generation: int) -> Optional[RewriteEntry]:
        """The cached entry for the walk ``key`` at ``generation``, or None.

        ``key`` is :func:`walk_cache_key` of the walk.
        """
        _failpoint("cache.rewrite")
        return self.probe((key, generation))

    def put(self, key: str, generation: int, entry: RewriteEntry) -> None:
        """Cache ``entry`` for the walk ``key`` at ``generation`` (LRU-evicting)."""
        self.store((key, generation), entry)

    def resize(self, capacity: int) -> None:
        """Change every map's capacity in place (trimming LRU-first)."""
        super().resize(capacity)
        self.by_inputs.resize(capacity)
        self.expansions.resize(capacity)

    def clear(self) -> None:
        """Drop every entry, result and expansion (stats are kept)."""
        super().clear()
        self.by_inputs.clear()
        self.expansions.clear()
