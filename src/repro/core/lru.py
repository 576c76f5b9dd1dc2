"""The one LRU primitive behind every generation-keyed cache.

The rewrite cache, result cache and wrapper data cache key their
entries by the metadata generation, so a stale entry is never looked up
again and simply ages out.  What they share lives here:
the ordered map and its lock, LRU eviction and resizing, cumulative
counts and the ``mdm_<prefix>_{hits,misses,evictions}_total`` /
``mdm_<prefix>_size`` metric series.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Optional

from ..obs import get_metrics

__all__ = ["GenerationLRU"]


class GenerationLRU:
    """Thread-safe bounded LRU of ``key -> value``; capacity 0 disables it.

    ``metric_prefix`` names the metric series (``mdm_<prefix>_…``, each
    declared in :data:`~repro.obs.metrics.METRICS`) and, with
    underscores as spaces, the cache in messages.
    """

    #: Smallest capacity :meth:`__init__` and :meth:`resize` accept.
    min_capacity = 0

    def __init__(self, capacity: int, metric_prefix: str):
        self.metric_prefix = metric_prefix
        self._label = metric_prefix.replace("_", " ")
        self.check_capacity(capacity)
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def enabled(self) -> bool:
        """Whether the cache stores anything at all."""
        return self.capacity > 0

    def check_capacity(self, capacity: int) -> None:
        """Raise :class:`ValueError` unless ``capacity`` is a valid size."""
        if type(capacity) is not int or capacity < self.min_capacity:
            raise ValueError(
                f"{self._label} capacity must be an integer >= "
                f"{self.min_capacity}, not {capacity!r}"
            )

    def _count(self, event: str, n: int = 1) -> None:
        get_metrics().counter(f"mdm_{self.metric_prefix}_{event}_total").inc(n)

    def probe(
        self,
        key: Hashable,
        accept: Optional[Callable[[Any], bool]] = None,
        derive: Optional[Callable[[], Any]] = None,
    ) -> Optional[Any]:
        """The value under ``key`` or None; counts exactly one hit or miss.

        An entry that ``accept`` rejects counts as a miss.  On a miss,
        ``derive`` (called under the lock) may produce the value from
        other entries; a non-None result is stored under ``key`` and
        counts as a hit.
        """
        with self._lock:
            value = self._entries.get(key)
            if value is not None and accept is not None and not accept(value):
                value = None
            if value is None and derive is not None:
                value = derive()
                if value is not None:
                    self._store_locked(key, value)
            if value is None:
                self.misses += 1
                self._count("misses")
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            self._count("hits")
            return value

    def store(self, key: Hashable, value: Any) -> None:
        """Cache ``value`` under ``key`` (LRU-evicting; no-op when disabled)."""
        if not self.enabled:
            return
        with self._lock:
            self._store_locked(key, value)

    def _store_locked(self, key: Hashable, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        self._trim_locked()

    def _trim_locked(self) -> None:
        evicted = 0
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            evicted += 1
        if evicted:
            self.evictions += evicted
            self._count("evictions", evicted)
        get_metrics().gauge(f"mdm_{self.metric_prefix}_size").set(len(self._entries))

    def resize(self, capacity: int) -> None:
        """Change the capacity in place (trimming LRU-first; 0 clears)."""
        self.check_capacity(capacity)
        with self._lock:
            self.capacity = capacity
            self._trim_locked()

    def clear(self) -> None:
        """Drop every entry (stats are kept — they are cumulative)."""
        with self._lock:
            self._entries.clear()
            self._trim_locked()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """hits / (hits + misses), 0.0 before any lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, Any]:
        """JSON-shaped cumulative statistics (reports, benchmarks)."""
        with self._lock:
            size = len(self._entries)
        return {
            "capacity": self.capacity,
            "enabled": self.enabled,
            "size": size,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 6),
        }

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {len(self)}/{self.capacity} entries, "
            f"{self.hits} hits / {self.misses} misses>"
        )
