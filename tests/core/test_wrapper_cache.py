"""Unit tests for the generation-keyed wrapper data cache."""

import pytest

from repro.core.wrapper_cache import WrapperCache
from repro.obs import get_metrics, reset_metrics, set_metrics
from repro.relational.algebra import Scan
from repro.relational.relation import Relation


def make_relation(n=5):
    return Relation.from_dicts(
        [{"id": i, "val": f"v{i % 2}"} for i in range(n)], ["id", "val"]
    )


def test_disabled_cache_stores_and_serves_nothing():
    cache = WrapperCache(0)
    assert not cache.enabled
    cache.put(Scan("w"), 1, make_relation())
    assert cache.lookup(Scan("w"), 1) is None
    assert len(cache) == 0


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        WrapperCache(-1)
    with pytest.raises(ValueError):
        WrapperCache(4).resize(-2)


def test_hit_requires_same_wrapper_request_and_generation():
    cache = WrapperCache(8)
    relation = make_relation()
    cache.put(Scan("w"), 1, relation)
    assert cache.lookup(Scan("w"), 1) is relation
    assert cache.lookup(Scan("other"), 1) is None
    assert cache.lookup(Scan("w"), 2) is None
    assert cache.stats()["hits"] == 1
    assert cache.stats()["misses"] == 2


def test_pushed_request_derived_from_full_entry():
    cache = WrapperCache(8)
    cache.put(Scan("w"), 1, make_relation(6))
    pushed = Scan("w", filters=(("val", "=", "v0"),), columns=("id",))
    derived = cache.lookup(pushed, 1)
    assert derived is not None
    assert derived.schema.names == ("id",)
    assert derived.rows == ((0,), (2,), (4,))
    # The derivation is memoised under the exact key: a second probe is
    # a direct hit on the same object.
    assert cache.lookup(pushed, 1) is derived
    assert cache.stats()["hits"] == 2


def test_pushed_entry_does_not_answer_full_fetch():
    cache = WrapperCache(8)
    pushed = Scan("w", filters=(("val", "=", "v0"),))
    cache.put(pushed, 1, make_relation(2))
    assert cache.lookup(Scan("w"), 1) is None


@pytest.fixture()
def fresh_metrics():
    previous = get_metrics()
    registry = reset_metrics()
    yield registry
    set_metrics(previous)


def test_lru_eviction_and_resize(fresh_metrics):
    cache = WrapperCache(2)
    cache.put(Scan("a"), 1, make_relation(1))
    cache.put(Scan("b"), 1, make_relation(1))
    assert cache.lookup(Scan("a"), 1) is not None  # refresh a
    cache.put(Scan("c"), 1, make_relation(1))  # evicts b (LRU)
    assert cache.lookup(Scan("b"), 1) is None
    assert cache.lookup(Scan("a"), 1) is not None
    assert cache.stats()["evictions"] == 1
    cache.resize(1)
    assert len(cache) == 1
    cache.resize(0)
    assert len(cache) == 0 and not cache.enabled
    # Shrinking evicts too, and /metrics agrees with stats().
    assert cache.stats()["evictions"] == 3
    evictions = fresh_metrics.get("mdm_wrapper_cache_evictions_total")
    assert evictions.value() == 3


def test_clear_keeps_cumulative_stats():
    cache = WrapperCache(4)
    cache.put(Scan("w"), 1, make_relation())
    assert cache.lookup(Scan("w"), 1) is not None
    cache.clear()
    assert len(cache) == 0
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["size"] == 0


def test_hit_rate():
    cache = WrapperCache(4)
    assert cache.hit_rate == 0.0
    cache.put(Scan("w"), 1, make_relation())
    cache.lookup(Scan("w"), 1)
    cache.lookup(Scan("w"), 2)
    assert cache.hit_rate == 0.5
