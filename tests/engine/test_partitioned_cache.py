"""PartitionedLRUCache: per-tenant isolation on top of the shared LRU.

The facade must be a drop-in for :class:`LRUCache` on the default
partition (so library users see no change), while giving each named
partition an independent LRU with an independently pinned budget —
the mechanism the service layer uses to stop one tenant's churn from
evicting another tenant's warm state.
"""

from __future__ import annotations

import threading

import pytest

from repro.engine.cache import (
    LRUCache,
    PartitionedLRUCache,
    cache_partition,
    configure_partition,
    current_partition,
    drop_cache_partition,
    partition_budget,
    partitioned_cache_stats,
    registered_cache_names,
)
from repro.observability.metrics import METRICS


class TestDefaultPartition:
    def test_behaves_like_a_plain_lru(self):
        cache = PartitionedLRUCache("t_default", maxsize=2)
        assert cache.get_or_compute("a", lambda: 1) == 1
        assert cache.get_or_compute("a", lambda: 2) == 1  # hit, no recompute
        cache.get_or_compute("b", lambda: 2)
        cache.get_or_compute("c", lambda: 3)  # evicts "a"
        assert cache.keys() == ["b", "c"]
        assert cache.hits == 1
        assert cache.misses == 3

    def test_registers_metric_names_at_construction(self):
        cache = PartitionedLRUCache("t_registered", maxsize=4)
        # The registry is weak, so the name is visible exactly while
        # the facade is alive — same contract as a plain LRUCache.
        assert "t_registered" in registered_cache_names()
        del cache

    def test_counts_into_shared_metric_keys(self):
        cache = PartitionedLRUCache("t_metrics", maxsize=4)
        before = METRICS.snapshot()
        cache.get_or_compute("k", lambda: 1)
        with cache_partition("tenant:x"):
            cache.get_or_compute("k", lambda: 1)
        delta = METRICS.delta_since(before)
        # Both partitions' misses land on the same aggregate key, so
        # process-wide counter shapes are unchanged by partitioning.
        assert delta.get("t_metrics_cache_misses") == 2


class TestPartitionIsolation:
    def test_same_key_computes_per_partition(self):
        cache = PartitionedLRUCache("t_iso", maxsize=4)
        assert cache.get_or_compute("k", lambda: "default") == "default"
        with cache_partition("tenant:a"):
            assert cache.get_or_compute("k", lambda: "a") == "a"
        with cache_partition("tenant:b"):
            assert cache.get_or_compute("k", lambda: "b") == "b"
        assert cache.get_or_compute("k", lambda: "recomputed") == "default"

    def test_eviction_in_one_partition_spares_the_other(self):
        cache = PartitionedLRUCache("t_evict", maxsize=2)
        with cache_partition("tenant:a"):
            cache.get_or_compute("warm", lambda: 1)
        with cache_partition("tenant:b"):
            for i in range(10):  # churn far past the budget
                cache.get_or_compute(f"k{i}", lambda: i)
            assert len(cache) == 2
        with cache_partition("tenant:a"):
            assert cache.keys() == ["warm"]
            assert cache.get_or_compute("warm", lambda: 2) == 1

    def test_thread_local_active_partition(self):
        cache = PartitionedLRUCache("t_threads", maxsize=4)
        seen = {}

        def worker(tenant):
            with cache_partition(tenant):
                seen[tenant] = cache.get_or_compute("k", lambda: tenant)

        threads = [
            threading.Thread(target=worker, args=(f"tenant:{i}",))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seen == {f"tenant:{i}": f"tenant:{i}" for i in range(4)}

    def test_nested_partition_restores_previous(self):
        with cache_partition("outer"):
            with cache_partition("inner"):
                assert current_partition() == "inner"
            assert current_partition() == "outer"
        assert current_partition() == ""


class TestBudgets:
    def test_budget_applies_to_new_partitions(self):
        cache = PartitionedLRUCache("t_budget", maxsize=8)
        configure_partition("tenant:pinned", 3)
        with cache_partition("tenant:pinned"):
            assert cache.maxsize == 3
        assert cache.maxsize == 8
        assert partition_budget("tenant:pinned") == 3
        drop_cache_partition("tenant:pinned")

    def test_budget_applies_to_existing_partitions(self):
        cache = PartitionedLRUCache("t_shrink", maxsize=8)
        with cache_partition("tenant:s"):
            for i in range(6):
                cache.get_or_compute(f"k{i}", lambda: i)
        configure_partition("tenant:s", 2)
        with cache_partition("tenant:s"):
            assert len(cache) <= 2
        drop_cache_partition("tenant:s")

    def test_invalid_budgets_rejected(self):
        with pytest.raises(ValueError):
            configure_partition("", 4)
        with pytest.raises(ValueError):
            configure_partition("tenant:bad", 0)

    def test_drop_partition_releases_state(self):
        cache = PartitionedLRUCache("t_drop", maxsize=4)
        with cache_partition("tenant:gone"):
            cache.get_or_compute("k", lambda: 1)
        drop_cache_partition("tenant:gone")
        assert "tenant:gone" not in cache.partitions()
        with cache_partition("tenant:gone"):
            assert cache.get_or_compute("k", lambda: 2) == 2


class TestIntrospection:
    def test_clear_flushes_every_partition(self):
        cache = PartitionedLRUCache("t_clear", maxsize=4)
        cache.get_or_compute("k", lambda: 1)
        with cache_partition("tenant:c"):
            cache.get_or_compute("k", lambda: 1)
        cache.clear()
        assert len(cache) == 0
        with cache_partition("tenant:c"):
            assert len(cache) == 0

    def test_partition_stats_shape(self):
        cache = PartitionedLRUCache("t_stats", maxsize=4)
        with cache_partition("tenant:s1"):
            cache.get_or_compute("k", lambda: 1)
            cache.get_or_compute("k", lambda: 1)
        stats = cache.partition_stats()
        assert stats["tenant:s1"] == {
            "size": 1,
            "maxsize": 4,
            "hits": 1,
            "misses": 1,
        }
        everything = partitioned_cache_stats()
        assert everything["t_stats"]["tenant:s1"]["size"] == 1
