"""Concurrency guarantees of the engine caches.

Covers the resize/insert interleaving regression (a shrink racing an
insert used to leave the cache above its new maxsize) and the
single-flight miss protocol that keeps hit/miss counters deterministic
under concurrent threads.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.engine.cache import LRUCache


class TestResizeInsertInterleaving:
    def test_concurrent_resize_never_leaves_cache_oversized(self):
        cache = LRUCache("stress_resize", maxsize=64)
        stop = threading.Event()

        def inserter(base: int) -> None:
            i = 0
            while not stop.is_set():
                cache.get_or_compute((base, i), lambda i=i: i)
                i += 1

        threads = [
            threading.Thread(target=inserter, args=(b,)) for b in range(4)
        ]
        for t in threads:
            t.start()
        try:
            for _ in range(300):
                cache.resize(2)
                cache.resize(64)
        finally:
            stop.set()
            for t in threads:
                t.join()
        cache.resize(2)
        assert cache.maxsize == 2
        assert len(cache) <= 2

    def test_resize_to_same_size_is_noop(self):
        cache = LRUCache("resize_noop", maxsize=4)
        for i in range(4):
            cache.get_or_compute(i, lambda i=i: i)
        cache.resize(4)
        assert len(cache) == 4


class TestSingleFlight:
    def test_concurrent_misses_compute_once_and_count_like_serial(self):
        cache = LRUCache("stress_sf", maxsize=8)
        n = 8
        barrier = threading.Barrier(n)
        calls: list[int] = []
        results: list[int] = []

        def compute() -> int:
            calls.append(1)
            time.sleep(0.05)  # hold the flight open so waiters pile up
            return 42

        def worker() -> None:
            barrier.wait()
            results.append(cache.get_or_compute("k", compute))

        threads = [threading.Thread(target=worker) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == [42] * n
        assert len(calls) == 1
        # Exactly the counts a serial run records: one miss, the rest hits.
        assert cache.misses == 1
        assert cache.hits == n - 1

    def test_failed_compute_releases_waiters_and_retries(self):
        cache = LRUCache("stress_fail", maxsize=8)

        def boom() -> int:
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            cache.get_or_compute("k", boom)
        assert cache.get_or_compute("k", lambda: 7) == 7

    def test_reentrant_compute_does_not_deadlock(self):
        cache = LRUCache("stress_reent", maxsize=8)

        def outer() -> int:
            return cache.get_or_compute("k", lambda: 5) + 1

        assert cache.get_or_compute("k", outer) == 6
