"""The unified metrics registry: thread-safety, deltas, parity views."""

from __future__ import annotations

import pickle
import threading

from repro.observability import (
    MetricsRegistry,
    SCHEDULING_METRICS,
    parity_diff,
    parity_view,
)


class TestRegistryBasics:
    def test_inc_and_get(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        assert reg.get("a") == 5
        assert reg.get("never_touched") == 0

    def test_snapshot_contains_only_moved_counters(self):
        reg = MetricsRegistry()
        reg.inc("x", 2)
        reg.inc("y", 3)
        assert reg.snapshot() == {"x": 2, "y": 3}

    def test_reset_zeroes_everything(self):
        reg = MetricsRegistry()
        reg.inc("x", 7)
        reg.reset()
        assert reg.get("x") == 0
        assert reg.snapshot() == {}

    def test_delta_since_and_merge_round_trip(self):
        reg = MetricsRegistry()
        reg.inc("x", 2)
        baseline = reg.snapshot()
        reg.inc("x", 3)
        reg.inc("y", 1)
        delta = reg.delta_since(baseline)
        assert delta == {"x": 3, "y": 1}
        other = MetricsRegistry()
        other.inc("x", 10)
        other.merge(delta)
        assert other.get("x") == 13
        assert other.get("y") == 1

    def test_delta_is_picklable(self):
        # Checkpoint snapshots pickle these.
        reg = MetricsRegistry()
        reg.inc("homomorphisms_explored", 9)
        delta = reg.delta_since({})
        assert pickle.loads(pickle.dumps(delta)) == delta

    def test_merge_none_and_empty_are_noops(self):
        reg = MetricsRegistry()
        reg.merge(None)
        reg.merge({})
        reg.merge({"zero": 0})
        assert reg.snapshot() == {}


class TestRegistryThreading:
    def test_concurrent_increments_are_never_lost(self):
        # A plain ``counter += 1`` read-modify-write on shared state drops
        # updates under racing threads; ``inc`` must not.
        reg = MetricsRegistry()
        threads_n, per_thread = 8, 5000
        barrier = threading.Barrier(threads_n)

        def hammer():
            barrier.wait()
            for _ in range(per_thread):
                reg.inc("hits")

        threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.get("hits") == threads_n * per_thread

    def test_dead_thread_counts_survive_compaction(self):
        reg = MetricsRegistry()

        def work():
            reg.inc("done", 11)

        t = threading.Thread(target=work)
        t.start()
        t.join()
        # Snapshot after the thread died: its cell folds into retired.
        assert reg.snapshot()["done"] == 11
        assert reg.get("done") == 11

    def test_snapshot_while_incrementing(self):
        reg = MetricsRegistry()
        stop = threading.Event()

        def spin():
            while not stop.is_set():
                reg.inc("spin")

        t = threading.Thread(target=spin)
        t.start()
        try:
            for _ in range(50):
                reg.snapshot()
        finally:
            stop.set()
            t.join()
        assert reg.get("spin") >= 0  # no exception and a coherent total


class TestParityViews:
    def test_scheduling_counters_are_dropped(self):
        snap = {"homomorphisms_explored": 5, "deadline_hits": 3}
        assert parity_view(snap) == {"homomorphisms_explored": 5}
        for name in SCHEDULING_METRICS:
            assert parity_view({name: 1}) == {}

    def test_thread_view_keeps_cache_stats(self):
        snap = {"hom_set_cache_hits": 4, "hom_set_cache_misses": 2}
        assert parity_view(snap) == snap

    def test_parity_diff_reports_mismatches_only(self):
        ref = {"a": 1, "b": 2, "degradations": 9}
        cand = {"a": 1, "b": 5}
        assert parity_diff(ref, cand) == {"b": (2, 5)}

    def test_parity_diff_empty_on_agreement(self):
        ref = {"a": 1, "deadline_hits": 7}
        cand = {"a": 1, "degradations": 2}
        assert parity_diff(ref, cand) == {}
