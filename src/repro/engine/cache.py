"""Keyed LRU caches with hit/miss accounting and single-flight misses.

:class:`LRUCache` is a small, dependency-free LRU used to memoize the
engine's pure-but-expensive derivations — ``HOM(Σ, J)`` and ``SUB(Σ)``
— behind hashable keys (mappings and instances are immutable and
hashable throughout the library, which is what makes this safe).

Misses are **single-flight**: when several threads miss the same key
at once, exactly one computes while the others wait on the in-flight
entry and then share the result.  Besides avoiding duplicated work,
this keeps the hit/miss totals *deterministic* — concurrent service
request threads record the same counts as one thread doing the same
work (one miss per distinct key, hits for everyone else).

Statistics feed the unified metrics registry
(:data:`repro.observability.METRICS`) under ``<name>_cache_hits`` /
``<name>_cache_misses``; the per-instance ``hits`` / ``misses``
attributes remain for that cache object's lifetime.  Every cache also
registers itself in a module-level registry so the benchmark harness
can flush everything between measured configurations via
:func:`clear_registered_caches`.

Multi-tenant partitioning
-------------------------

The service layer (:mod:`repro.service`) shares one process across
tenants, and a shared LRU is a noisy-neighbour channel: one tenant's
burst of distinct keys evicts every other tenant's warm state.
:class:`PartitionedLRUCache` closes that channel.  It looks exactly
like an :class:`LRUCache`, but internally keeps one independent LRU
per *partition*; the active partition is ambient, thread-local state
set with :func:`cache_partition`::

    with cache_partition("tenant:acme"):
        hom_set(mapping, target)   # hits/evicts only acme's partition

Code that never enters a partition uses the default partition (``""``)
and behaves byte-for-byte like the old shared cache — the library and
CLI paths are unchanged.  Per-partition capacity budgets are pinned
with :func:`configure_partition` (applied to the partition on every
partitioned cache, now and when it first materializes), and
:func:`drop_cache_partition` releases a tenant's state wholesale.
All partitions of a cache share its metric keys, so process-wide
counter totals aggregate across tenants unchanged.
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager
from typing import Callable, Hashable, Iterator, Optional, TypeVar

from ..observability.metrics import METRICS

V = TypeVar("V")

_REGISTRY: "weakref.WeakSet[LRUCache]" = weakref.WeakSet()
_SENTINEL = object()


class _InFlight:
    """Placeholder parked under a key while its value is being computed."""

    __slots__ = ("event", "owner", "value", "failed")

    def __init__(self, owner: int):
        self.event = threading.Event()
        self.owner = owner
        self.value: object = _SENTINEL
        self.failed = False


class LRUCache:
    """A named, bounded, thread-safe least-recently-used cache."""

    __slots__ = (
        "name",
        "_maxsize",
        "_data",
        "_lock",
        "_hits_key",
        "_misses_key",
        "hits",
        "misses",
        "__weakref__",
    )

    def __init__(self, name: str, maxsize: int = 128):
        self.name = name
        self._maxsize = maxsize
        # A plain insertion-ordered dict, oldest first.  Recency is
        # maintained by pop-and-reinsert.  Deliberately NOT an
        # OrderedDict: the C implementation's items/keys views do a
        # value lookup per key, which re-hashes every key on every
        # iteration — ruinous for plan-cache keys that are large atom
        # tuples (the checkpoint layer iterates keys() at every save).
        self._data: dict[Hashable, object] = {}
        self._lock = threading.Lock()
        self._hits_key = f"{name}_cache_hits"
        self._misses_key = f"{name}_cache_misses"
        self.hits = 0
        self.misses = 0
        _REGISTRY.add(self)

    @property
    def maxsize(self) -> int:
        return self._maxsize

    def resize(self, maxsize: int) -> None:
        # The no-change early return must also hold the lock: checked
        # outside it, a shrink racing an insert could see the *old*
        # size, return, and leave the cache above the new maxsize.
        with self._lock:
            if maxsize == self._maxsize:
                return
            self._maxsize = maxsize
            self._evict_locked()

    def _evict_locked(self) -> None:
        while len(self._data) > self._maxsize:
            del self._data[next(iter(self._data))]

    def get_or_compute(self, key: Hashable, compute: Callable[[], V]) -> V:
        """The cached value for ``key``, computing and storing on a miss.

        The computation runs outside the lock — it may be slow and may
        itself use *other* caches (the engine's cache nesting is a DAG,
        so no deadlock).  Concurrent misses on the same key are
        single-flight: one thread computes (one miss), the rest block
        and share the result (one hit each), exactly the counts a
        serial run would record.
        """
        ident = threading.get_ident()
        while True:
            with self._lock:
                value = self._data.get(key, _SENTINEL)
                if isinstance(value, _InFlight):
                    entry = value
                    if entry.owner == ident:
                        # Re-entrant lookup of a key this thread is
                        # already computing: recurse into compute()
                        # rather than deadlocking on our own event.
                        self.misses += 1
                        METRICS.inc(self._misses_key)
                        entry = None
                    else:
                        self.hits += 1
                        METRICS.inc(self._hits_key)
                elif value is not _SENTINEL:
                    self._data[key] = self._data.pop(key)  # mark recent
                    self.hits += 1
                    METRICS.inc(self._hits_key)
                    return value  # type: ignore[return-value]
                else:
                    entry = _InFlight(ident)
                    self._data[key] = entry
                    self.misses += 1
                    METRICS.inc(self._misses_key)
                    break
            if entry is None:
                return compute()
            entry.event.wait()
            if not entry.failed:
                return entry.value  # type: ignore[return-value]
            # The computing thread raised; its placeholder is gone.
            # Re-enter the loop — this thread may become the computer.
            continue
        return self._compute_and_publish(key, entry, compute)

    def _compute_and_publish(
        self, key: Hashable, entry: _InFlight, compute: Callable[[], V]
    ) -> V:
        try:
            value = compute()
        except BaseException:
            with self._lock:
                if self._data.get(key) is entry:
                    del self._data[key]
            entry.failed = True
            entry.event.set()
            raise
        with self._lock:
            # Pop first: plain-dict assignment keeps an existing key's
            # position, and the fresh value must land at the (most
            # recent) end.
            self._data.pop(key, None)
            self._data[key] = value
            self._evict_locked()
        entry.value = value
        entry.event.set()
        return value

    def clear(self) -> None:
        with self._lock:
            # In-flight entries stay out of the sweep: their computers
            # still publish to waiters, and dropping the placeholder
            # here would just let a concurrent miss duplicate work.
            for key in [
                k for k, v in self._data.items() if not isinstance(v, _InFlight)
            ]:
                del self._data[key]

    def keys(self) -> list:
        """A point-in-time list of settled keys (in-flight ones excluded).

        Used by the checkpoint layer to record which plan keys were warm
        at save time, so a resumed process can recompile them up front.
        """
        with self._lock:
            return [
                k for k, v in self._data.items() if not isinstance(v, _InFlight)
            ]

    def peek(self, key: Hashable, default: object = None) -> object:
        """The settled value for ``key`` without recency or counter effects.

        Used by lineage-aware cache carry-forward: the planner inspects
        a parent epoch's entries to re-key still-valid plans for an
        evolved child, and that sweep must not skew hit/miss parity or
        evict anything.
        """
        with self._lock:
            value = self._data.get(key, _SENTINEL)
        if value is _SENTINEL or isinstance(value, _InFlight):
            return default
        return value

    def put(self, key: Hashable, value: object) -> None:
        """Insert a precomputed value (no hit/miss accounting).

        The carry-forward half of :meth:`peek`: a plan re-keyed for an
        evolved instance is stored directly.  An in-flight computation
        for the key wins over the carried value (the computer is about
        to publish a fresh result to waiting threads).
        """
        with self._lock:
            existing = self._data.get(key, _SENTINEL)
            if isinstance(existing, _InFlight):
                return
            self._data.pop(key, None)
            self._data[key] = value
            self._evict_locked()

    def __len__(self) -> int:
        return len(self._data)


def registered_cache_names() -> list[str]:
    """The names of every live registered cache, sorted."""
    return sorted({cache.name for cache in list(_REGISTRY)})


def clear_registered_caches() -> None:
    """Flush every registered cache (statistics are kept)."""
    for cache in list(_REGISTRY):
        cache.clear()


# ---------------------------------------------------------------------------
# Tenant partitioning
# ---------------------------------------------------------------------------

_PARTITION_LOCAL = threading.local()
_PARTITIONED: "weakref.WeakSet[PartitionedLRUCache]" = weakref.WeakSet()
_PARTITION_BUDGETS: dict[str, int] = {}
_PARTITION_LOCK = threading.Lock()


def current_partition() -> str:
    """The calling thread's active cache partition (``""`` = default)."""
    return getattr(_PARTITION_LOCAL, "name", "")


@contextmanager
def cache_partition(name: str) -> Iterator[str]:
    """Route this thread's partitioned-cache traffic to ``name``.

    Nests and restores on exit; the empty string is the default
    partition every non-service caller implicitly uses.
    """
    previous = getattr(_PARTITION_LOCAL, "name", "")
    _PARTITION_LOCAL.name = name
    try:
        yield name
    finally:
        _PARTITION_LOCAL.name = previous


def configure_partition(name: str, maxsize: int) -> None:
    """Pin a capacity budget for partition ``name`` on every
    partitioned cache.

    A pinned partition keeps at most ``maxsize`` entries per cache,
    whatever the shared default capacity — the mechanism the service
    layer uses to give each tenant a fixed cache budget.
    """
    if not name:
        raise ValueError("the default partition's size is the cache maxsize")
    if maxsize <= 0:
        raise ValueError(f"partition budget must be positive, got {maxsize}")
    with _PARTITION_LOCK:
        _PARTITION_BUDGETS[name] = maxsize
        caches = list(_PARTITIONED)
    for cache in caches:
        cache._apply_budget(name, maxsize)


def partition_budget(name: str) -> Optional[int]:
    """The pinned budget for partition ``name``, or ``None``."""
    with _PARTITION_LOCK:
        return _PARTITION_BUDGETS.get(name)


def drop_cache_partition(name: str) -> None:
    """Discard partition ``name`` (entries and budget) everywhere.

    Used when a tenant is retired — their warm state is released
    without touching any other partition.  Dropping the default
    partition is equivalent to clearing the caches.
    """
    with _PARTITION_LOCK:
        _PARTITION_BUDGETS.pop(name, None)
        caches = list(_PARTITIONED)
    for cache in caches:
        cache._drop(name)


def partitioned_cache_stats() -> dict[str, dict[str, dict[str, int]]]:
    """``{cache: {partition: {size, maxsize, hits, misses}}}`` across
    every live :class:`PartitionedLRUCache` — the ``/metrics`` view of
    which tenants hold warm state and how full their budgets are."""
    with _PARTITION_LOCK:
        caches = list(_PARTITIONED)
    return {
        cache.name: cache.partition_stats()
        for cache in sorted(caches, key=lambda c: c.name)
    }


class PartitionedLRUCache:
    """An :class:`LRUCache` facade with one independent LRU per partition.

    Every method operates on the calling thread's *active* partition
    (see :func:`cache_partition`), except :meth:`clear`, which flushes
    all of them — matching what ``clear_registered_caches`` means for
    a shared cache.  Inner caches share the outer ``name`` so metric
    keys (``<name>_cache_hits`` / ``_misses``) aggregate across
    partitions, and each registers itself like any other cache.
    """

    __slots__ = ("name", "_default_maxsize", "_parts", "_lock", "__weakref__")

    def __init__(self, name: str, maxsize: int = 128):
        self.name = name
        self._default_maxsize = maxsize
        # The default partition exists from birth so the cache's metric
        # names are registered at import time, exactly like the shared
        # caches this class replaced; tenant partitions appear lazily.
        self._parts: dict[str, LRUCache] = {"": LRUCache(name, maxsize=maxsize)}
        self._lock = threading.Lock()
        _PARTITIONED.add(self)

    def _part(self) -> LRUCache:
        partition = current_partition()
        cache = self._parts.get(partition)
        if cache is None:
            with self._lock:
                cache = self._parts.get(partition)
                if cache is None:
                    size = _PARTITION_BUDGETS.get(partition) if partition else None
                    cache = LRUCache(
                        self.name,
                        maxsize=size if size is not None else self._default_maxsize,
                    )
                    self._parts[partition] = cache
        return cache

    def _apply_budget(self, partition: str, maxsize: int) -> None:
        cache = self._parts.get(partition)
        if cache is not None:
            cache.resize(maxsize)

    def _drop(self, partition: str) -> None:
        with self._lock:
            self._parts.pop(partition, None)

    # -- the LRUCache surface, scoped to the active partition ---------------

    @property
    def maxsize(self) -> int:
        return self._part().maxsize

    def get_or_compute(self, key: Hashable, compute: Callable[[], V]) -> V:
        return self._part().get_or_compute(key, compute)

    def keys(self) -> list:
        return self._part().keys()

    def peek(self, key: Hashable, default: object = None) -> object:
        return self._part().peek(key, default)

    def put(self, key: Hashable, value: object) -> None:
        return self._part().put(key, value)

    def clear(self) -> None:
        with self._lock:
            parts = list(self._parts.values())
        for cache in parts:
            cache.clear()

    @property
    def hits(self) -> int:
        return self._part().hits

    @property
    def misses(self) -> int:
        return self._part().misses

    def __len__(self) -> int:
        return len(self._part())

    # -- introspection for isolation tests and /metrics ---------------------

    def partitions(self) -> list[str]:
        with self._lock:
            return sorted(self._parts)

    def partition_stats(self) -> dict[str, dict[str, int]]:
        """``{partition: {size, maxsize, hits, misses}}`` for every
        partition this cache has materialized."""
        with self._lock:
            parts = dict(self._parts)
        return {
            partition: {
                "size": len(cache),
                "maxsize": cache.maxsize,
                "hits": cache.hits,
                "misses": cache.misses,
            }
            for partition, cache in sorted(parts.items())
        }
