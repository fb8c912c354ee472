"""Engine counters — now a facade over the unified metrics registry.

.. deprecated::
    Direct attribute access on :data:`COUNTERS` (``COUNTERS.x += 1``,
    ``COUNTERS.x``) is kept working for backward compatibility but new
    code should call :data:`repro.observability.METRICS` directly
    (``METRICS.inc("x")`` / ``METRICS.get("x")``).  The attribute
    surface will eventually go away.

Historically this module held a process-global slot object mutated
with plain ``+=``.  That is a read-modify-write, so threads racing on
it (the service runs requests on threads) dropped increments.

:class:`EngineCounters` is now attribute sugar over
:data:`repro.observability.METRICS`.  Reads return the merged
cross-thread total; writes are translated into atomic deltas, so the
legacy ``COUNTERS.name += 1`` spelling is race-free: the read records
a per-thread shadow of the value it returned, and the following
assignment increments the registry by ``new - shadow`` instead of
storing the stale absolute value.

This module may import :mod:`repro.observability` (stdlib-only) but
nothing else in ``repro`` — the data layer imports it, so any
dependency back into ``repro.data`` or ``repro.core`` would be
circular.
"""

from __future__ import annotations

import threading

from ..observability.metrics import METRICS

#: Every counter the engine increments, in reporting order.  Snapshots
#: zero-default these so reports stay shape-stable even when a counter
#: never moved.
KNOWN_COUNTERS = (
    "homomorphisms_explored",
    "plans_compiled",
    "plan_components_evaluated",
    "plan_domains_pruned",
    "plan_existence_shortcircuits",
    "vector_plans_compiled",
    "planner_vectorized",
    "planner_vector_fallbacks",
    "columnar_stores_built",
    "columnar_facts_stored",
    "columnar_terms_interned",
    "columnar_indexes_built",
    "columnar_rows_scanned",
    "covers_enumerated",
    "coverings_evaluated",
    "recoveries_emitted",
    "facts_indexed",
    "instances_built",
    "instances_shared",
    "justification_hits",
    "justification_misses",
    "deadline_hits",
    "degradations",
)

_KNOWN = frozenset(KNOWN_COUNTERS)


class EngineCounters:
    """Deprecated attribute facade over the metrics registry.

    ``COUNTERS.x`` returns the merged total of metric ``x`` and
    remembers it in a per-thread shadow; ``COUNTERS.x = v`` increments
    the registry by ``v - shadow`` (consuming the shadow), which turns
    the classic ``COUNTERS.x += 1`` into an atomic ``inc`` no matter
    how many threads race it.
    """

    __slots__ = ("_local",)

    def __init__(self) -> None:
        object.__setattr__(self, "_local", threading.local())

    def _shadow(self) -> dict[str, int]:
        shadow = getattr(self._local, "shadow", None)
        if shadow is None:
            shadow = {}
            self._local.shadow = shadow
        return shadow

    def __getattr__(self, name: str) -> int:
        if name in _KNOWN:
            value = METRICS.get(name)
            self._shadow()[name] = value
            return value
        raise AttributeError(name)

    def __setattr__(self, name: str, value: int) -> None:
        if name not in _KNOWN:
            raise AttributeError(f"unknown engine counter {name!r}")
        shadow = self._shadow()
        base = shadow.pop(name, None)
        if base is None:
            base = METRICS.get(name)
        delta = value - base
        if delta:
            METRICS.inc(name, delta)

    def reset(self) -> None:
        """Zero every metric (typically at the start of a CLI command).

        This resets the *whole* registry — engine counters and cache
        statistics alike — so per-run reports start from zero.
        """
        METRICS.reset()
        self._shadow().clear()

    def snapshot(self) -> dict[str, int]:
        """All metrics, with zero defaults for the known counter names
        and every registered cache's ``_cache_hits`` / ``_cache_misses``
        so new caches appear automatically and reports keep their shape.
        """
        values = {name: 0 for name in KNOWN_COUNTERS}
        from .cache import registered_cache_names

        for cache_name in registered_cache_names():
            values.setdefault(f"{cache_name}_cache_hits", 0)
            values.setdefault(f"{cache_name}_cache_misses", 0)
        values.update(METRICS.snapshot())
        return values


#: The process-global counter facade (deprecated; prefer METRICS).
COUNTERS = EngineCounters()
