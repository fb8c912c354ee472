"""Engine counter names and the shape-stable counter snapshot.

Counters live in the unified metrics registry: engine code increments
them with ``METRICS.inc("x")`` and tests read them with
``METRICS.get("x")``.  This module names the counters the engine
increments, so :func:`snapshot` can zero-default them and the CLI's
``--stats`` table, its ``--metrics-json`` document and the service's
run report keep the same keys even when a counter never moved.

This module may import :mod:`repro.observability` (stdlib-only) but
nothing outside ``repro.engine`` — the data layer imports it, so any
dependency back into ``repro.data`` or ``repro.core`` would be
circular.
"""

from __future__ import annotations

from ..observability.metrics import METRICS
from .cache import registered_cache_names

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


def snapshot() -> dict[str, int]:
    """All metrics, with zero defaults for the known counter names
    and every registered cache's ``_cache_hits`` / ``_cache_misses``
    so new caches appear automatically and reports keep their shape.
    """
    values = {name: 0 for name in KNOWN_COUNTERS}
    for cache_name in registered_cache_names():
        values.setdefault(f"{cache_name}_cache_hits", 0)
        values.setdefault(f"{cache_name}_cache_misses", 0)
    values.update(METRICS.snapshot())
    return values
