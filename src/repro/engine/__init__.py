"""The performance layer: caches and counter names.

``repro.engine`` holds everything that makes the reproduction fast
without changing *what* is computed.  It has no settings: every
optimisation is unconditional and the storage backend follows the
instance size (see :meth:`repro.data.instances.Instance.columnar_store`).

* :class:`~repro.engine.cache.LRUCache` — keyed memoization behind
  ``hom_set`` and ``minimal_subsumers``;
* :data:`~repro.engine.counters.KNOWN_COUNTERS` and
  :func:`~repro.engine.counters.snapshot` — the engine counters (kept
  in :data:`repro.observability.METRICS`) as the zero-defaulted table
  surfaced by the CLI's ``--stats`` flag.

This package deliberately never imports ``repro.data`` / ``repro.core``
(they import *it*), keeping the layering acyclic.
"""

from .cache import (
    LRUCache,
    PartitionedLRUCache,
    cache_partition,
    clear_registered_caches,
    configure_partition,
    current_partition,
    drop_cache_partition,
    partition_budget,
    partitioned_cache_stats,
    registered_cache_names,
)
from .counters import KNOWN_COUNTERS

__all__ = [
    "KNOWN_COUNTERS",
    "LRUCache",
    "PartitionedLRUCache",
    "cache_partition",
    "clear_registered_caches",
    "configure_partition",
    "current_partition",
    "drop_cache_partition",
    "partition_budget",
    "partitioned_cache_stats",
    "registered_cache_names",
]
