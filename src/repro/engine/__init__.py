"""The performance layer: caches, counters, engine settings.

``repro.engine`` holds everything that makes the reproduction fast
without changing *what* is computed:

* :class:`~repro.engine.cache.LRUCache` — keyed memoization behind
  ``hom_set`` and ``minimal_subsumers``;
* :data:`~repro.engine.counters.COUNTERS` — lightweight perf counters
  surfaced by the CLI's ``--stats`` flag;
* :data:`~repro.engine.config.CONFIG` — the three engine settings:
  default semantics mode, columnar backend on/off and its size
  threshold.

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
from .config import CONFIG, EngineConfig, configure, engine_options
from .counters import COUNTERS, KNOWN_COUNTERS, EngineCounters

__all__ = [
    "CONFIG",
    "COUNTERS",
    "EngineConfig",
    "EngineCounters",
    "KNOWN_COUNTERS",
    "LRUCache",
    "PartitionedLRUCache",
    "cache_partition",
    "clear_registered_caches",
    "configure",
    "configure_partition",
    "current_partition",
    "drop_cache_partition",
    "engine_options",
    "partition_budget",
    "partitioned_cache_stats",
    "registered_cache_names",
]
