"""Engine feature flags and tuning knobs.

The performance layer added on top of the paper's algorithms is
switchable: every optimisation consults the process-global
:data:`CONFIG` so benchmarks can measure each one (and emulate the
pre-engine "seed" code path by turning them all off).

Knobs:

* ``semantics`` — default recovery-semantics mode (see
  :mod:`repro.semantics`); ``"paper"`` unless the ``REPRO_SEMANTICS``
  environment variable says otherwise.  Stored as a plain name and
  resolved lazily so this module keeps importing nothing from the rest
  of ``repro``.
* ``lazy_indexes`` — build an :class:`~repro.data.instances.Instance`'s
  per-relation / per-position indexes on first lookup instead of at
  construction time.  Chase-heavy loops create many short-lived
  instances (recovery images, justification candidates) that are only
  ever hashed or compared; laziness skips their index builds entirely.
* ``incremental_ops`` — let ``union`` / ``with_facts`` /
  ``without_facts`` reuse the receiver's already-built indexes,
  re-indexing only the touched ``(relation, position, term)`` keys and
  sharing the frozen entries of unchanged relations.
* ``sort_cache`` — memoize the deterministic candidate-fact presort of
  the homomorphism engine per candidate set, instead of re-sorting in
  every backtracking frame.
* ``memoize_hom_sets`` / ``memoize_subsumers`` — keyed LRU caches for
  ``hom_set(Σ, J)`` and ``minimal_subsumers(Σ)`` (sizes below).
* ``join_kernel`` — route homomorphism search through the compiled
  join-plan kernel (:mod:`repro.planner`): canonicalized patterns,
  cached plans, candidate-domain pruning, early projection and an
  existence-only mode.  Off falls back to the original backtracking
  matcher, which doubles as the differential-testing oracle.
* ``plan_cache_size`` — LRU capacity of the compiled-plan cache,
  keyed on ``(canonical pattern, instance epoch)``.
* ``value_fastpaths`` — cache the structural hash of terms on first
  use, and skip re-coercion / re-validation when transforming values
  that are already known to be well-formed (``Atom.apply`` over a
  term-to-term mapping, ``Instance.apply`` with a variable-free
  range).  These paths dominate the inner loops of the homomorphism
  engine and the inverse chase.
* ``columnar_backend`` — attach an interned columnar store
  (:mod:`repro.data.columnar`) to instances on demand and route
  compiled join plans through the vectorized executor
  (:mod:`repro.planner.vectorized`): int columns, per-position hash
  indexes and set intersections instead of ``Atom`` dictionaries.
  The default honours the ``REPRO_COLUMNAR`` environment variable
  (``0`` disables) so CI can matrix over both backends; the object
  backend remains the differential oracle.
* ``columnar_min_facts`` — instances below this many facts never
  build a columnar store: at micro scale the interning and column
  builds cost more than the per-object overhead they remove, and the
  established micro-benchmarks keep measuring the object path.

Use :func:`configure` for permanent changes and :func:`engine_options`
as a context manager for scoped ones (the benchmark harness does the
latter).  This module must not import the rest of ``repro``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator


class EngineConfig:
    """Mutable switchboard for the engine optimisations."""

    __slots__ = (
        "semantics",
        "lazy_indexes",
        "incremental_ops",
        "sort_cache",
        "memoize_hom_sets",
        "memoize_subsumers",
        "value_fastpaths",
        "join_kernel",
        "columnar_backend",
        "columnar_min_facts",
        "plan_cache_size",
        "hom_set_cache_size",
        "subsumers_cache_size",
    )

    def __init__(self) -> None:
        #: Default recovery-semantics mode; the name is resolved
        #: through :func:`repro.semantics.get_semantics` at call time
        #: (never here — this module must stay import-leaf), so a typo
        #: surfaces as ``UnknownSemanticsError`` on first use.
        self.semantics = os.environ.get("REPRO_SEMANTICS", "paper")
        self.lazy_indexes = True
        self.incremental_ops = True
        self.sort_cache = True
        self.memoize_hom_sets = True
        self.memoize_subsumers = True
        self.value_fastpaths = True
        self.join_kernel = True
        self.columnar_backend = os.environ.get("REPRO_COLUMNAR", "1") != "0"
        #: Instances smaller than this never build a columnar store;
        #: the vectorized path only pays off once candidate pools are
        #: large enough to amortize interning and column construction.
        self.columnar_min_facts = 1024
        self.plan_cache_size = 512
        self.hom_set_cache_size = 256
        self.subsumers_cache_size = 128

    def as_dict(self) -> dict[str, object]:
        return {name: getattr(self, name) for name in self.__slots__}


#: The process-global engine configuration.
CONFIG = EngineConfig()


def configure(**options: object) -> None:
    """Set engine options by name; unknown names raise ``ValueError``."""
    for name, value in options.items():
        if name not in EngineConfig.__slots__:
            raise ValueError(f"unknown engine option {name!r}")
        setattr(CONFIG, name, value)


@contextmanager
def engine_options(**options: object) -> Iterator[EngineConfig]:
    """Temporarily override engine options (restored on exit).

    Disabling either memoization flag also clears the corresponding
    cache on entry *and* exit, so measurements inside the block never
    see entries populated outside it and vice versa.
    """
    for name in options:
        if name not in EngineConfig.__slots__:
            raise ValueError(f"unknown engine option {name!r}")
    previous = {name: getattr(CONFIG, name) for name in options}
    configure(**options)
    _clear_caches_if_toggled(options)
    try:
        yield CONFIG
    finally:
        for name, value in previous.items():
            setattr(CONFIG, name, value)
        _clear_caches_if_toggled(options)


def _clear_caches_if_toggled(options: dict[str, object]) -> None:
    toggled = {
        "memoize_hom_sets",
        "memoize_subsumers",
        "join_kernel",
        "columnar_backend",
        "columnar_min_facts",
        "plan_cache_size",
    }
    if toggled & options.keys():
        from .cache import clear_registered_caches

        clear_registered_caches()
