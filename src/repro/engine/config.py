"""Engine tuning knobs.

Every optimisation of the engine is unconditional; the few knobs left
here choose a storage backend or a semantics mode, not whether an
optimisation runs.  The process-global :data:`CONFIG` holds them:

* ``semantics`` — default recovery-semantics mode (see
  :mod:`repro.semantics`); ``"paper"`` unless the ``REPRO_SEMANTICS``
  environment variable says otherwise.  Stored as a plain name and
  resolved lazily so this module keeps importing nothing from the rest
  of ``repro``.
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
  builds cost more than the per-object overhead they remove.

Use :func:`configure` for permanent changes and :func:`engine_options`
as a context manager for scoped ones.  This module must not import the
rest of ``repro``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator


class EngineConfig:
    """The process-global engine settings."""

    __slots__ = ("semantics", "columnar_backend", "columnar_min_facts")

    def __init__(self) -> None:
        #: Default recovery-semantics mode; the name is resolved
        #: through :func:`repro.semantics.get_semantics` at call time
        #: (never here — this module must stay import-leaf), so a typo
        #: surfaces as ``UnknownSemanticsError`` on first use.
        self.semantics = os.environ.get("REPRO_SEMANTICS", "paper")
        self.columnar_backend = os.environ.get("REPRO_COLUMNAR", "1") != "0"
        #: Instances smaller than this never build a columnar store;
        #: the vectorized path only pays off once candidate pools are
        #: large enough to amortize interning and column construction.
        self.columnar_min_facts = 1024

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

    Switching the columnar backend also clears every registered cache
    on entry *and* exit, so compiled plans built for one backend are
    never served to the other.
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
    if {"columnar_backend", "columnar_min_facts"} & options.keys():
        from .cache import clear_registered_caches

        clear_registered_caches()
