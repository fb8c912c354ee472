"""The metrics registry: one sink for every engine counter.

:class:`MetricsRegistry` replaces the three ad-hoc statistic sinks that
grew with the engine (a process-global counter slot object, the
per-cache hit/miss attributes, the planner counters) with a single named-counter
store behind a snapshot / merge / reset API:

* **increments are thread-safe and cheap** — each thread accumulates
  into its own private cell (a plain dict, no lock on the hot path);
  totals are summed across cells on :meth:`snapshot` / :meth:`get`.
  A plain ``counter += 1`` on shared state loses updates when service
  request threads race on the read-modify-write; ``inc`` cannot.
* **deltas are picklable** — :meth:`delta_since` diffs a snapshot into
  a plain ``{name: int}`` dict, and :meth:`merge` folds such a delta
  back in.  Checkpoint snapshots carry the run's counter delta so a
  resumed run reports the same totals as an uninterrupted one.

Counter names are free-form strings; the engine's known names (and the
registered caches' ``<name>_cache_hits`` / ``_misses``) get zero
defaults in :func:`repro.engine.counters.snapshot`, so
reports stay shape-stable even when nothing moved.

This module must stay import-free of the rest of ``repro``: the data
layer reaches it through ``repro.engine.counters``, so any dependency
upward would be circular.
"""

from __future__ import annotations

import threading
import weakref
from typing import Mapping, Optional


class MetricsRegistry:
    """A thread-safe, mergeable registry of named monotonic counters."""

    __slots__ = ("_lock", "_local", "_retired", "_cells")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        #: Totals folded in from dead threads' cells and from merges
        #: performed before any increment on the calling thread.
        self._retired: dict[str, int] = {}
        #: Live per-thread cells: ``(weakref-to-thread, counts)``.
        self._cells: list[tuple[weakref.ref, dict[str, int]]] = []

    # -- the hot path ----------------------------------------------------------

    def _cell(self) -> dict[str, int]:
        cell = getattr(self._local, "cell", None)
        if cell is None:
            cell = {}
            ref = weakref.ref(threading.current_thread())
            with self._lock:
                self._cells.append((ref, cell))
            self._local.cell = cell
        return cell

    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to ``name``.  Lock-free per thread; never lost."""
        cell = self._cell()
        cell[name] = cell.get(name, 0) + amount

    # -- snapshot / merge / reset ----------------------------------------------

    def get(self, name: str) -> int:
        """The merged total of one counter across all threads."""
        with self._lock:
            total = self._retired.get(name, 0)
            for _, cell in self._cells:
                total += cell.get(name, 0)
        return total

    def snapshot(self) -> dict[str, int]:
        """All counters that ever moved, merged across threads."""
        with self._lock:
            self._compact_locked()
            totals = dict(self._retired)
            for _, cell in self._cells:
                # list() of a builtin dict's items is atomic under the
                # GIL, so a concurrently incrementing owner is safe.
                for name, amount in list(cell.items()):
                    totals[name] = totals.get(name, 0) + amount
        return totals

    def delta_since(self, baseline: Mapping[str, int]) -> dict[str, int]:
        """The picklable nonzero difference ``snapshot() - baseline``."""
        delta: dict[str, int] = {}
        for name, value in self.snapshot().items():
            diff = value - baseline.get(name, 0)
            if diff:
                delta[name] = diff
        return delta

    def merge(self, delta: Optional[Mapping[str, int]]) -> None:
        """Fold a delta (e.g. one restored from a checkpoint) in."""
        if not delta:
            return
        cell = self._cell()
        for name, amount in delta.items():
            if amount:
                cell[name] = cell.get(name, 0) + amount

    def reset(self) -> None:
        """Zero every counter (typically at the start of a CLI run)."""
        with self._lock:
            self._retired.clear()
            for _, cell in self._cells:
                cell.clear()

    def _compact_locked(self) -> None:
        """Fold cells of finished threads into the retired totals.

        Keeps ``_cells`` bounded over a long session of short-lived
        threads without losing a single increment.
        """
        live: list[tuple[weakref.ref, dict[str, int]]] = []
        for ref, cell in self._cells:
            thread = ref()
            if thread is None or not thread.is_alive():
                for name, amount in cell.items():
                    self._retired[name] = self._retired.get(name, 0) + amount
            else:
                live.append((ref, cell))
        self._cells[:] = live


#: The process-global registry every engine layer increments into.
METRICS = MetricsRegistry()


#: Counters that legitimately depend on how work was *scheduled*, not
#: on what was computed: budget trips and degradations.  Parity checks
#: between runs that must agree on the work done ignore them.
SCHEDULING_METRICS = frozenset({"deadline_hits", "degradations"})


def parity_view(snapshot: Mapping[str, int]) -> dict[str, int]:
    """The work-invariant projection of a metrics snapshot.

    Drops only the scheduling counters: everything else — including
    cache hits/misses, which the single-flight caches keep
    deterministic under concurrent service threads — must match
    exactly.
    """
    view: dict[str, int] = {}
    for name, value in snapshot.items():
        if name in SCHEDULING_METRICS:
            continue
        view[name] = value
    return view


def parity_diff(
    reference: Mapping[str, int],
    candidate: Mapping[str, int],
) -> dict[str, tuple[int, int]]:
    """``{name: (reference, candidate)}`` for every mismatched counter.

    Both snapshots are projected through :func:`parity_view` first; an
    empty result means the runs agree on every comparable counter.
    """
    left = parity_view(reference)
    right = parity_view(candidate)
    diffs: dict[str, tuple[int, int]] = {}
    for name in sorted(set(left) | set(right)):
        a, b = left.get(name, 0), right.get(name, 0)
        if a != b:
            diffs[name] = (a, b)
    return diffs
