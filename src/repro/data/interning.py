"""Term interning: dense integer ids for constants and nulls.

The columnar storage backend (:mod:`repro.data.columnar`) stores facts
as parallel integer columns.  The translation between :class:`Term`
values and those integers lives here, in a process-global
:class:`TermTable`:

* ``intern`` assigns the next dense id to an unseen term (and returns
  the existing id otherwise), tagging it by alphabet — constants,
  labeled nulls and variables each carry a distinct tag so int-space
  code can re-derive a term's kind without decoding it;
* ``term`` decodes an id back to the interned term (results cross the
  int/object boundary exactly once, at the edge of the vectorized
  executor);
* ``id_of`` looks an id up *without* interning, for probe values that
  may never occur in any instance.

Ids are process-local: a pickled store ships its terms, never its ids,
and re-interns on the receiving side (see ``ColumnarStore.__reduce__``),
so a pickled store round-trips into any process exactly as an object
instance does.  The table only ever grows; :func:`reset_table` swaps
in a fresh global for tests, while stores built against the old table
keep their own reference and stay internally consistent.
"""

from __future__ import annotations

import threading
from typing import Iterable, Optional

from ..observability.metrics import METRICS
from .terms import Constant, Null, Term

#: Tags recorded per interned term; int-space kind checks use these.
TAG_CONSTANT = 0
TAG_NULL = 1
TAG_VARIABLE = 2


def _tag_of(term: Term) -> int:
    if isinstance(term, Constant):
        return TAG_CONSTANT
    if isinstance(term, Null):
        return TAG_NULL
    return TAG_VARIABLE


class TermTable:
    """A bidirectional, append-only term ↔ dense-int mapping.

    Thread-safe: interning takes a lock, decoding reads an append-only
    list (safe without one).  Equality of ids implies structural
    equality of terms and vice versa, within one table.
    """

    __slots__ = ("_lock", "_terms", "_tags", "_ids")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._terms: list[Term] = []
        self._tags: list[int] = []
        self._ids: dict[Term, int] = {}

    def intern(self, term: Term) -> int:
        """The dense id of ``term``, assigning the next one when unseen."""
        tid = self._ids.get(term)
        if tid is not None:
            return tid
        with self._lock:
            tid = self._ids.get(term)
            if tid is None:
                tid = len(self._terms)
                self._terms.append(term)
                self._tags.append(_tag_of(term))
                self._ids[term] = tid
                METRICS.inc("columnar_terms_interned")
            return tid

    def intern_many(self, terms: Iterable[Term]) -> list[int]:
        intern = self.intern
        return [intern(t) for t in terms]

    def id_of(self, term: Term) -> Optional[int]:
        """The id of ``term`` if already interned, else ``None`` (no insert)."""
        return self._ids.get(term)

    def term(self, tid: int) -> Term:
        """Decode an id back to its term."""
        return self._terms[tid]

    def tag(self, tid: int) -> int:
        """The alphabet tag (constant / null / variable) of an id."""
        return self._tags[tid]

    def is_null_id(self, tid: int) -> bool:
        return self._tags[tid] == TAG_NULL

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term: Term) -> bool:
        return term in self._ids

    def __reduce__(self):
        # Ids are process-local; ship the terms and re-intern on the
        # other side so the rebuilt table is internally consistent.
        return (_restore_table, (tuple(self._terms),))


def _restore_table(terms: tuple[Term, ...]) -> "TermTable":
    table = TermTable()
    for term in terms:
        table.intern(term)
    return table


_TABLE = TermTable()
_TABLE_LOCK = threading.Lock()


def current_table() -> TermTable:
    """The process-global term table new columnar stores intern into."""
    return _TABLE


def reset_table() -> TermTable:
    """Swap in a fresh global table (tests; bounded-memory long runs).

    Existing stores keep the table they were built against, so they
    remain internally consistent; only *new* stores see the fresh one.
    """
    global _TABLE
    with _TABLE_LOCK:
        _TABLE = TermTable()
        return _TABLE
