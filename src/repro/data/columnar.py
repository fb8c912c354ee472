"""Columnar fact storage: interned int columns with hash indexes.

The object data model keeps every fact as an :class:`Atom` holding a
tuple of :class:`Term` objects; at 10⁵+ facts the per-object overhead
(attribute loads, tuple allocation, structural ``__eq__``) dominates
join evaluation.  This module stores the same facts column-wise:

* every term is interned to a dense int (:mod:`repro.data.interning`);
* a :class:`ColumnarRelation` holds one relation's facts as parallel
  ``array('q')`` columns, row ``r`` of relation ``R`` being the fact
  ``R(col₀[r], col₁[r], …)``;
* per-position hash indexes (``value id → row numbers``) are built
  lazily, mirroring the instance's lazy positional tier.

Rows are sorted by the interned terms' structural order before
freezing, so row numbering — and through it every enumeration order of
the vectorized executor — is deterministic across processes even under
hash randomization.

A :class:`ColumnarStore` is a *sidecar*: the owning
:class:`~repro.data.instances.Instance` keeps its ``frozenset`` of
atoms as the source of truth (equality, hashing and pickling are
untouched), and builds the store on first demand via
``Instance.columnar_store()`` once the instance holds at least
:data:`~repro.data.instances.COLUMNAR_MIN_FACTS` facts.  Instance size
is the only selector: both backends compute identical results.
"""

from __future__ import annotations

import threading
from array import array
from typing import Iterable, Optional

from ..observability.metrics import METRICS
from ..observability.spans import TRACER
from .atoms import Atom
from .interning import TermTable, current_table

#: Serializes store builds: builds are rare (one per large instance)
#: and racing threads would otherwise intern and count the same facts
#: twice.  Re-entrant so ``Instance.columnar_store`` can double-check
#: its cache slot under the same lock that guards the build.
_BUILD_LOCK = threading.RLock()


class ColumnarRelation:
    """One relation's facts as parallel int columns.

    ``columns[i][r]`` is the interned ``i``-th argument of row ``r``.
    ``index(i)`` maps each value id appearing at position ``i`` to the
    tuple of rows holding it — the columnar analogue of the instance's
    ``(relation, position, term)`` index.
    """

    __slots__ = ("relation", "arity", "size", "columns", "table", "_indexes", "_lock")

    def __init__(
        self, relation: str, arity: int, rows: list[tuple[int, ...]], table: TermTable
    ):
        self.relation = relation
        self.arity = arity
        self.size = len(rows)
        self.columns = tuple(
            array("q", (row[i] for row in rows)) for i in range(arity)
        )
        self.table = table
        self._indexes: dict[int, dict[int, tuple[int, ...]]] = {}
        self._lock = threading.Lock()

    def index(self, position: int) -> dict[int, tuple[int, ...]]:
        """The lazy ``value id → rows`` hash index for one position."""
        existing = self._indexes.get(position)
        if existing is not None:
            return existing
        with self._lock:
            existing = self._indexes.get(position)
            if existing is not None:
                return existing
            groups: dict[int, list[int]] = {}
            for r, value in enumerate(self.columns[position]):
                groups.setdefault(value, []).append(r)
            built = {value: tuple(rs) for value, rs in groups.items()}
            METRICS.inc("columnar_indexes_built")
            self._indexes[position] = built
            return built

    def rows_matching(self, position: int, value_id: int) -> tuple[int, ...]:
        """All rows whose ``position``-th argument is ``value_id``."""
        return self.index(position).get(value_id, ())

    def decode_row(self, row: int) -> Atom:
        """Materialize one row back into an :class:`Atom`."""
        term = self.table.term
        return Atom._of_terms(
            self.relation, tuple(term(col[row]) for col in self.columns)
        )

    def __len__(self) -> int:
        return self.size


class ColumnarStore:
    """All relations of one instance in columnar form, sharing a table."""

    __slots__ = ("table", "_relations", "size")

    def __init__(self, table: TermTable, relations: dict[tuple[str, int], ColumnarRelation]):
        self.table = table
        self._relations = relations
        self.size = sum(rel.size for rel in relations.values())

    @classmethod
    def build(
        cls, facts: Iterable[Atom], table: Optional[TermTable] = None
    ) -> "ColumnarStore":
        """Intern and columnize a fact set (sorted rows, deterministic)."""
        with _BUILD_LOCK, TRACER.span("columnar.build", aggregate=True):
            table = table or current_table()
            intern = table.intern
            grouped: dict[tuple[str, int], list[tuple[int, ...]]] = {}
            count = 0
            for fact in facts:
                count += 1
                row = tuple(intern(t) for t in fact.args)
                grouped.setdefault((fact.relation, fact.arity), []).append(row)
            relations = {}
            # Ids are assignment-ordered, not value-ordered; rows sort by
            # the terms' structural order, with the per-id sort key
            # computed once however often the id repeats.
            term = table.term
            key_of: dict[int, tuple[int, str]] = {}

            def row_key(row: tuple[int, ...]) -> tuple[tuple[int, str], ...]:
                out = []
                for v in row:
                    k = key_of.get(v)
                    if k is None:
                        k = term(v).sort_key
                        key_of[v] = k
                    out.append(k)
                return tuple(out)

            for (name, arity), rows in grouped.items():
                rows.sort(key=row_key)
                relations[(name, arity)] = ColumnarRelation(name, arity, rows, table)
            METRICS.inc("columnar_stores_built")
            METRICS.inc("columnar_facts_stored", count)
            return cls(table, relations)

    def evolved(
        self, added: Iterable[Atom], removed: Iterable[Atom]
    ) -> "ColumnarStore":
        """A store for this store's facts plus/minus a delta.

        Relations untouched by the delta share their
        :class:`ColumnarRelation` objects (columns *and* already-built
        indexes) with the receiver, so compiled vector plans carried
        forward across an :meth:`Instance.evolve` keep pointing at live
        data.  Touched relations are rebuilt by splicing the delta into
        the existing sorted row list — the structural row order is a
        total order (term sort keys are injective), so the result is
        bit-identical to a cold :meth:`build` of the same fact set.
        """
        from bisect import bisect_left, insort

        with _BUILD_LOCK, TRACER.span("columnar.evolve", aggregate=True):
            table = self.table
            intern = table.intern
            term = table.term
            key_of: dict[int, tuple[int, str]] = {}

            def term_key(v: int) -> tuple[int, str]:
                k = key_of.get(v)
                if k is None:
                    k = term(v).sort_key
                    key_of[v] = k
                return k

            def row_key(row: tuple[int, ...]) -> tuple[tuple[int, str], ...]:
                return tuple(term_key(v) for v in row)

            touched: dict[
                tuple[str, int], tuple[list[tuple[int, ...]], list[tuple[int, ...]]]
            ] = {}
            for fact in added:
                adds, _ = touched.setdefault(
                    (fact.relation, fact.arity), ([], [])
                )
                adds.append(tuple(intern(t) for t in fact.args))
            for fact in removed:
                _, dels = touched.setdefault(
                    (fact.relation, fact.arity), ([], [])
                )
                dels.append(tuple(intern(t) for t in fact.args))
            relations = dict(self._relations)
            for key, (adds, dels) in touched.items():
                name, arity = key
                rel = relations.get(key)
                rows = (
                    [] if rel is None else list(zip(*rel.columns))
                    if rel.arity
                    else [()] * rel.size
                )
                for row in dels:
                    i = bisect_left(rows, row_key(row), key=row_key)
                    if i < len(rows) and rows[i] == row:
                        del rows[i]
                for row in adds:
                    insort(rows, row, key=row_key)
                if rows:
                    relations[key] = ColumnarRelation(name, arity, rows, table)
                else:
                    relations.pop(key, None)
            METRICS.inc("columnar_stores_evolved")
            METRICS.inc(
                "columnar_relations_carried", len(relations) - len(touched)
            )
            return ColumnarStore(table, relations)

    def get(self, relation: str, arity: int) -> Optional[ColumnarRelation]:
        return self._relations.get((relation, arity))

    def relations(self) -> Iterable[ColumnarRelation]:
        return self._relations.values()

    def __len__(self) -> int:
        return self.size

    def __reduce__(self):
        # Ids are process-local; ship decoded facts and rebuild against
        # the receiving process's global table.
        facts = tuple(
            rel.decode_row(r) for rel in self._relations.values() for r in range(rel.size)
        )
        return (_restore_store, (facts,))


def _restore_store(facts: tuple[Atom, ...]) -> ColumnarStore:
    return ColumnarStore.build(facts)
