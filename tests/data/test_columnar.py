"""Unit tests for term interning and the columnar store sidecar."""

import pickle

import pytest

from repro.data.atoms import Atom
from repro.data.columnar import ColumnarStore
from repro.data.instances import COLUMNAR_MIN_FACTS, Instance
from repro.data.interning import (
    TAG_CONSTANT,
    TAG_NULL,
    TAG_VARIABLE,
    TermTable,
    current_table,
    reset_table,
)
from repro.data.terms import Constant, Null, Variable
from tests.conftest import storage_backend


class TestTermTable:
    def test_round_trip(self):
        table = TermTable()
        terms = [Constant("a"), Null("N1"), Constant("b"), Variable("x")]
        ids = table.intern_many(terms)
        assert [table.term(i) for i in ids] == terms

    def test_idempotent_and_dense(self):
        table = TermTable()
        a = table.intern(Constant("a"))
        b = table.intern(Constant("b"))
        assert table.intern(Constant("a")) == a
        assert sorted({a, b}) == [0, 1]
        assert len(table) == 2

    def test_tags(self):
        table = TermTable()
        c = table.intern(Constant("a"))
        n = table.intern(Null("N1"))
        v = table.intern(Variable("x"))
        assert table.tag(c) == TAG_CONSTANT
        assert table.tag(n) == TAG_NULL
        assert table.tag(v) == TAG_VARIABLE
        assert table.is_null_id(n)
        assert not table.is_null_id(c)

    def test_id_of_never_inserts(self):
        table = TermTable()
        assert table.id_of(Constant("ghost")) is None
        assert len(table) == 0
        assert Constant("ghost") not in table

    def test_contains(self):
        table = TermTable()
        table.intern(Constant("a"))
        assert Constant("a") in table
        assert Constant("b") not in table

    def test_pickle_ships_terms_not_ids(self):
        table = TermTable()
        terms = [Constant("a"), Null("N1")]
        ids = table.intern_many(terms)
        clone = pickle.loads(pickle.dumps(table))
        # Ids are process-local but the clone is internally consistent.
        for term, tid in zip(terms, ids):
            assert clone.term(clone.id_of(term)) == term
        assert len(clone) == len(table)

    def test_reset_table_swaps_global(self):
        before = current_table()
        fresh = reset_table()
        try:
            assert fresh is current_table()
            assert fresh is not before
        finally:
            # Later tests may rely on a non-empty shared table; a fresh
            # one is always safe, the swap just must not leak state.
            reset_table()


def _store(facts):
    return ColumnarStore.build(facts, table=TermTable())


class TestColumnarStore:
    def test_groups_by_relation_and_arity(self):
        store = _store(
            [
                Atom("R", [Constant("a"), Constant("b")]),
                Atom("R", [Constant("c")]),
                Atom("S", [Constant("a")]),
            ]
        )
        assert len(store) == 3
        assert len(store.get("R", 2)) == 1
        assert len(store.get("R", 1)) == 1
        assert len(store.get("S", 1)) == 1
        assert store.get("T", 1) is None

    def test_rows_sorted_structurally(self):
        # Build order differs from structural order; rows must not.
        store = _store(
            [
                Atom("R", [Constant("z"), Constant("z")]),
                Atom("R", [Constant("a"), Constant("b")]),
                Atom("R", [Constant("m"), Constant("n")]),
            ]
        )
        rel = store.get("R", 2)
        decoded = [rel.decode_row(r) for r in range(len(rel))]
        assert decoded == sorted(decoded)

    def test_rows_matching(self):
        a, b, c = Constant("a"), Constant("b"), Constant("c")
        store = _store([Atom("R", [a, b]), Atom("R", [a, c]), Atom("R", [b, c])])
        rel = store.get("R", 2)
        rows = rel.rows_matching(0, store.table.id_of(a))
        assert len(rows) == 2
        assert {rel.decode_row(r) for r in rows} == {
            Atom("R", [a, b]),
            Atom("R", [a, c]),
        }
        assert rel.rows_matching(0, store.table.id_of(c)) == ()

    def test_decode_round_trip(self):
        facts = {
            Atom("R", [Constant("a"), Null("N1")]),
            Atom("S", [Null("N2")]),
        }
        store = _store(facts)
        decoded = {
            rel.decode_row(r)
            for rel in store.relations()
            for r in range(len(rel))
        }
        assert decoded == facts

    def test_pickle_round_trip(self):
        facts = {
            Atom("R", [Constant("a"), Null("N1")]),
            Atom("R", [Constant("b"), Constant("c")]),
        }
        store = _store(facts)
        clone = pickle.loads(pickle.dumps(store))
        decoded = {
            rel.decode_row(r)
            for rel in clone.relations()
            for r in range(len(rel))
        }
        assert decoded == facts


class TestInstanceSidecar:
    FACTS = [Atom("R", [Constant(f"a{i}"), Constant(f"b{i}")]) for i in range(8)]
    LARGE = [
        Atom("R", [Constant(f"a{i}"), Constant("b")])
        for i in range(COLUMNAR_MIN_FACTS)
    ]

    def test_store_built_on_demand_and_cached(self):
        with storage_backend("columnar"):
            instance = Instance(self.FACTS)
            store = instance.columnar_store()
            assert store is not None
            assert len(store) == len(instance)
            assert instance.columnar_store() is store

    def test_min_facts_gate(self):
        assert len(self.FACTS) < COLUMNAR_MIN_FACTS
        assert Instance(self.FACTS).columnar_store() is None
        assert Instance(self.LARGE).columnar_store() is not None

    def test_backend_toggle_gate(self):
        with storage_backend("object"):
            assert Instance(self.LARGE).columnar_store() is None

    def test_instance_pickle_unaffected(self):
        with storage_backend("columnar"):
            instance = Instance(self.FACTS)
            instance.columnar_store()
            clone = pickle.loads(pickle.dumps(instance))
            assert clone == instance
            # The clone rebuilds its own sidecar on demand.
            assert clone.columnar_store() is not None

    def test_store_agrees_with_facts(self):
        with storage_backend("columnar"):
            instance = Instance(self.FACTS)
            store = instance.columnar_store()
            decoded = {
                rel.decode_row(r)
                for rel in store.relations()
                for r in range(len(rel))
            }
            assert decoded == instance.facts
