"""``Instance.evolve``: epoch lineage, index patching, columnar deltas."""

from __future__ import annotations

import pytest

from repro import parse_instance
from repro.data.atoms import Atom
from repro.data.columnar import ColumnarStore
from repro.data.terms import Constant, Variable
from repro.errors import SchemaError
from tests.conftest import storage_backend


def fact(name: str, *args: str) -> Atom:
    return Atom(name, [Constant(a) for a in args])


class TestLineage:
    def test_child_records_effective_delta(self):
        parent = parse_instance("E(a, b), E(b, c), G(a)")
        child = parent.evolve(
            add=[fact("E", "c", "d"), fact("E", "a", "b")],  # one already present
            remove=[fact("G", "a"), fact("G", "zz")],  # one absent
        )
        lineage = child.lineage
        assert lineage.parent_epoch == parent.epoch
        assert lineage.added == frozenset([fact("E", "c", "d")])
        assert lineage.removed == frozenset([fact("G", "a")])
        assert child.epoch != parent.epoch
        assert child.facts == (parent.facts | {fact("E", "c", "d")}) - {
            fact("G", "a")
        }

    def test_root_instances_have_no_lineage(self):
        assert parse_instance("E(a, b)").lineage is None

    def test_noop_delta_returns_the_receiver(self):
        parent = parse_instance("E(a, b)")
        assert parent.evolve() is parent
        assert parent.evolve(add=[fact("E", "a", "b")]) is parent
        assert parent.evolve(remove=[fact("G", "x")]) is parent

    def test_adds_win_over_removes(self):
        parent = parse_instance("E(a, b)")
        same = parent.evolve(
            add=[fact("E", "a", "b")], remove=[fact("E", "a", "b")]
        )
        assert same is parent
        child = parent.evolve(
            add=[fact("E", "c", "d")], remove=[fact("E", "c", "d")]
        )
        assert fact("E", "c", "d") in child.facts

    def test_chained_evolution_tracks_each_parent(self):
        root = parse_instance("E(a, b)")
        child = root.evolve(add=[fact("E", "b", "c")])
        grandchild = child.evolve(remove=[fact("E", "a", "b")])
        assert grandchild.lineage.parent_epoch == child.epoch
        assert grandchild.facts == frozenset([fact("E", "b", "c")])

    def test_added_facts_are_validated(self):
        parent = parse_instance("E(a, b)")
        with pytest.raises(SchemaError):
            parent.evolve(add=[Atom("E", [Variable("x"), Constant("a")])])


class TestIndexPatching:
    def test_child_indexes_answer_for_the_delta(self):
        parent = parse_instance("E(a, b), E(b, c)")
        added, removed = fact("E", "c", "d"), fact("E", "a", "b")
        child = parent.evolve(add=[added], remove=[removed])
        assert added in child and removed not in child
        # The positional index must see the patch both ways.
        x = Variable("x")
        pattern = Atom("E", [Constant("c"), x])
        found = child.candidates(pattern, {}, lambda t: t is x)
        assert found == frozenset([added])
        assert parent.candidates(pattern, {}, lambda t: t is x) == frozenset()


class TestColumnarEvolution:
    def test_evolved_store_is_bit_identical_to_cold_build(self):
        with storage_backend("columnar"):
            parent = parse_instance("E(a, b), E(b, c), E(c, a), G(a), G(b)")
            assert parent.columnar_store() is not None
            child = parent.evolve(
                add=[fact("E", "a", "a"), fact("H", "q")],
                remove=[fact("E", "b", "c"), fact("G", "a")],
            )
            evolved = child.columnar_store()
            cold = ColumnarStore.build(child.facts, table=evolved.table)
            assert evolved._relations.keys() == cold._relations.keys()
            for key, rel in evolved._relations.items():
                assert rel.columns == cold._relations[key].columns

    def test_untouched_relations_share_column_objects(self):
        with storage_backend("columnar"):
            parent = parse_instance("E(a, b), G(a)")
            before = parent.columnar_store()
            child = parent.evolve(add=[fact("G", "b")])
            after = child.columnar_store()
            assert after._relations[("E", 2)] is before._relations[("E", 2)]
            assert after._relations[("G", 1)] is not before._relations[("G", 1)]

    def test_delta_emptying_a_relation_drops_it(self):
        with storage_backend("columnar"):
            parent = parse_instance("E(a, b), G(a)")
            parent.columnar_store()
            child = parent.evolve(remove=[fact("G", "a")])
            assert ("G", 1) not in child.columnar_store()._relations
