"""InstanceBuilder-vs-Instance equivalence: facts, indexes, hashes."""

from __future__ import annotations

import pytest

from repro.data.atoms import Atom
from repro.data.instances import Instance, InstanceBuilder
from repro.data.terms import Constant
from repro.errors import SchemaError


def a(relation, *args):
    return Atom(relation, tuple(Constant(str(x)) for x in args))


FACTS = [a("R", 1, 2), a("R", 2, 3), a("S", 1), a("S", 4), a("T", 1, 2, 3)]


def assert_equivalent(built: Instance, reference: Instance):
    """Structural equality plus index-backed lookups and hashing."""
    assert built == reference
    assert hash(built) == hash(reference)
    assert built.facts == reference.facts
    assert built.relation_names == reference.relation_names
    for relation in reference.relation_names | {"R", "S", "T", "absent"}:
        assert set(built.facts_for(relation)) == set(reference.facts_for(relation))
    for fact in reference.facts:
        for i, term in enumerate(fact.args):
            assert set(built.facts_matching(fact.relation, i, term)) == set(
                reference.facts_matching(fact.relation, i, term)
            )


class TestBuilderBasics:
    def test_empty_builder(self):
        assert InstanceBuilder().build() == Instance.empty()

    def test_build_from_scratch(self):
        builder = InstanceBuilder()
        for fact in FACTS:
            builder.add(fact)
        assert_equivalent(builder.build(), Instance(FACTS))

    def test_add_rejects_non_facts(self):
        from repro.data.terms import Variable

        with pytest.raises(SchemaError):
            InstanceBuilder().add(Atom("R", (Variable("x"),)))

    def test_container_protocol(self):
        builder = InstanceBuilder(Instance(FACTS[:2]))
        builder.add(FACTS[2]).discard(FACTS[0])
        assert FACTS[2] in builder
        assert FACTS[0] not in builder
        assert len(builder) == 2
        assert set(builder) == {FACTS[1], FACTS[2]}

    def test_no_delta_returns_base(self):
        base = Instance(FACTS)
        assert InstanceBuilder(base).build() is base

    def test_add_then_discard_is_identity(self):
        base = Instance(FACTS[:3])
        extra = a("Q", 9)
        built = InstanceBuilder(base).add(extra).discard(extra).build()
        assert_equivalent(built, base)


class TestIncrementalEquivalence:
    """The incremental index path must match from-scratch construction.

    ``incremental`` builds the base's indexes first, so the builder
    patches them; ``rebuild`` leaves them unbuilt, so it re-indexes the
    result from scratch.
    """

    @pytest.fixture(params=[True, False], ids=["incremental", "rebuild"])
    def prepare(self, request):
        def prepare(base: Instance) -> None:
            if request.param:
                base.relation_names  # force the base indexes

        return prepare

    def test_additions(self, prepare):
        base = Instance(FACTS[:3])
        prepare(base)
        built = InstanceBuilder(base).add_all(FACTS[3:]).build()
        assert_equivalent(built, Instance(FACTS))

    def test_removals(self, prepare):
        base = Instance(FACTS)
        prepare(base)
        built = InstanceBuilder(base).discard_all(FACTS[1:3]).build()
        assert_equivalent(built, Instance(FACTS[:1] + FACTS[3:]))

    def test_mixed_delta(self, prepare):
        base = Instance(FACTS[:4])
        prepare(base)
        built = (
            InstanceBuilder(base)
            .discard(FACTS[0])
            .add(FACTS[4])
            .add(a("R", 7, 7))
            .build()
        )
        assert_equivalent(
            built, Instance(FACTS[1:4] + [FACTS[4], a("R", 7, 7)])
        )

    def test_union(self, prepare):
        left = Instance(FACTS[:3])
        right = Instance(FACTS[2:])
        prepare(left)
        assert_equivalent(left.union(right), Instance(FACTS))

    def test_with_and_without_facts(self, prepare):
        base = Instance(FACTS[:3])
        prepare(base)
        assert_equivalent(base.with_facts(FACTS[3:]), Instance(FACTS))
        assert_equivalent(base.without_facts([FACTS[0]]), Instance(FACTS[1:3]))

    def test_removing_last_fact_of_relation(self, prepare):
        base = Instance(FACTS)
        prepare(base)
        built = base.without_facts([a("T", 1, 2, 3)])
        assert "T" not in built.relation_names
        assert_equivalent(built, Instance(FACTS[:4]))


class TestLazyIndexes:
    def test_lazy_instances_index_on_first_lookup(self):
        inst = Instance(FACTS)
        assert not inst._indexes_built
        inst.facts_for("R")
        assert inst._indexes_built

    def test_equality_and_hash_do_not_build_indexes(self):
        left, right = Instance(FACTS), Instance(FACTS)
        assert left == right and hash(left) == hash(right)
        assert not left._indexes_built and not right._indexes_built

    def test_index_sharing_for_untouched_relations(self):
        base = Instance(FACTS)
        base.relation_names
        built = InstanceBuilder(base).add(a("S", 99)).build()
        # "R" was untouched: its index entry is shared, not rebuilt.
        assert built.facts_for("R") is base.facts_for("R")
        assert built.facts_for("S") is not base.facts_for("S")
