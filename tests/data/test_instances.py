"""Unit tests for indexed instances."""

import random

import pytest

from repro.data.atoms import Atom, atom
from repro.data.instances import Instance, InstanceBuilder, instance
from repro.data.schema import Schema
from repro.data.terms import Constant, Null, Variable
from repro.errors import SchemaError


class TestConstruction:
    def test_facts_deduplicate(self):
        i = Instance([atom("R", "a"), atom("R", "a")])
        assert len(i) == 1

    def test_variables_rejected(self):
        with pytest.raises(SchemaError):
            Instance([atom("R", "$x")])

    def test_schema_validation(self):
        schema = Schema.from_arities({"R": 1})
        Instance([atom("R", "a")], schema=schema)
        with pytest.raises(SchemaError):
            Instance([atom("S", "a")], schema=schema)

    def test_empty_and_of(self):
        assert Instance.empty().is_empty
        assert len(Instance.of(atom("R", "a"), atom("S", "b"))) == 2


class TestLookup:
    def setup_method(self):
        self.inst = instance(
            atom("R", "a", "b"),
            atom("R", "a", "c"),
            atom("R", "b", "c"),
            atom("S", "a"),
        )

    def test_facts_for(self):
        assert len(self.inst.facts_for("R")) == 3
        assert self.inst.facts_for("Missing") == frozenset()

    def test_facts_matching(self):
        assert self.inst.facts_matching("R", 0, Constant("a")) == {
            atom("R", "a", "b"),
            atom("R", "a", "c"),
        }
        assert self.inst.facts_matching("R", 1, Constant("c")) == {
            atom("R", "a", "c"),
            atom("R", "b", "c"),
        }

    def test_candidates_uses_constants(self):
        pattern = atom("R", "a", "$y")
        assert self.inst.candidates(pattern, {}) == {
            atom("R", "a", "b"),
            atom("R", "a", "c"),
        }

    def test_candidates_uses_bound_variables(self):
        pattern = atom("R", "$x", "$y")
        bound = {Variable("y"): Constant("c")}
        assert self.inst.candidates(pattern, bound) == {
            atom("R", "a", "c"),
            atom("R", "b", "c"),
        }

    def test_candidates_unconstrained_returns_relation(self):
        assert len(self.inst.candidates(atom("R", "$x", "$y"), {})) == 3

    def test_candidates_custom_mappable_treats_nulls_flexibly(self):
        inst = instance(atom("R", "a"))
        pattern = atom("R", "?N")
        # Default: a pattern null is rigid, so nothing matches.
        assert inst.candidates(pattern, {}) == frozenset()
        # With nulls mappable, the whole relation qualifies.
        flexible = inst.candidates(
            pattern, {}, mappable=lambda t: not isinstance(t, Constant)
        )
        assert flexible == {atom("R", "a")}

    def test_relation_names(self):
        assert self.inst.relation_names == {"R", "S"}

    def test_contains_and_iter_sorted(self):
        assert atom("S", "a") in self.inst
        assert list(self.inst) == sorted(self.inst.facts)


class TestDomain:
    def test_domain_nulls_constants(self):
        i = instance(atom("R", "a", "?N"))
        assert i.domain() == {Constant("a"), Null("N")}
        assert i.nulls() == {Null("N")}
        assert i.constants() == {Constant("a")}

    def test_is_ground(self):
        assert instance(atom("R", "a")).is_ground
        assert not instance(atom("R", "?N")).is_ground


class TestAlgebra:
    def test_union_difference_intersection(self):
        left = instance(atom("R", "a"), atom("R", "b"))
        right = instance(atom("R", "b"), atom("R", "c"))
        assert len(left | right) == 3
        assert (left - right) == instance(atom("R", "a"))
        assert (left & right) == instance(atom("R", "b"))

    def test_with_without_facts(self):
        i = instance(atom("R", "a"))
        assert atom("S", "b") in i.with_facts([atom("S", "b")])
        assert i.without_facts([atom("R", "a")]).is_empty

    def test_subset_operators(self):
        small = instance(atom("R", "a"))
        big = instance(atom("R", "a"), atom("R", "b"))
        assert small <= big
        assert small < big
        assert not big <= small

    def test_apply_mapping(self):
        i = instance(atom("R", "?N", "a"))
        image = i.apply({Null("N"): Constant("b")})
        assert image == instance(atom("R", "b", "a"))

    def test_map_terms(self):
        i = instance(atom("R", "a"))
        image = i.map_terms(lambda t: Constant("z"))
        assert image == instance(atom("R", "z"))

    def test_restrict_to_schema(self):
        i = instance(atom("R", "a"), atom("S", "b"))
        restricted = i.restrict_to_schema(Schema.from_arities({"R": 1}))
        assert restricted == instance(atom("R", "a"))


class TestDunder:
    def test_equality_and_hash(self):
        assert instance(atom("R", "a")) == instance(atom("R", "a"))
        assert hash(instance(atom("R", "a"))) == hash(instance(atom("R", "a")))

    def test_repr_is_sorted(self):
        assert repr(instance(atom("S", "b"), atom("R", "a"))) == "{R(a), S(b)}"

    def test_immutable(self):
        with pytest.raises(AttributeError):
            instance(atom("R", "a"))._facts = frozenset()


class TestEpochStability:
    def test_apply_empty_mapping_is_identity_object(self):
        """The identity application must return self, keeping the epoch
        stable so plan caches and the columnar sidecar survive (the
        inverse chase applies the finishing homomorphism this way
        whenever it is the identity)."""
        i = instance(atom("R", "a"), atom("S", "b"))
        assert i.apply({}) is i
        assert i.apply({}).epoch == i.epoch

    def test_nonempty_mapping_builds_new_instance(self):
        i = instance(atom("R", "a"))
        j = i.apply({Constant("a"): Constant("b")})
        assert j == instance(atom("R", "b"))
        assert j.epoch != i.epoch


class TestSortedIteration:
    """Iteration order is ``sorted(facts)``, i.e. ``Atom.__lt__``'s order."""

    # Mixed kinds, plus strings the printer must quote.  Int/str pairs
    # with equal text (Constant(1) vs Constant("1")) are left out: the
    # pairwise comparator does not order them totally.
    TERMS = [
        Constant("a"), Constant("b_1"), Constant("_a"), Constant("1a"),
        Constant("a-b"), Constant("ä"), Constant(""), Constant(3),
        Constant(12), Null("a"), Null("N2"), Null("10"),
    ]

    def facts(self, seed):
        rng = random.Random(seed)
        return [
            Atom(rng.choice("RS"), rng.choices(self.TERMS, k=rng.randint(1, 3)))
            for _ in range(60)
        ]

    @pytest.mark.parametrize("seed", range(5))
    def test_instance_iterates_in_atom_order(self, seed):
        inst = Instance(self.facts(seed))
        assert list(inst) == sorted(inst.facts)

    @pytest.mark.parametrize("seed", range(5))
    def test_builder_iterates_in_atom_order(self, seed):
        facts = self.facts(seed)
        builder = InstanceBuilder(Instance(facts[:30]))
        builder.add_validated(facts[30:])
        builder.discard_all(facts[:5])
        assert list(builder) == sorted(builder.facts())
