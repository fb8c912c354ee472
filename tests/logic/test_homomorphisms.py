"""Unit tests for the homomorphism engine."""

import pytest

from repro.data.atoms import atom
from repro.data.instances import instance
from repro.data.terms import Constant, Null, Variable
from repro.errors import DeadlineExceededError
from repro.logic.homomorphisms import (
    find_homomorphism,
    has_homomorphism,
    homomorphically_equivalent,
    homomorphisms,
    instance_homomorphisms,
    is_isomorphic,
    maps_into,
    sets_homomorphically_equivalent,
    sets_map_into,
)
from repro.resilience import Deadline


class TestPatternMatching:
    def test_single_atom_all_matches(self):
        target = instance(atom("R", "a"), atom("R", "b"))
        homs = list(homomorphisms([atom("R", "$x")], target))
        images = {h.image(Variable("x")) for h in homs}
        assert images == {Constant("a"), Constant("b")}

    def test_join_through_shared_variable(self):
        target = instance(atom("R", "a", "b"), atom("S", "b", "c"), atom("S", "a", "c"))
        homs = list(homomorphisms([atom("R", "$x", "$y"), atom("S", "$y", "$z")], target))
        assert len(homs) == 1
        assert homs[0].image(Variable("z")) == Constant("c")

    def test_constant_in_pattern_is_rigid(self):
        target = instance(atom("R", "a"), atom("R", "b"))
        homs = list(homomorphisms([atom("R", "a")], target))
        assert len(homs) == 1

    def test_repeated_variable_forces_equality(self):
        target = instance(atom("R", "a", "b"), atom("R", "c", "c"))
        homs = list(homomorphisms([atom("R", "$x", "$x")], target))
        assert len(homs) == 1
        assert homs[0].image(Variable("x")) == Constant("c")

    def test_no_match_returns_nothing(self):
        assert not has_homomorphism([atom("R", "$x")], instance(atom("S", "a")))

    def test_pattern_nulls_are_mappable_by_default(self):
        target = instance(atom("R", "a"))
        hom = find_homomorphism([atom("R", "?N")], target)
        assert hom is not None
        assert hom.image(Null("N")) == Constant("a")

    def test_frozen_nulls_are_rigid(self):
        target = instance(atom("R", "a"))
        assert not has_homomorphism([atom("R", "?N")], target, frozen=[Null("N")])
        target_with_null = instance(atom("R", "?N"))
        assert has_homomorphism(
            [atom("R", "?N")], target_with_null, frozen=[Null("N")]
        )

    def test_base_binding_is_respected(self):
        target = instance(atom("R", "a"), atom("R", "b"))
        homs = list(
            homomorphisms(
                [atom("R", "$x")], target, base={Variable("x"): Constant("b")}
            )
        )
        assert len(homs) == 1
        assert homs[0].image(Variable("x")) == Constant("b")

    def test_conflicting_base_binding_yields_nothing(self):
        target = instance(atom("R", "a"))
        assert not has_homomorphism(
            [atom("R", "$x")], target, base={Variable("x"): Constant("z")}
        )

    def test_results_are_deduplicated(self):
        target = instance(atom("R", "a", "a"), atom("R", "a", "b"))
        homs = list(homomorphisms([atom("R", "$x", "$y"), atom("R", "$x", "$x")], target))
        assert len(homs) == len(set(homs))

    def test_multiple_atoms_same_relation(self):
        target = instance(atom("E", "a", "b"), atom("E", "b", "c"))
        path = [atom("E", "$x", "$y"), atom("E", "$y", "$z")]
        homs = list(homomorphisms(path, target))
        assert len(homs) == 1


class TestInstanceLevel:
    def test_maps_into_with_nulls(self):
        source = instance(atom("R", "a", "?N"))
        target = instance(atom("R", "a", "b"))
        assert maps_into(source, target)
        assert not maps_into(target, source)

    def test_identity_on_preserves_shared_nulls(self):
        source = instance(atom("R", "?N"))
        target = instance(atom("R", "a"))
        assert not list(
            instance_homomorphisms(source, target, identity_on=[Null("N")])
        )
        shared = instance(atom("R", "?N"))
        assert list(instance_homomorphisms(source, shared, identity_on=[Null("N")]))

    def test_homomorphically_equivalent(self):
        left = instance(atom("R", "a", "?N1"))
        right = instance(atom("R", "a", "?M1"), atom("R", "a", "?M2"))
        assert homomorphically_equivalent(left, right)

    def test_empty_maps_into_everything(self):
        assert maps_into(instance(), instance(atom("R", "a")))


class TestIsomorphism:
    def test_null_renaming_is_isomorphic(self):
        left = instance(atom("R", "a", "?N1"), atom("S", "?N1", "?N2"))
        right = instance(atom("R", "a", "?M7"), atom("S", "?M7", "?M9"))
        assert is_isomorphic(left, right)

    def test_different_constants_not_isomorphic(self):
        assert not is_isomorphic(instance(atom("R", "a")), instance(atom("R", "b")))

    def test_different_sizes_not_isomorphic(self):
        assert not is_isomorphic(
            instance(atom("R", "a")), instance(atom("R", "a"), atom("R", "b"))
        )

    def test_collapsing_hom_is_not_isomorphism(self):
        left = instance(atom("R", "?N1", "?N2"))
        right = instance(atom("R", "?M", "?M"))
        assert maps_into(left, right)
        assert not is_isomorphic(left, right)

    def test_isomorphism_is_reflexive(self):
        i = instance(atom("R", "?N", "a"))
        assert is_isomorphic(i, i)

    def test_deadline_bounds_the_search(self):
        left = instance(*(atom("R", f"?N{i}", f"?N{i + 1}") for i in range(60)))
        right = instance(*(atom("R", f"?M{i}", f"?M{i + 1}") for i in range(60)))
        with pytest.raises(DeadlineExceededError):
            is_isomorphic(left, right, deadline=Deadline(max_steps=1))
        assert is_isomorphic(left, right, deadline=Deadline(max_steps=10**6))


class TestInstanceSets:
    def test_sets_map_into(self):
        k = [instance(atom("R", "?N"))]
        l = [instance(atom("R", "a")), instance(atom("R", "b"))]
        assert sets_map_into(k, l)
        assert not sets_map_into(l, k)

    def test_sets_equivalent(self):
        k = [instance(atom("R", "?N")), instance(atom("R", "a"))]
        l = [instance(atom("R", "a")), instance(atom("R", "?M"))]
        assert sets_homomorphically_equivalent(k, l)

    def test_empty_target_set_is_covered(self):
        assert sets_map_into([], [])
