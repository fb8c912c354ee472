"""Differential tests for the delta-seeded planner primitives.

``delta_restricted_homomorphisms`` promises to yield *exactly* the
homomorphisms a full search would yield whose image uses at least one
delta fact; ``seeded_has_homomorphism`` promises to agree with
``has_homomorphism`` under a base binding.  Both are pinned here
against the reference search on randomized instances.
"""

from __future__ import annotations

import random

import pytest

from repro import parse_instance
from repro.data.atoms import Atom
from repro.data.terms import Constant, Variable
from repro.logic.homomorphisms import has_homomorphism, homomorphisms
from repro.planner.delta import (
    delta_restricted_homomorphisms,
    seeded_has_homomorphism,
)

X, Y, Z = Variable("x"), Variable("y"), Variable("z")

PATTERNS = [
    [Atom("E", [X, Y])],
    [Atom("E", [X, Y]), Atom("E", [Y, Z])],
    [Atom("E", [X, Y]), Atom("G", [X])],
    [Atom("E", [X, X])],
]


def fact(name: str, *args: str) -> Atom:
    return Atom(name, [Constant(a) for a in args])


def random_facts(rng, count):
    names = [f"c{i}" for i in range(4)]
    out = set()
    while len(out) < count:
        if rng.random() < 0.3:
            out.add(fact("G", rng.choice(names)))
        else:
            out.add(fact("E", rng.choice(names), rng.choice(names)))
    return out


def touches(sub, pattern, delta):
    return any(atom in delta for atom in sub.apply_atoms(pattern))


class TestDeltaRestrictedSearch:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("pattern", PATTERNS, ids=repr)
    def test_matches_full_search_filtered_to_delta(self, pattern, seed):
        rng = random.Random(seed)
        base_facts = random_facts(rng, 8)
        added = random_facts(rng, 3) - base_facts
        parent = parse_instance(", ".join(str(f) for f in base_facts))
        child = parent.evolve(add=added)
        delta = child.lineage.added
        reference = {
            sub
            for sub in homomorphisms(pattern, child)
            if touches(sub, pattern, delta)
        }
        found = list(delta_restricted_homomorphisms(pattern, child, delta))
        assert len(found) == len(set(found)), "anchors must deduplicate"
        assert set(found) == reference

    def test_delta_facts_absent_from_target_are_skipped(self):
        target = parse_instance("E(a, b)")
        assert (
            list(
                delta_restricted_homomorphisms(
                    [Atom("E", [X, Y])], target, [fact("E", "q", "q")]
                )
            )
            == []
        )

    def test_projection_collapses_agreeing_homomorphisms(self):
        # Both E-atoms can anchor on the delta fact; projected to x the
        # two anchored searches find the same binding, which must come
        # out once — and equal the projected reference search filtered
        # to delta-touching homomorphisms.
        pattern = [Atom("E", [X, Y]), Atom("E", [X, Z])]
        parent = parse_instance("E(a, b), E(a, c)")
        child = parent.evolve(add=[fact("E", "a", "d")])
        delta = child.lineage.added
        reference = {
            sub.apply_tuple([X])
            for sub in homomorphisms(pattern, child)
            if touches(sub, pattern, delta)
        }
        found = list(
            delta_restricted_homomorphisms(pattern, child, delta, project=[X])
        )
        assert len(found) == len(set(found))
        assert {sub.apply_tuple([X]) for sub in found} == reference

    def test_base_binding_is_respected(self):
        pattern = [Atom("E", [X, Y])]
        parent = parse_instance("E(a, b)")
        child = parent.evolve(add=[fact("E", "a", "c"), fact("E", "b", "c")])
        delta = child.lineage.added
        found = list(
            delta_restricted_homomorphisms(
                pattern, child, delta, base={X: Constant("a")}
            )
        )
        assert {sub.image(Y) for sub in found} == {Constant("c")}


class TestSeededExistence:
    @pytest.mark.parametrize("seed", range(5))
    def test_agrees_with_has_homomorphism_under_base(self, seed):
        rng = random.Random(100 + seed)
        target = parse_instance(
            ", ".join(str(f) for f in random_facts(rng, 6))
        )
        pattern = [Atom("E", [X, Y]), Atom("E", [Y, Z])]
        for name in ("c0", "c1", "c2", "c3"):
            base = {X: Constant(name)}
            assert seeded_has_homomorphism(
                pattern, target, base=base
            ) == has_homomorphism(pattern, target, base=base)

    def test_empty_pattern_is_trivially_satisfied(self):
        assert seeded_has_homomorphism([], parse_instance("E(a, b)"))

