"""Unit tests for the compiled join-plan homomorphism kernel.

Handcrafted cases pinning the kernel's contract: canonicalization is
name-free, plans are cached per (pattern, instance epoch), evaluation
agrees with the backtracking matcher, projection and existence modes
are exact, and deadlines fire inside plan evaluation.
"""

from __future__ import annotations

import pickle

import pytest

from repro.data.atoms import Atom
from repro.data.instances import Instance
from repro.data.terms import Constant, Null, Variable
from repro.engine.cache import clear_registered_caches
from repro.errors import DeadlineExceededError
from repro.logic.homomorphisms import (
    _oracle_homomorphisms,
    has_homomorphism,
    homomorphisms,
)
from repro.observability import METRICS
from repro.planner.plan import canonicalize, plan_for
from repro.resilience import Deadline
from tests.conftest import storage_backend

a, b, c = Constant("a"), Constant("b"), Constant("c")
x, y, z = Variable("x"), Variable("y"), Variable("z")
u, v, w = Variable("u"), Variable("v"), Variable("w")


def R(*args):
    return Atom("R", list(args))


def S(*args):
    return Atom("S", list(args))


def oracle_set(pattern, target, **kw):
    """The backtracking matcher's answer set (the reference oracle)."""
    return set(_oracle_homomorphisms(pattern, target, **kw))


def kernel_set(pattern, target, **kw):
    return set(homomorphisms(pattern, target, **kw))


class TestCanonicalize:
    def test_key_is_invariant_under_variable_renaming(self):
        left, _, _ = canonicalize([R(x, y), S(y)], frozenset())
        right, _, _ = canonicalize([R(u, w), S(w)], frozenset())
        assert left == right

    def test_key_is_invariant_under_atom_reordering(self):
        left, _, _ = canonicalize([R(x, y), S(y)], frozenset())
        right, _, _ = canonicalize([S(y), R(x, y)], frozenset())
        assert left == right

    def test_distinct_join_shapes_get_distinct_keys(self):
        chain, _, _ = canonicalize([R(x, y), R(y, z)], frozenset())
        star, _, _ = canonicalize([R(x, y), R(x, z)], frozenset())
        assert chain != star

    def test_frozen_null_is_rigid(self):
        n = Null("N1")
        free_key, _, _ = canonicalize([R(n, y)], frozenset())
        frozen_key, _, _ = canonicalize([R(n, y)], frozenset([n]))
        assert free_key != frozen_key
        # A frozen null canonicalizes like itself, not like a variable.
        var_key, _, _ = canonicalize([R(x, y)], frozenset())
        assert free_key == var_key

    def test_base_terms_are_tagged_separately(self):
        plain, _, _ = canonicalize([R(x, y)], frozenset())
        bound, _, bound_terms = canonicalize([R(x, y)], frozenset(), {x: a})
        assert plain != bound
        assert bound_terms == [x]

    def test_translation_tables_follow_first_occurrence(self):
        _, var_terms, bound_terms = canonicalize([R(x, y), S(y)], frozenset())
        assert set(var_terms) == {x, y}
        assert bound_terms == []


class TestPlanCache:
    def test_renamed_pattern_reuses_the_plan(self):
        target = Instance([R(a, b), R(b, c)])
        clear_registered_caches()
        before = METRICS.get("plans_compiled")
        plan_for([R(x, y), R(y, z)], target)
        plan_for([R(u, v), R(v, w)], target)
        assert METRICS.get("plans_compiled") == before + 1

    def test_equal_instance_with_new_epoch_recompiles(self):
        facts = [R(a, b)]
        first, second = Instance(facts), Instance(facts)
        assert first == second and first.epoch != second.epoch
        clear_registered_caches()
        before = METRICS.get("plans_compiled")
        plan_for([R(x, y)], first)
        plan_for([R(x, y)], second)
        assert METRICS.get("plans_compiled") == before + 2


class TestInstanceEpoch:
    def test_epochs_are_unique_per_object(self):
        seen = {Instance([R(a, b)]).epoch for _ in range(5)}
        assert len(seen) == 5

    def test_pickle_round_trip_gets_a_fresh_epoch(self):
        original = Instance([R(a, b)])
        copy = pickle.loads(pickle.dumps(original))
        assert copy == original
        assert copy.epoch != original.epoch


class TestKernelEquivalence:
    TARGET = Instance(
        [R(a, b), R(b, c), R(a, c), R(c, c), S(a), S(c), Atom("T", [a, a, b])]
    )

    PATTERNS = [
        [R(x, y)],
        [R(x, y), R(y, z)],  # chain join
        [R(x, y), R(x, z)],  # star join
        [R(x, x)],  # repeated variable inside one atom
        [R(x, y), S(x)],
        [R(x, y), S(z)],  # two connected components
        [R(a, y)],  # constant in the pattern
        [Atom("T", [x, x, y])],
        [R(x, y), R(y, x)],  # cycle (only R(c,c) matches)
        [Atom("Missing", [x])],  # relation absent from the target
    ]

    @pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: str(p))
    def test_same_binding_sets_as_the_matcher(self, pattern):
        assert kernel_set(pattern, self.TARGET) == oracle_set(
            pattern, self.TARGET
        )

    @pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: str(p))
    def test_existence_agrees_with_enumeration(self, pattern):
        exists = has_homomorphism(pattern, self.TARGET)
        assert exists == bool(oracle_set(pattern, self.TARGET))

    def test_base_bindings_are_respected(self):
        base = {x: a}
        assert kernel_set([R(x, y)], self.TARGET, base=base) == oracle_set(
            [R(x, y)], self.TARGET, base=base
        )

    def test_frozen_nulls_restrict_the_domain(self):
        n = Null("N7")
        target = Instance([R(n, b), R(a, b)])
        pattern = [R(n, y)]
        frozen = [n]
        assert kernel_set(pattern, target, frozen=frozen) == oracle_set(
            pattern, target, frozen=frozen
        )
        # Unfrozen, the null behaves like a variable and matches both.
        assert len(kernel_set(pattern, target)) > len(
            kernel_set(pattern, target, frozen=frozen)
        )

    def test_empty_pattern_yields_the_identity(self):
        subs = kernel_set([], self.TARGET)
        assert len(subs) == 1

    def test_deterministic_order_across_calls(self):
        pattern = [R(x, y), R(y, z)]
        first = list(homomorphisms(pattern, self.TARGET))
        second = list(homomorphisms(pattern, self.TARGET))
        assert first == second


class TestProjection:
    TARGET = Instance([R(a, b), R(a, c), R(b, c), S(a), S(b)])

    def test_projection_matches_restricted_oracle(self):
        pattern = [R(x, y), S(x)]
        projected = kernel_set(pattern, self.TARGET, project=[x])
        oracle = {
            sub.restrict([x])
            for sub in oracle_set(pattern, self.TARGET)
        }
        assert projected == oracle

    def test_projection_deduplicates(self):
        # x=a extends to two y-values; projected on x it appears once.
        projected = list(
            homomorphisms([R(x, y)], self.TARGET, project=[x])
        )
        assert len(projected) == len(set(projected)) == 2

    def test_empty_projection_is_existence_like(self):
        before = METRICS.get("plan_existence_shortcircuits")
        projected = kernel_set([R(x, y), S(z)], self.TARGET, project=[])
        assert len(projected) == 1
        assert METRICS.get("plan_existence_shortcircuits") > before

    def test_fallback_projection_agrees(self):
        pattern = [R(x, y), S(x)]
        assert kernel_set(pattern, self.TARGET, project=[x]) == oracle_set(
            pattern, self.TARGET, project=[x]
        )


class TestDeadlineInsideKernel:
    def test_deadline_fires_during_plan_evaluation(self):
        facts = [R(Constant(f"c{i}"), Constant(f"c{i + 1}")) for i in range(60)]
        target = Instance(facts)
        deadline = Deadline(max_steps=1)
        with pytest.raises(DeadlineExceededError):
            list(homomorphisms([R(x, y), R(y, z)], target, deadline=deadline))

    def test_existence_mode_also_cooperates(self):
        # A path has no 2-cycles, yet every value sits in both join
        # positions, so domain pruning cannot shortcut the search: the
        # kernel must scan candidates before answering False.
        facts = [R(Constant(f"c{i}"), Constant(f"c{i + 1}")) for i in range(60)]
        target = Instance(facts)
        deadline = Deadline(max_steps=1)
        with pytest.raises(DeadlineExceededError):
            has_homomorphism([R(x, y), R(y, x)], target, deadline=deadline)


class TestCounters:
    def test_component_and_compile_counters_move(self):
        target = Instance([R(a, b), S(c)])
        clear_registered_caches()
        compiled = METRICS.get("plans_compiled")
        evaluated = METRICS.get("plan_components_evaluated")
        list(homomorphisms([R(x, y), S(z)], target))
        assert METRICS.get("plans_compiled") == compiled + 1
        assert METRICS.get("plan_components_evaluated") >= evaluated + 2

    def test_plan_cache_stats_reach_metrics(self):
        target = Instance([R(a, b)])
        clear_registered_caches()
        base = METRICS.snapshot()
        plan_for([R(x, y)], target)
        plan_for([R(x, y)], target)
        delta = METRICS.delta_since(base)
        assert delta.get("plan_cache_hits", 0) >= 1
        assert delta.get("plan_cache_misses", 0) >= 1


class TestConfigToggle:
    def test_default_is_on(self):
        """The join kernel serves every search: a call compiles a plan."""
        target = Instance([R(a, b)])
        clear_registered_caches()
        before = METRICS.get("plans_compiled")
        list(homomorphisms([R(x, y)], target))
        assert METRICS.get("plans_compiled") == before + 1

    def test_toggling_clears_plan_cache(self):
        """Switching the storage backend never serves a stale plan."""
        target = Instance([R(a, b)])
        plan_for([R(x, y)], target)
        from repro.planner.plan import _PLAN_CACHE

        with storage_backend("columnar"):
            assert len(_PLAN_CACHE) == 0
