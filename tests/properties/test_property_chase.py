"""Property-based tests for the chase and the homomorphism engine."""

from hypothesis import HealthCheck, given, settings

from repro.chase.standard import chase, satisfies, violated_triggers
from repro.errors import DeadlineExceededError
from repro.logic.homomorphisms import maps_into
from repro.resilience import Deadline

from .strategies import exchanges, ground_source_instances, mappings

RELAXED = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

#: Cooperative step budget for the isomorphism oracle.  Two chase
#: results with many interchangeable nulls can have an astronomical
#: number of homomorphisms between them; the budget makes such a draw
#: a deterministic skip instead of a minutes-long stall.
_MAX_STEPS = 2_000_000


class TestChaseProperties:
    @RELAXED
    @given(exchanges())
    def test_chase_result_is_a_model(self, exchange):
        mapping, source, target = exchange
        assert satisfies(source, target, mapping)

    @RELAXED
    @given(exchanges())
    def test_violated_triggers_iff_not_model(self, exchange):
        mapping, source, target = exchange
        assert violated_triggers(source, target, mapping) == []
        if not target.is_empty:
            broken = target.without_facts([next(iter(target))])
            assert satisfies(source, broken, mapping) == (
                violated_triggers(source, broken, mapping) == []
            )

    @RELAXED
    @given(exchanges())
    def test_chase_is_deterministic_up_to_isomorphism(self, exchange):
        from repro.logic.homomorphisms import is_isomorphic

        mapping, source, _ = exchange
        a = chase(mapping, source).result
        b = chase(mapping, source).result
        try:
            isomorphic = is_isomorphic(a, b, deadline=Deadline(max_steps=_MAX_STEPS))
        except DeadlineExceededError:
            return
        assert isomorphic

    @RELAXED
    @given(exchanges())
    def test_chase_universality_into_other_models(self, exchange):
        """Chase(Sigma, I) -> J for any model (I, J): grow the canonical
        target by grounding its nulls and check the chase maps into it."""
        mapping, source, target = exchange
        from repro.data.terms import Constant, Null

        grounded = target.map_terms(
            lambda t: Constant(f"g_{t.label}") if isinstance(t, Null) else t
        )
        assert satisfies(source, grounded, mapping)
        assert maps_into(target, grounded)

    @RELAXED
    @given(exchanges())
    def test_monotonicity_of_the_chase(self, exchange):
        mapping, source, target = exchange
        if source.is_empty:
            return
        smaller = source.without_facts([next(iter(source))])
        smaller_target = chase(mapping, smaller).result
        assert maps_into(smaller_target, target)


class TestHomomorphismProperties:
    @RELAXED
    @given(ground_source_instances(), ground_source_instances())
    def test_maps_into_is_reflexive_and_transitive_on_subsets(self, a, b):
        assert maps_into(a, a)
        union = a | b
        assert maps_into(a, union)
        assert maps_into(b, union)

    @RELAXED
    @given(ground_source_instances())
    def test_ground_maps_into_means_subset(self, inst):
        if len(inst) < 2:
            return
        first = next(iter(inst))
        smaller = inst.without_facts([first])
        assert maps_into(smaller, inst)
        assert maps_into(inst, smaller) == (first in smaller)
