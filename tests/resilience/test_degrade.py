"""The degradation ladder: deadlines threaded through the core paths.

The acceptance scenario for the resilience layer: on a fixture whose
enumeration exceeds the deadline, ``mode="degrade"`` returns a
non-empty sound answer with rung provenance, while ``mode="raise"``
surfaces a :class:`DeadlineExceededError` carrying partial progress.
"""

import pytest

from repro import (
    AnytimeResult,
    Deadline,
    DeadlineExceededError,
    BudgetExceededError,
    Mapping,
    certain_answer,
    enumerate_covers,
    hom_set,
    inverse_chase,
    inverse_chase_candidates,
    is_justified,
    is_valid_for_recovery,
    parse_instance,
    parse_query,
    parse_tgds,
    repairs,
)
from repro.observability import METRICS


@pytest.fixture
def branching_scenario():
    """A mapping/target pair with many coverings and recoveries.

    ``S(x), S(y)`` heads give every target fact several covering
    homomorphisms, so both the covering enumeration and the recovery
    stream are long enough to interrupt mid-way.
    """
    mapping = Mapping(parse_tgds("R(x, y) -> S(x), S(y)"))
    target = parse_instance("S(a), S(b), S(c)")
    return mapping, target


def _steps_to_emit(mapping, target, wanted, **options):
    """The smallest step budget that lets ``wanted`` recoveries out.

    Found by probing increasing budgets, so the tests stay correct if
    the per-step accounting of the search loops ever changes.
    """
    for budget in range(1, 200_000):
        try:
            result = inverse_chase(
                mapping, target, deadline=Deadline(max_steps=budget), **options
            )
            return budget, len(result)  # whole enumeration fit
        except DeadlineExceededError as error:
            if len(error.partial) >= wanted:
                return budget, len(error.partial)
    raise AssertionError("no budget produced the wanted partial")


class TestRaiseMode:
    def test_expiry_carries_partial_progress(self, branching_scenario):
        mapping, target = branching_scenario
        full = inverse_chase(mapping, target)
        assert len(full) >= 2
        budget, emitted = _steps_to_emit(mapping, target, wanted=1)
        with pytest.raises(DeadlineExceededError) as excinfo:
            inverse_chase(
                mapping, target, deadline=Deadline(max_steps=budget)
            )
        error = excinfo.value
        assert len(error.partial) == emitted >= 1
        assert error.progress.get("recoveries_emitted") is not None
        # The salvage is sound: every partial entry is a genuine recovery.
        for recovery in error.partial:
            assert is_justified(mapping, recovery, target)
        # And a strict subset of the full answer.
        assert set(error.partial) < set(full)

    def test_generous_deadline_changes_nothing(self, branching_scenario):
        mapping, target = branching_scenario
        plain = inverse_chase(mapping, target)
        bounded = inverse_chase(
            mapping, target, deadline=Deadline(wall_ms=120_000, max_steps=10**9)
        )
        assert bounded == plain
        assert not isinstance(bounded, AnytimeResult)

    def test_invalid_mode_rejected(self, branching_scenario):
        mapping, target = branching_scenario
        with pytest.raises(ValueError):
            inverse_chase(mapping, target, mode="panic")


class TestDegradeLadder:
    def test_exact_when_in_budget(self, branching_scenario):
        mapping, target = branching_scenario
        result = inverse_chase(
            mapping, target, deadline=Deadline(wall_ms=120_000), mode="degrade"
        )
        assert isinstance(result, AnytimeResult)
        assert result.status == "exact"
        assert result.rung == "enumeration"
        assert list(result) == inverse_chase(mapping, target)

    def test_partial_enumeration_rung(self, branching_scenario):
        """Acceptance: expiry mid-enumeration degrades to the verified
        partial set, tagged sound-incomplete."""
        mapping, target = branching_scenario
        budget, emitted = _steps_to_emit(mapping, target, wanted=1)
        base = METRICS.snapshot()
        result = inverse_chase(
            mapping,
            target,
            deadline=Deadline(max_steps=budget),
            mode="degrade",
        )
        assert isinstance(result, AnytimeResult)
        assert result.status == "sound-incomplete"
        assert result.rung == "partial-enumeration"
        # The counters explain the degraded answer: one expiry, one step
        # down the ladder.
        delta = METRICS.delta_since(base)
        assert delta.get("deadline_hits") == 1
        assert delta.get("degradations") == 1
        assert len(result) == emitted >= 1
        for recovery in result:
            assert is_justified(mapping, recovery, target)
        assert "degraded_because" in result.progress

    def test_minimal_covers_rung(self, branching_scenario):
        mapping, target = branching_scenario
        # Find a budget the minimal enumeration fits in...
        for budget in range(1, 200_000):
            try:
                minimal = inverse_chase(
                    mapping,
                    target,
                    cover_mode="minimal",
                    deadline=Deadline(max_steps=budget),
                )
                break
            except DeadlineExceededError:
                continue
        # ... and check the full enumeration does NOT fit in it, so the
        # ladder's second rung is what answers.
        with pytest.raises(DeadlineExceededError):
            inverse_chase(
                mapping,
                target,
                cover_mode="all",
                max_covers=None,
                deadline=Deadline(max_steps=budget),
            )
        result = inverse_chase(
            mapping,
            target,
            cover_mode="all",
            deadline=Deadline(max_steps=budget),
            mode="degrade",
        )
        assert isinstance(result, AnytimeResult)
        assert result.rung in ("minimal-covers", "partial-enumeration")
        if result.rung == "minimal-covers":
            assert result.status == "exact"
            # Rung 2 keeps whatever rung 1 already emitted and then
            # completes the minimal enumeration, so the result covers
            # the plain minimal run (possibly plus salvaged extras —
            # all of which passed the justification gate).
            assert set(minimal) <= set(result)
            for recovery in result:
                assert is_justified(mapping, recovery, target)

    def test_tractable_rung_when_nothing_emitted(self):
        mapping = Mapping(parse_tgds("R(x, y) -> S(x); R(u, v) -> T(v)"))
        target = parse_instance("S(a1), S(a2), T(b1), T(b2)")
        result = inverse_chase(
            mapping, target, deadline=Deadline(max_steps=1), mode="degrade"
        )
        assert isinstance(result, AnytimeResult)
        assert result.rung == "tractable"
        assert len(result) >= 1
        # Whatever the tractable rung returned is sound: a justified
        # source whenever it claims to be a recovery.
        if result.status == "exact":
            for recovery in result:
                assert is_justified(mapping, recovery, target)

    def test_degrade_without_deadline_is_exact(self, branching_scenario):
        mapping, target = branching_scenario
        result = inverse_chase(mapping, target, mode="degrade")
        assert result.status == "exact"
        assert list(result) == inverse_chase(mapping, target)


class TestCertainDegrade:
    def test_degraded_answers_are_sound(self, branching_scenario):
        mapping, target = branching_scenario
        query = parse_query("q(x) :- R(x, y)")
        exact = certain_answer(query, mapping, target)
        degraded = certain_answer(
            query,
            mapping,
            target,
            deadline=Deadline(max_steps=2),
            mode="degrade",
        )
        assert isinstance(degraded, AnytimeResult)
        assert degraded.status == "sound-incomplete"
        assert degraded.rung == "tractable"
        assert set(degraded) <= exact

    def test_certain_raise_mode_surfaces_deadline(self, branching_scenario):
        mapping, target = branching_scenario
        query = parse_query("q(x) :- R(x, y)")
        with pytest.raises(DeadlineExceededError):
            certain_answer(
                query, mapping, target, deadline=Deadline(max_steps=2)
            )


class TestThreadedEntryPoints:
    def test_enumerate_covers_respects_deadline(self, branching_scenario):
        mapping, target = branching_scenario
        homs = hom_set(mapping, target)
        with pytest.raises(DeadlineExceededError):
            list(
                enumerate_covers(
                    homs, target, mode="all", deadline=Deadline(max_steps=2)
                )
            )

    def test_validity_respects_deadline(self, branching_scenario):
        mapping, target = branching_scenario
        with pytest.raises(DeadlineExceededError):
            is_valid_for_recovery(
                mapping, target, deadline=Deadline(max_steps=1)
            )
        assert is_valid_for_recovery(
            mapping, target, deadline=Deadline(wall_ms=120_000)
        )

    def test_repairs_respect_deadline(self):
        mapping = Mapping(parse_tgds("Order(c, i) -> Shipment(i), Invoice(c)"))
        altered = parse_instance("Shipment(laptop), Invoice(ada), Refund(ada)")
        with pytest.raises(DeadlineExceededError) as excinfo:
            list(repairs(mapping, altered, deadline=Deadline(max_steps=1)))
        assert "candidates_tried" in excinfo.value.progress


class TestBudgetPartial:
    def test_budget_error_carries_partial(self, branching_scenario):
        mapping, target = branching_scenario
        full = inverse_chase(mapping, target)
        with pytest.raises(BudgetExceededError) as excinfo:
            inverse_chase(mapping, target, max_recoveries=1)
        error = excinfo.value
        assert len(error.partial) == 1
        assert error.partial[0] in full

    def test_on_budget_truncate_returns_quietly(self, branching_scenario):
        mapping, target = branching_scenario
        truncated = inverse_chase(
            mapping, target, max_recoveries=1, on_budget="truncate"
        )
        assert len(truncated) == 1
        full = inverse_chase(mapping, target)
        assert truncated[0] in full

    def test_truncate_covers_budget(self, branching_scenario):
        mapping, target = branching_scenario
        truncated = list(
            inverse_chase_candidates(
                mapping, target, max_covers=1, on_budget="truncate"
            )
        )
        with pytest.raises(BudgetExceededError):
            list(inverse_chase_candidates(mapping, target, max_covers=1))
        assert len(truncated) >= 0  # quietly short, never raising
