"""Differential tests: ``RecoveryState`` vs cold recompute under churn.

Every test drives a maintained :class:`repro.incremental.RecoveryState`
through a sequence of fact deltas and, after each step, recomputes the
recovery surface from scratch — ``hom_set``, ``inverse_chase`` and
``certain_answer`` on the *current* target — asserting bit-identical
results (same recoveries, same order, same answers).

One subtlety: an epoch that falls back to the cold enumeration seeds
the hom-set cache with the maintained set (fast epochs seed nothing).
The cold reference here must NOT see that seed, so each comparison
clears the registered caches first; the maintained state keeps all of
its incremental structures privately and is unaffected.
"""

from __future__ import annotations

import gc
import random
import weakref

import pytest

from repro import (
    Mapping,
    certain_answer,
    hom_set,
    inverse_chase,
    parse_instance,
    parse_query,
    parse_tgds,
)
from repro.data.atoms import Atom
from repro.data.terms import Constant
from repro.engine import clear_registered_caches
from repro.errors import NotRecoverableError
from repro.incremental import RecoveryState
from repro.incremental import state as state_module
from repro.observability.metrics import METRICS
from tests.conftest import storage_backend

BULK = "E(x, y) -> F(x, y)"
AMBIGUOUS = "P(x) -> F(x, x)\nE(x, y) -> F(x, y)"
EXISTENTIAL = "S(x) -> T(x, y)"

BACKENDS = ("object", "columnar")


def mapping_of(text: str) -> Mapping:
    return Mapping(parse_tgds(text))


def fact(name: str, *args: str) -> Atom:
    return Atom(name, [Constant(a) for a in args])


def canon(recovery) -> tuple[str, ...]:
    return tuple(sorted(str(f) for f in recovery.facts))


def assert_matches_cold(state: RecoveryState, queries=(), **cold_options):
    """The maintained surface must be bit-identical to a cold recompute."""
    mapping, target = state.mapping, state.target
    clear_registered_caches()
    assert state.hom_count == len(hom_set(mapping, target))

    clear_registered_caches()
    cold = inverse_chase(mapping, target, **cold_options)
    assert [canon(r) for r in state.recoveries] == [canon(r) for r in cold]

    for query in queries:
        try:
            maintained = state.certain(query)
        except NotRecoverableError:
            maintained = NotRecoverableError
        clear_registered_caches()
        try:
            reference = certain_answer(query, mapping, target, **cold_options)
        except NotRecoverableError:
            reference = NotRecoverableError
        assert maintained == reference


class TestChurnDifferential:
    """Randomized insert / delete / mixed churn on the bulk mapping."""

    QUERIES = (
        parse_query("q(x, y) :- E(x, y)"),
        parse_query("q(x) :- E(x, y), E(y, z)"),
    )

    def pool(self):
        return [fact("F", f"c{i}", f"c{j}") for i in range(5) for j in range(5)]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_insert_churn(self, backend):
        with storage_backend(backend):
            rng = random.Random(11)
            pool = self.pool()
            state = RecoveryState(mapping_of(BULK), parse_instance("F(c0, c1)"))
            for _ in range(8):
                add = rng.sample(pool, rng.randint(1, 3))
                state.apply_delta(add=add)
                assert_matches_cold(state, self.QUERIES)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_delete_churn(self, backend):
        with storage_backend(backend):
            rng = random.Random(12)
            pool = self.pool()
            state = RecoveryState(
                mapping_of(BULK), parse_instance(", ".join(str(f) for f in pool))
            )
            live = list(pool)
            for _ in range(8):
                remove = rng.sample(live, rng.randint(1, 3))
                live = [f for f in live if f not in remove]
                state.apply_delta(remove=remove)
                assert_matches_cold(state, self.QUERIES)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mixed_churn(self, backend):
        with storage_backend(backend):
            rng = random.Random(13)
            pool = self.pool()
            state = RecoveryState(
                mapping_of(BULK), parse_instance("F(c0, c1), F(c1, c2)")
            )
            for _ in range(12):
                add = rng.sample(pool, rng.randint(0, 2))
                remove = rng.sample(pool, rng.randint(0, 2))
                state.apply_delta(add=add, remove=remove)
                assert_matches_cold(state, self.QUERIES)

    def test_fast_path_is_taken_on_bulk_mapping(self):
        state = RecoveryState(mapping_of(BULK), parse_instance("F(a, b)"))
        before = METRICS.snapshot().get("incremental_fast_deltas", 0)
        state.apply_delta(add=[fact("F", "b", "c")])
        assert METRICS.snapshot()["incremental_fast_deltas"] == before + 1
        assert_matches_cold(state, self.QUERIES)


class TestCoveringSupportDeletion:
    """Deleting a fact that supports an existing covering hom."""

    def test_supporting_fact_deletion_retires_the_hom(self):
        state = RecoveryState(
            mapping_of(BULK), parse_instance("F(a, b), F(b, c)")
        )
        assert state.hom_count == 2
        retired = METRICS.snapshot().get("incremental_homs_retired", 0)
        state.apply_delta(remove=[fact("F", "a", "b")])
        assert METRICS.snapshot()["incremental_homs_retired"] == retired + 1
        assert state.hom_count == 1
        assert_matches_cold(state)
        assert [canon(r) for r in state.recoveries] == [("E(b, c)",)]

    def test_shared_support_under_ambiguous_covers(self):
        # F(a, a) is covered by two homs (via P and via E); deleting it
        # must retire both, and re-adding it must rediscover both.
        mapping = mapping_of(AMBIGUOUS)
        state = RecoveryState(mapping, parse_instance("F(a, a), F(b, c)"))
        assert_matches_cold(state)
        state.apply_delta(remove=[fact("F", "a", "a")])
        assert_matches_cold(state)
        state.apply_delta(add=[fact("F", "a", "a")])
        assert_matches_cold(state)

    def test_ambiguous_churn_exercises_cold_rebuild(self):
        mapping = mapping_of(AMBIGUOUS)
        rng = random.Random(21)
        pool = [fact("F", c, c) for c in "abcd"] + [
            fact("F", "a", "b"),
            fact("F", "c", "d"),
        ]
        state = RecoveryState(mapping, parse_instance("F(a, a)"))
        rebuilds = METRICS.snapshot().get("incremental_cold_rebuilds", 0)
        for _ in range(10):
            add = rng.sample(pool, rng.randint(0, 2))
            remove = rng.sample(pool, rng.randint(0, 2))
            state.apply_delta(add=add, remove=remove)
            assert_matches_cold(state, (parse_query("q(x) :- P(x)"),))
        assert METRICS.snapshot()["incremental_cold_rebuilds"] > rebuilds

    def test_cold_rebuild_seeds_the_maintained_hom_set(self):
        # F(a, a) has two covering homs, so the epoch rebuilds cold and
        # hands its maintained HOM(Σ, J) to the hom-set cache; the seed
        # must equal a cold enumeration, order included.
        mapping = mapping_of(AMBIGUOUS)
        state = RecoveryState(mapping, parse_instance("F(b, c)"))
        rebuilds = METRICS.snapshot().get("incremental_cold_rebuilds", 0)
        state.apply_delta(add=[fact("F", "a", "a"), fact("F", "c", "d")])
        assert METRICS.snapshot()["incremental_cold_rebuilds"] == rebuilds + 1
        seeded = hom_set(mapping, state.target)
        clear_registered_caches()
        cold_homs = hom_set(mapping, state.target)
        assert [(h.tgd, h.substitution) for h in seeded] == [
            (h.tgd, h.substitution) for h in cold_homs
        ]
        assert_matches_cold(state)


class TestJustificationBySupport:
    """The fast path decides Definition 2 without the oracle on ground targets."""

    QUERY = parse_query("q(x) :- E(x, y)")

    @pytest.fixture
    def oracle_calls(self, monkeypatch):
        calls = []
        oracle = state_module.is_justified

        def counting(*args, **kwargs):
            calls.append(args)
            return oracle(*args, **kwargs)

        monkeypatch.setattr(state_module, "is_justified", counting)
        return calls

    def test_ground_churn_never_calls_the_oracle(self, oracle_calls):
        rng = random.Random(31)
        pool = [fact("F", f"c{i}", f"c{j}") for i in range(4) for j in range(4)]
        before = METRICS.snapshot().get("incremental_justified_by_support", 0)
        state = RecoveryState(mapping_of(BULK), parse_instance("F(c0, c1)"))
        for _ in range(10):
            add = rng.sample(pool, rng.randint(0, 2))
            remove = rng.sample(pool, rng.randint(0, 2))
            state.apply_delta(add=add, remove=remove)
            assert_matches_cold(state, (self.QUERY,))
        assert oracle_calls == []
        assert METRICS.snapshot()["incremental_justified_by_support"] > before

    def test_target_with_a_null_defers_to_the_oracle(self, oracle_calls):
        null_fact = parse_instance("F(c0, ?n0)").facts
        state = RecoveryState(mapping_of(BULK), parse_instance("F(c0, ?n0)"))
        assert len(oracle_calls) == 1
        assert_matches_cold(state, (self.QUERY,))
        state.apply_delta(add=[fact("F", "c1", "c2")])
        assert len(oracle_calls) == 2
        assert_matches_cold(state, (self.QUERY,))
        # With the last null gone the support argument applies again.
        state.apply_delta(remove=null_fact)
        assert len(oracle_calls) == 2
        assert_matches_cold(state, (self.QUERY,))

    def test_fast_deltas_do_not_pin_old_epochs(self):
        state = RecoveryState(mapping_of(BULK), parse_instance("F(c0, c1)"))
        state.apply_delta(add=[fact("F", "c1", "c2")])
        early = weakref.ref(state.target)
        for i in range(50):
            state.apply_delta(add=[fact("F", f"d{i}", f"d{i + 1}")])
        gc.collect()
        assert early() is None


class TestNonFastMappings:
    def test_existential_mapping_churn(self):
        # S(x) -> T(x, y) has an existential head variable, so the fast
        # pipeline never applies; every delta goes through the generic
        # rebuild and must still match cold output exactly.
        mapping = mapping_of(EXISTENTIAL)
        state = RecoveryState(mapping, parse_instance("T(a, b)"))
        query = parse_query("q(x) :- S(x)")
        for add, remove in [
            ([fact("T", "c", "d")], []),
            ([], [fact("T", "a", "b")]),
            ([fact("T", "a", "a")], [fact("T", "c", "d")]),
        ]:
            state.apply_delta(add=add, remove=remove)
            assert_matches_cold(state, (query,))


class TestValidityTransitions:
    def test_uncoverable_fact_round_trip(self):
        state = RecoveryState(mapping_of(BULK), parse_instance("F(a, b)"))
        query = parse_query("q(x, y) :- E(x, y)")
        state.apply_delta(add=[fact("G", "9")])
        assert state.recoveries == []
        with pytest.raises(NotRecoverableError):
            state.certain(query)
        assert_matches_cold(state, (query,))
        state.apply_delta(remove=[fact("G", "9")])
        assert [canon(r) for r in state.recoveries] == [("E(a, b)",)]
        assert_matches_cold(state, (query,))

    def test_churn_to_empty_target_and_back(self):
        state = RecoveryState(mapping_of(BULK), parse_instance("F(a, b)"))
        state.apply_delta(remove=[fact("F", "a", "b")])
        assert state.target.is_empty
        assert_matches_cold(state)
        state.apply_delta(add=[fact("F", "x", "y")])
        assert_matches_cold(state)

    def test_noop_delta_returns_same_target(self):
        state = RecoveryState(mapping_of(BULK), parse_instance("F(a, b)"))
        target = state.target
        assert state.apply_delta() is target
        assert state.apply_delta(add=[fact("F", "a", "b")]) is target
        # Adds win over removes on overlap; the net effect is nothing.
        assert (
            state.apply_delta(
                add=[fact("F", "a", "b")], remove=[fact("F", "a", "b")]
            )
            is target
        )


class TestOptionParity:
    def test_cover_mode_all(self):
        state = RecoveryState(
            mapping_of(AMBIGUOUS),
            parse_instance("F(a, a), F(b, b)"),
            cover_mode="all",
        )
        state.apply_delta(add=[fact("F", "c", "d")])
        assert_matches_cold(state, cover_mode="all")

    def test_verify_justification_off(self):
        state = RecoveryState(
            mapping_of(BULK),
            parse_instance("F(a, b)"),
            verify_justification=False,
        )
        state.apply_delta(add=[fact("F", "b", "c")])
        clear_registered_caches()
        cold = inverse_chase(
            state.mapping, state.target, verify_justification=False
        )
        assert [canon(r) for r in state.recoveries] == [canon(r) for r in cold]

    def test_invalid_modes_rejected(self):
        target = parse_instance("F(a, b)")
        with pytest.raises(ValueError):
            RecoveryState(mapping_of(BULK), target, cover_mode="most")
        with pytest.raises(ValueError):
            RecoveryState(mapping_of(BULK), target, subsumption_mode="maybe")


class TestColdParity:
    """A cold recompute matches the maintained state after a delta."""

    def test_delta_result_matches_cold_recompute(self):
        mapping = mapping_of(AMBIGUOUS)
        state = RecoveryState(mapping, parse_instance("F(a, a), F(a, b)"))
        state.apply_delta(
            add=[fact("F", "b", "b")], remove=[fact("F", "a", "b")]
        )
        query = parse_query("q(x) :- P(x)")
        maintained = state.certain(query)
        clear_registered_caches()
        cold = inverse_chase(state.mapping, state.target)
        assert [canon(r) for r in state.recoveries] == [canon(r) for r in cold]
        clear_registered_caches()
        assert maintained == certain_answer(query, state.mapping, state.target)
