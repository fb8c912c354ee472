"""Differential suite: the ``paper`` strategy is bit-identical to core.

The tentpole refactor's contract is that routing through
``repro.semantics`` changes *nothing* about the default semantics: for
every fixture and storage backend, the ``paper`` strategy must
return exactly what calling the core entry points directly returns —
same values, same order, same provenance tags.  The direct core call
is computed fresh inside every parameter combination, so a
backend-dependent divergence cannot hide behind a cached expectation.
"""

import pytest

from repro.core.certain import certain_answer
from repro.core.inverse_chase import inverse_chase
from repro.core.repair import repairs
from repro.core.semantics import is_recovery
from repro.core.validity import is_valid_for_recovery
from repro.logic.parser import parse_query
from repro.resilience import AnytimeResult, Deadline
from repro.semantics import get_semantics
from repro.workloads.scenarios import (
    employee_benefits_scaled,
    intro_split_scaled,
    lemma1_remark,
    scenario,
)
from tests.conftest import storage_backend

MAX_RECOVERIES = 100


def _fixture(name):
    """Shared fixtures: the lemma1 micro-instance plus scaled variants."""
    if name == "lemma1":
        s = lemma1_remark(2)
        return s.mapping, s.target, parse_query("q(x) :- R(x, y)")
    if name == "intro_split_scaled":
        s = intro_split_scaled(12)
        return s.mapping, s.target, s.queries["q_b2"]
    s = employee_benefits_scaled(employees=4, departments=2, benefits=2)
    return s.mapping, s.target, s.queries["dept0_benefits"]


FIXTURES = ("lemma1", "intro_split_scaled", "employee_benefits_scaled")
BACKENDS = ("columnar", "object")


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("fixture", FIXTURES)
class TestPaperBitIdentical:
    def test_recoveries_match_inverse_chase(self, fixture, backend):
        mapping, target, _ = _fixture(fixture)
        with storage_backend(backend):
            expected = inverse_chase(
                mapping, target, max_recoveries=MAX_RECOVERIES
            )
            actual = get_semantics("paper").recoveries(
                mapping, target, max_recoveries=MAX_RECOVERIES
            )
        assert actual == expected  # same recoveries, same order

    def test_certain_matches_certain_answer(self, fixture, backend):
        mapping, target, query = _fixture(fixture)
        with storage_backend(backend):
            expected = certain_answer(
                query, mapping, target, max_recoveries=MAX_RECOVERIES
            )
            actual = get_semantics("paper").certain(
                query, mapping, target, max_recoveries=MAX_RECOVERIES
            )
        assert actual == expected

    def test_degrade_provenance_matches(self, fixture, backend):
        # With a generous budget both sides finish exactly, so the
        # AnytimeResult comparison (value AND status AND rung) is
        # deterministic.
        mapping, target, _ = _fixture(fixture)
        with storage_backend(backend):
            expected = inverse_chase(
                mapping,
                target,
                max_recoveries=MAX_RECOVERIES,
                deadline=Deadline(wall_ms=60000),
                mode="degrade",
            )
            actual = get_semantics("paper").recoveries(
                mapping,
                target,
                max_recoveries=MAX_RECOVERIES,
                deadline=Deadline(wall_ms=60000),
                mode="degrade",
            )
        assert isinstance(actual, AnytimeResult)
        assert actual == expected
        assert actual.is_exact


class TestPaperOracleDelegation:
    def test_is_recovery_matches_definition3(self):
        s = scenario("running_example")
        paper = get_semantics("paper")
        for recovery in inverse_chase(s.mapping, s.target, max_recoveries=20):
            assert paper.is_recovery(s.mapping, recovery, s.target) == is_recovery(
                s.mapping, recovery, s.target
            )

    def test_is_valid_matches_theorem3(self):
        paper = get_semantics("paper")
        for name in ("running_example", "intro_split", "example12"):
            s = scenario(name)
            assert paper.is_valid(s.mapping, s.target) == is_valid_for_recovery(
                s.mapping, s.target
            )
        invalid = scenario("xr_conflicting_witnesses")
        assert paper.is_valid(invalid.mapping, invalid.target) is False

    def test_repairs_of_valid_target_is_itself(self):
        s = scenario("running_example")
        assert get_semantics("paper").repairs_of(s.mapping, s.target) == [s.target]

    def test_repairs_of_invalid_target_matches_repair_module(self):
        s = scenario("xr_conflicting_witnesses")
        expected = list(repairs(s.mapping, s.target))
        actual = get_semantics("paper").repairs_of(s.mapping, s.target)
        assert actual == expected
