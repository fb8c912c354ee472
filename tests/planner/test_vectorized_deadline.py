"""Deadline enforcement through the vectorized (columnar) join kernel.

Regression coverage for the resource-governance gaps the chaos work
surfaced: the row meter used to drop any remainder under its 32-tick
batch (a query over a small relation charged *zero* steps), the
cross-product emit loops were not metered at all, and nothing fed the
deadline's memory estimate.  Each test here pins one of those paths on
the columnar backend specifically.
"""

import pytest

from repro.data.atoms import Atom
from repro.data.instances import Instance
from repro.data.terms import Constant, Variable
from repro.errors import DeadlineExceededError
from repro.logic.homomorphisms import has_homomorphism, homomorphisms
from repro.planner import vector_query_tuples
from repro.resilience import Deadline
from tests.conftest import storage_backend

x, y, z = Variable("x"), Variable("y"), Variable("z")


def chain(n):
    """R(0,1), R(1,2), ... plus an S fact per node."""
    facts = []
    for i in range(n):
        facts.append(Atom("R", [Constant(i), Constant(i + 1)]))
        facts.append(Atom("S", [Constant(i)]))
    return Instance(facts)


class TestStepCharging:
    def test_small_pattern_still_charges_steps(self):
        # 4 R rows: far below one 32-tick batch.  Before the flush fix
        # the whole evaluation charged nothing.
        deadline = Deadline()
        with storage_backend("columnar"):
            results = list(
                homomorphisms([Atom("R", [x, y])], chain(4), deadline=deadline)
            )
        assert len(results) == 4
        assert deadline.steps > 0

    def test_existence_path_charges_steps(self):
        deadline = Deadline()
        with storage_backend("columnar"):
            assert has_homomorphism(
                [Atom("R", [x, y]), Atom("R", [y, z])],
                chain(4),
                deadline=deadline,
            )
        assert deadline.steps > 0

    def test_step_budget_trips_join(self):
        with storage_backend("columnar"), pytest.raises(DeadlineExceededError):
            list(
                homomorphisms(
                    [Atom("R", [x, y]), Atom("R", [y, z])],
                    chain(300),
                    deadline=Deadline(max_steps=50),
                )
            )

    def test_cross_product_emission_is_metered(self):
        # Two disconnected components: each is tiny, but their product
        # is |R| x |S| and must be charged during emission.
        target = chain(40)
        pattern = [Atom("R", [x, y]), Atom("S", [z])]
        generous = Deadline(max_steps=100_000)
        with storage_backend("columnar"):
            count = len(list(homomorphisms(pattern, target, deadline=generous)))
        assert count == 40 * 40
        assert generous.steps >= count
        with storage_backend("columnar"), pytest.raises(DeadlineExceededError):
            list(
                homomorphisms(
                    pattern, target, deadline=Deadline(max_steps=200)
                )
            )

    def test_query_tuples_charges_steps(self):
        target = chain(30)
        deadline = Deadline()
        with storage_backend("columnar"):
            store = target.columnar_store()
            answers = vector_query_tuples(
                [Atom("R", [x, y]), Atom("S", [z])],
                target,
                store,
                [x, z],
                deadline=deadline,
            )
        assert len(answers) == 30 * 30
        assert deadline.steps >= len(answers)


class TestMemoryCharging:
    def test_memory_budget_trips_on_materialization(self):
        with storage_backend("columnar"), pytest.raises(DeadlineExceededError) as err:
            list(
                homomorphisms(
                    [Atom("R", [x, y]), Atom("R", [y, z])],
                    chain(200),
                    deadline=Deadline(max_memory_mb=0.001),
                )
            )
        assert "memory estimate" in str(err.value)

    def test_generous_memory_budget_passes(self):
        with storage_backend("columnar"):
            results = list(
                homomorphisms(
                    [Atom("R", [x, y]), Atom("R", [y, z])],
                    chain(50),
                    deadline=Deadline(max_memory_mb=64),
                )
            )
        assert len(results) == 49


class TestParityUnderDeadline:
    def test_results_identical_with_and_without_deadline(self):
        target = chain(25)
        pattern = [Atom("R", [x, y]), Atom("R", [y, z])]
        with storage_backend("columnar"):
            free = sorted(repr(h) for h in homomorphisms(pattern, target))
            bounded = sorted(
                repr(h)
                for h in homomorphisms(
                    pattern, target, deadline=Deadline(max_steps=1_000_000)
                )
            )
        assert free == bounded
