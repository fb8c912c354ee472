"""Vectorized executor vs object kernel: fixed differential cases.

Every test evaluates the same call with the columnar backend forced on
(vectorized execution over a store) and forced off (object kernel or
matcher) and requires identical results — the object path is the
oracle.  The random-shape coverage lives in
``tests/properties/test_property_columnar.py``; these are the shapes
with a story: bound bases, frozen nulls, rigid atoms, multi-component
patterns, projections, and the existence short-circuit.
"""

import pytest

from repro.data.atoms import Atom
from repro.data.instances import Instance
from repro.data.terms import Constant, Null, Variable
from repro.logic.homomorphisms import has_homomorphism, homomorphisms
from repro.logic.queries import ConjunctiveQuery
from repro.planner import vector_query_tuples
from tests.conftest import storage_backend

a, b, c, d = (Constant(x) for x in "abcd")
n1, n2 = Null("N1"), Null("N2")
x, y, z, w = (Variable(v) for v in "xyzw")

EDGES = Instance(
    [
        Atom("R", [a, b]),
        Atom("R", [b, c]),
        Atom("R", [c, d]),
        Atom("R", [a, c]),
        Atom("R", [n1, b]),
        Atom("S", [b]),
        Atom("S", [n2]),
        Atom("T", [a, a]),
    ]
)


def both(fn):
    """Run ``fn`` under each backend and return (columnar, object)."""
    with storage_backend("columnar"):
        vectorized = fn()
    with storage_backend("object"):
        oracle = fn()
    return vectorized, oracle


def hom_set(pattern, instance, **kwargs):
    return sorted(repr(h) for h in homomorphisms(pattern, instance, **kwargs))


class TestEnumerationParity:
    @pytest.mark.parametrize(
        "pattern",
        [
            [Atom("R", [x, y])],
            [Atom("R", [x, y]), Atom("R", [y, z])],
            [Atom("R", [x, y]), Atom("R", [y, z]), Atom("R", [z, w])],
            # Cyclic: the closing atom has no fresh variables.
            [Atom("R", [x, y]), Atom("R", [y, z]), Atom("R", [x, z])],
            # Repeated variable inside one atom.
            [Atom("T", [x, x])],
            # Rigid atom (no variables) conjoined with a join.
            [Atom("S", [b]), Atom("R", [x, y])],
            # Two disconnected components.
            [Atom("R", [x, y]), Atom("S", [z])],
            # Constants in the pattern.
            [Atom("R", [a, x]), Atom("R", [x, y])],
            # Pattern nulls are mappable unless frozen.
            [Atom("R", [n1, x])],
        ],
        ids=repr,
    )
    def test_identical_binding_sets(self, pattern):
        vectorized, oracle = both(lambda: hom_set(pattern, EDGES))
        assert vectorized == oracle

    def test_projection_parity(self):
        pattern = [Atom("R", [x, y]), Atom("R", [y, z])]
        vectorized, oracle = both(lambda: hom_set(pattern, EDGES, project=[x]))
        assert vectorized == oracle

    def test_empty_projection_collapses_to_existence(self):
        pattern = [Atom("R", [x, y])]
        vectorized, oracle = both(lambda: hom_set(pattern, EDGES, project=[]))
        assert vectorized == oracle
        assert len(vectorized) == 1  # one empty substitution

    def test_frozen_nulls_are_rigid(self):
        pattern = [Atom("R", [n1, x])]
        vectorized, oracle = both(
            lambda: hom_set(pattern, EDGES, frozen=frozenset([n1]))
        )
        assert vectorized == oracle
        # Frozen N1 only matches the one fact whose first argument is N1.
        assert len(vectorized) == 1

    def test_base_binding_parity(self):
        pattern = [Atom("R", [x, y])]
        vectorized, oracle = both(
            lambda: hom_set(pattern, EDGES, base={x: a})
        )
        assert vectorized == oracle
        assert len(vectorized) == 2  # a->b, a->c

    def test_base_binding_to_uninterned_term(self):
        # A bound value occurring nowhere in the instance must not
        # crash int-space execution; it simply matches nothing.
        pattern = [Atom("R", [x, y])]
        vectorized, oracle = both(
            lambda: hom_set(pattern, EDGES, base={x: Constant("ghost")})
        )
        assert vectorized == oracle == []


class TestExistenceParity:
    @pytest.mark.parametrize(
        "pattern,expected",
        [
            ([Atom("R", [x, y]), Atom("R", [y, z])], True),
            ([Atom("R", [d, x])], False),
            ([Atom("S", [b])], True),
            ([Atom("S", [c])], False),
            ([Atom("R", [x, y]), Atom("R", [y, z]), Atom("R", [x, z])], True),
        ],
        ids=repr,
    )
    def test_has_homomorphism(self, pattern, expected):
        vectorized, oracle = both(
            lambda: has_homomorphism(pattern, EDGES)
        )
        assert vectorized == oracle == expected


class TestQueryTuples:
    def test_matches_query_evaluate(self):
        query = ConjunctiveQuery([x, z], [Atom("R", [x, y]), Atom("R", [y, z])])
        vectorized, oracle = both(lambda: query.evaluate(EDGES))
        assert vectorized == oracle

    def test_source_projection_matches(self):
        query = ConjunctiveQuery([x], [Atom("R", [x, y]), Atom("R", [y, z])])
        vectorized, oracle = both(lambda: query.evaluate(EDGES))
        assert vectorized == oracle

    def test_boolean_query(self):
        query = ConjunctiveQuery([], [Atom("R", [x, y]), Atom("S", [y])])
        vectorized, oracle = both(lambda: query.evaluate(EDGES))
        assert vectorized == oracle == {()}

    def test_duplicated_head_variable(self):
        query = ConjunctiveQuery([x, x], [Atom("R", [x, y])])
        vectorized, oracle = both(lambda: query.evaluate(EDGES))
        assert vectorized == oracle

    def test_direct_api(self):
        with storage_backend("columnar"):
            store = EDGES.columnar_store()
            got = vector_query_tuples(
                [Atom("R", [x, y]), Atom("R", [y, z])], EDGES, store, (x, z)
            )
        with storage_backend("object"):
            query = ConjunctiveQuery([x, z], [Atom("R", [x, y]), Atom("R", [y, z])])
            want = query.evaluate(EDGES)
        assert got == want

    def test_unsatisfiable_relation_returns_empty(self):
        with storage_backend("columnar"):
            store = EDGES.columnar_store()
            got = vector_query_tuples(
                [Atom("Missing", [x, y])], EDGES, store, (x,)
            )
        assert got == set()
