"""Property tests: join kernel vs backtracking matcher differential.

The compiled join-plan kernel and the backtracking matcher implement
the same homomorphism semantics; random patterns and instances —
including nulls that may or may not be frozen, partial base bindings,
and projection subsets — must produce identical binding sets, and
existence must agree with non-emptiness of enumeration.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.atoms import Atom
from repro.data.instances import Instance
from repro.data.terms import Constant, Null, Variable
from repro.logic.homomorphisms import (
    _oracle_homomorphisms,
    has_homomorphism,
    homomorphisms,
)

RELAXED = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

RELATIONS = {"T0": 1, "T1": 2}
CONSTANTS = [Constant(c) for c in "ab"]
NULLS = [Null("N1"), Null("N2")]
VARIABLES = [Variable(f"v{i}") for i in range(3)]


@st.composite
def pattern_atoms(draw) -> Atom:
    name = draw(st.sampled_from(sorted(RELATIONS)))
    pool = VARIABLES + CONSTANTS + NULLS
    return Atom(
        name, [draw(st.sampled_from(pool)) for _ in range(RELATIONS[name])]
    )


@st.composite
def target_instances(draw) -> Instance:
    facts = []
    pool = CONSTANTS + NULLS
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        name = draw(st.sampled_from(sorted(RELATIONS)))
        facts.append(
            Atom(
                name,
                [draw(st.sampled_from(pool)) for _ in range(RELATIONS[name])],
            )
        )
    return Instance(facts)


@st.composite
def workloads(draw):
    """A pattern, a target, and a frozen subset of the pattern's nulls."""
    pattern = draw(st.lists(pattern_atoms(), min_size=1, max_size=3))
    target = draw(target_instances())
    nulls = sorted(
        {t for atom in pattern for t in atom.args if isinstance(t, Null)}
    )
    frozen = [n for n in nulls if draw(st.booleans())]
    return pattern, target, frozen


def oracle_set(pattern, target, **kw):
    return set(_oracle_homomorphisms(pattern, target, **kw))


class TestKernelDifferential:
    @RELAXED
    @given(workloads())
    def test_identical_binding_sets(self, workload):
        pattern, target, frozen = workload
        kernel = set(homomorphisms(pattern, target, frozen=frozen))
        assert kernel == oracle_set(pattern, target, frozen=frozen)

    @RELAXED
    @given(workloads())
    def test_existence_agrees_with_non_emptiness(self, workload):
        pattern, target, frozen = workload
        exists = has_homomorphism(pattern, target, frozen=frozen)
        assert exists == bool(oracle_set(pattern, target, frozen=frozen))

    @RELAXED
    @given(workloads(), st.sets(st.sampled_from(VARIABLES)))
    def test_projection_matches_restricted_oracle(self, workload, project):
        pattern, target, frozen = workload
        kernel = set(
            homomorphisms(pattern, target, frozen=frozen, project=sorted(project))
        )
        oracle = {
            sub.restrict(project)
            for sub in oracle_set(pattern, target, frozen=frozen)
        }
        assert kernel == oracle

    @RELAXED
    @given(workloads(), st.sampled_from(CONSTANTS))
    def test_base_bindings_agree(self, workload, value):
        pattern, target, frozen = workload
        base = {VARIABLES[0]: value}
        kernel = set(homomorphisms(pattern, target, frozen=frozen, base=base))
        assert kernel == oracle_set(pattern, target, frozen=frozen, base=base)

    @RELAXED
    @given(target_instances())
    def test_instance_self_maps_agree(self, instance):
        """Endomorphism sets (the core-computation workload) agree."""
        pattern = list(instance.facts)
        kernel = set(homomorphisms(pattern, instance))
        assert kernel == oracle_set(pattern, instance)
