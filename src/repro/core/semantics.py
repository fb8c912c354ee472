"""The instance-based recovery semantics (Definitions 1-3).

This module implements the paper's semantics *directly from the
definitions*, independently of the inverse chase, so the rest of the
library (and the test suite) can verify candidate recoveries against
an oracle that does not share code with the algorithm under test.

* :func:`is_minimal_solution` — Definition 1.
* :func:`is_justified` — Definition 2: ``(I, J) |= Sigma`` and ``J``
  maps homomorphically into some minimal solution for ``I``.
* :func:`is_recovery` — Definition 3 membership test for
  ``REC(Sigma, J)``.

Deciding justification requires searching over minimal solutions.
Every minimal solution is the image ``g(Chase(Sigma, I))`` of the
canonical solution under some specialization ``g`` of its nulls, and a
renaming argument bounds the useful codomain by
``dom(J) u nulls(Chase(Sigma, I))``.  Rather than enumerating all
``g`` blindly, :func:`is_justified` runs a *placement search*: it maps
each fact of ``J`` onto a fact of the canonical chase, accumulating
the null specializations those placements force, and only then
enumerates completions for the remaining free nulls (needed because
collapsing an unused witness can be what makes the image minimal).
The overall problem is NP-hard (Theorem 3), so the completion phase
carries a budget.
"""

from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - annotation only, no runtime import
    from ..resilience.deadline import Deadline

from ..data.atoms import Atom
from ..data.instances import Instance
from ..data.terms import Constant, Null, Term
from ..errors import BudgetExceededError
from ..logic.homomorphisms import maps_into
from ..logic.tgds import Mapping
from ..chase.standard import chase, satisfies


def is_minimal_solution(mapping: Mapping, source: Instance, target: Instance) -> bool:
    """Definition 1: ``(I, J) |= Sigma`` and no proper subset of ``J`` is a model."""
    if not satisfies(source, target, mapping):
        return False
    for fact in target.facts:
        if satisfies(source, target.without_facts([fact]), mapping):
            return False
    return True


def minimal_solution_images(
    mapping: Mapping,
    source: Instance,
    target: Instance,
    *,
    max_search: int = 200000,
) -> Iterator[Instance]:
    """All minimal solutions for ``source`` relevant to justifying ``target``.

    Brute-force reference enumeration: homomorphic images of the
    canonical solution ``Chase(Sigma, I)`` with null images drawn from
    ``dom(J) u nulls(Chase(Sigma, I))``, filtered for minimality.  Up
    to a renaming of values outside ``dom(J)`` — which affects neither
    minimality nor the existence of a homomorphism from ``J`` — every
    minimal solution appears.  Used as an oracle in tests;
    :func:`is_justified` uses the faster placement search.

    :raises BudgetExceededError: when the search space exceeds
        ``max_search`` assignments.
    """
    canonical = chase(mapping, source, dedup="frontier").result
    chase_nulls = sorted(canonical.nulls())
    codomain = sorted(set(target.domain()) | set(chase_nulls))
    space = max(1, len(codomain)) ** len(chase_nulls)
    if space > max_search:
        raise BudgetExceededError("minimal-solution search", max_search)
    seen: set[Instance] = set()
    for images in product(codomain, repeat=len(chase_nulls)):
        g = dict(zip(chase_nulls, images))
        candidate = canonical.apply(g)
        if candidate in seen:
            continue
        seen.add(candidate)
        if is_minimal_solution(mapping, source, candidate):
            yield candidate


class _Specialization:
    """A union-find over the canonical chase's nulls with value bindings.

    Placement forces equalities between chase nulls and bindings of
    chase nulls to constants (or to nulls of ``J``, which behave like
    constants here: they are rigid values of the target).
    """

    def __init__(self) -> None:
        self.parent: dict[Term, Term] = {}
        self.value: dict[Term, Term] = {}
        self.trail: list[tuple[str, Term, Optional[Term]]] = []

    def _ensure(self, null: Term) -> None:
        if null not in self.parent:
            self.parent[null] = null

    def find(self, null: Term) -> Term:
        self._ensure(null)
        root = null
        while self.parent[root] != root:
            root = self.parent[root]
        return root

    def resolved(self, term: Term) -> Term:
        """The current value of a chase term (itself when unbound)."""
        if not isinstance(term, Null):
            return term
        root = self.find(term)
        return self.value.get(root, root)

    def mark(self) -> int:
        return len(self.trail)

    def rollback(self, mark: int) -> None:
        while len(self.trail) > mark:
            kind, key, old = self.trail.pop()
            if kind == "parent":
                self.parent[key] = old  # type: ignore[assignment]
            else:
                if old is None:
                    self.value.pop(key, None)
                else:
                    self.value[key] = old

    def bind(self, null: Term, value: Term) -> bool:
        """Bind a chase null to a rigid value; False on conflict."""
        root = self.find(null)
        current = self.value.get(root)
        if current is not None:
            return current == value
        self.trail.append(("value", root, None))
        self.value[root] = value
        return True

    def equate(self, left: Term, right: Term) -> bool:
        """Force two chase nulls to share a value; False on conflict."""
        ra, rb = self.find(left), self.find(right)
        if ra == rb:
            return True
        va, vb = self.value.get(ra), self.value.get(rb)
        if va is not None and vb is not None and va != vb:
            return False
        self.trail.append(("parent", rb, self.parent[rb]))
        self.parent[rb] = ra
        if va is None and vb is not None:
            self.trail.append(("value", ra, None))
            self.value[ra] = vb
        return True


def _source_triggers(mapping: Mapping, source: Instance):
    """All triggers of the source: ``(tgd, frontier binding)`` pairs."""
    from ..logic.homomorphisms import homomorphisms

    triggers = []
    for tgd in mapping:
        frontier = tgd.frontier_variables
        seen = set()
        for hom in homomorphisms(tgd.body, source):
            base = hom.restrict(frontier)
            if base in seen:
                continue
            seen.add(base)
            triggers.append((tgd, base))
    return triggers


def _is_minimal_image(triggers, image: Instance) -> bool:
    """Whether ``image`` is a minimal solution for the precomputed triggers.

    A fact is *needed* when some trigger's every witness extension uses
    it; the image is a minimal solution when every trigger has a
    witness and every fact is needed.
    """
    from ..logic.homomorphisms import homomorphisms

    needed: set[Atom] = set()
    for tgd, base in triggers:
        witness_sets = []
        for hom in homomorphisms(tgd.head, image, base=dict(base)):
            witness_sets.append(frozenset(hom.apply_atoms(tgd.head)))
        if not witness_sets:
            return False  # not even a solution
        core = frozenset.intersection(*witness_sets)
        needed |= core
    return needed == image.facts


def _place_fact(
    fact: Atom,
    candidate: Atom,
    spec: _Specialization,
    j_binding: dict[Term, Term],
    bound_j_nulls: list[Term],
) -> bool:
    """Try to map one fact of ``J`` onto one canonical-chase fact.

    ``j_binding`` maps nulls of ``J`` to the chase term (possibly an
    unbound chase null) they must equal; chase nulls meeting constants
    of ``J`` get value-bound in ``spec``.
    """
    if fact.relation != candidate.relation or fact.arity != candidate.arity:
        return False
    for j_arg, c_arg in zip(fact.args, candidate.args):
        if isinstance(j_arg, Null):
            known = j_binding.get(j_arg)
            if known is None:
                j_binding[j_arg] = c_arg
                bound_j_nulls.append(j_arg)
                continue
            # The same J-null placed twice: the two chase positions
            # must end up equal.
            if isinstance(known, Null) and isinstance(c_arg, Null):
                if not spec.equate(known, c_arg):
                    return False
            elif isinstance(known, Null):
                if not spec.bind(known, c_arg):
                    return False
            elif isinstance(c_arg, Null):
                if not spec.bind(c_arg, known):
                    return False
            elif known != c_arg:
                return False
        else:
            if isinstance(c_arg, Null):
                if not spec.bind(c_arg, j_arg):
                    return False
            elif c_arg != j_arg:
                return False
    return True


def is_justified(
    mapping: Mapping,
    source: Instance,
    target: Instance,
    *,
    max_search: int = 200000,
    deadline: Optional["Deadline"] = None,
) -> bool:
    """Definition 2: ``J`` is justified by ``I`` under ``Sigma``.

    Checks (1) ``(I, J) |= Sigma`` and (2) ``J -> J'`` for some minimal
    solution ``J'`` with respect to ``Sigma`` and ``I``, via the
    placement search described in the module docstring.

    :raises BudgetExceededError: when the completion phase would exceed
        ``max_search`` assignments for some placement.
    :raises DeadlineExceededError: when ``deadline`` expires; each
        placement attempt and completion assignment charges one
        cooperative step, so a step budget bounds the whole search
        deterministically (``max_search`` alone still admits minutes of
        wall time on null-rich targets).
    """
    if target.is_empty:
        # The empty target maps into any minimal solution, and every
        # source has one (a minimal image of its canonical chase).
        return satisfies(source, target, mapping)
    triggers = _source_triggers(mapping, source)
    if _is_minimal_image(triggers, target):
        # Fast path: J itself is a minimal solution, so J -> J trivially.
        # Every trigger has a witness in J, so (I, J) |= Sigma holds too.
        return True
    if not satisfies(source, target, mapping):
        return False
    canonical = chase(mapping, source, dedup="frontier").result
    if canonical.is_empty:
        # A non-empty target cannot map into the only solution candidate.
        return False

    facts = sorted(target.facts)
    spec = _Specialization()
    j_binding: dict[Term, Term] = {}
    codomain = sorted(set(target.domain()))
    seen_images: set[Instance] = set()
    budget = [max_search]

    def completions_ok() -> bool:
        """Enumerate completions of the unbound chase nulls; check
        minimality of each resulting image (identity first)."""
        roots = sorted({spec.find(n) for n in canonical.nulls()})
        free = [r for r in roots if r not in spec.value]
        for choice in product([None, *codomain], repeat=len(free)):
            if budget[0] <= 0:
                raise BudgetExceededError("justification completions", max_search)
            budget[0] -= 1
            if deadline is not None:
                # One completion costs O(|canonical|): map_terms rebuilds
                # every chase fact.  Charge accordingly so step budgets
                # calibrated on cheap enumeration steps stay honest here.
                deadline.step(1 + len(canonical), "justification completions")
            assignment: dict[Term, Term] = {}
            for root, value in zip(free, choice):
                if value is not None:
                    assignment[root] = value
            image = canonical.map_terms(
                lambda t: assignment.get(spec.find(t), spec.resolved(t))
                if isinstance(t, Null)
                else t
            )
            if image in seen_images:
                continue
            seen_images.add(image)
            if _is_minimal_image(triggers, image):
                return True
        return False

    def backtrack(index: int) -> bool:
        if index == len(facts):
            return completions_ok()
        fact = facts[index]
        for candidate in sorted(canonical.facts_for(fact.relation)):
            if deadline is not None:
                deadline.step(1, "justification placement")
            mark = spec.mark()
            bound: list[Term] = []
            if _place_fact(fact, candidate, spec, j_binding, bound):
                if backtrack(index + 1):
                    return True
            spec.rollback(mark)
            for null in bound:
                del j_binding[null]
        return False

    return backtrack(0)


def is_recovery(
    mapping: Mapping,
    source: Instance,
    target: Instance,
    *,
    max_search: int = 200000,
    deadline: Optional["Deadline"] = None,
) -> bool:
    """Definition 3: ``I in REC(Sigma, J)``.

    A source instance is a recovery when the target is justified by it.
    Note the paper's convention that an empty source never justifies a
    non-empty target: with no triggers the only minimal solution is
    empty, and a non-empty ``J`` has no homomorphism into it.
    """
    return is_justified(
        mapping, source, target, max_search=max_search, deadline=deadline
    )
