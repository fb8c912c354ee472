"""Conjunctive queries and unions of conjunctive queries.

A conjunctive query (CQ) over a schema ``R`` is an expression
``(x) : exists y . alpha(x, y)`` — represented here by a tuple of
*head variables* ``x`` and a conjunction of atoms.  A union of
conjunctive queries (UCQ) is a finite set of CQs with identical head
arity.

Evaluation follows the paper exactly:

* ``Q(I)`` — all head-variable images under homomorphisms of the body
  into ``I`` (tuples may contain nulls);
* ``Q(I)↓`` (:meth:`certain_evaluate`) — the tuples of ``Q(I)`` that
  contain no nulls, which is what certain answers range over.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from typing import TYPE_CHECKING

from ..data.atoms import Atom, atoms_variables
from ..data.instances import Instance
from ..data.terms import Constant, Null, Term, Variable
from ..observability.metrics import METRICS
from ..errors import DependencyError
from ..planner.vectorized import vector_query_tuples
from .homomorphisms import has_homomorphism, homomorphisms

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..resilience import Deadline


class ConjunctiveQuery:
    """An immutable conjunctive query ``head_vars : body``."""

    __slots__ = ("_head_vars", "_body", "_name")

    def __init__(
        self,
        head_vars: Sequence[Variable],
        body: Sequence[Atom],
        name: Optional[str] = None,
    ):
        head_vars = tuple(head_vars)
        body = tuple(body)
        if not body:
            raise DependencyError("a conjunctive query needs a non-empty body")
        body_vars = atoms_variables(body)
        for var in head_vars:
            if not isinstance(var, Variable):
                raise DependencyError(f"query head entries must be variables: {var}")
            if var not in body_vars:
                raise DependencyError(
                    f"head variable {var} does not occur in the query body"
                )
        object.__setattr__(self, "_head_vars", head_vars)
        object.__setattr__(self, "_body", body)
        object.__setattr__(self, "_name", name)

    @property
    def head_vars(self) -> tuple[Variable, ...]:
        return self._head_vars

    @property
    def body(self) -> tuple[Atom, ...]:
        return self._body

    @property
    def name(self) -> Optional[str]:
        return self._name

    @property
    def arity(self) -> int:
        return len(self._head_vars)

    @property
    def is_boolean(self) -> bool:
        """True for queries with no free variables."""
        return not self._head_vars

    @property
    def variables(self) -> set[Variable]:
        return atoms_variables(self._body)

    @property
    def relations(self) -> frozenset[str]:
        return frozenset(a.relation for a in self._body)

    # -- evaluation -----------------------------------------------------------------

    def evaluate(
        self, instance: Instance, deadline: Optional["Deadline"] = None
    ) -> set[tuple[Term, ...]]:
        """``Q(I)``: all answers, possibly containing nulls.

        The body homomorphisms are projected onto the head variables,
        so the join kernel deduplicates per plan component and never
        materializes bindings for purely existential variables.
        """
        if len(self._body) == 1:
            return self._evaluate_single_atom(instance)
        store = instance.columnar_store()
        if store is not None:
            vectorized = vector_query_tuples(
                self._body, instance, store, self._head_vars, deadline
            )
            if vectorized is not None:
                METRICS.inc("planner_vectorized")
                return vectorized
        answers: set[tuple[Term, ...]] = set()
        for hom in homomorphisms(
            self._body, instance, deadline=deadline, project=self._head_vars
        ):
            answers.add(tuple(hom.image(v) for v in self._head_vars))
        return answers

    def _evaluate_single_atom(self, instance: Instance) -> set[tuple[Term, ...]]:
        """Single-atom bodies: match facts directly, skipping the search
        engine's frames and Substitution objects.  Semantics match the
        general path: constants are rigid, variables and nulls mappable,
        answers are head-variable images (identity off the binding).
        """
        pattern = self._body[0]
        p_args = pattern.args
        answers: set[tuple[Term, ...]] = set()
        for fact in instance.facts_for(pattern.relation):
            if fact.arity != pattern.arity:
                continue
            binding: dict[Term, Term] = {}
            for p, t in zip(p_args, fact.args):
                if isinstance(p, Constant):
                    if p != t:
                        break
                else:
                    bound = binding.get(p)
                    if bound is None:
                        binding[p] = t
                    elif bound != t:
                        break
            else:
                METRICS.inc("homomorphisms_explored")
                answers.add(tuple(binding.get(v, v) for v in self._head_vars))
        return answers

    def certain_evaluate(
        self, instance: Instance, deadline: Optional["Deadline"] = None
    ) -> set[tuple[Term, ...]]:
        """``Q(I)↓``: the null-free answers (paper's down-arrow operator)."""
        return {
            t
            for t in self.evaluate(instance, deadline)
            if not any(isinstance(x, Null) for x in t)
        }

    def holds_in(
        self, instance: Instance, deadline: Optional["Deadline"] = None
    ) -> bool:
        """For Boolean queries: whether the body maps into the instance."""
        return has_homomorphism(self._body, instance, deadline=deadline)

    # -- dunder ----------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConjunctiveQuery):
            return NotImplemented
        return self._head_vars == other._head_vars and set(self._body) == set(
            other._body
        )

    def __hash__(self) -> int:
        return hash((self._head_vars, frozenset(self._body)))

    def __reduce__(self):
        return (ConjunctiveQuery, (self._head_vars, self._body, self._name))

    def __repr__(self) -> str:
        head = ", ".join(str(v) for v in self._head_vars)
        body = ", ".join(str(a) for a in self._body)
        label = self._name or "q"
        return f"{label}({head}) :- {body}"

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("ConjunctiveQuery is immutable")


class UnionOfConjunctiveQueries:
    """A UCQ: a non-empty set of CQs sharing one head arity."""

    __slots__ = ("_disjuncts", "_name")

    def __init__(
        self, disjuncts: Iterable[ConjunctiveQuery], name: Optional[str] = None
    ):
        disjuncts = tuple(disjuncts)
        if not disjuncts:
            raise DependencyError("a UCQ needs at least one disjunct")
        arities = {q.arity for q in disjuncts}
        if len(arities) != 1:
            raise DependencyError(
                f"all disjuncts of a UCQ must share an arity, got {sorted(arities)}"
            )
        object.__setattr__(self, "_disjuncts", disjuncts)
        object.__setattr__(self, "_name", name)

    @property
    def disjuncts(self) -> tuple[ConjunctiveQuery, ...]:
        return self._disjuncts

    @property
    def name(self) -> Optional[str]:
        return self._name

    @property
    def arity(self) -> int:
        return self._disjuncts[0].arity

    @property
    def is_boolean(self) -> bool:
        return self.arity == 0

    def __iter__(self) -> Iterator[ConjunctiveQuery]:
        return iter(self._disjuncts)

    def __len__(self) -> int:
        return len(self._disjuncts)

    # -- evaluation ----------------------------------------------------------------

    def evaluate(
        self, instance: Instance, deadline: Optional["Deadline"] = None
    ) -> set[tuple[Term, ...]]:
        """``Q(I)``: union of the disjuncts' answers."""
        answers: set[tuple[Term, ...]] = set()
        for cq in self._disjuncts:
            answers |= cq.evaluate(instance, deadline)
        return answers

    def certain_evaluate(
        self, instance: Instance, deadline: Optional["Deadline"] = None
    ) -> set[tuple[Term, ...]]:
        """``Q(I)↓``: union of the disjuncts' null-free answers."""
        answers: set[tuple[Term, ...]] = set()
        for cq in self._disjuncts:
            answers |= cq.certain_evaluate(instance, deadline)
        return answers

    def holds_in(
        self, instance: Instance, deadline: Optional["Deadline"] = None
    ) -> bool:
        return any(cq.holds_in(instance, deadline) for cq in self._disjuncts)

    # -- dunder ------------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UnionOfConjunctiveQueries):
            return NotImplemented
        return set(self._disjuncts) == set(other._disjuncts)

    def __hash__(self) -> int:
        return hash(frozenset(self._disjuncts))

    def __reduce__(self):
        return (UnionOfConjunctiveQueries, (self._disjuncts, self._name))

    def __repr__(self) -> str:
        return " | ".join(repr(q) for q in self._disjuncts)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("UnionOfConjunctiveQueries is immutable")


Query = ConjunctiveQuery | UnionOfConjunctiveQueries


def as_ucq(query: Query) -> UnionOfConjunctiveQueries:
    """View any query uniformly as a UCQ."""
    if isinstance(query, UnionOfConjunctiveQueries):
        return query
    return UnionOfConjunctiveQueries([query], name=query.name)


def cq(head_vars: Sequence[Variable], body: Sequence[Atom]) -> ConjunctiveQuery:
    """Shorthand constructor for a conjunctive query."""
    return ConjunctiveQuery(head_vars, body)
