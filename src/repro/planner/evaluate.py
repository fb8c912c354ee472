"""Join-plan evaluation.

Evaluation runs the compiled plan of a pattern against the target it
was compiled for:

* membership checks first (atoms with no free variables), which
  short-circuit the whole call;
* each connected component independently, with an iterative
  backtracking join over the plan's static atom order and probe
  indexes;
* the cross product of the per-component solutions last, merged with
  the caller's ``base`` entries into :class:`Substitution` results.

Three modes share the component enumerator:

* **full enumeration** — every component's solutions are materialized
  except the last, which streams; for full bindings the raw solution
  dictionaries are pairwise distinct by construction, so no seen-set
  is kept (the identity-pair cleaning of :class:`Substitution` is
  injective over a fixed domain);
* **projection** (``project=``) — components are deduplicated on their
  projected variables only, and components with no projected variable
  collapse to an existence check;
* **existence** — stops at the first solution of every component and
  never materializes bindings at all.

A cooperative :class:`~repro.resilience.Deadline` is charged one step
per candidate fact visited, batched like the backtracking matcher so a
never-tripping deadline costs one integer increment per visit.

When the target offers a columnar store (an instance of at least
:data:`~repro.data.instances.COLUMNAR_MIN_FACTS` facts), both entry
points hand the whole call to the vectorized executor
(:mod:`repro.planner.vectorized`) instead; the object path below
remains the small-instance default and the differential oracle.
"""

from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Optional, Sequence

from ..data.atoms import Atom
from ..data.instances import Instance
from ..data.substitutions import Substitution
from ..data.terms import Term
from ..observability.metrics import METRICS
from ..observability.spans import TRACER
from .plan import Component, Plan, plan_for
from .vectorized import vector_has_homomorphism, vector_homomorphisms

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..resilience import Deadline


class _Meter:
    """Batched deadline accounting, one tick per candidate fact visited."""

    __slots__ = ("deadline", "pending")

    def __init__(self, deadline: Optional["Deadline"]):
        self.deadline = deadline
        self.pending = 0

    def tick(self) -> None:
        if self.deadline is None:
            return
        self.pending += 1
        if self.pending >= 32:
            self.deadline.step(self.pending, "join kernel")
            self.pending = 0


def _component_solutions(
    component: Component,
    binding: list,
    bound_values: list,
    meter: _Meter,
) -> Iterator[tuple]:
    """All solutions of one component, as value tuples over its var ids.

    Iterative backtracking over the plan's static join order; the
    shared ``binding`` array is restored between yields, and abandoned
    generators only leave entries for this component's own variables
    dirty (components have disjoint variables).
    """
    METRICS.inc("plan_components_evaluated")
    atoms = component.atoms
    var_ids = component.var_ids
    depth = 0
    iters = [atoms[0].candidate_iter(binding, bound_values)] + [None] * (
        len(atoms) - 1
    )
    undos: list[list] = [[] for _ in atoms]
    while True:
        atom = atoms[depth]
        for vid in undos[depth]:
            binding[vid] = None
        undos[depth] = []
        matched = False
        for fact in iters[depth]:
            meter.tick()
            undo = atom.match(fact, binding, bound_values)
            if undo is None:
                continue
            undos[depth] = undo
            matched = True
            break
        if not matched:
            depth -= 1
            if depth < 0:
                return
            continue
        if depth + 1 == len(atoms):
            yield tuple(binding[vid] for vid in var_ids)
            continue
        depth += 1
        iters[depth] = atoms[depth].candidate_iter(binding, bound_values)


def _passes_checks(plan: Plan, target: Instance, bound_values: list) -> bool:
    """Instantiate and test the plan's variable-free membership checks."""
    for relation, slots in plan.bound_checks:
        args = tuple(
            slot[1] if slot[0] == "r" else bound_values[slot[1]] for slot in slots
        )
        if Atom._of_terms(relation, args) not in target:
            return False
    return True


def _prepare(pattern, target, base, frozen):
    plan, var_terms, bound_terms = plan_for(
        pattern, target, frozen=frozen, base=base
    )
    bound_values = [base[term] for term in bound_terms]
    return plan, var_terms, bound_values


def kernel_has_homomorphism(
    pattern: Sequence[Atom],
    target: Instance,
    *,
    base: Optional[Mapping[Term, Term]] = None,
    frozen: frozenset[Term] = frozenset(),
    deadline: Optional["Deadline"] = None,
) -> bool:
    """Existence-only evaluation: first solution per component, no bindings."""
    pattern = list(pattern)
    if not pattern:
        return True
    if deadline is not None:
        # Canonicalizing and compiling (or even cache-keying) a pattern
        # is Θ(|pattern|) before the join search starts; charge it so a
        # step budget also bounds huge-pattern probes (e.g. mapping a
        # Def. 12 sub-universal instance into each recovery).
        deadline.step(len(pattern), "plan compilation")
    store = target.columnar_store()
    if store is not None:
        METRICS.inc("planner_vectorized")
        return vector_has_homomorphism(
            pattern, target, store, base=base, frozen=frozen, deadline=deadline
        )
    METRICS.inc("planner_vector_fallbacks")
    plan, _, bound_values = _prepare(pattern, target, base or {}, frozen)
    if not plan.satisfiable or not _passes_checks(plan, target, bound_values):
        return False
    meter = _Meter(deadline)
    binding: list = [None] * plan.num_vars
    with TRACER.span("planner.execute", aggregate=True):
        for component in plan.components:
            for _ in _component_solutions(component, binding, bound_values, meter):
                METRICS.inc("plan_existence_shortcircuits")
                break
            else:
                return False
        return True


def kernel_homomorphisms(
    pattern: Sequence[Atom],
    target: Instance,
    *,
    base: Optional[Mapping[Term, Term]] = None,
    frozen: frozenset[Term] = frozenset(),
    deadline: Optional["Deadline"] = None,
    project: Optional[Iterable[Term]] = None,
) -> Iterator[Substitution]:
    """All homomorphisms from ``pattern`` into ``target`` via the plan.

    Yields the same substitution set as the backtracking matcher (each
    defined on the pattern's mappable terms extended with ``base``),
    restricted to ``project`` when given.  The order is deterministic
    (candidates are pre-sorted) but not the matcher's order.
    """
    pattern = list(pattern)
    base_map = dict(base) if base else {}
    project_set = None if project is None else set(project)
    kept_base = (
        base_map
        if project_set is None
        else {k: v for k, v in base_map.items() if k in project_set}
    )
    if not pattern:
        METRICS.inc("homomorphisms_explored")
        yield Substitution(kept_base)
        return
    if deadline is not None:
        # Same Θ(|pattern|) pre-join charge as kernel_has_homomorphism.
        deadline.step(len(pattern), "plan compilation")
    store = target.columnar_store()
    if store is not None:
        METRICS.inc("planner_vectorized")
        yield from vector_homomorphisms(
            pattern,
            target,
            store,
            base=base_map,
            frozen=frozen,
            deadline=deadline,
            project=project,
        )
        return
    METRICS.inc("planner_vector_fallbacks")
    plan, var_terms, bound_values = _prepare(pattern, target, base_map, frozen)
    if not plan.satisfiable or not _passes_checks(plan, target, bound_values):
        return
    meter = _Meter(deadline)
    binding: list = [None] * plan.num_vars
    # Solve every component up front except the last, which streams so
    # single-component patterns (the common case) stay fully lazy.
    solved: list[tuple[tuple[Term, ...], list[tuple]]] = []
    with TRACER.span("planner.execute", aggregate=True):
        for component in plan.components[:-1]:
            terms, solutions = _solve_component(
                component, binding, bound_values, var_terms, project_set, meter
            )
            if not solutions:
                return
            solved.append((terms, solutions))
    last = plan.components[-1] if plan.components else None
    prefix_lists = [solutions for _, solutions in solved]
    prefix_terms: tuple[Term, ...] = tuple(
        term for terms, _ in solved for term in terms
    )

    def emit(values: tuple) -> Substitution:
        raw = dict(kept_base)
        raw.update(zip(prefix_terms, values))
        METRICS.inc("homomorphisms_explored")
        return Substitution(raw)

    if last is None:
        yield emit(())
        return
    last_terms, last_stream = _stream_component(
        last, binding, bound_values, var_terms, project_set, meter
    )
    full_terms = prefix_terms + last_terms

    def emit_full(values: tuple) -> Substitution:
        raw = dict(kept_base)
        raw.update(zip(full_terms, values))
        METRICS.inc("homomorphisms_explored")
        return Substitution(raw)

    for tail in last_stream:
        for combo in product(*prefix_lists):
            prefix_values = tuple(v for values in combo for v in values)
            yield emit_full(prefix_values + tail)


def _solve_component(
    component, binding, bound_values, var_terms, project_set, meter
) -> tuple[tuple[Term, ...], list[tuple]]:
    """Materialize one component's (projected) solutions, deduplicated."""
    terms, stream = _stream_component(
        component, binding, bound_values, var_terms, project_set, meter
    )
    return terms, list(stream)


def _stream_component(
    component, binding, bound_values, var_terms, project_set, meter
) -> tuple[tuple[Term, ...], Iterator[tuple]]:
    """One component's solutions as (pattern terms, value-tuple iterator).

    Under projection the tuples carry only the projected variables and
    are deduplicated; a component with no projected variable collapses
    to an existence check contributing a single empty tuple.  Full
    enumeration needs no seen-set: the raw solution dictionaries range
    over a fixed domain, on which Substitution construction is
    injective.
    """
    raw = _component_solutions(component, binding, bound_values, meter)
    if project_set is None:
        terms = tuple(var_terms[vid] for vid in component.var_ids)
        return terms, raw
    keep = [
        i
        for i, vid in enumerate(component.var_ids)
        if var_terms[vid] in project_set
    ]
    if not keep:
        def existence() -> Iterator[tuple]:
            for _ in raw:
                METRICS.inc("plan_existence_shortcircuits")
                yield ()
                return

        return (), existence()
    terms = tuple(var_terms[component.var_ids[i]] for i in keep)

    def deduped() -> Iterator[tuple]:
        seen: set[tuple] = set()
        for values in raw:
            projected = tuple(values[i] for i in keep)
            if projected not in seen:
                seen.add(projected)
                yield projected

    return terms, deduped()
