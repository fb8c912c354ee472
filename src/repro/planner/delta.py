"""Delta-seeded homomorphism search.

Semi-naive maintenance (:mod:`repro.incremental`) asks the planner for
**anchored enumeration** — every homomorphism that *uses* a delta
fact — and the epoch-keyed full compiler is the wrong shape for it.
Running one full join plan per atom position with that atom bound to
the delta rows would be complete, but compiling a plan prefilters
every other atom against the whole instance — O(|J|) per epoch, which
defeats O(|ΔJ|) maintenance.  Instead the search here seeds each
anchor's candidate pools directly from the instance's
incrementally-maintained indexes (the object positional tier, which
``Instance.evolve`` patches per touched key): unify the anchored atom
with the delta fact, then backtrack over the remaining atoms picking
the narrowest index bucket under the current binding.  Work is
output-sensitive — proportional to the bindings reachable from the
delta fact, never to ``|J|``.

The emitted substitutions are value-equal to what the compiled kernels
(:mod:`repro.planner.evaluate` / :mod:`repro.planner.vectorized`)
yield for the same pattern restricted to homomorphisms touching the
delta, so callers can mix both paths and compare results bit-for-bit.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional, Sequence

from ..data.atoms import Atom
from ..data.instances import Instance
from ..data.substitutions import Substitution
from ..data.terms import Term
from ..observability.metrics import METRICS
from ..observability.spans import TRACER
from .plan import _Meter, _mappable


def _unify_atom(
    atom: Atom,
    fact: Atom,
    binding: dict[Term, Term],
    frozen: frozenset[Term],
) -> Optional[list[Term]]:
    """Extend ``binding`` so ``atom`` maps onto ``fact``.

    Returns the newly-bound terms (for backtracking) or ``None`` when
    the unification fails; on failure the binding is restored.
    """
    if atom.relation != fact.relation or atom.arity != fact.arity:
        return None
    undo: list[Term] = []
    for p, t in zip(atom.args, fact.args):
        if not _mappable(p, frozen):
            if p != t:
                break
        else:
            bound = binding.get(p)
            if bound is None:
                binding[p] = t
                undo.append(p)
            elif bound != t:
                break
    else:
        return undo
    for p in undo:
        del binding[p]
    return None


def _seeded_solutions(
    remaining: list[Atom],
    target: Instance,
    binding: dict[Term, Term],
    frozen: frozenset[Term],
    meter: _Meter,
) -> Iterator[dict[Term, Term]]:
    """All extensions of ``binding`` mapping ``remaining`` into ``target``.

    Most-constrained-first backtracking: at every depth the unmatched
    atom with the narrowest candidate bucket (under the current
    binding, through the positional index) is matched next, so pools
    stay proportional to the join's fan-out from the seed values.
    """
    if not remaining:
        yield dict(binding)
        return
    mappable = lambda term: _mappable(term, frozen)  # noqa: E731
    best_i = -1
    best: Optional[frozenset[Atom]] = None
    for i, atom in enumerate(remaining):
        found = target.candidates(atom, binding, mappable)
        if best is None or len(found) < len(best):
            best_i, best = i, found
            if not best:
                return
    atom = remaining[best_i]
    rest = remaining[:best_i] + remaining[best_i + 1 :]
    for fact in best:
        meter.tick()
        undo = _unify_atom(atom, fact, binding, frozen)
        if undo is None:
            continue
        yield from _seeded_solutions(rest, target, binding, frozen, meter)
        for p in undo:
            del binding[p]


def delta_restricted_homomorphisms(
    pattern: Sequence[Atom],
    target: Instance,
    delta_facts: Iterable[Atom],
    *,
    base: Optional[Mapping[Term, Term]] = None,
    frozen: frozenset[Term] = frozenset(),
    project: Optional[Iterable[Term]] = None,
    deadline=None,
) -> Iterator[Substitution]:
    """Homomorphisms of ``pattern`` into ``target`` using a delta fact.

    Yields exactly the substitutions ``homomorphisms(pattern, target,
    base=…, frozen=…, project=…)`` would yield whose image uses at
    least one fact of ``delta_facts`` — the semi-naive frontier.  One
    anchored search runs per (atom position, delta fact) pair with that
    atom bound to the fact; results are deduplicated across anchors.
    """
    pattern = list(pattern)
    base_map = dict(base) if base else {}
    project_set = None if project is None else set(project)
    meter = _Meter(deadline, "delta search")
    seen: set[frozenset] = set()
    delta = sorted(set(delta_facts))
    METRICS.inc("incremental_delta_searches")
    with TRACER.span("planner.delta_search", aggregate=True):
        for i, atom in enumerate(pattern):
            rest = pattern[:i] + pattern[i + 1 :]
            for fact in delta:
                if fact not in target:
                    continue
                binding = dict(base_map)
                undo = _unify_atom(atom, fact, binding, frozen)
                if undo is None:
                    continue
                METRICS.inc("incremental_anchor_probes")
                for solution in _seeded_solutions(
                    rest, target, binding, frozen, meter
                ):
                    if project_set is not None:
                        solution = {
                            k: v for k, v in solution.items() if k in project_set
                        }
                    key = frozenset(solution.items())
                    if key not in seen:
                        seen.add(key)
                        yield Substitution(solution)
                for p in undo:
                    del binding[p]


def seeded_has_homomorphism(
    pattern: Sequence[Atom],
    target: Instance,
    *,
    base: Optional[Mapping[Term, Term]] = None,
    frozen: frozenset[Term] = frozenset(),
    deadline=None,
) -> bool:
    """Existence of an extension of ``base`` mapping ``pattern`` in.

    The re-derivation probe of delete-and-rederive maintenance: the
    head binding seeds the pools, so the check costs the fan-out from
    the bound values, not a fresh O(|J|) plan compilation per epoch.
    """
    meter = _Meter(deadline, "delta search")
    for _ in _seeded_solutions(
        list(pattern), target, dict(base) if base else {}, frozen, meter
    ):
        return True
    return False
