"""The homomorphism engine.

Almost every algorithm in the paper reduces to finding homomorphisms:
evaluating conjunctive queries, computing HOM(Sigma, J), checking
(I, J) |= Sigma, the final step of the inverse chase (homomorphisms
identity on dom(J)), and the glb soundness proofs.  This module is
the one entry point all of them share.

A *pattern* is a conjunction of atoms whose arguments are constants,
nulls and variables.  The matcher maps every *mappable* term of the
pattern into the target instance; by default variables and nulls are
mappable and constants are rigid, matching the paper's definition of a
homomorphism ("identity on Cons").  Callers can freeze selected nulls
(treat them as rigid) to obtain homomorphisms that are the identity on
a chosen subdomain, which Definition 9 needs.

Every search runs on the compiled join-plan kernel (see
:mod:`repro.planner`): cached plans with static atom ordering,
candidate-domain pruning and early projection.  The backtracking
matcher below (:func:`_oracle_homomorphisms`) is never called by the
engine; it is the reference implementation the kernel is
differentially tested against.  It uses dynamic
most-constrained-atom-first ordering backed by the per-position indexes
of :class:`~repro.data.instances.Instance`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Optional, Sequence

from ..data.atoms import Atom
from ..data.instances import Instance
from ..data.substitutions import Substitution
from ..data.terms import Constant, Null, Term, Variable
from ..observability.metrics import METRICS
from ..planner.evaluate import kernel_has_homomorphism, kernel_homomorphisms

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..resilience import Deadline


def _mappable(term: Term, frozen: frozenset[Term]) -> bool:
    """Whether ``term`` may be remapped by the homomorphism being built."""
    if isinstance(term, Constant):
        return False
    return term not in frozen


def _match_atom(
    pattern: Atom,
    fact: Atom,
    binding: dict[Term, Term],
    frozen: frozenset[Term],
) -> Optional[list[Term]]:
    """Try to extend ``binding`` so the pattern atom maps onto ``fact``.

    Returns the list of newly-bound pattern terms (for backtracking), or
    ``None`` when the atoms cannot be matched under the binding.
    """
    if pattern.relation != fact.relation or pattern.arity != fact.arity:
        return None
    newly_bound: list[Term] = []
    for p_arg, f_arg in zip(pattern.args, fact.args):
        if _mappable(p_arg, frozen):
            bound = binding.get(p_arg)
            if bound is None:
                binding[p_arg] = f_arg
                newly_bound.append(p_arg)
            elif bound != f_arg:
                for term in newly_bound:
                    del binding[term]
                return None
        elif p_arg != f_arg:
            for term in newly_bound:
                del binding[term]
            return None
    return newly_bound


def _pick_next(
    remaining: list[Atom],
    target: Instance,
    binding: dict[Term, Term],
    frozen: frozenset[Term],
) -> tuple[int, frozenset[Atom]]:
    """Choose the remaining pattern atom with the fewest candidate facts."""
    best_index = 0
    best_candidates: Optional[frozenset[Atom]] = None
    for i, pattern in enumerate(remaining):
        candidates = target.candidates(
            pattern, binding, mappable=lambda term: _mappable(term, frozen)
        )
        if best_candidates is None or len(candidates) < len(best_candidates):
            best_index, best_candidates = i, candidates
            if not candidates:
                break
    assert best_candidates is not None
    return best_index, best_candidates


def _search(
    remaining: list[Atom],
    target: Instance,
    binding: dict[Term, Term],
    frozen: frozenset[Term],
    deadline: Optional["Deadline"] = None,
) -> Iterator[dict[Term, Term]]:
    """Iterative backtracking over the pattern atoms.

    An explicit stack replaces recursion so patterns with thousands of
    atoms (e.g. instance-level homomorphism checks) do not hit the
    interpreter's recursion limit.  Each frame holds the atoms still to
    match, an iterator over the candidate facts for the chosen atom,
    and the bindings to undo on backtrack.
    """
    if not remaining:
        METRICS.inc("homomorphisms_explored")
        yield dict(binding)
        return

    # The deterministic candidate order is a sort of the index's frozen
    # sets.  Backtracking recreates frames over the same candidate sets
    # many times, so the sort is memoized per search: frozensets cache
    # their hash, making them cheap dictionary keys.
    presorts: dict[frozenset[Atom], tuple[Atom, ...]] = {}

    def ordered(candidates: frozenset[Atom]) -> tuple[Atom, ...]:
        presorted = presorts.get(candidates)
        if presorted is None:
            presorted = tuple(sorted(candidates))
            presorts[candidates] = presorted
        return presorted

    def make_frame(atoms: list[Atom]) -> list:
        index, candidates = _pick_next(atoms, target, binding, frozen)
        pattern = atoms[index]
        rest = atoms[:index] + atoms[index + 1 :]
        # frame = [pattern, rest, candidate iterator, undo list]
        return [pattern, rest, iter(ordered(candidates)), []]

    stack = [make_frame(remaining)]
    pending_steps = 0
    while stack:
        if deadline is not None:
            # A Python call per frame visit costs more than the visit
            # itself.  Batch: charge 32 steps every 32 frames, keeping
            # the overhead of a never-tripping deadline to a local
            # integer increment per node.
            pending_steps += 1
            if pending_steps >= 32:
                deadline.step(pending_steps, "homomorphism search")
                pending_steps = 0
        frame = stack[-1]
        pattern, rest, candidates, undo = frame
        for term in undo:
            del binding[term]
        frame[3] = []
        descended = False
        for fact in candidates:
            newly_bound = _match_atom(pattern, fact, binding, frozen)
            if newly_bound is None:
                continue
            frame[3] = newly_bound
            if rest:
                stack.append(make_frame(rest))
                descended = True
            else:
                METRICS.inc("homomorphisms_explored")
                yield dict(binding)
            break
        else:
            stack.pop()
            continue
        if not descended and not rest:
            # Solution yielded; the next loop pass undoes the bindings
            # and advances this frame's candidate iterator.
            continue


def _oracle_homomorphisms(
    pattern: Sequence[Atom],
    target: Instance,
    *,
    base: Optional[Mapping[Term, Term]] = None,
    frozen: Iterable[Term] = (),
    deadline: Optional["Deadline"] = None,
    project: Optional[Iterable[Term]] = None,
) -> Iterator[Substitution]:
    """:func:`homomorphisms` computed by the backtracking matcher.

    The differential-testing oracle for the join kernel: same
    signature, same result set, deliberately independent code.
    """
    binding: dict[Term, Term] = dict(base) if base else {}
    seen: set[Substitution] = set()
    for raw in _search(list(pattern), target, binding, frozenset(frozen), deadline):
        sub = Substitution(raw)
        if project is not None:
            sub = sub.restrict(project)
        if sub not in seen:
            seen.add(sub)
            yield sub


def homomorphisms(
    pattern: Sequence[Atom],
    target: Instance,
    *,
    base: Optional[Mapping[Term, Term]] = None,
    frozen: Iterable[Term] = (),
    deadline: Optional["Deadline"] = None,
    project: Optional[Iterable[Term]] = None,
) -> Iterator[Substitution]:
    """All homomorphisms from ``pattern`` into ``target``.

    Each yielded :class:`Substitution` is defined exactly on the
    mappable terms of the pattern (variables and non-frozen nulls),
    extended with the entries of ``base``.

    :param base: a pre-established partial mapping the homomorphism
        must extend (e.g. the frontier bindings during a chase step).
    :param frozen: nulls to treat as rigid, i.e. the homomorphism is
        the identity on them.
    :param deadline: a cooperative :class:`~repro.resilience.Deadline`
        checked once per backtracking frame; expiry raises
        :class:`~repro.errors.DeadlineExceededError` out of the
        iteration.
    :param project: when given, restrict every result to these terms
        and deduplicate; the join kernel then never materializes the
        unprojected bindings, and distinct homomorphisms agreeing on
        ``project`` collapse to one result.
    """
    yield from kernel_homomorphisms(
        pattern,
        target,
        base=base,
        frozen=frozenset(frozen),
        deadline=deadline,
        project=project,
    )


def find_homomorphism(
    pattern: Sequence[Atom],
    target: Instance,
    *,
    base: Optional[Mapping[Term, Term]] = None,
    frozen: Iterable[Term] = (),
    deadline: Optional["Deadline"] = None,
) -> Optional[Substitution]:
    """The first homomorphism from ``pattern`` into ``target``, or ``None``."""
    for sub in homomorphisms(
        pattern, target, base=base, frozen=frozen, deadline=deadline
    ):
        return sub
    return None


def has_homomorphism(
    pattern: Sequence[Atom],
    target: Instance,
    *,
    base: Optional[Mapping[Term, Term]] = None,
    frozen: Iterable[Term] = (),
    deadline: Optional["Deadline"] = None,
) -> bool:
    """Whether any homomorphism from ``pattern`` into ``target`` exists.

    This runs the kernel in existence-only mode: each plan component
    stops at its first solution and no bindings are ever materialized.
    """
    return kernel_has_homomorphism(
        pattern, target, base=base, frozen=frozenset(frozen), deadline=deadline
    )


# -- instance-level helpers -------------------------------------------------------


def instance_homomorphisms(
    source: Instance,
    target: Instance,
    *,
    identity_on: Iterable[Term] = (),
    project: Optional[Iterable[Term]] = None,
    deadline: Optional["Deadline"] = None,
) -> Iterator[Substitution]:
    """All homomorphisms ``source -> target``.

    Constants are always rigid; nulls listed in ``identity_on`` are
    rigid as well (the paper writes "identity on dom(J)").  The yielded
    substitutions are defined on the remaining nulls of ``source``,
    restricted to ``project`` (with duplicates collapsed) when that is
    given.  ``deadline`` bounds the search cooperatively (see
    :func:`homomorphisms`).
    """
    yield from homomorphisms(
        list(source.facts),
        target,
        frozen=identity_on,
        project=project,
        deadline=deadline,
    )


def maps_into(
    source: Instance, target: Instance, deadline: Optional["Deadline"] = None
) -> bool:
    """``source -> target`` in the paper's notation (some hom exists)."""
    return has_homomorphism(list(source.facts), target, deadline=deadline)


def homomorphically_equivalent(left: Instance, right: Instance) -> bool:
    """``left <-> right``: homomorphisms exist in both directions."""
    return maps_into(left, right) and maps_into(right, left)


def is_isomorphic(
    left: Instance, right: Instance, deadline: Optional["Deadline"] = None
) -> bool:
    """Whether the instances differ only by a renaming of nulls.

    ``deadline`` bounds the homomorphism enumeration cooperatively (see
    :func:`homomorphisms`).
    """
    if len(left) != len(right):
        return False
    if left.constants() != right.constants():
        return False
    left_nulls = left.nulls()
    right_nulls = right.nulls()
    if len(left_nulls) != len(right_nulls):
        return False
    for sub in instance_homomorphisms(left, right, deadline=deadline):
        if not sub.is_injective:
            continue
        if any(not isinstance(v, Null) for v in sub.values()):
            continue
        if left.apply(sub) == right:
            return True
    return False


def sets_map_into(covering: Iterable[Instance], covered: Iterable[Instance]) -> bool:
    """``K -> L`` for sets of instances (proof of Theorem 2).

    ``K -> L`` holds iff for every ``J`` in ``L`` there is an ``I`` in
    ``K`` with ``I -> J``.
    """
    covering = list(covering)
    return all(any(maps_into(i, j) for i in covering) for j in covered)


def sets_homomorphically_equivalent(
    left: Iterable[Instance], right: Iterable[Instance]
) -> bool:
    """``K <-> L`` for sets of instances."""
    left = list(left)
    right = list(right)
    return sets_map_into(left, right) and sets_map_into(right, left)
