"""Subsumption constraints (Definitions 6-8 of the paper).

A *minimal subsumer* witnesses that triggering some dependencies during
source recovery inevitably triggers another one.  Formally, premises
``theta_1, ..., theta_n`` (instantiations of tgds of ``Sigma``) subsume
a conclusion ``theta_0`` (an instantiation of ``xi_0``) when

    theta_0(body(xi_0))  subseteq  theta_1(body(xi_1)) u ... u theta_n(body(xi_n))

subject to the paper's *uniqueness* condition: every variable occurring
only in the body of a premise is mapped to a unique fresh variable (a
**token** below) that nothing else may equal — except variables of
``xi_0``, which may be mapped onto tokens.  Tokens model the fresh
nulls the inverse chase invents for body-only variables.

Two readings reconciled with the paper's examples:

* Premises may instantiate the *same* tgd several times, and the
  conclusion tgd may coincide with a premise tgd — Example 8's single
  self-joining constraint requires both.
* Constraints whose conclusion pattern is guaranteed by the premises
  themselves (e.g. the identity instantiation) are *tautological* and
  removed, which is exactly what Example 5 does.  Tautology is decided
  by evaluating the constraint on the generic instantiation of its own
  premises; a canonical-instance argument shows this test is exact.

``SUB(Sigma)`` is the set of non-tautological minimal subsumers.  A set
``H subseteq HOM(Sigma, J)`` *models* a constraint (Definition 8) when
every consistent matching of the premise patterns by homomorphisms of
``H`` is accompanied by a conclusion homomorphism in ``H``; token
positions of the conclusion are existential.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product
from typing import Iterable, Optional, Sequence

from ..data.atoms import Atom
from ..data.substitutions import Substitution
from ..data.terms import Constant, Term, Variable
from ..engine.cache import PartitionedLRUCache
from ..errors import BudgetExceededError
from ..logic.tgds import TGD, Mapping
from ..observability.spans import TRACER
from .hom_sets import TargetHomomorphism

# Prefix marking token variables; "!" cannot appear in parsed variable
# names, so tokens never collide with dependency variables.
_TOKEN_PREFIX = "!"


def _is_token(term: Term) -> bool:
    return isinstance(term, Variable) and term.name.startswith(_TOKEN_PREFIX)


class SubsumptionConstraint:
    """One constraint ``theta_1, ..., theta_n -> theta_0``.

    Every ``theta`` maps the variables of its tgd to *scene terms*:
    constants, shared class variables, or rigid tokens (variables whose
    name starts with ``!``).
    """

    __slots__ = ("_premises", "_conclusion", "_key")

    def __init__(
        self,
        premises: Sequence[tuple[TGD, Substitution]],
        conclusion: tuple[TGD, Substitution],
    ):
        premises = tuple(premises)
        object.__setattr__(self, "_premises", premises)
        object.__setattr__(self, "_conclusion", conclusion)
        object.__setattr__(
            self,
            "_key",
            (
                tuple((t, s) for t, s in premises),
                conclusion,
            ),
        )

    @property
    def premises(self) -> tuple[tuple[TGD, Substitution], ...]:
        """The premise instantiations ``(xi_i, theta_i)``."""
        return self._premises

    @property
    def conclusion(self) -> tuple[TGD, Substitution]:
        """The conclusion instantiation ``(xi_0, theta_0)``."""
        return self._conclusion

    @property
    def conclusion_tgd(self) -> TGD:
        return self._conclusion[0]

    def tokens(self) -> set[Variable]:
        """All rigid token variables appearing in the constraint."""
        found: set[Variable] = set()
        for _, theta in (*self._premises, self._conclusion):
            for value in theta.values():
                if _is_token(value):
                    found.add(value)
        return found

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubsumptionConstraint):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        def fmt(part: tuple[TGD, Substitution]) -> str:
            tgd, theta = part
            return f"{tgd.name}{theta}"

        left = ", ".join(fmt(p) for p in self._premises)
        return f"{left} => {fmt(self._conclusion)}"

    def __reduce__(self):
        return (SubsumptionConstraint, (self._premises, self._conclusion))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("SubsumptionConstraint is immutable")


# ---------------------------------------------------------------------------
# Search for minimal subsumers: a unification CSP over the "scene".
# ---------------------------------------------------------------------------


class _Scene:
    """The premise copies and the union-find the embedding search runs on.

    Node kinds: constants and tokens are *rigid*; premise head
    variables are *flexible* (may become constants or merge with each
    other, but never equal a token); conclusion variables are *free*
    (may take any value, including tokens).
    """

    def __init__(self) -> None:
        self.parent: dict[Term, Term] = {}
        self.flexible: set[Term] = set()

    def add(self, term: Term, *, flexible: bool = False) -> None:
        if term not in self.parent:
            self.parent[term] = term
            if flexible:
                self.flexible.add(term)

    def find(self, term: Term) -> Term:
        # No path compression: the backtracking search undoes unions
        # from a log of the exact parent-pointer writes, and compression
        # would introduce writes the log never sees.
        root = term
        while self.parent[root] != root:
            root = self.parent[root]
        return root

    def _rigid(self, root: Term) -> Optional[Term]:
        if isinstance(root, Constant) or _is_token(root):
            return root
        return None

    def _class_has_flexible(self, root: Term) -> bool:
        return root in self.flexible

    def union(self, a: Term, b: Term) -> Optional[list[tuple[Term, Term, bool]]]:
        """Merge the classes of ``a`` and ``b``.

        Returns an undo log on success, ``None`` on constraint failure
        (two distinct rigid values, or a token meeting a flexible var).
        """
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return []
        rigid_a, rigid_b = self._rigid(ra), self._rigid(rb)
        if rigid_a is not None and rigid_b is not None:
            return None
        # Keep the rigid representative as the root.
        if rigid_b is not None:
            ra, rb = rb, ra
            rigid_a, rigid_b = rigid_b, rigid_a
        flex_a = self._class_has_flexible(ra)
        flex_b = self._class_has_flexible(rb)
        if rigid_a is not None and _is_token(rigid_a) and (flex_a or flex_b):
            return None
        log: list[tuple[Term, Term, bool]] = []
        log.append((rb, self.parent[rb], rb in self.flexible))
        self.parent[rb] = ra
        if flex_b and ra not in self.flexible:
            log.append((ra, self.parent[ra], False))
            self.flexible.add(ra)
        self.flexible.discard(rb)
        return log

    def undo(self, log: list[tuple[Term, Term, bool]]) -> None:
        for term, parent, was_flexible in reversed(log):
            self.parent[term] = parent
            if was_flexible:
                self.flexible.add(term)
            else:
                self.flexible.discard(term)


def _premise_copy(tgd: TGD, copy_index: int) -> tuple[TGD, Substitution]:
    """Instantiate one premise copy: fresh flexible vars and tokens."""
    renaming: dict[Term, Term] = {}
    body_only = tgd.body_only_variables
    for var in sorted(tgd.variables):
        if var in body_only:
            renaming[var] = Variable(f"{_TOKEN_PREFIX}{var.name}@{copy_index}")
        else:
            renaming[var] = Variable(f"{var.name}@{copy_index}")
    return tgd, Substitution(renaming)


def _solve_embeddings(
    conclusion_tgd: TGD,
    premise_copies: Sequence[tuple[TGD, Substitution]],
) -> Iterable[tuple[dict[Term, Term], list[int]]]:
    """All embeddings of ``body(xi_0)`` into the premise scene.

    Yields ``(resolution, atom_premises)`` where ``resolution`` maps
    every node to its class representative and ``atom_premises[k]`` is
    the premise index the ``k``-th body atom was matched into.
    """
    scene = _Scene()
    scene_atoms: list[tuple[int, Atom]] = []
    for i, (tgd, theta) in enumerate(premise_copies):
        for var in tgd.variables:
            image = theta.image(var)
            scene.add(image, flexible=not _is_token(image))
        for body_atom in tgd.body:
            scene_atoms.append((i, theta.apply_atom(body_atom)))
    for _, placed in scene_atoms:
        for arg in placed.args:
            scene.add(arg)
    for var in conclusion_tgd.variables:
        scene.add(var)
    for atom_ in conclusion_tgd.body + conclusion_tgd.head:
        for arg in atom_.args:
            scene.add(arg)

    body = list(conclusion_tgd.body)
    choice: list[int] = [0] * len(body)

    def backtrack(k: int) -> Iterable[tuple[dict[Term, Term], list[int]]]:
        if k == len(body):
            resolution = {node: scene.find(node) for node in scene.parent}
            yield resolution, list(choice)
            return
        pattern = body[k]
        for premise_index, placed in scene_atoms:
            if placed.relation != pattern.relation or placed.arity != pattern.arity:
                continue
            logs: list[list[tuple[Term, Term, bool]]] = []
            failed = False
            for p_arg, s_arg in zip(pattern.args, placed.args):
                log = scene.union(p_arg, s_arg)
                if log is None:
                    failed = True
                    break
                logs.append(log)
            if not failed:
                choice[k] = premise_index
                yield from backtrack(k + 1)
            for log in reversed(logs):
                scene.undo(log)

    yield from backtrack(0)


def _essential_premises(
    conclusion_tgd: TGD,
    premise_copies: Sequence[tuple[TGD, Substitution]],
    resolution: dict[Term, Term],
) -> bool:
    """Whether no premise copy can be dropped (Definition 6 minimality)."""

    def resolve_atom(a: Atom) -> Atom:
        return a.map_terms(lambda t: resolution.get(t, t))

    conclusion_atoms = {
        resolve_atom(a) for a in conclusion_tgd.body
    }
    images: list[set[Atom]] = []
    for tgd, theta in premise_copies:
        images.append({resolve_atom(theta.apply_atom(a)) for a in tgd.body})
    for i in range(len(premise_copies)):
        rest: set[Atom] = set()
        for j, image in enumerate(images):
            if j != i:
                rest |= image
        if conclusion_atoms <= rest:
            return False
    return True


def _canonical_constraint(
    conclusion_tgd: TGD,
    premise_copies: Sequence[tuple[TGD, Substitution]],
    resolution: dict[Term, Term],
) -> SubsumptionConstraint:
    """Build the constraint with classes renamed canonically.

    Class representatives become ``r1, r2, ...`` and tokens ``!t1, ...``
    in order of first appearance, so that structurally equal solutions
    deduplicate and output is deterministic.
    """
    names: dict[Term, Term] = {}

    def canon(term: Term) -> Term:
        root = resolution.get(term, term)
        if isinstance(root, Constant):
            return root
        if root not in names:
            if _is_token(root):
                names[root] = Variable(f"{_TOKEN_PREFIX}t{len(names) + 1}")
            else:
                names[root] = Variable(f"r{len(names) + 1}")
        return names[root]

    parts: list[tuple[TGD, Substitution]] = []
    for tgd, theta in premise_copies:
        mapping = {
            var: canon(theta.image(var)) for var in sorted(tgd.variables)
        }
        parts.append((tgd, Substitution(mapping)))
    conclusion_map: dict[Term, Term] = {}
    head_only = conclusion_tgd.existential_variables
    token_count = [0]
    for var in sorted(conclusion_tgd.variables):
        if var in head_only and resolution.get(var, var) == var:
            # Unconstrained conclusion variables (existential in the
            # head) are free: model them as fresh tokens.
            token_count[0] += 1
            conclusion_map[var] = Variable(
                f"{_TOKEN_PREFIX}z{token_count[0]}"
            )
        else:
            conclusion_map[var] = canon(var)
    conclusion = (conclusion_tgd, Substitution(conclusion_map))
    parts.sort(key=lambda p: (p[0].name or "", repr(p[1])))
    return SubsumptionConstraint(parts, conclusion)


#: LRU capacity of the ``SUB(Sigma)`` memo (per cache partition).
SUBSUMERS_CACHE_SIZE = 128

#: Memo for ``SUB(Sigma)``.  The constraint derivation depends only on
#: the mapping, so the inverse chase pays it once per scenario instead
#: of once per call.
_SUBSUMERS_CACHE = PartitionedLRUCache("subsumers", maxsize=SUBSUMERS_CACHE_SIZE)


def minimal_subsumers(
    mapping: Mapping,
    max_premises: Optional[int] = None,
    limit: int = 10000,
) -> list[SubsumptionConstraint]:
    """All minimal subsumption constraints of ``Sigma`` (Definitions 6-7).

    ``max_premises`` caps the number of premise instantiations per
    constraint; it defaults to the size of the largest tgd body, which
    is always sufficient for minimal constraints (every premise must
    contribute an atom nothing else covers).

    :raises BudgetExceededError: when more than ``limit`` constraints
        are generated (the search is exponential in ``|Sigma|``, which
        the paper treats as a constant).
    """
    def compute() -> list[SubsumptionConstraint]:
        with TRACER.span("core.subsumption.derive", aggregate=True):
            return _derive_subsumers(mapping, max_premises, limit)

    return list(
        _SUBSUMERS_CACHE.get_or_compute((mapping, max_premises, limit), compute)
    )


def _derive_subsumers(
    mapping: Mapping,
    max_premises: Optional[int],
    limit: int,
) -> tuple[SubsumptionConstraint, ...]:
    constraints: dict[SubsumptionConstraint, None] = {}
    for conclusion_tgd in mapping:
        cap = len(conclusion_tgd.body)
        if max_premises is not None:
            cap = min(cap, max_premises)
        for n in range(1, cap + 1):
            for combo in combinations_with_replacement(mapping.tgds, n):
                copies = [
                    _premise_copy(tgd, i + 1) for i, tgd in enumerate(combo)
                ]
                for resolution, _ in _solve_embeddings(conclusion_tgd, copies):
                    if not _essential_premises(conclusion_tgd, copies, resolution):
                        continue
                    constraint = _canonical_constraint(
                        conclusion_tgd, copies, resolution
                    )
                    if is_tautological(constraint):
                        continue
                    constraints[constraint] = None
                    if len(constraints) > limit:
                        raise BudgetExceededError(
                            "subsumption constraints", limit
                        )
    return tuple(constraints)


# ---------------------------------------------------------------------------
# Definition 8: model checking H |= constraint.
# ---------------------------------------------------------------------------


def _premise_profile(
    tgd: TGD, theta: Substitution
) -> tuple[list[tuple[Term, Term]], list[tuple[Term, Constant]]]:
    """Split a premise's head variables into class and constant positions."""
    class_positions: list[tuple[Term, Term]] = []
    const_positions: list[tuple[Term, Constant]] = []
    for var in sorted(tgd.head_variables):
        scene = theta.image(var)
        if isinstance(scene, Constant):
            const_positions.append((var, scene))
        elif not _is_token(scene):
            class_positions.append((var, scene))
    return class_positions, const_positions


def _premise_matchings(
    constraint: SubsumptionConstraint,
    by_tgd: dict[TGD, list[TargetHomomorphism]],
) -> Iterable[dict[Term, Term]]:
    """All consistent class-value assignments matching the premises in H.

    Implemented as an indexed join: each premise's homomorphisms are
    bucketed by their values on the classes already bound by earlier
    premises, so only consistent combinations are ever enumerated —
    on self-join constraints (Example 8) this turns the quadratic
    product into per-join-key work.
    """
    premises = list(constraint.premises)
    pools = [by_tgd.get(tgd, []) for tgd, _ in premises]
    if any(not pool for pool in pools):
        return
    profiles = [_premise_profile(tgd, theta) for tgd, theta in premises]

    # Pre-filter each pool by its constant positions.
    filtered: list[list[TargetHomomorphism]] = []
    for pool, (class_pos, const_pos) in zip(pools, profiles):
        filtered.append(
            [
                hom
                for hom in pool
                if all(hom.image(var) == value for var, value in const_pos)
                # Repeated classes within one premise must be consistent.
                and _self_consistent(hom, class_pos)
            ]
        )
        if not filtered[-1]:
            return

    # Join order: as given; index premise i by the classes shared with
    # the prefix assignment.
    bound_classes: set[Term] = set()
    shared_keys: list[list[tuple[Term, Term]]] = []
    for class_pos, _ in profiles:
        shared = [(var, scene) for var, scene in class_pos if scene in bound_classes]
        shared_keys.append(shared)
        bound_classes |= {scene for _, scene in class_pos}

    indexes: list[dict[tuple[Term, ...], list[TargetHomomorphism]]] = []
    for pool, shared in zip(filtered, shared_keys):
        bucket: dict[tuple[Term, ...], list[TargetHomomorphism]] = {}
        for hom in pool:
            key = tuple(hom.image(var) for var, _ in shared)
            bucket.setdefault(key, []).append(hom)
        indexes.append(bucket)

    assignment: dict[Term, Term] = {}

    def join(i: int) -> Iterable[dict[Term, Term]]:
        if i == len(premises):
            yield dict(assignment)
            return
        class_pos, _ = profiles[i]
        key = tuple(assignment[scene] for _, scene in shared_keys[i])
        for hom in indexes[i].get(key, []):
            added: list[Term] = []
            ok = True
            for var, scene in class_pos:
                value = hom.image(var)
                known = assignment.get(scene)
                if known is None:
                    assignment[scene] = value
                    added.append(scene)
                elif known != value:
                    ok = False
                    break
            if ok:
                yield from join(i + 1)
            for scene in added:
                del assignment[scene]

    yield from join(0)


def _self_consistent(
    hom: TargetHomomorphism, class_positions: list[tuple[Term, Term]]
) -> bool:
    """Whether a homomorphism assigns one value per class it touches."""
    seen: dict[Term, Term] = {}
    for var, scene in class_positions:
        value = hom.image(var)
        known = seen.get(scene)
        if known is None:
            seen[scene] = value
        elif known != value:
            return False
    return True


def _conclusion_index(
    constraint: SubsumptionConstraint,
    by_tgd: dict[TGD, Sequence[TargetHomomorphism]],
) -> tuple[list[Term], frozenset[tuple[Term, ...]]]:
    """Precompute the conclusion lookup: class-variable positions and the
    set of class-value tuples realized by some admissible homomorphism.

    A homomorphism is admissible when it matches the conclusion's
    constants and assigns equal values wherever the conclusion repeats
    a token; its key is its value tuple at the class positions.  The
    Definition 8 conclusion check then reduces to one set lookup per
    premise matching.
    """
    tgd0, theta0 = constraint.conclusion
    class_vars: list[tuple[Term, Term]] = []  # (head var, class scene term)
    const_vars: list[tuple[Term, Constant]] = []
    token_vars: list[tuple[Term, Term]] = []
    for var in sorted(tgd0.head_variables):
        scene = theta0.image(var)
        if isinstance(scene, Constant):
            const_vars.append((var, scene))
        elif _is_token(scene):
            token_vars.append((var, scene))
        else:
            class_vars.append((var, scene))
    keys: set[tuple[Term, ...]] = set()
    for hom in by_tgd.get(tgd0, []):
        if any(hom.image(var) != value for var, value in const_vars):
            continue
        token_binding: dict[Term, Term] = {}
        consistent = True
        for var, token in token_vars:
            value = hom.image(var)
            known = token_binding.get(token)
            if known is None:
                token_binding[token] = value
            elif known != value:
                consistent = False
                break
        if not consistent:
            continue
        keys.add(tuple(hom.image(var) for var, _ in class_vars))
    return [scene for _, scene in class_vars], frozenset(keys)


def _conclusion_holds(
    class_scenes: list[Term],
    keys: frozenset[tuple[Term, ...]],
    assignment: dict[Term, Term],
) -> bool:
    wanted = []
    for scene in class_scenes:
        value = assignment.get(scene)
        if value is None:
            return False
        wanted.append(value)
    return tuple(wanted) in keys


def _group_by_tgd(
    homs: Sequence[TargetHomomorphism],
) -> dict[TGD, list[TargetHomomorphism]]:
    grouped: dict[TGD, list[TargetHomomorphism]] = {}
    for hom in homs:
        grouped.setdefault(hom.tgd, []).append(hom)
    return grouped


def models_constraint(
    homs: Sequence[TargetHomomorphism],
    constraint: SubsumptionConstraint,
    conclusion_pool: Optional[Sequence[TargetHomomorphism]] = None,
    *,
    by_tgd: Optional[dict[TGD, list[TargetHomomorphism]]] = None,
) -> bool:
    """``H |= constraint`` (Definition 8).

    With ``conclusion_pool`` the conclusion homomorphism is sought in
    that pool instead of in ``H`` itself.  Passing ``HOM(Sigma, J)``
    turns the check into a *refutation* test: when even the full
    homomorphism set contains no conclusion match, no covering
    extending ``H`` can model the constraint, so ``H`` is hopeless.
    The inverse chase uses this weaker test with minimal covers —
    the strict Definition 8 check can reject a minimal covering whose
    SUB-closure (a non-minimal covering) is perfectly sound.

    ``by_tgd`` accepts a precomputed grouping of ``homs`` (see
    :func:`models_all`), sparing the per-constraint rebucketing when
    one set ``H`` is checked against many constraints.
    """
    if by_tgd is None:
        by_tgd = _group_by_tgd(homs)
    if conclusion_pool is None:
        conclusion_by_tgd: dict[TGD, Sequence[TargetHomomorphism]] = by_tgd
    else:
        conclusion_by_tgd = _group_by_tgd(conclusion_pool)
    class_scenes, keys = _conclusion_index(constraint, conclusion_by_tgd)
    for assignment in _premise_matchings(constraint, by_tgd):
        if not _conclusion_holds(class_scenes, keys, assignment):
            return False
    return True


def models_all(
    homs: Sequence[TargetHomomorphism],
    constraints: Iterable[SubsumptionConstraint],
    conclusion_pool: Optional[Sequence[TargetHomomorphism]] = None,
) -> bool:
    """``H |= SUB(Sigma)``: conjunction over all constraints.

    ``H`` is bucketed by tgd once, up front, instead of once per
    constraint — the covering loop of the inverse chase checks every
    covering against the full ``SUB(Sigma)``, so the grouping cost is
    paid per covering rather than per (covering, constraint) pair.
    """
    homs = list(homs)
    grouped = _group_by_tgd(homs)
    return all(
        models_constraint(homs, c, conclusion_pool, by_tgd=grouped)
        for c in constraints
    )


def is_tautological(constraint: SubsumptionConstraint) -> bool:
    """Whether every set ``H`` models the constraint.

    Exact test: instantiate the premises generically (a distinct fresh
    constant per class) and check the constraint against the resulting
    homomorphism set.  A canonical-instance argument shows the generic
    set models the constraint iff every set does: any concrete premise
    matching factors through the generic one, carrying the conclusion
    homomorphism along.
    """
    generic: dict[Term, Constant] = {}

    def value_of(scene: Term) -> Term:
        if isinstance(scene, Constant):
            return scene
        if scene not in generic:
            generic[scene] = Constant(f"@g{len(generic) + 1}")
        return generic[scene]

    homs: list[TargetHomomorphism] = []
    for tgd, theta in constraint.premises:
        binding = {
            var: value_of(theta.image(var)) for var in sorted(tgd.head_variables)
        }
        homs.append(TargetHomomorphism(tgd, Substitution(binding)))
    return models_constraint(homs, constraint)
