"""Pattern canonicalization and join-plan compilation.

The compiler turns a conjunction of atoms into a reusable
:class:`Plan` in three steps:

1. **Canonicalize** — rename the pattern's mappable terms (variables
   and non-frozen nulls) to dense integer ids, ordering atoms by a
   name-free structural key first, so patterns that differ only in the
   spelling of their variables and nulls produce the same canonical
   form.  Terms pre-bound by the caller's ``base`` mapping get their
   own id space ("bound slots"): their values change per call, so they
   stay out of the cached plan.
2. **Compile** against a concrete target instance — split the pattern
   into connected components over shared variables, prefilter each
   atom's candidate facts through the target's per-position indexes
   (rigid slots, intra-atom repeated variables), prune candidate sets
   to a semi-join fixpoint over per-variable domains, and fix a greedy
   most-selective-first join order with a probe index per atom.
3. **Cache** — compiled plans live in an LRU keyed on
   ``(canonical key, target.epoch)``.  Instances are immutable and
   every construction stamps a fresh epoch, so a cached plan can never
   describe stale indexes, and an equal instance rebuilt from a
   pickle gets a key of its own.

Slot encoding: ``("r", term)`` rigid (constant or frozen null),
``("b", i)`` the ``i``-th bound term, ``("v", i)`` the ``i``-th free
variable.  A canonical key is a tuple of ``(relation, slots)`` pairs;
together with the per-call ``var_terms`` / ``bound_terms`` translation
tables it determines the original pattern up to renaming.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from ..data.atoms import Atom
from ..data.instances import Instance
from ..data.terms import Constant, Term
from ..engine.cache import LRUCache, PartitionedLRUCache
from ..observability.metrics import METRICS
from ..observability.spans import TRACER

#: Semi-join pruning stops after this many passes even short of fixpoint.
_ARC_PASSES = 4

#: Selectivity discount for atoms constrained by a bound or joined slot:
#: the probe index will narrow their candidates at evaluation time.
_PROBE_DISCOUNT = 0.25

#: LRU capacity of the compiled-plan caches (object and vectorized),
#: keyed on ``(canonical pattern, instance epoch)``.
PLAN_CACHE_SIZE = 512

_PLAN_CACHE = PartitionedLRUCache("plan", maxsize=PLAN_CACHE_SIZE)


def _mappable(term: Term, frozen: frozenset[Term]) -> bool:
    if isinstance(term, Constant):
        return False
    return term not in frozen


def _atom_sort_key(atom: Atom, frozen: frozenset[Term], base_keys: frozenset[Term]):
    """A name-free structural sort key for canonical atom ordering.

    Mappable terms are tagged by class (free / bound) and by the
    position of their first occurrence *within the atom*, never by
    name, so renaming the pattern cannot reorder atoms.
    """
    first: dict[Term, int] = {}
    tags = []
    for i, term in enumerate(atom.args):
        if not _mappable(term, frozen):
            tags.append((2, term))
        else:
            pos = first.setdefault(term, i)
            tags.append(((1 if term in base_keys else 0), pos))
    return (atom.relation, atom.arity, tuple(tags))


#: Memo for :func:`canonicalize`.  Canonicalization depends only on
#: the pattern, the frozen set, and the *keys* of the base binding —
#: never on the bound values — and the engine re-canonicalizes the
#: same few patterns (tgd bodies and heads, instance fact lists) for
#: every trigger and every justification oracle call.
_CANON_CACHE = LRUCache("canon", maxsize=4096)


def canonicalize(
    pattern: Sequence[Atom],
    frozen: frozenset[Term],
    base: Optional[Mapping[Term, Term]] = None,
) -> tuple[tuple, list[Term], list[Term]]:
    """Rename a pattern modulo its mappable-term names.

    Returns ``(key, var_terms, bound_terms)``: the hashable canonical
    key, and the translation tables mapping each variable / bound id
    back to the concrete term of *this* pattern.  Two patterns equal up
    to renaming of their mappable terms yield the same key whenever the
    structural sort fully determines the atom order; the key never
    depends on the order of ``pattern``.
    """
    base_keys = frozenset(base) if base else frozenset()
    memo_key = (tuple(pattern), frozen, base_keys)
    return _CANON_CACHE.get_or_compute(
        memo_key, lambda: _canonicalize(pattern, frozen, base_keys)
    )


def _canonicalize(
    pattern: Sequence[Atom],
    frozen: frozenset[Term],
    base_keys: frozenset[Term],
) -> tuple[tuple, list[Term], list[Term]]:
    # Atoms equal up to the names of their mappable terms tie in the
    # structural order; breaking ties by those names keeps the plan, and
    # with it the enumeration order, independent of the input order of
    # the pattern (often a frozenset's hash order).
    ordered = sorted(
        pattern,
        key=lambda a: (_atom_sort_key(a, frozen, base_keys), _pool_order(a)),
    )
    var_terms: list[Term] = []
    var_ids: dict[Term, int] = {}
    bound_terms: list[Term] = []
    bound_ids: dict[Term, int] = {}
    key_atoms = []
    for atom in ordered:
        slots = []
        for term in atom.args:
            if not _mappable(term, frozen):
                slots.append(("r", term))
            elif term in base_keys:
                bid = bound_ids.setdefault(term, len(bound_terms))
                if bid == len(bound_terms):
                    bound_terms.append(term)
                slots.append(("b", bid))
            else:
                vid = var_ids.setdefault(term, len(var_terms))
                if vid == len(var_terms):
                    var_terms.append(term)
                slots.append(("v", vid))
        key_atoms.append((atom.relation, tuple(slots)))
    return tuple(key_atoms), var_terms, bound_terms


class PlanAtom:
    """One pattern atom with its prefiltered candidates and probe index."""

    __slots__ = ("relation", "slots", "var_slots", "has_bound", "candidates", "probe", "groups")

    def __init__(self, relation: str, slots: tuple):
        self.relation = relation
        self.slots = slots
        #: ``[(position, var id)]`` with repeated variables listed once.
        seen: dict[int, int] = {}
        self.var_slots = [
            (i, s[1])
            for i, s in enumerate(slots)
            if s[0] == "v" and seen.setdefault(s[1], i) == i
        ]
        self.has_bound = any(s[0] == "b" for s in slots)
        self.candidates: tuple[Atom, ...] = ()
        #: ``None`` (scan) or ``(kind, position, id)`` with kind "v"/"b".
        self.probe = None
        self.groups: Optional[dict[Term, tuple[Atom, ...]]] = None

    @property
    def var_ids(self) -> set[int]:
        return {vid for _, vid in self.var_slots}

    def match(self, fact, binding, bound_values):
        """Extend ``binding`` so this atom maps onto ``fact``.

        Returns the var ids newly bound (for backtracking) or ``None``.
        Rigid slots and intra-atom repetitions are prefiltered into
        :attr:`candidates`, so only variable and bound slots are
        checked here.
        """
        undo: list[int] = []
        args = fact.args
        for i, slot in enumerate(self.slots):
            kind = slot[0]
            if kind == "v":
                vid = slot[1]
                current = binding[vid]
                if current is None:
                    binding[vid] = args[i]
                    undo.append(vid)
                elif current != args[i]:
                    for v in undo:
                        binding[v] = None
                    return None
            elif kind == "b" and args[i] != bound_values[slot[1]]:
                for v in undo:
                    binding[v] = None
                return None
        return undo

    def candidate_iter(self, binding, bound_values):
        """Candidates narrowed through the probe index, as an iterator."""
        probe = self.probe
        if probe is None:
            return iter(self.candidates)
        kind, _, idx = probe
        value = binding[idx] if kind == "v" else bound_values[idx]
        return iter(self.groups.get(value, ()))


class Component:
    """A connected component: atoms in join order plus its variable ids."""

    __slots__ = ("atoms", "var_ids")

    def __init__(self, atoms: list[PlanAtom], var_ids: tuple[int, ...]):
        self.atoms = atoms
        self.var_ids = var_ids


class Plan:
    """A compiled pattern, valid for one target instance epoch."""

    __slots__ = ("key", "components", "bound_checks", "num_vars", "satisfiable")

    def __init__(self, key, components, bound_checks, num_vars, satisfiable):
        self.key = key
        self.components = components
        #: ``(relation, slots)`` atoms with no free variables but at
        #: least one bound slot: membership checks instantiated per
        #: call (their values are not part of the cached plan).
        self.bound_checks = bound_checks
        self.num_vars = num_vars
        self.satisfiable = satisfiable


def _prefilter(relation: str, slots: tuple, target: Instance) -> list[Atom]:
    """Candidate facts passing rigid slots and intra-atom repetitions.

    Starts from the most selective per-position index entry among the
    rigid slots (falling back to the relation index) so the scan never
    touches more facts than the narrowest applicable index bucket.
    """
    pool = None
    for i, slot in enumerate(slots):
        if slot[0] == "r":
            found = target.facts_matching(relation, i, slot[1])
            if pool is None or len(found) < len(pool):
                pool = found
                if not pool:
                    return []
    if pool is None:
        pool = target.facts_for(relation)
    arity = len(slots)
    rigid = [(i, s[1]) for i, s in enumerate(slots) if s[0] == "r"]
    first_of: dict[tuple[str, int], int] = {}
    repeats: list[tuple[int, int]] = []
    for i, slot in enumerate(slots):
        if slot[0] == "r":
            continue
        j = first_of.setdefault(slot, i)
        if j != i:
            repeats.append((j, i))
    kept = []
    for fact in pool:
        args = fact.args
        if len(args) != arity:
            continue
        if any(args[i] != term for i, term in rigid):
            continue
        if any(args[j] != args[i] for j, i in repeats):
            continue
        kept.append(fact)
    # Key-based sort: Atom.__lt__ re-stringifies terms on every pairwise
    # comparison, which is pathological when the pattern is itself an
    # instance (instance_homomorphisms) and pools hold hundreds of facts.
    kept.sort(key=_pool_order)
    return kept


def _pool_order(fact: Atom) -> tuple[tuple[int, str], ...]:
    """Same order as ``Atom.__lt__`` within one relation's pool."""
    return tuple(t.sort_key for t in fact.args)


def _prune_domains(atoms: list[PlanAtom]) -> int:
    """Semi-join (arc-consistency) pruning to a bounded fixpoint.

    Each variable's domain is the intersection, over the atoms it
    occurs in, of the values seen at its positions; candidates whose
    values fall outside any domain are dropped.  Returns the number of
    candidates pruned.
    """
    pruned = 0
    for _ in range(_ARC_PASSES):
        domains: dict[int, set[Term]] = {}
        for atom in atoms:
            for i, vid in atom.var_slots:
                values = {fact.args[i] for fact in atom.candidates}
                narrowed = domains.get(vid)
                domains[vid] = values if narrowed is None else narrowed & values
        changed = False
        for atom in atoms:
            kept = tuple(
                fact
                for fact in atom.candidates
                if all(fact.args[i] in domains[vid] for i, vid in atom.var_slots)
            )
            if len(kept) < len(atom.candidates):
                pruned += len(atom.candidates) - len(kept)
                atom.candidates = kept
                changed = True
        if not changed:
            break
    return pruned


def _connected_components(atoms: list[PlanAtom]) -> list[list[PlanAtom]]:
    """Group atoms by the variables they share (union-find over var ids)."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for atom in atoms:
        vids = sorted(atom.var_ids)
        for vid in vids:
            parent.setdefault(vid, vid)
        for other in vids[1:]:
            parent[find(vids[0])] = find(other)
    grouped: dict[int, list[PlanAtom]] = {}
    for atom in atoms:
        grouped.setdefault(find(min(atom.var_ids)), []).append(atom)
    return [grouped[root] for root in sorted(grouped)]


def _join_order(atoms: list[PlanAtom]) -> list[PlanAtom]:
    """Greedy most-selective-first ordering within one component.

    The estimate is the prefiltered candidate count, discounted when a
    probe (a bound slot, or a join with an already-ordered atom) will
    narrow the scan at evaluation time.  After the first atom only
    connected atoms are eligible, so every atom beyond the first has a
    join probe.
    """
    remaining = list(enumerate(atoms))
    ordered: list[PlanAtom] = []
    bound_vars: set[int] = set()
    while remaining:
        eligible = [
            (idx, atom)
            for idx, atom in remaining
            if not ordered or atom.var_ids & bound_vars
        ]

        def estimate(entry):
            idx, atom = entry
            score = float(len(atom.candidates))
            if atom.has_bound or atom.var_ids & bound_vars:
                score *= _PROBE_DISCOUNT
            return (score, idx)

        idx, atom = min(eligible, key=estimate)
        remaining.remove((idx, atom))
        ordered.append(atom)
        bound_vars |= atom.var_ids
    return ordered


def _attach_probe(atom: PlanAtom, bound_vars: set[int]) -> None:
    """Pick the probe slot and build its value → facts index."""
    probe = None
    for i, slot in enumerate(atom.slots):
        if slot[0] == "v" and slot[1] in bound_vars:
            probe = ("v", i, slot[1])
            break
    if probe is None:
        for i, slot in enumerate(atom.slots):
            if slot[0] == "b":
                probe = ("b", i, slot[1])
                break
    if probe is None:
        return
    position = probe[1]
    groups: dict[Term, list[Atom]] = {}
    for fact in atom.candidates:
        groups.setdefault(fact.args[position], []).append(fact)
    atom.probe = probe
    atom.groups = {value: tuple(facts) for value, facts in groups.items()}


def compile_plan(key: tuple, target: Instance) -> Plan:
    """Compile a canonical pattern key against a concrete target."""
    with TRACER.span("planner.compile", aggregate=True):
        return _compile_plan(key, target)


def _compile_plan(key: tuple, target: Instance) -> Plan:
    METRICS.inc("plans_compiled")
    satisfiable = True
    bound_checks = []
    var_atoms: list[PlanAtom] = []
    num_vars = 0
    for relation, slots in key:
        for slot in slots:
            if slot[0] == "v":
                num_vars = max(num_vars, slot[1] + 1)
        if not any(slot[0] == "v" for slot in slots):
            if any(slot[0] == "b" for slot in slots):
                bound_checks.append((relation, slots))
            else:
                fact = Atom._of_terms(relation, tuple(s[1] for s in slots))
                if fact not in target:
                    satisfiable = False
            continue
        atom = PlanAtom(relation, slots)
        atom.candidates = tuple(_prefilter(relation, slots, target))
        if not atom.candidates:
            satisfiable = False
        var_atoms.append(atom)
    if satisfiable:
        METRICS.inc("plan_domains_pruned", _prune_domains(var_atoms))
        if any(not atom.candidates for atom in var_atoms):
            satisfiable = False
    components = []
    if satisfiable:
        for group in _connected_components(var_atoms):
            ordered = _join_order(group)
            bound_vars: set[int] = set()
            for atom in ordered:
                _attach_probe(atom, bound_vars)
                bound_vars |= atom.var_ids
            var_ids = tuple(sorted(bound_vars))
            components.append(Component(ordered, var_ids))
    return Plan(key, tuple(components), tuple(bound_checks), num_vars, satisfiable)


def plan_for(
    pattern: Sequence[Atom],
    target: Instance,
    *,
    frozen: frozenset[Term] = frozenset(),
    base: Optional[Mapping[Term, Term]] = None,
) -> tuple[Plan, list[Term], list[Term]]:
    """The cached plan for ``pattern`` over ``target``, compiling on a miss.

    Also returns the ``var_terms`` / ``bound_terms`` translation tables
    for this concrete pattern (they vary per call even on a cache hit).
    """
    key, var_terms, bound_terms = canonicalize(pattern, frozen, base)
    plan = _PLAN_CACHE.get_or_compute(
        (key, target.epoch), lambda: compile_plan(key, target)
    )
    return plan, var_terms, bound_terms
