"""Vectorized join-plan execution over the columnar backend.

This module is the int-space twin of :mod:`repro.planner.evaluate`.
The canonical pattern keys, semi-join pruning, connected-component
decomposition and greedy join order are shared with the object plan
compiler (:mod:`repro.planner.plan`); what changes is the execution
substrate:

* candidates are **row numbers** into a
  :class:`~repro.data.columnar.ColumnarRelation`, prefiltered through
  the store's per-position hash indexes;
* semi-join pruning intersects **sets of ints** instead of sets of
  terms;
* enumeration is a level-wise **hash join** on int columns, with
  projection pushdown: positions no later atom or projection needs are
  dropped (and the partial deduplicated) as soon as they die, so a
  projected query never materializes the full cross-product of its
  intermediate bindings;
* the existence mode backtracks over int rows and never allocates a
  binding tuple.

Ids cross back into :class:`~repro.data.terms.Term` space exactly once,
when a solution is emitted as a :class:`Substitution` — the result
boundary.  The substitutions yielded are equal (as values) to the ones
the object kernel yields for the same call, though not necessarily in
the same order.

Compiled vector plans live in their own LRU, keyed like object plans
on ``(canonical key, target epoch)``.
"""

from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Optional, Sequence

from ..data.atoms import Atom
from ..data.columnar import ColumnarRelation, ColumnarStore
from ..data.substitutions import Substitution
from ..data.terms import Term
from ..engine.cache import PartitionedLRUCache
from ..observability.metrics import METRICS
from ..observability.spans import TRACER
from .plan import (
    _ARC_PASSES,
    PLAN_CACHE_SIZE,
    _Meter,
    _connected_components,
    _join_order,
    canonicalize,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..data.instances import Instance
    from ..resilience import Deadline

_VECTOR_PLAN_CACHE = PartitionedLRUCache("vector_plan", maxsize=PLAN_CACHE_SIZE)

#: Sentinel id for a bound value that was never interned: no column can
#: hold it, so every comparison against it fails (bound ids are only
#: ever compared to column values, never to each other).
_UNKNOWN = -1


class VectorAtom:
    """One pattern atom bound to a columnar relation and its row pool."""

    __slots__ = ("relation", "slots", "rel", "rows", "var_slots", "bound_slots", "probe", "groups")

    def __init__(self, relation: str, slots: tuple, rel: Optional[ColumnarRelation]):
        self.relation = relation
        self.slots = slots
        self.rel = rel
        seen: dict[int, int] = {}
        #: ``[(position, var id)]`` with repeated variables listed once.
        self.var_slots = [
            (i, s[1])
            for i, s in enumerate(slots)
            if s[0] == "v" and seen.setdefault(s[1], i) == i
        ]
        self.bound_slots = [(i, s[1]) for i, s in enumerate(slots) if s[0] == "b"]
        self.rows: tuple[int, ...] = ()
        #: ``None`` (scan) or ``(kind, position, id)`` with kind "v"/"b".
        self.probe = None
        self.groups: Optional[dict[int, tuple[int, ...]]] = None

    # ``candidates``/``var_ids``/``has_bound`` give this class the same
    # shape the shared ordering helpers of :mod:`repro.planner.plan`
    # expect from a PlanAtom.
    @property
    def candidates(self) -> tuple[int, ...]:
        return self.rows

    @property
    def var_ids(self) -> set[int]:
        return {vid for _, vid in self.var_slots}

    @property
    def has_bound(self) -> bool:
        return bool(self.bound_slots)


class VectorComponent:
    """A connected component: atoms in join order plus its variable ids."""

    __slots__ = ("atoms", "var_ids")

    def __init__(self, atoms: list[VectorAtom], var_ids: tuple[int, ...]):
        self.atoms = atoms
        self.var_ids = var_ids


class VectorPlan:
    """A compiled pattern over one columnar store, per target epoch."""

    __slots__ = ("key", "components", "bound_checks", "num_vars", "satisfiable")

    def __init__(self, key, components, bound_checks, num_vars, satisfiable):
        self.key = key
        self.components = components
        self.bound_checks = bound_checks
        self.num_vars = num_vars
        self.satisfiable = satisfiable


def _prefilter_rows(
    rel: ColumnarRelation, slots: tuple, store: ColumnarStore
) -> tuple[int, ...]:
    """Rows passing rigid slots and intra-atom repetitions.

    The int-space twin of the object compiler's ``_prefilter``: start
    from the most selective rigid index bucket, then check the
    remaining rigid positions and repeated mappable slots.
    """
    table = store.table
    pool = None
    rigid: list[tuple[int, int]] = []
    for i, slot in enumerate(slots):
        if slot[0] == "r":
            tid = table.id_of(slot[1])
            if tid is None:
                return ()
            rigid.append((i, tid))
            found = rel.rows_matching(i, tid)
            if pool is None or len(found) < len(pool):
                pool = found
                if not pool:
                    return ()
    if pool is None:
        pool = range(rel.size)
    first_of: dict[tuple, int] = {}
    repeats: list[tuple[int, int]] = []
    for i, slot in enumerate(slots):
        if slot[0] == "r":
            continue
        j = first_of.setdefault(slot, i)
        if j != i:
            repeats.append((j, i))
    METRICS.inc("columnar_rows_scanned", len(pool))
    cols = rel.columns
    if not rigid and not repeats:
        return tuple(pool)
    kept = []
    for r in pool:
        if any(cols[i][r] != tid for i, tid in rigid):
            continue
        if any(cols[j][r] != cols[i][r] for j, i in repeats):
            continue
        kept.append(r)
    return tuple(kept)


def _prune_row_domains(atoms: list[VectorAtom]) -> int:
    """Semi-join pruning over int value sets, to a bounded fixpoint."""
    pruned = 0
    for _ in range(_ARC_PASSES):
        domains: dict[int, set[int]] = {}
        for atom in atoms:
            cols = atom.rel.columns
            for i, vid in atom.var_slots:
                col = cols[i]
                values = {col[r] for r in atom.rows}
                narrowed = domains.get(vid)
                domains[vid] = values if narrowed is None else narrowed & values
        changed = False
        for atom in atoms:
            cols = atom.rel.columns
            kept = tuple(
                r
                for r in atom.rows
                if all(cols[i][r] in domains[vid] for i, vid in atom.var_slots)
            )
            if len(kept) < len(atom.rows):
                pruned += len(atom.rows) - len(kept)
                atom.rows = kept
                changed = True
        if not changed:
            break
    return pruned


def _attach_row_probe(atom: VectorAtom, bound_vars: set[int]) -> None:
    """Pick the probe slot and group the rows by its column value."""
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
    col = atom.rel.columns[probe[1]]
    groups: dict[int, list[int]] = {}
    for r in atom.rows:
        groups.setdefault(col[r], []).append(r)
    atom.probe = probe
    atom.groups = {value: tuple(rs) for value, rs in groups.items()}


def _row_exists(rel: ColumnarRelation, ids: list[int]) -> bool:
    """Whether the fully-determined row ``ids`` occurs in the relation."""
    rows = rel.rows_matching(0, ids[0])
    if not rows:
        return False
    cols = rel.columns
    for r in rows:
        if all(cols[i][r] == ids[i] for i in range(1, len(ids))):
            return True
    return False


def _rigid_check(store: ColumnarStore, relation: str, slots: tuple) -> bool:
    """Membership of a variable-free, bound-free atom, in int space."""
    rel = store.get(relation, len(slots))
    if rel is None:
        return False
    ids = []
    for _, term in slots:
        tid = store.table.id_of(term)
        if tid is None:
            return False
        ids.append(tid)
    return _row_exists(rel, ids)


def compile_vector_plan(key: tuple, store: ColumnarStore) -> VectorPlan:
    """Compile a canonical pattern key against a columnar store."""
    with TRACER.span("planner.vector_compile", aggregate=True):
        return _compile_vector_plan(key, store)


def _compile_vector_plan(key: tuple, store: ColumnarStore) -> VectorPlan:
    METRICS.inc("vector_plans_compiled")
    satisfiable = True
    bound_checks = []
    var_atoms: list[VectorAtom] = []
    num_vars = 0
    for relation, slots in key:
        for slot in slots:
            if slot[0] == "v":
                num_vars = max(num_vars, slot[1] + 1)
        if not any(slot[0] == "v" for slot in slots):
            if any(slot[0] == "b" for slot in slots):
                bound_checks.append((relation, slots))
            elif not _rigid_check(store, relation, slots):
                satisfiable = False
            continue
        rel = store.get(relation, len(slots))
        atom = VectorAtom(relation, slots, rel)
        if rel is not None:
            atom.rows = _prefilter_rows(rel, slots, store)
        if not atom.rows:
            satisfiable = False
        var_atoms.append(atom)
    if satisfiable:
        METRICS.inc("plan_domains_pruned", _prune_row_domains(var_atoms))
        if any(not atom.rows for atom in var_atoms):
            satisfiable = False
    components = []
    if satisfiable:
        for group in _connected_components(var_atoms):
            ordered = _join_order(group)
            bound_vars: set[int] = set()
            for atom in ordered:
                _attach_row_probe(atom, bound_vars)
                bound_vars |= atom.var_ids
            components.append(VectorComponent(ordered, tuple(sorted(bound_vars))))
    return VectorPlan(key, tuple(components), tuple(bound_checks), num_vars, satisfiable)


def _passes_bound_checks(
    plan: VectorPlan, store: ColumnarStore, bound_ids: list[int]
) -> bool:
    """Instantiate and test the plan's variable-free membership checks."""
    table = store.table
    for relation, slots in plan.bound_checks:
        rel = store.get(relation, len(slots))
        if rel is None:
            return False
        ids = []
        for slot in slots:
            if slot[0] == "r":
                tid = table.id_of(slot[1])
                if tid is None:
                    return False
                ids.append(tid)
            else:
                ids.append(bound_ids[slot[1]])
        if not _row_exists(rel, ids):
            return False
    return True


def _vector_prepare(pattern, target, store, base, frozen):
    key, var_terms, bound_terms = canonicalize(pattern, frozen, base)
    plan = _VECTOR_PLAN_CACHE.get_or_compute(
        (key, target.epoch), lambda: compile_vector_plan(key, store)
    )
    id_of = store.table.id_of
    bound_ids = []
    for term in bound_terms:
        tid = id_of(base[term])
        bound_ids.append(_UNKNOWN if tid is None else tid)
    return plan, var_terms, bound_ids


def _component_rows(
    component: VectorComponent,
    bound_ids: list[int],
    meter: _Meter,
    target_vids: Sequence[int],
) -> list[tuple[int, ...]]:
    """Distinct solutions over ``target_vids``, via level-wise hash joins.

    Projection pushdown: after each atom, partial-tuple positions whose
    variable is neither in ``target_vids`` nor used by a later atom are
    dropped and the partial deduplicated, so projected queries stay
    linear in the output instead of the intermediate join size.
    """
    METRICS.inc("plan_components_evaluated")
    atoms = component.atoms
    target_set = set(target_vids)
    # Variables needed strictly after each atom (for pushdown).
    needed_after: list[set[int]] = [set(target_set) for _ in atoms]
    future: set[int] = set(target_set)
    for idx in range(len(atoms) - 1, -1, -1):
        needed_after[idx] = set(future)
        future |= atoms[idx].var_ids
    pos_of: dict[int, int] = {}
    order: list[int] = []  # vid held at each partial-tuple position
    partial: list[tuple[int, ...]] = [()]
    for idx, atom in enumerate(atoms):
        cols = atom.rel.columns
        join: list[tuple[int, int]] = []  # (partial position, column)
        new_slots: list[tuple[int, int]] = []  # (column, vid)
        for i, vid in atom.var_slots:
            at = pos_of.get(vid)
            if at is None:
                new_slots.append((i, vid))
            else:
                join.append((at, i))
        checks = list(atom.bound_slots)
        probe = atom.probe
        rows: Iterable[int]
        if probe is not None and probe[0] == "b":
            rows = atom.groups.get(bound_ids[probe[2]], ())
            checks = [(i, bid) for i, bid in checks if i != probe[1]]
        else:
            rows = atom.rows
        # Existence join: when none of the atom's fresh variables are
        # needed later (nor projected), any one matching row justifies
        # the partial — probe for the first match instead of fanning
        # out ``degree`` continuations that the pushdown would merge
        # right back together.
        live = needed_after[idx]
        semi = all(vid not in live for _, vid in new_slots)
        next_partial: list[tuple[int, ...]] = []
        if probe is not None and probe[0] == "v":
            # Join through the probe's value → rows index.
            groups = atom.groups
            ppos = pos_of[probe[2]]
            other_join = [(at, i) for at, i in join if i != probe[1]]
            for t in partial:
                for r in groups.get(t[ppos], ()):
                    meter.tick()
                    if any(cols[i][r] != t[at] for at, i in other_join):
                        continue
                    if any(cols[i][r] != bound_ids[bid] for i, bid in checks):
                        continue
                    if semi:
                        next_partial.append(t)
                        break
                    next_partial.append(
                        t + tuple(cols[i][r] for i, _ in new_slots)
                    )
        elif join and semi:
            # Semi-join: membership of the partial's join key suffices.
            keys: set[tuple[int, ...]] = set()
            for r in rows:
                meter.tick()
                if any(cols[i][r] != bound_ids[bid] for i, bid in checks):
                    continue
                keys.add(tuple(cols[i][r] for _, i in join))
            next_partial = [
                t for t in partial if tuple(t[at] for at, _ in join) in keys
            ]
        elif join:
            # Hash the rows on the joined columns, probe with partials.
            rindex: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
            for r in rows:
                meter.tick()
                if any(cols[i][r] != bound_ids[bid] for i, bid in checks):
                    continue
                rindex.setdefault(
                    tuple(cols[i][r] for _, i in join), []
                ).append(tuple(cols[i][r] for i, _ in new_slots))
            for t in partial:
                got = rindex.get(tuple(t[at] for at, _ in join))
                if got:
                    for nv in got:
                        next_partial.append(t + nv)
        else:
            # First atom of the component: no shared variables yet.
            fresh = []
            for r in rows:
                meter.tick()
                if all(cols[i][r] == bound_ids[bid] for i, bid in checks):
                    fresh.append(tuple(cols[i][r] for i, _ in new_slots))
            next_partial = [t + nv for t in partial for nv in fresh]
        if not next_partial:
            return []
        for i, vid in new_slots:
            pos_of[vid] = len(order)
            order.append(vid)
        # Projection pushdown: drop dead positions, dedup survivors.
        live = needed_after[idx]
        keep = [p for p, vid in enumerate(order) if vid in live]
        if len(keep) < len(order):
            order = [order[p] for p in keep]
            pos_of = {vid: p for p, vid in enumerate(order)}
            next_partial = list({tuple(t[p] for p in keep) for t in next_partial})
        partial = next_partial
        meter.charge_rows(len(partial), len(order))
    meter.flush()
    out = [pos_of[vid] for vid in target_vids]
    if out == list(range(len(order))) and len(order) == len(target_vids):
        return partial
    return [tuple(t[p] for p in out) for t in partial]


def _candidate_rows(atom: VectorAtom, binding: dict[int, int], bound_ids):
    probe = atom.probe
    if probe is None:
        return iter(atom.rows)
    kind, _, idx = probe
    value = binding[idx] if kind == "v" else bound_ids[idx]
    return iter(atom.groups.get(value, ()))


def _component_exists(
    component: VectorComponent, bound_ids: list[int], meter: _Meter
) -> bool:
    """First-solution existence check: int backtracking, no tuples built."""
    METRICS.inc("plan_components_evaluated")
    atoms = component.atoms
    binding: dict[int, int] = {}
    depth = 0
    iters = [_candidate_rows(atoms[0], binding, bound_ids)] + [None] * (
        len(atoms) - 1
    )
    undos: list[list[int]] = [[] for _ in atoms]
    while True:
        atom = atoms[depth]
        for vid in undos[depth]:
            del binding[vid]
        undos[depth] = []
        cols = atom.rel.columns
        matched = False
        for r in iters[depth]:
            meter.tick()
            undo: list[int] = []
            ok = True
            for i, vid in atom.var_slots:
                value = cols[i][r]
                current = binding.get(vid)
                if current is None:
                    binding[vid] = value
                    undo.append(vid)
                elif current != value:
                    ok = False
                    break
            if ok:
                for i, bid in atom.bound_slots:
                    if cols[i][r] != bound_ids[bid]:
                        ok = False
                        break
            if not ok:
                for vid in undo:
                    del binding[vid]
                continue
            undos[depth] = undo
            matched = True
            break
        if not matched:
            depth -= 1
            if depth < 0:
                return False
            continue
        if depth + 1 == len(atoms):
            return True
        depth += 1
        iters[depth] = _candidate_rows(atoms[depth], binding, bound_ids)


def _stream_component(component, bound_ids, var_terms, project_set, meter):
    """One component's solutions as (pattern terms, int-tuple iterable)."""
    if project_set is None:
        terms = tuple(var_terms[vid] for vid in component.var_ids)
        return terms, _component_rows(
            component, bound_ids, meter, component.var_ids
        )
    keep = [
        i
        for i, vid in enumerate(component.var_ids)
        if var_terms[vid] in project_set
    ]
    if not keep:
        if _component_exists(component, bound_ids, meter):
            METRICS.inc("plan_existence_shortcircuits")
            return (), [()]
        return (), []
    target_vids = [component.var_ids[i] for i in keep]
    terms = tuple(var_terms[vid] for vid in target_vids)
    return terms, _component_rows(component, bound_ids, meter, target_vids)


def vector_has_homomorphism(
    pattern: Sequence[Atom],
    target: "Instance",
    store: ColumnarStore,
    *,
    base: Optional[Mapping[Term, Term]] = None,
    frozen: frozenset[Term] = frozenset(),
    deadline: Optional["Deadline"] = None,
) -> bool:
    """Existence-only vectorized evaluation (first solution per component)."""
    plan, _, bound_ids = _vector_prepare(pattern, target, store, base or {}, frozen)
    if not plan.satisfiable or not _passes_bound_checks(plan, store, bound_ids):
        return False
    meter = _Meter(deadline, "join kernel")
    with TRACER.span("planner.vector_execute", aggregate=True):
        try:
            for component in plan.components:
                if not _component_exists(component, bound_ids, meter):
                    return False
                METRICS.inc("plan_existence_shortcircuits")
            return True
        finally:
            meter.flush()


def vector_query_tuples(
    pattern: Sequence[Atom],
    target: "Instance",
    store: ColumnarStore,
    head_vars: Sequence[Term],
    deadline: Optional["Deadline"] = None,
) -> Optional[set[tuple[Term, ...]]]:
    """``Q(I)`` as a set of head-variable tuples, fully in int space.

    The per-answer :class:`Substitution` of the homomorphism interface
    is pure overhead for conjunctive-query evaluation — the caller
    immediately re-projects it onto the head variables.  This entry
    point joins, projects and deduplicates in int space and decodes
    straight into answer tuples, so a query with 10⁶ answers allocates
    one tuple per answer and nothing else.  Returns ``None`` when a
    head variable is not covered by the plan's components (the caller
    falls back to the general path).
    """
    pattern = list(pattern)
    plan, var_terms, bound_ids = _vector_prepare(
        pattern, target, store, {}, frozenset()
    )
    if not plan.satisfiable or not _passes_bound_checks(plan, store, bound_ids):
        return set()
    project_set = set(head_vars)
    meter = _Meter(deadline, "join kernel")
    decode = store.table.term
    solved: list[tuple[tuple[Term, ...], list[tuple[int, ...]]]] = []
    with TRACER.span("planner.vector_execute", aggregate=True):
        for component in plan.components:
            terms, tuples = _stream_component(
                component, bound_ids, var_terms, project_set, meter
            )
            if not tuples:
                meter.flush()
                return set()
            solved.append((terms, tuples))
    position: dict[Term, int] = {}
    for terms, _ in solved:
        for term in terms:
            position.setdefault(term, len(position))
    if any(v not in position for v in head_vars):
        meter.flush()
        return None
    order = [position[v] for v in head_vars]
    lists = [tuples for _, tuples in solved]
    answers: set[tuple[Term, ...]] = set()
    explored = 0
    if len(lists) == 1:
        explored = len(lists[0])
        meter.tick(explored)
        for values in lists[0]:
            answers.add(tuple(decode(values[i]) for i in order))
    else:
        # The cross product of component solutions can dwarf any single
        # component: meter every combination and its materialization.
        for combo in product(*lists):
            explored += 1
            meter.tick()
            values = tuple(v for vs in combo for v in vs)
            answers.add(tuple(decode(values[i]) for i in order))
    meter.flush()
    meter.charge_rows(len(answers), len(order))
    METRICS.inc("homomorphisms_explored", explored)
    return answers


def vector_homomorphisms(
    pattern: Sequence[Atom],
    target: "Instance",
    store: ColumnarStore,
    *,
    base: Optional[Mapping[Term, Term]] = None,
    frozen: frozenset[Term] = frozenset(),
    deadline: Optional["Deadline"] = None,
    project: Optional[Iterable[Term]] = None,
) -> Iterator[Substitution]:
    """All homomorphisms from ``pattern`` into ``target``, vectorized.

    Yields the same substitution set as the object kernel and the
    backtracking matcher (restricted to ``project`` when given); only
    the enumeration order may differ.
    """
    base_map = dict(base) if base else {}
    project_set = None if project is None else set(project)
    kept_base = (
        base_map
        if project_set is None
        else {k: v for k, v in base_map.items() if k in project_set}
    )
    plan, var_terms, bound_ids = _vector_prepare(
        pattern, target, store, base_map, frozen
    )
    if not plan.satisfiable or not _passes_bound_checks(plan, store, bound_ids):
        return
    meter = _Meter(deadline, "join kernel")
    decode = store.table.term
    solved: list[tuple[tuple[Term, ...], list[tuple[int, ...]]]] = []
    with TRACER.span("planner.vector_execute", aggregate=True):
        for component in plan.components:
            terms, tuples = _stream_component(
                component, bound_ids, var_terms, project_set, meter
            )
            if not tuples:
                meter.flush()
                return
            solved.append((terms, tuples))
    if not solved:
        meter.flush()
        METRICS.inc("homomorphisms_explored")
        yield Substitution(kept_base)
        return
    all_terms = tuple(term for terms, _ in solved for term in terms)
    lists = [tuples for _, tuples in solved]
    for combo in product(*lists):
        meter.tick()
        raw = dict(kept_base)
        raw.update(
            zip(all_terms, (decode(v) for values in combo for v in values))
        )
        METRICS.inc("homomorphisms_explored")
        yield Substitution(raw)
    meter.flush()
