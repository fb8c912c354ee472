"""Semi-naive delta maintenance of the recovery pipeline.

The paper's pipeline — ``HOM(Σ, J)`` → coverings → inverse chase →
certain answers — is a pure function of the target instance ``J``, and
every layer built so far recomputes it per epoch.  A
:class:`RecoveryState` instead *maintains* the pipeline across
:meth:`~repro.data.instances.Instance.evolve` deltas, spending work
proportional to ``|ΔJ|`` (times the delta's join fan-out) rather than
``|J|``, while staying **bit-identical** to a cold recompute at every
step.  The identities the maintenance leans on:

* **HOM is local.**  A homomorphism of ``HOM(Σ, J′)`` absent from
  ``HOM(Σ, J)`` must cover an added fact (its head image lies in
  ``J′``; were it disjoint from the delta it would lie in ``J``), and
  a homomorphism dies exactly when it covers a removed fact.  Retired
  entries come off the per-fact coverage index; admitted ones come
  from :func:`~repro.planner.delta.delta_restricted_homomorphisms`
  anchored on the added facts.  Keeping the list sorted by the cold
  order's key — ``(tgd name, repr(substitution))``, tie-broken by tgd
  position, which reproduces ``sorted``'s stability — makes the
  maintained list *equal* to ``hom_set(Σ, J′)``, so an epoch that
  falls back to the cold enumeration seeds the hom-set LRU with it
  instead of recomputing it.  Fast epochs seed nothing: the LRU would
  pin each epoch's target for as long as it stays cached.
* **Unique covers are checkable in O(Δ).**  Theorem 6's test (every
  fact covered, every homomorphism covering some fact privately) is
  maintained by support counting on the coverage index: ``n`` facts
  covered exactly once, per-hom private counts, a set of uncovered
  facts.  While the test holds the covering enumeration — minimal or
  "all" mode — emits exactly one covering, ``tuple(HOM(Σ, J))``.
* **Full tgds chase by counting.**  When no tgd has body-only or
  existential variables (the *fast mapping* case — the regime the
  scaled benchmarks and the paper's tractable fragments live in), the
  backward chase mints no nulls: the backward instance is the multiset
  union of each covering homomorphism's instantiated body, maintained
  by support counts; the forward chase's firings are keyed by full
  body images, so a firing dies exactly when its body image meets the
  backward delta and new firings are again a delta-anchored search.
  The finishing homomorphism search degenerates to the membership
  check ``forward ⊆ J′`` (all forward terms are target terms, frozen
  under ``identity_on``), tracked as a ``missing`` set; when it is
  empty the single candidate's recovery *is* the backward instance.
  Definition 2 then holds without the oracle: body and head variables
  coincide, so every covering homomorphism's body image lies in the
  backward instance and fires its tgd, re-deriving the facts it
  covers; the covering covers ``J′``, so ``J′ ⊆ forward``, and with
  ``missing`` empty, ``forward = J′``.  For full tgds the chase is
  the least solution, hence the unique minimal one, and ``J′`` maps
  into it by the identity.  A target holding labelled nulls still
  goes to :func:`~repro.core.semantics.is_justified`; a count of its
  non-ground facts, maintained per delta, keeps that test O(Δ).
* **Certain answers are per-disjunct sets.**  Cached query answers
  over the (single) recovery are maintained delete-and-rederive
  (DRed): additions are delta-anchored evaluations; deletions
  re-derive each touched answer tuple with the head binding as the
  seed, discarding tuples with no surviving derivation.

Whenever a delta leaves the fast regime — the cover becomes ambiguous,
a fact goes uncovered, the mapping is not full — the state falls back
to the cold enumeration (`inverse_chase_candidates`) for that epoch,
seeded with the maintained hom set, and resumes incremental
maintenance as soon as the invariants hold again.  Either way the
observable results (``recoveries``, ``candidates``, ``certain``)
match the cold pipeline exactly, which the differential suites assert
fact-for-fact under randomized churn.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Iterable, Optional, Sequence

from ..data.atoms import Atom
from ..data.instances import Instance, InstanceBuilder
from ..data.substitutions import Substitution
from ..data.terms import Null, Term
from ..errors import NotRecoverableError
from ..logic.homomorphisms import homomorphisms
from ..logic.queries import Query, UnionOfConjunctiveQueries, as_ucq
from ..logic.tgds import Mapping
from ..observability.metrics import METRICS
from ..observability.spans import TRACER
from ..planner.delta import (
    carry_forward_plans,
    delta_restricted_homomorphisms,
    seeded_has_homomorphism,
)
from ..resilience import Deadline
from ..core.hom_sets import TargetHomomorphism, hom_set, seed_hom_set
from ..core.inverse_chase import RecoveryCandidate, inverse_chase_candidates
from ..core.semantics import is_justified
from ..core.subsumption import (
    SubsumptionConstraint,
    minimal_subsumers,
    models_all,
)

#: The finishing homomorphism of the fast path: with every forward
#: term frozen by ``identity_on`` the cold search yields exactly the
#: empty substitution, under which ``backward.apply(g) is backward``.
_IDENTITY = Substitution({})


class _CoveringPipeline:
    """One covering's backward → forward → finish pipeline, maintained.

    ``fast`` pipelines carry the support-counting state described in
    the module docstring; generic ones only hold the cold-computed
    candidates for the current epoch and are rebuilt on every delta.
    """

    __slots__ = (
        "fast",
        "covering",
        "backward",
        "forward",
        "candidates",
        "_produced",
        "_bsupport",
        "_firings",
        "_fact_firings",
        "_fsupport",
        "_missing",
        "_answers",
    )

    def __init__(
        self,
        covering: tuple[TargetHomomorphism, ...],
        backward: Optional[Instance],
        forward: Optional[Instance],
        fast: bool,
    ):
        self.fast = fast
        self.covering = covering
        self.backward = backward
        self.forward = forward
        self.candidates: list[RecoveryCandidate] = []
        # hom -> its instantiated body (the reverse trigger's output)
        self._produced: dict[TargetHomomorphism, frozenset[Atom]] = {}
        # backward fact -> number of covering homs producing it
        self._bsupport: dict[Atom, int] = {}
        # (tgd index, body-variable image) -> (head facts, body facts)
        self._firings: dict[
            tuple[int, tuple[Term, ...]], tuple[frozenset[Atom], frozenset[Atom]]
        ] = {}
        # backward fact -> firing keys whose body image uses it
        self._fact_firings: dict[Atom, set[tuple[int, tuple[Term, ...]]]] = {}
        # forward fact -> number of firings producing it
        self._fsupport: dict[Atom, int] = {}
        # forward facts not present in the target (blocks the finish)
        self._missing: set[Atom] = set()
        # ucq -> per-disjunct certain answer sets over the recovery
        self._answers: dict[UnionOfConjunctiveQueries, list[set]] = {}

    # -- construction --------------------------------------------------------------------

    @classmethod
    def generic(
        cls,
        covering: tuple[TargetHomomorphism, ...],
        backward: Instance,
        forward: Instance,
    ) -> "_CoveringPipeline":
        return cls(covering, backward, forward, False)

    @classmethod
    def fast_bootstrap(
        cls,
        state: "RecoveryState",
        covering: tuple[TargetHomomorphism, ...],
        target: Instance,
        deadline: Optional[Deadline] = None,
    ) -> "_CoveringPipeline":
        """Build the support-counted pipeline from scratch (O(|J|))."""
        pipe = cls(covering, None, None, True)
        for hom in covering:
            facts = frozenset(hom.substitution.apply_atoms(hom.tgd.body))
            pipe._produced[hom] = facts
            for fact in facts:
                pipe._bsupport[fact] = pipe._bsupport.get(fact, 0) + 1
        backward = InstanceBuilder().add_validated(pipe._bsupport).build()
        pipe.backward = backward
        # Replicates chase(Σ, backward) with dedup="homomorphism": one
        # firing per body homomorphism, keyed on the full body image —
        # full tgds mint no nulls, so firings are order-independent.
        for ti, tgd in enumerate(state._tgds):
            key_vars = state._body_vars[ti]
            frontier = state._frontier[ti]
            for hom in homomorphisms(tgd.body, backward):
                fk = (ti, tuple(hom.image(v) for v in key_vars))
                if fk in pipe._firings:
                    continue
                produced = frozenset(
                    hom.restrict(frontier).apply_atoms(tgd.head)
                )
                body_image = frozenset(hom.apply_atoms(tgd.body))
                pipe._firings[fk] = (produced, body_image)
                for fact in body_image:
                    pipe._fact_firings.setdefault(fact, set()).add(fk)
                for fact in produced:
                    pipe._fsupport[fact] = pipe._fsupport.get(fact, 0) + 1
        pipe.forward = InstanceBuilder().add_validated(pipe._fsupport).build()
        pipe._missing = {f for f in pipe._fsupport if f not in target}
        pipe._finish(state, target, deadline)
        METRICS.inc("incremental_fast_bootstraps")
        return pipe

    # -- maintenance ---------------------------------------------------------------------

    def refresh(
        self,
        state: "RecoveryState",
        covering: tuple[TargetHomomorphism, ...],
        target: Instance,
        t_added: frozenset[Atom],
        t_removed: frozenset[Atom],
        new_homs: Sequence[TargetHomomorphism],
        dead_homs: Iterable[TargetHomomorphism],
        deadline: Optional[Deadline],
    ) -> None:
        """Advance the pipeline across one target delta (O(Δ·fan-out))."""
        self.covering = covering
        old_backward = self.backward
        badd: list[Atom] = []
        brem: list[Atom] = []
        for hom in dead_homs:
            for fact in self._produced.pop(hom):
                count = self._bsupport[fact] - 1
                if count:
                    self._bsupport[fact] = count
                else:
                    del self._bsupport[fact]
                    brem.append(fact)
        for hom in new_homs:
            facts = frozenset(hom.substitution.apply_atoms(hom.tgd.body))
            self._produced[hom] = facts
            for fact in facts:
                count = self._bsupport.get(fact, 0)
                self._bsupport[fact] = count + 1
                if not count:
                    badd.append(fact)
        backward = old_backward.evolve(add=badd, remove=brem)
        self.backward = backward
        if backward is old_backward:
            b_added: frozenset[Atom] = frozenset()
            b_removed: frozenset[Atom] = frozenset()
        else:
            carry_forward_plans(backward)
            b_added = backward.lineage.added
            b_removed = backward.lineage.removed

        fadd: list[Atom] = []
        frem: list[Atom] = []
        if b_removed:
            dead_keys: set[tuple[int, tuple[Term, ...]]] = set()
            for fact in b_removed:
                dead_keys.update(self._fact_firings.pop(fact, ()))
            for fk in dead_keys:
                produced, body_image = self._firings.pop(fk)
                for fact in body_image:
                    entry = self._fact_firings.get(fact)
                    if entry is not None:
                        entry.discard(fk)
                        if not entry:
                            del self._fact_firings[fact]
                for fact in produced:
                    count = self._fsupport[fact] - 1
                    if count:
                        self._fsupport[fact] = count
                    else:
                        del self._fsupport[fact]
                        frem.append(fact)
        if b_added:
            for ti, tgd in enumerate(state._tgds):
                key_vars = state._body_vars[ti]
                frontier = state._frontier[ti]
                for sub in delta_restricted_homomorphisms(
                    tgd.body, backward, b_added, deadline=deadline
                ):
                    fk = (ti, tuple(sub.image(v) for v in key_vars))
                    if fk in self._firings:
                        continue
                    produced = frozenset(
                        sub.restrict(frontier).apply_atoms(tgd.head)
                    )
                    body_image = frozenset(sub.apply_atoms(tgd.body))
                    self._firings[fk] = (produced, body_image)
                    for fact in body_image:
                        self._fact_firings.setdefault(fact, set()).add(fk)
                    for fact in produced:
                        count = self._fsupport.get(fact, 0)
                        self._fsupport[fact] = count + 1
                        if not count:
                            fadd.append(fact)
        old_forward = self.forward
        forward = old_forward.evolve(add=fadd, remove=frem)
        self.forward = forward
        if forward is old_forward:
            f_added: frozenset[Atom] = frozenset()
            f_removed: frozenset[Atom] = frozenset()
        else:
            f_added = forward.lineage.added
            f_removed = forward.lineage.removed

        # ``missing`` tracks {f ∈ forward : f ∉ J′} under both deltas.
        for fact in f_removed:
            self._missing.discard(fact)
        for fact in f_added:
            if fact not in target:
                self._missing.add(fact)
        for fact in t_removed:
            if fact in self._fsupport:
                self._missing.add(fact)
        for fact in t_added:
            self._missing.discard(fact)

        self._finish(state, target, deadline)
        self._refresh_answers(old_backward, b_added, b_removed, deadline)

    def _finish(
        self,
        state: "RecoveryState",
        target: Instance,
        deadline: Optional[Deadline] = None,
    ) -> None:
        """Recompute the (at most one) candidate from the finish check."""
        self.candidates = []
        if self._missing:
            return
        recovery = self.backward
        if not state._verify:
            pass
        elif not state._nonground:
            # Definition 2 holds by support: forward = J (module
            # docstring), the unique minimal solution for full tgds.
            METRICS.inc("incremental_justified_by_support")
        elif not is_justified(state._mapping, recovery, target, deadline=deadline):
            # The dangling-completion rescue is vacuous here: every
            # term of a fast-mapping recovery lies in the target
            # domain, so there is no free null to ground.
            return
        self.candidates = [
            RecoveryCandidate(
                self.covering, self.backward, self.forward, _IDENTITY, recovery
            )
        ]

    # -- certain answers -----------------------------------------------------------------

    def _refresh_answers(
        self,
        old_backward: Instance,
        b_added: frozenset[Atom],
        b_removed: frozenset[Atom],
        deadline: Optional[Deadline],
    ) -> None:
        """DRed maintenance of cached per-disjunct answer sets."""
        if not self._answers or (not b_added and not b_removed):
            return
        for ucq, cache in self._answers.items():
            for cq, answers in zip(ucq.disjuncts, cache):
                head_vars = cq.head_vars
                if b_removed:
                    rechecked: set[tuple[Term, ...]] = set()
                    for sub in delta_restricted_homomorphisms(
                        cq.body,
                        old_backward,
                        b_removed,
                        project=head_vars,
                        deadline=deadline,
                    ):
                        answer = tuple(sub.image(v) for v in head_vars)
                        if answer not in answers or answer in rechecked:
                            continue
                        rechecked.add(answer)
                        seed = dict(zip(head_vars, answer))
                        if not seeded_has_homomorphism(
                            cq.body, self.backward, base=seed, deadline=deadline
                        ):
                            answers.discard(answer)
                if b_added:
                    for sub in delta_restricted_homomorphisms(
                        cq.body,
                        self.backward,
                        b_added,
                        project=head_vars,
                        deadline=deadline,
                    ):
                        answer = tuple(sub.image(v) for v in head_vars)
                        if any(isinstance(term, Null) for term in answer):
                            continue
                        answers.add(answer)
        METRICS.inc("incremental_answer_refreshes")

    def answer_set(
        self,
        ucq: UnionOfConjunctiveQueries,
        deadline: Optional[Deadline],
    ) -> set[tuple[Term, ...]]:
        """Certain answers of ``ucq`` over this pipeline's recovery.

        Only valid on fast pipelines, whose single recovery *is* the
        backward instance the cached sets are maintained against.
        """
        cache = self._answers.get(ucq)
        if cache is None:
            cache = [
                set(cq.certain_evaluate(self.backward, deadline))
                for cq in ucq.disjuncts
            ]
            self._answers[ucq] = cache
        out: set[tuple[Term, ...]] = set()
        for answers in cache:
            out |= answers
        return out


class RecoveryState:
    """A maintained recovery pipeline with delta entry points.

    Construction runs the pipeline cold once; :meth:`apply_delta`
    advances it across an ``(added, removed)`` fact delta.  The
    observable surface — :attr:`recoveries`, :attr:`candidates`,
    :meth:`certain` — is bit-identical to recomputing
    :func:`~repro.core.inverse_chase.inverse_chase` /
    :func:`~repro.core.certain.certain_answer` on the current target.

    Enumeration *budgets* (``max_covers`` / ``max_recoveries``) are a
    one-shot-call concern and deliberately not part of the maintained
    surface; pass a :class:`~repro.resilience.Deadline` to bound
    individual deltas instead.
    """

    def __init__(
        self,
        mapping: Mapping,
        target: Instance,
        *,
        cover_mode: str = "minimal",
        subsumption_mode: str = "auto",
        subsumption: Optional[Sequence[SubsumptionConstraint]] = None,
        verify_justification: bool = True,
        deadline: Optional[Deadline] = None,
    ):
        if cover_mode not in ("minimal", "all"):
            raise ValueError(f"unknown cover mode {cover_mode!r}")
        resolved = subsumption_mode
        if resolved == "auto":
            resolved = "refute" if cover_mode == "minimal" else "strict"
        if resolved not in ("strict", "refute", "off"):
            raise ValueError(f"unknown subsumption mode {subsumption_mode!r}")
        with TRACER.span("incremental.bootstrap"):
            self._lock = threading.RLock()
            self._mapping = mapping
            self._target = target
            self._cover_mode = cover_mode
            self._sub_mode_raw = subsumption_mode
            self._sub_mode = resolved
            self._sub_arg = subsumption
            self._constraints: tuple[SubsumptionConstraint, ...] = (
                ()
                if resolved == "off"
                else tuple(
                    subsumption
                    if subsumption is not None
                    else minimal_subsumers(mapping)
                )
            )
            self._verify = verify_justification
            self._tgds = list(mapping)
            self._tgd_index = {tgd: i for i, tgd in enumerate(self._tgds)}
            self._fast_mapping = all(
                not tgd.body_only_variables and not tgd.existential_variables
                for tgd in self._tgds
            )
            self._head_vars = [
                tuple(sorted(tgd.head_variables)) for tgd in self._tgds
            ]
            self._body_vars = [
                tuple(sorted(tgd.body_variables)) for tgd in self._tgds
            ]
            self._frontier = [
                tuple(sorted(tgd.frontier_variables)) for tgd in self._tgds
            ]
            self._hv_by_tgd = dict(zip(self._tgds, self._head_vars))
            # Target facts holding a labelled null; while none does, the
            # fast pipeline decides Definition 2 without the oracle.
            self._nonground = sum(not f.is_ground for f in target.facts)
            # HOM(Σ, J), kept equal to hom_set's output (order included).
            self._homs: list[TargetHomomorphism] = list(
                hom_set(mapping, target, deadline)
            )
            self._hom_sort = [self._sort_key(h) for h in self._homs]
            self._hom_keys = {self._hom_key(h) for h in self._homs}
            # Theorem 6 support counts over the coverage index.
            self._fact_covers: dict[Atom, set[TargetHomomorphism]] = {}
            self._private: dict[TargetHomomorphism, int] = {}
            self._nprivate = 0
            self._uncovered: set[Atom] = set()
            for fact in target.facts:
                self._fact_covers[fact] = set()
                self._uncovered.add(fact)
            for hom in self._homs:
                for fact in hom.covered:
                    self._cover_add(fact, hom)
            self._pipelines: list[_CoveringPipeline] = []
            self._refresh_pipelines(target, deadline, full=True)

    # -- public surface ------------------------------------------------------------------

    @property
    def target(self) -> Instance:
        """The current target instance the state is maintained for."""
        return self._target

    @property
    def mapping(self) -> Mapping:
        return self._mapping

    @property
    def hom_count(self) -> int:
        return len(self._homs)

    @property
    def candidates(self) -> list[RecoveryCandidate]:
        """All recovery candidates, in the cold enumeration order."""
        with self._lock:
            return [c for p in self._pipelines for c in p.candidates]

    @property
    def recoveries(self) -> list[Instance]:
        """The Definition 9 result: deduplicated recovery instances."""
        with self._lock:
            return self._recoveries_locked()

    def _recoveries_locked(self) -> list[Instance]:
        out: list[Instance] = []
        seen: set[Instance] = set()
        for pipe in self._pipelines:
            for cand in pipe.candidates:
                recovery = cand.recovery
                if recovery not in seen:
                    seen.add(recovery)
                    out.append(recovery)
        return out

    def apply_delta(
        self,
        *,
        add: Iterable[Atom] = (),
        remove: Iterable[Atom] = (),
        deadline: Optional[Deadline] = None,
    ) -> Instance:
        """Evolve the target and advance the pipeline; returns the child.

        A delta that nets out to nothing returns the current target
        unchanged and costs nothing.
        """
        with self._lock, TRACER.span("incremental.apply_delta", aggregate=True):
            child = self._target.evolve(add=add, remove=remove)
            if child is self._target:
                return child
            lineage = child.lineage
            added, removed = lineage.added, lineage.removed
            METRICS.inc("incremental_deltas")
            carry_forward_plans(child)
            self._target = child
            self._nonground += sum(not f.is_ground for f in added) - sum(
                not f.is_ground for f in removed
            )
            with TRACER.span("incremental.hom_maintenance", aggregate=True):
                dead: set[TargetHomomorphism] = set()
                for fact in removed:
                    dead.update(self._fact_covers.get(fact, ()))
                for fact in removed:
                    self._cover_drop_fact(fact)
                for hom in dead:
                    self._retire_hom(hom)
                for fact in added:
                    self._fact_covers[fact] = set()
                    self._uncovered.add(fact)
                new_homs: list[TargetHomomorphism] = []
                for ti, tgd in enumerate(self._tgds):
                    head_vars = self._head_vars[ti]
                    for sub in delta_restricted_homomorphisms(
                        tgd.head,
                        child,
                        added,
                        project=tgd.head_variables,
                        deadline=deadline,
                    ):
                        key = (tgd, tuple(sub.image(v) for v in head_vars))
                        if key in self._hom_keys:
                            continue
                        hom = TargetHomomorphism(tgd, sub)
                        self._admit_hom(hom, key)
                        new_homs.append(hom)
                if dead:
                    METRICS.inc("incremental_homs_retired", len(dead))
                if new_homs:
                    METRICS.inc("incremental_homs_admitted", len(new_homs))
            self._refresh_pipelines(
                child,
                deadline,
                added=added,
                removed=removed,
                new_homs=new_homs,
                dead_homs=dead,
            )
            return child

    def certain(
        self, query: Query, deadline: Optional[Deadline] = None
    ) -> set[tuple[Term, ...]]:
        """Certain answers over the maintained recoveries.

        Matches :func:`~repro.core.certain.certain_answer` on the
        current target: the intersection of the query's null-free
        answers across the deduplicated recoveries, raising
        :class:`~repro.errors.NotRecoverableError` when there are none.
        """
        with self._lock, TRACER.span("incremental.certain", aggregate=True):
            ucq = as_ucq(query)
            answers: Optional[set[tuple[Term, ...]]] = None
            seen: set[Instance] = set()
            for pipe in self._pipelines:
                for cand in pipe.candidates:
                    recovery = cand.recovery
                    if recovery in seen:
                        continue
                    seen.add(recovery)
                    if pipe.fast and recovery is pipe.backward:
                        current = pipe.answer_set(ucq, deadline)
                    else:
                        current = ucq.certain_evaluate(recovery, deadline)
                    if answers is None:
                        answers = set(current)
                    else:
                        answers &= current
                    if not answers:
                        return answers
            if answers is None:
                raise NotRecoverableError(
                    "target instance is not valid for recovery under the mapping"
                )
            return answers

    # -- HOM maintenance -----------------------------------------------------------------

    def _sort_key(self, hom: TargetHomomorphism):
        # hom_set sorts by (name, repr) with Python's stable sort, so
        # equal keys keep tgd enumeration order; the explicit index
        # tiebreak reproduces that total order under bisect insertion.
        return (
            hom.tgd.name or "",
            repr(hom.substitution),
            self._tgd_index[hom.tgd],
        )

    def _hom_key(self, hom: TargetHomomorphism):
        return (
            hom.tgd,
            tuple(hom.substitution.image(v) for v in self._hv_by_tgd[hom.tgd]),
        )

    def _admit_hom(self, hom: TargetHomomorphism, key) -> None:
        sort_key = self._sort_key(hom)
        i = bisect_left(self._hom_sort, sort_key)
        self._hom_sort.insert(i, sort_key)
        self._homs.insert(i, hom)
        self._hom_keys.add(key)
        for fact in hom.covered:
            self._cover_add(fact, hom)

    def _retire_hom(self, hom: TargetHomomorphism) -> None:
        self._hom_keys.discard(self._hom_key(hom))
        sort_key = self._sort_key(hom)
        i = bisect_left(self._hom_sort, sort_key)
        while self._homs[i] != hom:
            i += 1
        del self._homs[i]
        del self._hom_sort[i]
        for fact in hom.covered:
            if fact in self._fact_covers:
                self._cover_remove(fact, hom)
        if self._private.pop(hom, 0):
            self._nprivate -= 1

    # -- Theorem 6 support counting ------------------------------------------------------

    def _priv_inc(self, hom: TargetHomomorphism) -> None:
        count = self._private.get(hom, 0)
        self._private[hom] = count + 1
        if not count:
            self._nprivate += 1

    def _priv_dec(self, hom: TargetHomomorphism) -> None:
        count = self._private.get(hom, 0)
        if count > 1:
            self._private[hom] = count - 1
        elif count == 1:
            del self._private[hom]
            self._nprivate -= 1

    def _cover_add(self, fact: Atom, hom: TargetHomomorphism) -> None:
        entry = self._fact_covers[fact]
        entry.add(hom)
        n = len(entry)
        if n == 1:
            self._uncovered.discard(fact)
            self._priv_inc(hom)
        elif n == 2:
            other = next(iter(entry - {hom}))
            self._priv_dec(other)

    def _cover_remove(self, fact: Atom, hom: TargetHomomorphism) -> None:
        entry = self._fact_covers[fact]
        entry.discard(hom)
        if not entry:
            self._uncovered.add(fact)
        elif len(entry) == 1:
            self._priv_inc(next(iter(entry)))

    def _cover_drop_fact(self, fact: Atom) -> None:
        entry = self._fact_covers.pop(fact, None)
        if entry is None:
            return
        if not entry:
            self._uncovered.discard(fact)
        elif len(entry) == 1:
            self._priv_dec(next(iter(entry)))

    # -- pipeline refresh ----------------------------------------------------------------

    def _fast_state(self) -> bool:
        """Whether the one-unique-covering incremental regime applies."""
        if not self._fast_mapping:
            return False
        if self._uncovered or self._nprivate != len(self._homs):
            return False
        if self._constraints:
            pool = self._homs if self._sub_mode == "refute" else None
            return models_all(tuple(self._homs), self._constraints, pool)
        return True

    def _refresh_pipelines(
        self,
        target: Instance,
        deadline: Optional[Deadline],
        *,
        full: bool = False,
        added: frozenset[Atom] = frozenset(),
        removed: frozenset[Atom] = frozenset(),
        new_homs: Sequence[TargetHomomorphism] = (),
        dead_homs: Iterable[TargetHomomorphism] = (),
    ) -> None:
        with TRACER.span("incremental.pipeline", aggregate=True):
            if self._uncovered:
                # Some fact is uncoverable: no covering exists, the
                # target is not valid for recovery (Theorem 2's easy
                # direction), and the cold enumeration yields nothing.
                self._pipelines = []
                METRICS.inc("incremental_uncoverable")
                return
            if self._fast_state():
                covering = tuple(self._homs)
                pipe = (
                    self._pipelines[0]
                    if len(self._pipelines) == 1 and self._pipelines[0].fast
                    else None
                )
                if pipe is None or full:
                    self._pipelines = [
                        _CoveringPipeline.fast_bootstrap(
                            self, covering, target, deadline
                        )
                    ]
                else:
                    pipe.refresh(
                        self,
                        covering,
                        target,
                        added,
                        removed,
                        new_homs,
                        dead_homs,
                        deadline,
                    )
                if not full:
                    METRICS.inc("incremental_fast_deltas")
                return
            self._rebuild_cold(target, deadline)
            if not full:
                METRICS.inc("incremental_cold_rebuilds")

    def _rebuild_cold(
        self, target: Instance, deadline: Optional[Deadline]
    ) -> None:
        """Recompute this epoch's pipelines via the cold enumeration."""
        # The cold enumeration starts from HOM(Σ, J): hand it the
        # maintained set instead of recomputing it.
        seed_hom_set(self._mapping, target, list(self._homs))
        pipelines: list[_CoveringPipeline] = []
        current: Optional[_CoveringPipeline] = None
        for cand in inverse_chase_candidates(
            self._mapping,
            target,
            cover_mode=self._cover_mode,
            subsumption_mode=self._sub_mode_raw,
            subsumption=self._sub_arg,
            verify_justification=self._verify,
            deadline=deadline,
        ):
            if current is None or current.covering != cand.covering:
                current = _CoveringPipeline.generic(
                    cand.covering, cand.backward_instance, cand.forward_instance
                )
                pipelines.append(current)
            current.candidates.append(cand)
        self._pipelines = pipelines
