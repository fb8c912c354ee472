"""The inverse chase ``Chase^{-1}(Sigma, J)`` (Definition 9, Theorems 1-2).

Given a mapping ``Sigma`` and a target instance ``J``, the inverse
chase produces a finite set of source instances that is a
UCQ-universal recovery of ``J`` (Theorem 2).  The computation follows
Definition 9 step by step:

1. compute ``HOM(Sigma, J)``;
2. enumerate coverings ``H in COV(Sigma, J)``;
3. keep the coverings modeling the subsumption constraints
   ``SUB(Sigma)``;
4. for each surviving ``H``, chase backwards:
   ``I_H = Chase_H(Sigma^{-1}, J)``;
5. chase forwards again: ``J_H = Chase(Sigma, I_H)``;
6. for every homomorphism ``g : J_H -> J`` that is the identity on
   ``dom(J)``, emit the recovery ``g(I_H)``.

Step 6 acts as a soundness gate: a covering for which no ``g`` exists
yields no recovery.  Definition 9 additionally *presupposes* that
``J`` is valid for recovery; without that hypothesis the literal
construction can emit non-recoveries (e.g. ``Sigma = {S(x) -> T(x,y)}``
with ``J = {T(a,b), T(a,c)}``, where two covering homomorphisms share
one frontier binding and collapse to a single backward fact that
cannot witness both target tuples).  We therefore verify every
candidate against the Definition 2 oracle before emitting it
(``verify_justification``), which makes Theorem 1 hold with no
hypothesis on ``J`` and makes an empty result *characterize*
invalidity.  The converse failure also exists: a candidate can fail
the gate *only* because a dangling backward null (a body-only variable
of a reversed tgd, never constrained by any ``g``) asserts more than
``J`` supports, while a grounding of that null is a genuine recovery.
Dropping the candidate outright would leave a valid ``J`` with an
empty recovery set, so the gate retries bounded specializations of the
dangling nulls into ``dom(J)`` before giving up
(:func:`_dangling_completions`).

By default coverings are enumerated in ``minimal`` mode; see
:mod:`repro.core.covers` for why this preserves UCQ certain answers,
and benchmark E14 for the measured effect.
"""

from __future__ import annotations

from itertools import islice, product
from typing import Iterator, Literal, Optional, Sequence

from ..data.instances import Instance
from ..data.terms import NullFactory, Term
from ..observability.metrics import METRICS
from ..observability.spans import TRACER
from ..errors import BudgetExceededError, DeadlineExceededError, NotRecoverableError
from ..logic.homomorphisms import instance_homomorphisms
from ..logic.tgds import Mapping
from ..resilience import AnytimeResult, Deadline
from ..resilience.checkpoint import (
    CheckpointManager,
    instance_fingerprint,
    mapping_fingerprint,
    options_fingerprint,
)
from ..chase.standard import chase, chase_restricted
from .covers import CoverMode, enumerate_covers
from .hom_sets import TargetHomomorphism, hom_set, seed_hom_set
from .semantics import is_justified
from .subsumption import SubsumptionConstraint, minimal_subsumers, models_all


SubsumptionMode = Literal["auto", "strict", "refute", "off"]
BudgetMode = Literal["raise", "truncate"]
ResilienceMode = Literal["raise", "degrade"]


class RecoveryCandidate:
    """One recovery with its full provenance through Definition 9."""

    __slots__ = ("_covering", "_backward", "_forward", "_g", "_recovery")

    def __init__(
        self,
        covering: tuple[TargetHomomorphism, ...],
        backward: Instance,
        forward: Instance,
        g,
        recovery: Instance,
    ):
        object.__setattr__(self, "_covering", covering)
        object.__setattr__(self, "_backward", backward)
        object.__setattr__(self, "_forward", forward)
        object.__setattr__(self, "_g", g)
        object.__setattr__(self, "_recovery", recovery)

    @property
    def covering(self) -> tuple[TargetHomomorphism, ...]:
        """The covering ``H`` the recovery was built from."""
        return self._covering

    @property
    def backward_instance(self) -> Instance:
        """``I_H = Chase_H(Sigma^{-1}, J)``."""
        return self._backward

    @property
    def forward_instance(self) -> Instance:
        """``J_H = Chase(Sigma, I_H)``."""
        return self._forward

    @property
    def homomorphism(self):
        """The finishing homomorphism ``g : J_H -> J``.

        Restricted to the nulls of ``I_H``: ``g`` is the identity on
        ``dom(J)``, and the images of the fresh nulls the forward chase
        introduced cannot affect ``g(I_H)``, so they are not recorded.
        """
        return self._g

    @property
    def recovery(self) -> Instance:
        """The emitted source instance ``g(I_H)``."""
        return self._recovery

    def __repr__(self) -> str:
        return f"RecoveryCandidate({self._recovery!r})"

    def __reduce__(self):
        return (
            RecoveryCandidate,
            (self._covering, self._backward, self._forward, self._g, self._recovery),
        )

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("RecoveryCandidate is immutable")


def _unpack_candidate(
    row: tuple, hom_tuple: Sequence[TargetHomomorphism]
) -> RecoveryCandidate:
    """Rebuild a candidate from its snapshot row.

    The covering entries are indices into the snapshot's ``hom_set``
    tuple (homomorphism objects only as a defensive fallback), so the
    rebuilt covering is made of the *same* objects the resume path just
    seeded into the hom-set cache — preserving the identity sharing an
    uninterrupted run would have.
    """
    cover, backward, forward, g, recovery = row
    covering = tuple(
        hom_tuple[h] if isinstance(h, int) else h for h in cover
    )
    return RecoveryCandidate(covering, backward, forward, g, recovery)


#: Bound on the specialization search of :func:`_dangling_completions`:
#: dangling nulls are rare (one per body-only variable of a reversed
#: tgd) and the bound only forgoes a completeness *repair*, never
#: soundness.
_COMPLETION_LIMIT = 512


def _dangling_completions(
    recovery: Instance, target_domain: set[Term]
) -> Iterator[dict[Term, Term]]:
    """Specializations of a failing candidate's dangling backward nulls.

    ``Chase_H(Sigma^{-1}, J)`` invents a fresh null for every body-only
    variable of a reversed tgd.  Such a null never reaches the forward
    chase, so the finishing homomorphisms ``g : J_H -> J`` leave it
    free — yet left free it asserts a source fact for *every* value,
    and the chase of that fact can force target facts ``J`` does not
    contain, failing the ``(I, J) |= Sigma`` half of the justification
    gate even when a grounded variant of the same candidate is a
    genuine recovery.  (Example: ``S0(v0), S1(v0,v1) -> T0(v1)`` and
    ``S1(v0,v1) -> T1(v0,v0)`` on ``J = {T0(a), T1(a,a)}`` produce the
    candidate ``{S0(a), S1(a,a), S1(a,?N)}`` whose free ``?N`` demands
    ``T0(?N)``; the specialization ``?N -> a`` is the recovery.)

    Yields the bounded specializations of those nulls into ``dom(J)``,
    most-specialized first in deterministic order; the caller re-checks
    each against the Definition 2 oracle, so every emission stays
    sound.
    """
    free = sorted(n for n in recovery.nulls() if n not in target_domain)
    if not free:
        return
    values = sorted(target_domain)
    if not values or (len(values) + 1) ** len(free) > _COMPLETION_LIMIT:
        return
    for choice in product([*values, None], repeat=len(free)):
        spec = {n: v for n, v in zip(free, choice) if v is not None}
        if spec:
            yield spec


def inverse_chase_candidates(
    mapping: Mapping,
    target: Instance,
    *,
    cover_mode: CoverMode = "minimal",
    subsumption_mode: SubsumptionMode = "auto",
    subsumption: Optional[Sequence[SubsumptionConstraint]] = None,
    max_covers: Optional[int] = None,
    max_recoveries: Optional[int] = None,
    verify_justification: bool = True,
    deadline: Optional[Deadline] = None,
    on_budget: BudgetMode = "raise",
    checkpoint: Optional[CheckpointManager] = None,
) -> Iterator[RecoveryCandidate]:
    """Yield recovery candidates with provenance (lazy Definition 9).

    :param cover_mode: ``"minimal"`` (default, UCQ-equivalent) or
        ``"all"`` (the literal Definition 9).
    :param subsumption_mode: how ``SUB(Sigma)`` filters coverings.
        ``"strict"`` is the literal Definition 8 check within ``H``
        (the paper's algorithm — pair it with ``cover_mode="all"`` for
        the full Definition 9; with minimal covers it can prune a
        covering whose sound SUB-closure is non-minimal and therefore
        never enumerated).  ``"refute"`` rejects ``H`` only when no
        covering extending ``H`` can satisfy SUB — safe with minimal
        covers.  ``"off"`` skips the filter entirely (ablation E15);
        the justification gate still guarantees soundness, at the
        price of extra homomorphically-redundant recoveries.
        ``"auto"`` (default) picks ``"refute"`` for minimal covers and
        ``"strict"`` for all covers.
    :param subsumption: a precomputed ``SUB(Sigma)`` to reuse across
        calls with the same mapping.
    :param max_covers: budget on enumerated coverings.
    :param max_recoveries: budget on distinct emitted recoveries
        (:class:`~repro.errors.BudgetExceededError` beyond it);
        candidates repeating an already-emitted recovery never count.
    :param verify_justification: verify each candidate against the
        Definition 2 oracle before emitting it (see the module
        docstring).  Disable only for targets known to be valid for
        recovery — e.g. honestly exchanged benchmark targets — where
        the check is redundant work.
    :param deadline: a cooperative :class:`~repro.resilience.Deadline`
        checked inside the covering enumeration, the per-covering
        pipelines and the final homomorphism search.  Expiry raises
        :class:`~repro.errors.DeadlineExceededError` whose ``progress``
        records coverings seen and recoveries emitted so far.
    :param on_budget: what hitting ``max_covers``/``max_recoveries``
        does — ``"raise"`` (the default, a
        :class:`~repro.errors.BudgetExceededError` with the partial
        items attached) or ``"truncate"`` (end the iteration quietly
        with what was produced in budget).
    :param checkpoint: a
        :class:`~repro.resilience.checkpoint.CheckpointManager`
        persisting resumable state at surviving-covering boundaries.
        With ``resume=True`` the manager validates an existing snapshot
        against the live mapping/target/options fingerprints; on a
        match the already-emitted candidates are replayed (and their
        semantic counters merged) before enumeration continues past the
        last completed covering — the yielded sequence is bit-identical
        to an uninterrupted run.  A corrupt or mismatched snapshot
        falls back to a cold start.
    """
    resume_payloads = None
    if checkpoint is not None:
        resume_payloads = checkpoint.begin(
            "inverse_chase",
            scope={
                "mapping_fp": mapping_fingerprint(mapping),
                "target_fp": instance_fingerprint(target),
                "options_fp": options_fingerprint(
                    {
                        "cover_mode": cover_mode,
                        "subsumption_mode": subsumption_mode,
                        "subsumption": None
                        if subsumption is None
                        else sorted(repr(c) for c in subsumption),
                        "max_covers": max_covers,
                        "max_recoveries": max_recoveries,
                        "verify_justification": verify_justification,
                        "on_budget": on_budget,
                    }
                ),
                "epoch": target.epoch,
            },
        )
        if resume_payloads is not None:
            # Seed the hom-set cache before any recomputation: the
            # snapshot's fingerprints were just validated, so its
            # hom-set is known to belong to this pair.
            saved_homs = resume_payloads.get("homs") or {}
            seed_hom_set(mapping, target, saved_homs.get("hom_set") or ())
    with TRACER.span("inverse_chase.hom_set"):
        homs = hom_set(mapping, target, deadline)
    if subsumption_mode == "auto":
        subsumption_mode = "refute" if cover_mode == "minimal" else "strict"
    constraints: Sequence[SubsumptionConstraint] = ()
    if subsumption_mode != "off":
        constraints = (
            subsumption if subsumption is not None else minimal_subsumers(mapping)
        )
    target_domain = target.domain()
    emitted = 0
    # The recoveries emitted so far, which ``max_recoveries`` bounds;
    # ``emitted`` counts candidates, duplicates included.
    distinct: set[Instance] = set()
    covers_seen = 0
    conclusion_pool = homs if subsumption_mode == "refute" else None
    # Distinct (covering, g) pairs frequently produce the same recovery
    # (homomorphisms differing only on forward-chase nulls); cache the
    # justification verdict per recovery instance.  The memo never
    # leaves this call, so a plain dict suffices.
    justified_cache: dict[Instance, bool] = {}

    # -- checkpoint/resume state --------------------------------------
    # ``skip_coverings`` surviving coverings were fully processed by a
    # previous lineage: re-walk the (cheap, deterministic) enumeration
    # past them and skip their (dominant) per-covering pipelines.
    # ``checkpointed`` accumulates every candidate yielded this lineage
    # (replayed + new); ``boundary`` is the persistable state as of the
    # last *completed* covering — saves never include a half-processed
    # covering, so a resume can never replay part of one and then
    # re-derive it.
    skip_coverings = 0
    replay: list[RecoveryCandidate] = []
    resume_complete = False
    if resume_payloads is not None:
        saved_enum = resume_payloads.get("enum") or {}
        saved_hom_tuple = (resume_payloads.get("homs") or {}).get("hom_set") or ()
        checkpoint.merge_counters(resume_payloads.get("counters"))
        justified_cache.update(saved_enum.get("verdicts") or {})
        saved_progress = resume_payloads.get("progress") or {}
        skip_coverings = int(saved_progress.get("coverings_done", 0))
        replay = [
            _unpack_candidate(row, saved_hom_tuple)
            for row in saved_enum.get("candidates") or ()
        ]
        resume_complete = bool(resume_payloads.get("__complete__"))
    coverings_done = 0
    checkpointed: list[RecoveryCandidate] = []
    boundary: Optional[dict] = None

    def mark_boundary() -> None:
        # O(1) on the hot per-covering path: ``checkpointed`` is
        # append-only and verdicts settle in insertion order, so prefix
        # lengths fully determine the state as of this boundary.  The
        # actual payload lists are materialized in save_checkpoint,
        # which runs on the (rare) cadence rather than every covering.
        nonlocal boundary
        boundary = {
            "progress": {
                "coverings_done": coverings_done,
                "emitted": emitted,
                "covers_seen": covers_seen,
            },
            "n_candidates": len(checkpointed),
            "n_verdicts": len(justified_cache),
            "counters": checkpoint.counters_delta(),
        }

    # Position of each hom in ``homs`` — built lazily at the first save
    # that has candidates to pack.  ``homs`` is fixed for the whole
    # enumeration, so the index assignment is stable across saves and
    # matches the order of the snapshot's ``hom_set`` tuple.
    hom_pos: dict[TargetHomomorphism, int] = {}

    def pack_candidate(candidate: RecoveryCandidate) -> tuple:
        # A covering is drawn from ``homs``, so its entries serialize as
        # plain indices into the hom-set record — re-pickling the (large)
        # homomorphism objects per candidate would dominate encode time.
        # The object itself is kept as a fallback for the (never expected)
        # case of a hom outside the enumeration pool.
        cover = tuple(hom_pos.get(h, h) for h in candidate.covering)
        return (
            cover,
            candidate.backward_instance,
            candidate.forward_instance,
            candidate.homomorphism,
            candidate.recovery,
        )

    def save_checkpoint(*, complete: bool = False) -> None:
        # The bulk state travels as TWO lazy, token-guarded records.
        # ``homs`` (the hom-set) is fixed for the whole enumeration, so
        # after the first cadenced save later saves — including the
        # final complete-save — reuse its encoded line verbatim.
        # ``enum`` holds what actually grows (packed candidates +
        # verdicts); its verdict keys are the candidates' recovery
        # instances, so keeping those two in one pickle stores each
        # shared subgraph once.
        n_candidates = boundary["n_candidates"]
        n_verdicts = boundary["n_verdicts"]

        def homs_state() -> dict:
            return {"hom_set": tuple(homs)}

        def enum_state() -> dict:
            if not hom_pos and homs:
                hom_pos.update((h, i) for i, h in enumerate(homs))
            return {
                "candidates": [
                    pack_candidate(c) for c in checkpointed[:n_candidates]
                ],
                "verdicts": dict(
                    islice(justified_cache.items(), n_verdicts)
                ),
            }

        payloads = {
            "progress": boundary["progress"],
            "counters": boundary["counters"],
            "homs": homs_state,
            "enum": enum_state,
        }
        tokens = {
            "homs": len(homs),
            "enum": (n_candidates, n_verdicts),
        }
        checkpoint.save(payloads, complete=complete, tokens=tokens)

    def covering_finished() -> None:
        nonlocal coverings_done
        if checkpoint is None:
            return
        coverings_done += 1
        mark_boundary()
        if checkpoint.due():
            save_checkpoint()

    def justified(candidate: Instance) -> bool:
        with TRACER.span("inverse_chase.justify", aggregate=True):
            verdict = justified_cache.get(candidate)
            if verdict is not None:
                METRICS.inc("justification_hits")
                return verdict
            METRICS.inc("justification_misses")
            verdict = is_justified(mapping, candidate, target, deadline=deadline)
            justified_cache[candidate] = verdict
            return verdict

    def progress() -> dict:
        return {"covers_seen": covers_seen, "recoveries_emitted": emitted}

    def enrich(error) -> None:
        """Stamp the running totals onto an escaping resource error."""
        error.progress.setdefault("covers_seen", covers_seen)
        error.progress.setdefault("recoveries_emitted", emitted)

    def surviving_coverings() -> Iterator[tuple[TargetHomomorphism, ...]]:
        nonlocal covers_seen, skip_coverings
        coverings = enumerate_covers(
            homs, target, mode=cover_mode, limit=max_covers, deadline=deadline
        )
        while True:
            try:
                covering = next(coverings)
            except StopIteration:
                return
            except BudgetExceededError:
                if on_budget == "truncate":
                    return
                raise
            covers_seen += 1
            if subsumption_mode != "off" and not models_all(
                covering, constraints, conclusion_pool
            ):
                continue
            if skip_coverings > 0:
                # Already fully processed by the lineage that wrote the
                # snapshot; its candidates were replayed up front.
                skip_coverings -= 1
                continue
            yield covering

    try:
        if checkpoint is not None:
            # Replay the candidates the previous lineage already
            # emitted, in their original order; their metric increments
            # arrived via merge_counters, so none are re-counted here.
            for candidate in replay:
                emitted += 1
                distinct.add(candidate.recovery)
                checkpointed.append(candidate)
                yield candidate
            coverings_done = skip_coverings
            mark_boundary()
            if resume_complete:
                # The snapshot covers the whole enumeration; the file
                # on disk already says so — nothing left to compute.
                return
        # The enumeration stays lazy per homomorphism g: callers like
        # is_valid_for_recovery pull a single candidate and stop.
        for covering in TRACER.traced_iter(
            "inverse_chase.covers", surviving_coverings()
        ):
            METRICS.inc("coverings_evaluated")
            if deadline is not None:
                deadline.check("inverse chase", progress())
            factory = NullFactory()
            factory.avoid(target_domain)
            with TRACER.span("inverse_chase.chase", aggregate=True):
                backward = chase_restricted(
                    [hom.reverse_trigger for hom in covering], target, factory
                ).result
                forward = chase(mapping, backward, factory).result
            # Definition 9 applies g to the backward instance, so only g's
            # behaviour on the backward nulls matters: the images of the
            # fresh nulls the forward chase introduced are projected away.
            # Searching with that projection lets the join kernel dedup per
            # component and never materialize the collapsed bindings.
            for g in TRACER.traced_iter(
                "inverse_chase.finish",
                instance_homomorphisms(
                    forward,
                    target,
                    identity_on=target_domain,
                    project=backward.nulls(),
                    deadline=deadline,
                ),
            ):
                recovery = backward.apply(g)
                if verify_justification and not justified(recovery):
                    # A failing candidate may still ground to a genuine
                    # recovery when its only defect is a dangling
                    # backward null (see _dangling_completions).
                    for spec in _dangling_completions(recovery, target_domain):
                        completed = recovery.apply(spec)
                        if justified(completed):
                            g, recovery = g.extend(spec), completed
                            break
                    else:
                        continue
                emitted += 1
                METRICS.inc("recoveries_emitted")
                if max_recoveries is not None:
                    distinct.add(recovery)
                    if len(distinct) > max_recoveries:
                        if on_budget == "truncate":
                            return
                        raise BudgetExceededError(
                            "inverse chase recoveries", max_recoveries
                        )
                candidate = RecoveryCandidate(
                    covering, backward, forward, g, recovery
                )
                checkpointed.append(candidate)
                yield candidate
            covering_finished()
        if checkpoint is not None:
            save_checkpoint(complete=True)
    except (BudgetExceededError, DeadlineExceededError) as error:
        enrich(error)
        if checkpoint is not None and boundary is not None:
            # Persist the last completed covering so the interrupted
            # work is resumable; failure to save must not mask the
            # resource error itself.
            try:
                save_checkpoint()
            except OSError:
                pass
        raise


def inverse_chase(
    mapping: Mapping,
    target: Instance,
    *,
    cover_mode: CoverMode = "minimal",
    subsumption_mode: SubsumptionMode = "auto",
    subsumption: Optional[Sequence[SubsumptionConstraint]] = None,
    max_covers: Optional[int] = None,
    max_recoveries: Optional[int] = None,
    verify_justification: bool = True,
    deadline: Optional[Deadline] = None,
    mode: ResilienceMode = "raise",
    on_budget: BudgetMode = "raise",
    checkpoint: Optional[CheckpointManager] = None,
):
    """``Chase^{-1}(Sigma, J)``: the deduplicated set of recoveries.

    Returns the empty list exactly when ``J`` is not valid for recovery
    under ``Sigma`` (Theorem 3's characterization).

    Resource governance (see :mod:`repro.resilience`):

    * ``deadline`` bounds the run cooperatively.  With the default
      ``mode="raise"``, expiry raises
      :class:`~repro.errors.DeadlineExceededError` whose ``partial``
      holds the deduplicated recoveries already produced and whose
      ``progress`` counts coverings seen / recoveries emitted.
    * ``mode="degrade"`` never raises on expiry; it walks the
      escalation ladder instead and returns an
      :class:`~repro.resilience.AnytimeResult` (which iterates like
      the plain list) tagged with what the answer is:

      1. the requested enumeration finished → ``exact``;
      2. ``cover_mode="all"`` expired → retry with minimal covers
         (UCQ-equivalent) under a restarted budget → ``exact``;
      3. recoveries were emitted before expiry → those —
         each passed the Definition 2 justification gate (when
         ``verify_justification`` is on), so every member is a genuine
         recovery — tagged ``sound-incomplete``;
      4. nothing emitted → the PTIME Section 6.1 constructions:
         Theorem 5's unique recovery when its preconditions hold
         (``exact`` for UCQ purposes), else Theorem 7's sound source
         instance from the maximal uniquely-covered subset
         (``sound-incomplete``).

    * ``on_budget="truncate"`` turns ``max_covers``/``max_recoveries``
      overruns into quiet truncation instead of
      :class:`~repro.errors.BudgetExceededError` (which, when raised,
      carries the partial recovery list too).
    * ``checkpoint`` persists resumable enumeration state at covering
      boundaries and, with ``resume=True``, continues a crashed run
      from its last snapshot (see
      :mod:`repro.resilience.checkpoint`).  Under ``mode="degrade"``
      only the first (requested) enumeration rung checkpoints — the
      later rungs are already the cheap fallbacks.
    """
    if mode not in ("raise", "degrade"):
        raise ValueError(f"unknown resilience mode {mode!r}")
    options = dict(
        subsumption_mode=subsumption_mode,
        subsumption=subsumption,
        max_covers=max_covers,
        max_recoveries=max_recoveries,
        verify_justification=verify_justification,
        on_budget=on_budget,
    )
    if mode == "degrade":
        return _degraded_inverse_chase(
            mapping,
            target,
            cover_mode=cover_mode,
            deadline=deadline,
            checkpoint=checkpoint,
            **options,
        )
    result: list[Instance] = []
    try:
        _collect_recoveries(
            mapping,
            target,
            result,
            cover_mode=cover_mode,
            deadline=deadline,
            checkpoint=checkpoint,
            **options,
        )
    except (BudgetExceededError, DeadlineExceededError) as error:
        # Hand the caller what was already produced: every entry passed
        # the justification gate, so the partial list is sound.
        error.partial = list(result)
        error.progress["recoveries_emitted"] = len(result)
        raise
    return result


def _collect_recoveries(
    mapping: Mapping,
    target: Instance,
    into: list[Instance],
    *,
    cover_mode: CoverMode,
    deadline: Optional[Deadline],
    checkpoint: Optional[CheckpointManager] = None,
    **options,
) -> list[Instance]:
    """Drain the candidate stream into ``into``, deduplicating.

    Appending into a caller-owned list (instead of returning one) is
    what lets the degradation ladder salvage partial progress when an
    exception interrupts the drain.
    """
    seen: set[Instance] = set(into)
    for candidate in inverse_chase_candidates(
        mapping,
        target,
        cover_mode=cover_mode,
        deadline=deadline,
        checkpoint=checkpoint,
        **options,
    ):
        if candidate.recovery not in seen:
            seen.add(candidate.recovery)
            into.append(candidate.recovery)
    return into


def _degraded_inverse_chase(
    mapping: Mapping,
    target: Instance,
    *,
    cover_mode: CoverMode,
    deadline: Optional[Deadline],
    checkpoint: Optional[CheckpointManager] = None,
    **options,
) -> AnytimeResult:
    """The escalation ladder behind ``inverse_chase(mode="degrade")``.

    Only the first rung — the enumeration the caller actually asked
    for — checkpoints: the later rungs exist to produce *some* answer
    quickly once that enumeration has already blown its budget, and a
    rung-specific snapshot would shadow the valuable one.
    """
    partial: list[Instance] = []
    first_error: Optional[Exception] = None
    try:
        with TRACER.span("resilience.rung.enumeration"):
            value = _collect_recoveries(
                mapping,
                target,
                partial,
                cover_mode=cover_mode,
                deadline=deadline,
                checkpoint=checkpoint,
                **options,
            )
        return AnytimeResult(
            list(value),
            "exact",
            "enumeration",
            detail=f"{cover_mode}-cover enumeration completed in budget",
        )
    except (BudgetExceededError, DeadlineExceededError) as error:
        first_error = error
        METRICS.inc("degradations")

    progress = dict(getattr(first_error, "progress", {}))
    progress["degraded_because"] = str(first_error)

    # Rung 2: the literal Definition 9 expired; minimal covers are
    # UCQ-equivalent (see repro.core.covers) and exponentially fewer.
    # The rung receives a restarted budget of the same size.
    if cover_mode != "minimal":
        try:
            with TRACER.span("resilience.rung.minimal-covers"):
                value = _collect_recoveries(
                    mapping,
                    target,
                    partial,
                    cover_mode="minimal",
                    deadline=deadline.restarted() if deadline is not None else None,
                    **options,
                )
            return AnytimeResult(
                list(value),
                "exact",
                "minimal-covers",
                detail=(
                    "full enumeration expired; minimal-cover enumeration "
                    "(UCQ-equivalent) completed under a restarted budget"
                ),
                progress=progress,
            )
        except (BudgetExceededError, DeadlineExceededError):
            METRICS.inc("degradations")

    # Rung 3: answer from the recoveries emitted before expiry.  With
    # verify_justification on (the default) each passed the
    # Definition 2 gate, so the set is sound — merely incomplete.
    if partial:
        return AnytimeResult(
            list(partial),
            "sound-incomplete",
            "partial-enumeration",
            detail=(
                f"enumeration expired after {len(partial)} verified "
                "recovery(ies); the set may be incomplete"
            ),
            progress=progress,
        )

    # Rung 4: nothing in budget — fall back to the polynomial
    # constructions of Section 6.1 on the maximal uniquely-covered
    # subset.  Imported here: tractable.py imports covers/hom_sets too,
    # and a module-level import would be cyclic.
    from .tractable import complete_ucq_recovery, sound_ucq_instance

    try:
        with TRACER.span("resilience.rung.tractable"):
            recovery = complete_ucq_recovery(
                mapping, target, subsumption=options.get("subsumption")
            )
        return AnytimeResult(
            [recovery],
            "exact",
            "tractable",
            detail=(
                "enumeration expired; Theorem 5 applies (quasi-guarded "
                "safe, unique covering) — the single recovery is "
                "UCQ-complete"
            ),
            progress=progress,
        )
    except (ValueError, NotRecoverableError):
        pass
    with TRACER.span("resilience.rung.tractable"):
        sound = sound_ucq_instance(mapping, target)
    value = [] if sound.is_empty else [sound]
    return AnytimeResult(
        value,
        "sound-incomplete",
        "tractable",
        detail=(
            "enumeration expired; Theorem 7's sound source instance "
            "from the maximal uniquely-covered subset (UCQ answers on "
            "it are certain, but it need not witness every target fact)"
        ),
        progress=progress,
    )
