"""Certain answers over recovery sets (Section 3, Definition 4).

``CERT(Q, Sigma, J)`` is the intersection of the null-free answers of
``Q`` over all recoveries of ``J``.  By Theorem 2 the finite set
``Chase^{-1}(Sigma, J)`` is a UCQ-universal recovery, so for any UCQ
the intersection over that set equals the certain answer; this module
implements exactly that.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..data.instances import Instance
from ..data.terms import Term
from ..observability.metrics import METRICS
from ..observability.spans import TRACER
from ..errors import BudgetExceededError, DeadlineExceededError, NotRecoverableError
from ..logic.queries import Query, UnionOfConjunctiveQueries, as_ucq
from ..logic.tgds import Mapping
from ..resilience import AnytimeResult, Deadline
from .covers import CoverMode
from .inverse_chase import BudgetMode, ResilienceMode, inverse_chase
from .subsumption import SubsumptionConstraint


def certain_answers(
    query: Query,
    instances: Iterable[Instance],
    *,
    deadline: Optional[Deadline] = None,
) -> set[tuple[Term, ...]]:
    """The intersection of null-free answers over a set of instances.

    Raises :class:`ValueError` on an empty collection: the certain
    answer over no instances is undefined (it would be "everything").
    The intersection folds results in input order and exits early once
    it is empty.

    ``deadline`` is checked between instances and threaded down into
    the join kernel; expiry raises
    :class:`~repro.errors.DeadlineExceededError` with the number of
    instances folded so far in ``progress``.  (A partial intersection
    over-approximates the certain answer, so it is *not* returned.)
    """
    ucq = as_ucq(query)
    result: Optional[set[tuple[Term, ...]]] = None
    folded = 0
    answer_sets = (ucq.certain_evaluate(inst, deadline) for inst in instances)
    for answers in TRACER.traced_iter("certain.evaluate", answer_sets):
        if deadline is not None:
            deadline.check("certain answers", {"instances_folded": folded})
        result = answers if result is None else (result & answers)
        folded += 1
        if not result:
            return set()
    if result is None:
        raise ValueError("certain answers over an empty set of instances")
    return result


def certain_answer(
    query: Query,
    mapping: Mapping,
    target: Instance,
    *,
    cover_mode: CoverMode = "minimal",
    subsumption: Optional[Sequence[SubsumptionConstraint]] = None,
    max_covers: Optional[int] = None,
    max_recoveries: Optional[int] = None,
    verify_justification: bool = True,
    deadline: Optional[Deadline] = None,
    mode: ResilienceMode = "raise",
    on_budget: BudgetMode = "raise",
    checkpoint=None,
):
    """``CERT(Q, Sigma, J)`` computed through the inverse chase.

    ``verify_justification`` is forwarded to
    :func:`~repro.core.inverse_chase.inverse_chase`; disable it only
    for targets known to be valid for recovery (e.g. honestly exchanged
    ones), where the Definition 2 oracle is redundant work.
    ``checkpoint`` forwards a
    :class:`~repro.resilience.CheckpointManager` to the inverse-chase
    phase, making the expensive enumeration crash-safe and resumable;
    the query-evaluation phase recomputes from the restored recoveries.

    Resource governance: ``deadline`` bounds both phases under one
    budget.  With ``mode="raise"`` (default) expiry raises
    :class:`~repro.errors.DeadlineExceededError`.  With
    ``mode="degrade"`` the call returns an
    :class:`~repro.resilience.AnytimeResult` instead: ``exact`` when
    the full pipeline finished, otherwise the answers of the query on
    Theorem 7's sound source instance (computable in PTIME), tagged
    ``sound-incomplete`` — every returned tuple is a certain answer,
    but some certain answers may be missing.  Note the degraded
    direction is deliberately *not* the intersection over the partial
    recovery set: intersecting over a subset of the recoveries
    over-approximates, which would be unsound.

    :raises NotRecoverableError: when ``J`` is not valid for recovery
        under ``Sigma`` (the recovery set is empty and the certain
        answer undefined).
    """
    if mode not in ("raise", "degrade"):
        raise ValueError(f"unknown resilience mode {mode!r}")

    def full_pipeline() -> set[tuple[Term, ...]]:
        recoveries = inverse_chase(
            mapping,
            target,
            cover_mode=cover_mode,
            subsumption=subsumption,
            max_covers=max_covers,
            max_recoveries=max_recoveries,
            verify_justification=verify_justification,
            deadline=deadline,
            on_budget=on_budget,
            checkpoint=checkpoint,
        )
        if not recoveries:
            raise NotRecoverableError(
                "target instance is not valid for recovery under the mapping"
            )
        return certain_answers(query, recoveries, deadline=deadline)

    if mode == "raise":
        return full_pipeline()
    try:
        return AnytimeResult(
            full_pipeline(),
            "exact",
            "enumeration",
            detail="full certainty pipeline completed in budget",
        )
    except (BudgetExceededError, DeadlineExceededError) as error:
        METRICS.inc("degradations")
        # Theorem 7: UCQ answers on the sound source instance are
        # certain; computing it is polynomial, so no deadline needed.
        from .tractable import sound_ucq_instance

        with TRACER.span("resilience.rung.tractable"):
            sound = sound_ucq_instance(mapping, target)
            answers = as_ucq(query).certain_evaluate(sound)
        progress = dict(getattr(error, "progress", {}))
        progress["degraded_because"] = str(error)
        return AnytimeResult(
            answers,
            "sound-incomplete",
            "tractable",
            detail=(
                "pipeline expired; answers evaluated on Theorem 7's "
                "sound source instance — every tuple is certain, some "
                "certain tuples may be missing"
            ),
            progress=progress,
        )


def certain_boolean(
    query: Query,
    mapping: Mapping,
    target: Instance,
    **options,
) -> bool:
    """Certain truth of a Boolean query: true in every recovery."""
    ucq = as_ucq(query)
    if not ucq.is_boolean:
        raise ValueError("certain_boolean expects a Boolean query")
    # ``ucq`` is already a UCQ; certain_answer's own as_ucq call is the
    # identity on it, so the conversion happens exactly once.
    return () in certain_answer(ucq, mapping, target, **options)
