"""Plan-cache warm keys for checkpoint/resume.

Compiled join plans are pure accelerators keyed on
``(canonical pattern key, target epoch)``.  Epochs are process-local,
so a restarted process starts with cold plan caches even when it
resumes an enumeration from a snapshot — and then pays the compile
cost again mid-pipeline, exactly where latency hurts.  A snapshot
therefore records *which* canonical keys were warm at save time
(:func:`collect_warm_keys`); the resume path recompiles them against
the live target up front (:func:`warm_plan_caches`), under the live
epoch.

Only the keys travel: a compiled plan holds fact tuples and row ids
bound to the process that built it, while the canonical key is a pure
value (relation names and canonical slots) that pickles cleanly and
stays meaningful across processes.  Warming is strictly best-effort —
a key that no longer compiles is skipped, never fatal — because the
caches rebuild lazily anyway.
"""

from __future__ import annotations

from typing import Optional

from ..data.instances import Instance
from ..observability.metrics import METRICS
from .plan import _PLAN_CACHE, compile_plan
from .vectorized import _VECTOR_PLAN_CACHE, compile_vector_plan


#: Warm keys above this many atoms are left out of snapshots.  A
#: canonical key the size of the whole instance (instance-level
#: homomorphism plans) would dominate the snapshot's bytes, and
#: recompiling it *up front* on resume front-loads the most expensive
#: canonicalization before any result is produced — for such plans the
#: lazy rebuild on first use is strictly better latency shaping.
WARM_KEY_ATOM_LIMIT = 256


def collect_warm_keys(target: Instance) -> dict:
    """The canonical plan keys currently compiled for ``target``.

    Returns ``{"object": [...], "vector": [...]}`` — the keys in the
    object-kernel and vectorized plan caches whose epoch matches the
    live target, excluding keys larger than
    :data:`WARM_KEY_ATOM_LIMIT`.  Entries for other instances are not
    recorded: the snapshot is scoped to one (mapping, target)
    computation.
    """
    epoch = target.epoch
    return {
        "object": [
            key
            for (key, ep) in _PLAN_CACHE.keys()
            if ep == epoch and len(key) <= WARM_KEY_ATOM_LIMIT
        ],
        "vector": [
            key
            for (key, ep) in _VECTOR_PLAN_CACHE.keys()
            if ep == epoch and len(key) <= WARM_KEY_ATOM_LIMIT
        ],
    }


def warm_cache_token() -> tuple:
    """A cheap value that changes whenever the plan caches may have.

    Miss counters double as insert counters, and entries only leave a
    cache on insert-driven eviction, ``clear`` or ``resize`` (which the
    lengths capture) — so an unchanged token means
    :func:`collect_warm_keys` would return what it returned last time.
    The checkpoint layer uses this to skip re-collecting (and
    re-serializing) warm keys between saves.
    """
    return (
        _PLAN_CACHE.misses,
        len(_PLAN_CACHE),
        _VECTOR_PLAN_CACHE.misses,
        len(_VECTOR_PLAN_CACHE),
    )


def warm_plan_caches(keys: Optional[dict], target: Instance) -> int:
    """Recompile recorded plan keys against the live target; returns count.

    Vector keys are only compiled when this target offers a columnar
    store (it may be below the size threshold); object keys always
    compile.  Failures are swallowed —
    a stale key costs nothing but its compile attempt.
    """
    if not keys:
        return 0
    warmed = 0
    epoch = target.epoch
    for key in keys.get("object") or ():
        try:
            _PLAN_CACHE.get_or_compute(
                (key, epoch), lambda key=key: compile_plan(key, target)
            )
            warmed += 1
        except Exception:
            continue
    vector_keys = keys.get("vector") or ()
    if vector_keys:
        store = target.columnar_store()
        if store is not None:
            for key in vector_keys:
                try:
                    _VECTOR_PLAN_CACHE.get_or_compute(
                        (key, epoch),
                        lambda key=key: compile_vector_plan(key, store),
                    )
                    warmed += 1
                except Exception:
                    continue
    if warmed:
        METRICS.inc("plans_prewarmed", warmed)
    return warmed
