"""Resource governance & fault tolerance for the intractable paths.

The paper's Section 5 lower bounds (J-validity NP-complete, Q-certainty
coNP-complete) mean every top-level operation of this library can blow
up on adversarial inputs.  This package is the answer:

* :class:`~repro.resilience.deadline.Deadline` — composable, picklable
  wall-clock / step / memory budgets, checked cooperatively inside the
  covering enumeration, the homomorphism engine, the inverse chase,
  certainty and repair;
* :class:`~repro.errors.DeadlineExceededError` — expiry with partial
  progress attached (covers seen, recoveries emitted so far);
* :class:`~repro.resilience.anytime.AnytimeResult` — the tagged output
  of ``mode="degrade"`` runs, which escalate down a ladder of cheaper
  semantics (full enumeration → minimal covers → the PTIME Section 6.1
  constructions) instead of failing;
* :class:`~repro.resilience.checkpoint.CheckpointManager` — durable,
  versioned snapshots of resumable enumeration state, so a crash or
  restart costs the delta since the last save instead of the run.

This package deliberately imports only :mod:`repro.errors`,
:mod:`repro.engine` and :mod:`repro.observability` so that
:mod:`repro.core` and :mod:`repro.logic` can depend on it without
cycles.
"""

from .anytime import AnytimeResult, Rung, Status
from .checkpoint import (
    SEMANTIC_COUNTERS,
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    CheckpointManager,
    instance_fingerprint,
    mapping_fingerprint,
    options_fingerprint,
    read_snapshot,
    write_snapshot,
)
from .deadline import Deadline

__all__ = [
    "AnytimeResult",
    "CheckpointManager",
    "Deadline",
    "Rung",
    "SEMANTIC_COUNTERS",
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "Status",
    "instance_fingerprint",
    "mapping_fingerprint",
    "options_fingerprint",
    "read_snapshot",
    "write_snapshot",
]
