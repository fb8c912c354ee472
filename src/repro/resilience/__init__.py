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
  restart costs the delta since the last save instead of the run;
* :mod:`~repro.resilience.chaos` — a seeded fault-schedule harness
  that injects crashes, checkpoint corruption and clock skew to
  *prove* the recovery guarantees hold.

This package deliberately imports only :mod:`repro.errors`,
:mod:`repro.engine` and :mod:`repro.observability` so that
:mod:`repro.core` and :mod:`repro.logic` can depend on it without
cycles.
"""

from .anytime import AnytimeResult, Rung, Status
from .chaos import (
    FAULT_KINDS,
    ChaosReport,
    Fault,
    FaultSchedule,
    InjectedCrash,
    chaos_run,
)
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
    "ChaosReport",
    "CheckpointManager",
    "Deadline",
    "FAULT_KINDS",
    "Fault",
    "FaultSchedule",
    "InjectedCrash",
    "Rung",
    "SEMANTIC_COUNTERS",
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "Status",
    "chaos_run",
    "instance_fingerprint",
    "mapping_fingerprint",
    "options_fingerprint",
    "read_snapshot",
    "write_snapshot",
]
