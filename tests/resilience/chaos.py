"""A seeded chaos-engineering harness for the recovery guarantees.

The checkpoint/resume layer makes a strong promise: *any*
crash-and-resume schedule yields results bit-identical to an
uninterrupted run, with parity-clean metrics.  Promises like
that rot unless something keeps breaking the system on purpose — this
module is that something.

A :class:`FaultSchedule` expands a seed into a deterministic list of
:class:`Fault` events drawn from three kinds:

* ``crash``             — the process "dies" at a covering boundary
  (no error-path save runs; only cadenced snapshots survive, exactly
  like a SIGKILL between fsyncs);
* ``corrupt_checkpoint``— bytes of the snapshot file are flipped
  before the next lineage resumes, forcing the corruption detector and
  the cold-start fallback;
* ``clock_skew``        — the checkpoint manager's monotonic clock
  jumps forward or backward, destabilizing the save cadence (and, when
  the run carries a ``Deadline``, its expiry).

:func:`chaos_run` replays such a schedule against any checkpointable
computation, restarting it lineage after lineage until one completes,
and reports what happened.  The harness is generic: it receives the
computation as a callable taking the
:class:`~repro.resilience.checkpoint.CheckpointManager`.

Crashes are injected at covering boundaries (the manager's ``due()``
probe), which is exactly the granularity at which durability is
promised: work inside a half-finished covering is lost by design and
redone on resume, so from the outside a mid-covering crash is
indistinguishable from a crash at the previous boundary.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.observability.metrics import METRICS
from repro.resilience import CheckpointManager, Deadline

#: The full fault vocabulary.
FAULT_KINDS = ("crash", "corrupt_checkpoint", "clock_skew")


class InjectedCrash(Exception):
    """A simulated process death, raised at a covering boundary.

    Deliberately *not* a :class:`~repro.errors.ReproError`: nothing in
    the library catches it, so it unwinds through every layer without
    triggering the error-path snapshot — the durable state is whatever
    the last cadenced save wrote, exactly as after a real SIGKILL.
    """


@dataclass(frozen=True)
class Fault:
    """One scheduled fault event.

    ``at`` parameterizes *when* the fault fires: the covering boundary
    for ``crash``, the lineage index for the others.  ``param`` is the
    kind-specific magnitude (bytes to flip, seconds of skew).
    """

    kind: str
    at: int
    param: float = 0.0


class FaultSchedule:
    """A seed expanded into a deterministic fault sequence.

    Equal seeds (and knobs) produce equal schedules — byte for byte,
    process for process — which is what makes a chaos failure
    reproducible from its seed alone.
    """

    def __init__(
        self,
        seed: int,
        *,
        kinds: Sequence[str] = FAULT_KINDS,
        max_crashes: int = 3,
        horizon: int = 10,
    ):
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
        self.seed = seed
        rng = random.Random(seed)
        faults: list[Fault] = []
        crashes = rng.randint(1, max(max_crashes, 1))
        # Crash boundaries are drawn without replacement and sorted so
        # each lineage crashes strictly later than the one before —
        # progress is monotone and the run provably terminates.
        if "crash" in kinds:
            boundaries = sorted(
                rng.sample(range(horizon), min(crashes, horizon))
            )
            faults.extend(Fault("crash", at) for at in boundaries)
        for lineage in range(1, crashes + 1):
            if "corrupt_checkpoint" in kinds and rng.random() < 0.35:
                faults.append(
                    Fault("corrupt_checkpoint", lineage, rng.randint(1, 8))
                )
            if "clock_skew" in kinds and rng.random() < 0.35:
                faults.append(
                    Fault("clock_skew", lineage, rng.uniform(-30.0, 30.0))
                )
        #: Save cadence for the run, drawn so schedules exercise both
        #: save-every-boundary and lose-progress-since-last-save.
        self.every_ms = rng.choice([0.0001, 0.0001, 20.0, 200.0])
        self.faults = tuple(faults)

    def crashes(self) -> list[Fault]:
        return [f for f in self.faults if f.kind == "crash"]

    def lineage_faults(self, lineage: int, kind: str) -> list[Fault]:
        return [
            f for f in self.faults if f.kind == kind and f.at == lineage
        ]

    def __repr__(self) -> str:
        return (
            f"FaultSchedule(seed={self.seed}, every_ms={self.every_ms}, "
            f"faults={list(self.faults)})"
        )


class ChaoticCheckpointManager(CheckpointManager):
    """A checkpoint manager that dies on schedule.

    Counts covering boundaries via the ``due()`` probe (called exactly
    once per completed covering) and raises :class:`InjectedCrash`
    once the scheduled boundary is crossed.  Everything else — saves,
    validation, resume — is the production manager, which is the point:
    chaos must exercise the real code.
    """

    def __init__(self, path, *, crash_after: Optional[int] = None, **kwargs):
        super().__init__(path, **kwargs)
        self.crash_after = crash_after
        self.boundaries_seen = 0

    def due(self) -> bool:
        self.boundaries_seen += 1
        if (
            self.crash_after is not None
            and self.boundaries_seen > self.crash_after
        ):
            raise InjectedCrash(
                f"injected crash at covering boundary {self.boundaries_seen}"
            )
        return super().due()


def corrupt_snapshot(path, rng: random.Random, flips: int = 3) -> bool:
    """Flip ``flips`` random bytes of a snapshot file in place.

    Returns whether anything was corrupted (the file may not exist if
    the crashed lineage never reached a save).
    """
    try:
        with open(path, "rb") as handle:
            data = bytearray(handle.read())
    except OSError:
        return False
    if not data:
        return False
    for _ in range(max(int(flips), 1)):
        data[rng.randrange(len(data))] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(data)
    return True


class _SkewedClock:
    """A monotonic clock whose readings jump by a scheduled offset."""

    def __init__(self, skew_s: float):
        self.skew_s = skew_s
        self._calls = 0

    def __call__(self) -> float:
        self._calls += 1
        # Let the first readings pass unskewed so the jump lands
        # mid-run, where cadence arithmetic is most easily confused.
        offset = self.skew_s if self._calls > 2 else 0.0
        return time.monotonic() + offset


@dataclass
class ChaosReport:
    """What a :func:`chaos_run` did and how the system responded."""

    result: Any = None
    lineages: int = 0
    crashes: int = 0
    corruptions: int = 0
    skews: int = 0
    resume_outcomes: list = field(default_factory=list)
    #: METRICS delta of the final (completing) lineage only — the one
    #: whose counters the parity property compares against an
    #: uninterrupted run.
    final_delta: dict = field(default_factory=dict)


def chaos_run(
    run: Callable[[CheckpointManager], Any],
    *,
    schedule: FaultSchedule,
    checkpoint_path,
    deadline: Optional[Deadline] = None,
    max_lineages: int = 64,
) -> ChaosReport:
    """Drive ``run`` through a fault schedule until a lineage completes.

    ``run`` is the computation under test: a callable that accepts a
    :class:`CheckpointManager` and returns its final result — e.g.
    ``lambda mgr: inverse_chase(mapping, target, checkpoint=mgr)``.
    Every lineage gets a fresh manager over the same snapshot path
    (``resume=True`` from the second lineage on); scheduled faults are
    applied around it.  ``deadline``, when given, is shared across
    lineages and skewed by ``clock_skew`` faults, so deadline expiry
    under a warped clock is exercised too.

    Raises ``RuntimeError`` after ``max_lineages`` restarts — a chaos
    schedule must always converge, because crash boundaries are
    strictly increasing and every other fault degrades to a cold start
    at worst.
    """
    crashes = schedule.crashes()
    report = ChaosReport()
    rng = random.Random(schedule.seed ^ 0xC4A05)
    for lineage in range(max_lineages):
        report.lineages = lineage + 1
        crash_after = (
            crashes[lineage].at if lineage < len(crashes) else None
        )
        clock: Callable[[], float] = time.monotonic
        skews = schedule.lineage_faults(lineage, "clock_skew")
        if skews:
            report.skews += len(skews)
            clock = _SkewedClock(skews[0].param)
            if deadline is not None and deadline._expires_at is not None:
                # Skew the deadline's absolute expiry by the same jump
                # (both are monotonic seconds): a backward jump expires
                # it early, a forward one extends it — either way the
                # run must stay correct, merely differently bounded.
                deadline._expires_at += skews[0].param
        manager = ChaoticCheckpointManager(
            checkpoint_path,
            every_ms=schedule.every_ms,
            resume=lineage > 0,
            crash_after=crash_after,
            clock=clock,
        )
        baseline = METRICS.snapshot()
        try:
            report.result = run(manager)
        except InjectedCrash:
            report.crashes += 1
            report.resume_outcomes.append(manager.resume_outcome)
            for fault in schedule.lineage_faults(lineage + 1, "corrupt_checkpoint"):
                if corrupt_snapshot(checkpoint_path, rng, fault.param):
                    report.corruptions += 1
            continue
        report.resume_outcomes.append(manager.resume_outcome)
        report.final_delta = METRICS.delta_since(baseline)
        return report
    raise RuntimeError(
        f"chaos schedule did not converge in {max_lineages} lineages: "
        f"{schedule!r}"
    )
