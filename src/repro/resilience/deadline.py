"""Cooperative resource deadlines for the NP-hard paths.

Section 5 of the paper proves the core decision problems intractable
(J-validity is NP-complete, Q-certainty coNP-complete), so every
top-level entry point can run unboundedly on adversarial inputs.  A
:class:`Deadline` bounds that work *cooperatively*: the enumeration
loops of the library (covering enumeration, the homomorphism search,
the inverse chase, the repair search) periodically call
:meth:`Deadline.step` / :meth:`Deadline.check`, and expiry raises
:class:`~repro.errors.DeadlineExceededError` carrying whatever partial
progress the interrupted layer accumulated.

Three independent limits, each optional:

* ``wall_ms``        — wall-clock milliseconds from construction (or
  from the last :meth:`restart`), measured on the monotonic clock;
* ``max_steps``      — cooperative work steps (homomorphism search
  nodes, covering branches, repair candidates, ...): a deterministic
  limit, so tests and reproducible pipelines prefer it;
* ``max_memory_mb``  — an *estimate* of retained bytes, accumulated by
  :meth:`charge_memory` at allocation-heavy sites.

Deadlines are **composable** (:meth:`combined_with` returns a deadline
that trips when either constituent does, while work keeps accruing to
both — e.g. a per-request deadline nested under a global one) and
**picklable**: the wall-clock anchor is an absolute monotonic
timestamp, valid across processes on one machine, so an unpickled
deadline observes the same expiry as the original.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from ..observability.metrics import METRICS
from ..errors import DeadlineExceededError

#: The wall clock is consulted only every this many steps: a
#: ``time.monotonic()`` call costs ~50ns, a step increment ~20ns, and
#: the paths being guarded do orders of magnitude more work per step.
_WALL_CHECK_INTERVAL = 64


class Deadline:
    """A composable wall-clock / step / memory budget (see module docs)."""

    __slots__ = (
        "wall_ms",
        "max_steps",
        "max_memory_mb",
        "_expires_at",
        "_steps",
        "_memory_bytes",
        "_parents",
        "_countdown",
    )

    def __init__(
        self,
        wall_ms: Optional[float] = None,
        max_steps: Optional[int] = None,
        max_memory_mb: Optional[float] = None,
        *,
        parents: Sequence["Deadline"] = (),
        _expires_at: Optional[float] = None,
    ):
        if wall_ms is not None and wall_ms < 0:
            raise ValueError("wall_ms must be non-negative")
        if max_steps is not None and max_steps < 0:
            raise ValueError("max_steps must be non-negative")
        if max_memory_mb is not None and max_memory_mb < 0:
            raise ValueError("max_memory_mb must be non-negative")
        self.wall_ms = wall_ms
        self.max_steps = max_steps
        self.max_memory_mb = max_memory_mb
        if _expires_at is not None:
            self._expires_at = _expires_at
        elif wall_ms is not None:
            self._expires_at = time.monotonic() + wall_ms / 1000.0
        else:
            self._expires_at = None
        self._steps = 0
        self._memory_bytes = 0
        self._parents = tuple(parents)
        self._countdown = _WALL_CHECK_INTERVAL

    # -- introspection ---------------------------------------------------------

    @property
    def steps(self) -> int:
        """Cooperative steps charged so far (this object only)."""
        return self._steps

    @property
    def memory_estimate_bytes(self) -> int:
        """Bytes charged so far via :meth:`charge_memory`."""
        return self._memory_bytes

    def remaining_ms(self) -> Optional[float]:
        """Wall-clock milliseconds left, ``None`` when unbounded.

        Composition-aware: the tightest remaining budget among this
        deadline and its parents.
        """
        remaining: Optional[float] = None
        if self._expires_at is not None:
            remaining = max(0.0, (self._expires_at - time.monotonic()) * 1000.0)
        for parent in self._parents:
            theirs = parent.remaining_ms()
            if theirs is not None and (remaining is None or theirs < remaining):
                remaining = theirs
        return remaining

    def expired(self) -> Optional[str]:
        """The description of the tripped limit, or ``None`` when alive."""
        if self._expires_at is not None and time.monotonic() >= self._expires_at:
            return f"wall clock {self.wall_ms}ms"
        if self.max_steps is not None and self._steps >= self.max_steps:
            return f"step budget {self.max_steps}"
        if (
            self.max_memory_mb is not None
            and self._memory_bytes >= self.max_memory_mb * 1024 * 1024
        ):
            return f"memory estimate {self.max_memory_mb}MB"
        for parent in self._parents:
            reason = parent.expired()
            if reason is not None:
                return reason
        return None

    # -- cooperative checks ----------------------------------------------------

    def check(self, what: str = "computation", progress: Optional[dict] = None) -> None:
        """Raise :class:`DeadlineExceededError` if any limit has tripped."""
        reason = self.expired()
        if reason is not None:
            METRICS.inc("deadline_hits")
            raise DeadlineExceededError(what, reason, progress=progress)

    def step(
        self, n: int = 1, what: str = "computation", progress: Optional[dict] = None
    ) -> None:
        """Charge ``n`` cooperative steps, then check the limits.

        The step limit is checked on every call (it must be exact to be
        deterministic); the wall clock only every
        ``_WALL_CHECK_INTERVAL`` steps, keeping the per-step overhead
        to a couple of integer operations.
        """
        self._steps += n
        for parent in self._parents:
            parent._steps += n
        if self.max_steps is not None and self._steps >= self.max_steps:
            METRICS.inc("deadline_hits")
            raise DeadlineExceededError(
                what, f"step budget {self.max_steps}", progress=progress
            )
        for parent in self._parents:
            if parent.max_steps is not None and parent._steps >= parent.max_steps:
                METRICS.inc("deadline_hits")
                raise DeadlineExceededError(
                    what, f"step budget {parent.max_steps}", progress=progress
                )
        self._countdown -= n
        if self._countdown <= 0:
            self._countdown = _WALL_CHECK_INTERVAL
            self.check(what, progress)

    def charge_memory(
        self, nbytes: int, what: str = "computation", progress: Optional[dict] = None
    ) -> None:
        """Charge an allocation estimate, then check the memory limit."""
        self._memory_bytes += nbytes
        for parent in self._parents:
            parent._memory_bytes += nbytes
        if (
            self.max_memory_mb is not None
            and self._memory_bytes >= self.max_memory_mb * 1024 * 1024
        ) or any(
            parent.max_memory_mb is not None
            and parent._memory_bytes >= parent.max_memory_mb * 1024 * 1024
            for parent in self._parents
        ):
            METRICS.inc("deadline_hits")
            raise DeadlineExceededError(
                what, f"memory estimate {self.max_memory_mb}MB", progress=progress
            )

    # -- composition & lifecycle -----------------------------------------------

    def combined_with(self, other: "Deadline") -> "Deadline":
        """A deadline that trips when either constituent does.

        Work charged to the combination also accrues to both
        constituents, so a shared outer deadline keeps its global
        accounting while each call carries its own tighter limit.
        """
        return Deadline(parents=(self, other))

    def __and__(self, other: "Deadline") -> "Deadline":
        return self.combined_with(other)

    def restarted(self) -> "Deadline":
        """A fresh deadline with the same limits, re-anchored to *now*.

        Used by the degradation ladder: each escalation rung receives
        the full configured budget again, so the worst-case total run
        time is ``rungs x wall_ms`` plus the polynomial fallback.
        Parent links are dropped — a restarted deadline is a new,
        independent budget.
        """
        return Deadline(
            wall_ms=self.wall_ms,
            max_steps=self.max_steps,
            max_memory_mb=self.max_memory_mb,
        )

    def __reduce__(self):
        # Preserve the absolute monotonic expiry: on one machine the
        # monotonic clock is system-wide, so an unpickled copy observes
        # the same wall deadline as the original.
        return (
            _rebuild_deadline,
            (
                self.wall_ms,
                self.max_steps,
                self.max_memory_mb,
                self._expires_at,
                self._steps,
                self._memory_bytes,
                self._parents,
            ),
        )

    def __repr__(self) -> str:
        limits = []
        if self.wall_ms is not None:
            limits.append(f"wall_ms={self.wall_ms}")
        if self.max_steps is not None:
            limits.append(f"max_steps={self.max_steps}")
        if self.max_memory_mb is not None:
            limits.append(f"max_memory_mb={self.max_memory_mb}")
        if self._parents:
            limits.append(f"parents={len(self._parents)}")
        return f"Deadline({', '.join(limits) or 'unbounded'})"


def _rebuild_deadline(
    wall_ms, max_steps, max_memory_mb, expires_at, steps, memory_bytes, parents
) -> Deadline:
    deadline = Deadline(
        wall_ms=wall_ms,
        max_steps=max_steps,
        max_memory_mb=max_memory_mb,
        parents=parents,
        _expires_at=expires_at,
    )
    deadline._steps = steps
    deadline._memory_bytes = memory_bytes
    return deadline
