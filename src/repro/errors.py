"""Exception hierarchy for the :mod:`repro` library.

All errors raised by the library derive from :class:`ReproError`, so a
caller can catch everything produced by this package with one clause
while still distinguishing the individual failure modes.
"""

from __future__ import annotations

from typing import Optional, Sequence


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class SchemaError(ReproError):
    """An atom, instance or dependency violates a schema declaration.

    Raised for arity mismatches, unknown relation symbols, and
    source/target schemas that are not disjoint.
    """


class ParseError(ReproError):
    """The textual dependency / instance / query DSL could not be parsed."""

    def __init__(self, message: str, text: str = "", position: int = -1):
        self.text = text
        self.position = position
        self._message = message
        if position >= 0:
            message = f"{message} (at offset {position} in {text!r})"
        super().__init__(message)

    def __reduce__(self):
        # Rebuild from the original constructor arguments: the default
        # exception reduction re-invokes __init__ with the *formatted*
        # message, which would re-append the offset suffix and drop
        # ``text``/``position`` on the far side of a pickle boundary.
        return (ParseError, (self._message, self.text, self.position))


class DependencyError(ReproError):
    """A tuple-generating dependency is malformed.

    Examples: a head that mentions no body variable where one is
    required, an s-t tgd whose body uses target relations, or two
    dependencies of one mapping sharing variables.
    """


class NotRecoverableError(ReproError):
    """The target instance is not valid for recovery under the mapping.

    Per Definition 3 of the paper, a target instance ``J`` is *valid for
    recovery* under ``Sigma`` only if some source instance justifies it.
    Operations that require a recoverable target raise this error
    otherwise.
    """


class ChaseError(ReproError):
    """The chase could not be executed (internal invariant violation)."""


class BudgetExceededError(ReproError):
    """An enumeration exceeded its configured budget.

    The inverse chase and covering enumeration are worst-case
    exponential; callers can bound them, and this error signals the
    bound was hit rather than silently truncating the result.

    ``partial`` carries the items enumerated before the budget tripped
    (covers, recoveries, ...), so a caller that chose ``"raise"``
    semantics can still inspect — or salvage — the work already done.
    """

    def __init__(self, what: str, limit: int, partial: Optional[Sequence] = None):
        self.what = what
        self.limit = limit
        self.partial: list = list(partial) if partial is not None else []
        self.progress: dict = {}
        super().__init__(f"{what} exceeded configured limit of {limit}")

    def __reduce__(self):
        # ``partial``/``progress`` are enriched after construction (the
        # inverse chase stamps running totals onto an escaping error);
        # the default reduction would rebuild from ``args`` — the
        # formatted message — losing all of it across a pickle.
        return (
            _rebuild_budget_error,
            (self.what, self.limit, self.partial, self.progress),
        )


class DeadlineExceededError(ReproError):
    """A cooperative resource deadline expired mid-computation.

    Raised by :class:`repro.resilience.Deadline` checks threaded
    through the NP-hard paths (covering enumeration, homomorphism
    search, the inverse chase, certainty, repair).  Unlike
    :class:`BudgetExceededError` — which counts *results* — a deadline
    bounds *resources*: wall-clock time, cooperative steps, or an
    estimate of retained memory.

    Attributes:

    * ``what``    — the computation that was interrupted;
    * ``limit``   — a human-readable description of the tripped limit;
    * ``progress``— counters accumulated before expiry (e.g.
      ``covers_seen``, ``recoveries_emitted``), enriched by each layer
      the error propagates through;
    * ``partial`` — the items produced before expiry, when the raising
      layer had them at hand (e.g. the recoveries already emitted and
      verified by :func:`~repro.core.inverse_chase.inverse_chase`).
    """

    def __init__(
        self,
        what: str,
        limit: str = "",
        progress: Optional[dict] = None,
        partial: Optional[Sequence] = None,
    ):
        self.what = what
        self.limit = limit
        self.progress: dict = dict(progress) if progress else {}
        self.partial: list = list(partial) if partial is not None else []
        message = f"{what} exceeded deadline"
        if limit:
            message = f"{message} ({limit})"
        super().__init__(message)

    def __reduce__(self):
        return (
            _rebuild_deadline_error,
            (self.what, self.limit, self.progress, self.partial),
        )


def _rebuild_budget_error(what, limit, partial, progress) -> BudgetExceededError:
    error = BudgetExceededError(what, limit, partial=partial)
    error.progress = dict(progress)
    return error


def _rebuild_deadline_error(what, limit, progress, partial) -> DeadlineExceededError:
    return DeadlineExceededError(what, limit, progress=progress, partial=partial)


class CheckpointError(ReproError):
    """Base class for checkpoint/resume failures (see
    :mod:`repro.resilience.checkpoint`)."""


class CheckpointCorruptError(CheckpointError):
    """A snapshot file failed structural or checksum validation.

    Raised by the snapshot reader when the file is truncated, a record's
    CRC does not match its payload, the footer record count disagrees
    with the records present, or the header is not a recognizable
    snapshot at all.  The resume path treats this as "no usable
    checkpoint" and falls back to a cold start.
    """

    def __init__(self, path: str, reason: str):
        self.path = str(path)
        self.reason = reason
        super().__init__(f"corrupt checkpoint {self.path}: {reason}")

    def __reduce__(self):
        return (CheckpointCorruptError, (self.path, self.reason))


class CheckpointMismatchError(CheckpointError):
    """A structurally-valid snapshot does not match the live computation.

    Raised when the snapshot's version, kind, mapping fingerprint,
    target fingerprint or options fingerprint disagree with the run
    being resumed.  Resuming from it could silently splice state from a
    different computation, so the resume path discards it and falls
    back to a cold start instead.
    """

    def __init__(self, path: str, field: str, expected: str, found: str):
        self.path = str(path)
        self.field = field
        self.expected = expected
        self.found = found
        super().__init__(
            f"checkpoint {self.path} does not match this run: "
            f"{field} is {found!r}, expected {expected!r}"
        )

    def __reduce__(self):
        return (
            CheckpointMismatchError,
            (self.path, self.field, self.expected, self.found),
        )
