"""Plain-text tables and run reports for the CLI and benchmarks.

Every benchmark prints a table comparing the paper's stated artifact
(an instance, an answer set, a count) with the measured one, using the
helpers below, so ``pytest benchmarks/ --benchmark-only -s`` doubles as
the reproduction report.  :class:`RunReport` is the structured summary
the CLI emits under ``--stats``: what ran, whether the answer is exact
or degraded, how long it took, and the engine counters accumulated on
the way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .data.instances import Instance
from .data.terms import Term


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Render rows as an aligned ASCII table."""
    rendered = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "+".join("-" * (w + 2) for w in widths)
    line = f"+{line}+"

    def fmt_row(cells: Sequence[str]) -> str:
        inner = " | ".join(c.ljust(w) for c, w in zip(cells, widths))
        return f"| {inner} |"

    parts = []
    if title:
        parts.append(title)
    parts.append(line)
    parts.append(fmt_row(list(headers)))
    parts.append(line)
    for row in rendered:
        parts.append(fmt_row(row))
    parts.append(line)
    return "\n".join(parts)


def format_answers(answers: Iterable[tuple[Term, ...]]) -> str:
    """Render a set of query answers deterministically."""
    rendered = sorted(
        "(" + ", ".join(str(t) for t in answer) + ")" for answer in answers
    )
    return "{" + ", ".join(rendered) + "}"


def format_instances(instances: Iterable[Instance], limit: int = 10) -> str:
    """Render a set of instances, eliding after ``limit`` entries."""
    listed = list(instances)
    lines = [f"  {instance!r}" for instance in listed[:limit]]
    if len(listed) > limit:
        lines.append(f"  ... and {len(listed) - limit} more")
    return "\n".join(lines)


def format_counters(snapshot: dict) -> str:
    """Render an engine-counter snapshot as an aligned table.

    ``snapshot`` is what :func:`repro.engine.counters.snapshot`
    returns: raw counters plus the hit/miss totals of every registered
    LRU cache.  Keys are sorted so the output is deterministic; the
    table backs the CLI's ``--stats`` flag and the benchmark reports.
    """
    rows = [(name, snapshot[name]) for name in sorted(snapshot)]
    return format_table(("counter", "value"), rows, title="engine counters")


@dataclass(frozen=True)
class RunReport:
    """Structured summary of one CLI invocation (or library run).

    ``status``/``rung`` mirror :class:`repro.resilience.AnytimeResult`
    when resilience was in play: ``exact`` for a complete answer,
    ``sound-incomplete`` for a degraded one, and the ladder rung that
    produced it.  For a plain run without a deadline they are
    ``"exact"`` / ``"enumeration"``.  A CLI run that fails reports
    ``deadline-exceeded`` (exit 3) or ``error`` (exit 2).  ``counters`` is a metrics
    snapshot (see :data:`repro.observability.METRICS`), so deadline
    hits, chunk retries and degradations taken during the run are all
    recorded.  ``trace`` — when the run recorded spans (CLI ``--trace``
    / ``--metrics-json``) — is the span forest as
    ``repro.observability.TRACER.to_dict()`` produced it.
    """

    command: str
    status: str = "exact"
    rung: str = "enumeration"
    #: Recovery-semantics mode the run answered under ("" when the
    #: command predates modes or the default applied implicitly).
    semantics: str = ""
    detail: str = ""
    elapsed_ms: float = 0.0
    result_size: int = 0
    counters: dict = field(default_factory=dict)
    trace: Optional[list] = None
    #: Snapshot file the run checkpointed to ("" when checkpointing was
    #: off) and what happened on resume: "cold" (no resume requested),
    #: "no-snapshot", "resumed", "complete", "rejected-corrupt" or
    #: "rejected-mismatch" (see repro.resilience.checkpoint).
    checkpoint: str = ""
    resume_outcome: str = ""

    def to_dict(self) -> dict:
        """A JSON-serialisable view (counters copied, not shared)."""
        result = {
            "command": self.command,
            "status": self.status,
            "rung": self.rung,
            "detail": self.detail,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "result_size": self.result_size,
            "counters": dict(self.counters),
        }
        if self.semantics:
            result["semantics"] = self.semantics
        if self.checkpoint:
            result["checkpoint"] = self.checkpoint
            result["resume_outcome"] = self.resume_outcome
        if self.trace is not None:
            result["trace"] = self.trace
        return result


def format_run_report(report: RunReport) -> str:
    """Render a :class:`RunReport` as an aligned two-column table."""
    rows: list[tuple[str, object]] = [
        ("command", report.command),
        *((("semantics", report.semantics),) if report.semantics else ()),
        ("status", report.status),
        ("rung", report.rung),
        ("elapsed_ms", f"{report.elapsed_ms:.1f}"),
        ("result_size", report.result_size),
    ]
    if report.detail:
        rows.append(("detail", report.detail))
    if report.checkpoint:
        rows.append(("checkpoint", report.checkpoint))
        rows.append(("resume_outcome", report.resume_outcome))
    for name in sorted(report.counters):
        value = report.counters[name]
        if value:  # only counters that moved; zeros are noise here
            rows.append((name, value))
    return format_table(("field", "value"), rows, title="run report")
