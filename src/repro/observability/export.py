"""Exporters turning tracer/metrics state into JSON documents and text.

The CLI uses both shapes: ``--trace`` prints the text tree and
``--metrics-json PATH`` writes the JSON document.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Optional

from .metrics import METRICS
from .spans import Span, TRACER


def metrics_document(
    counters: Optional[Mapping[str, int]] = None,
    trace: Optional[list[dict[str, Any]]] = None,
    **extra: Any,
) -> dict[str, Any]:
    """The ``--metrics-json`` payload: counters + span tree + metadata."""
    doc: dict[str, Any] = {
        "counters": dict(sorted((counters if counters is not None else METRICS.snapshot()).items())),
        "trace": trace if trace is not None else TRACER.to_dict(),
    }
    doc.update(extra)
    return doc


def write_metrics_json(path: str, **kwargs: Any) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(metrics_document(**kwargs), handle, indent=2, sort_keys=False)
        handle.write("\n")


def format_trace(roots: Optional[list[Span]] = None) -> str:
    """A readable indented rendering of the span forest for ``--trace``."""
    if roots is None:
        roots = TRACER.roots()
    lines: list[str] = ["trace:"]
    if not roots:
        lines.append("  (no spans recorded)")
    for root in roots:
        _format_span(root, lines, depth=1)
    return "\n".join(lines)


def _format_span(span: Span, lines: list[str], depth: int) -> None:
    parts = [f"{span.name}: {span.wall_ms:.2f} ms"]
    if span.count > 1:
        parts.append(f"x{span.count}")
    if span.steps:
        parts.append(f"steps={span.steps}")
    if span.metrics:
        shown = ", ".join(f"{k}={v}" for k, v in sorted(span.metrics.items()))
        parts.append(f"[{shown}]")
    lines.append("  " * depth + " ".join(parts))
    for child in span.children:
        _format_span(child, lines, depth + 1)
