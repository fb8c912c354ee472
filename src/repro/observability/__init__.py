"""Unified observability: the metrics registry and span tracer.

This package is the single telemetry surface for the engine.  All
counters flow through :data:`METRICS` (engine counters and cache
statistics alike), and all per-phase timing
flows through :data:`TRACER`.  Everything here is stdlib-only so the
lowest layers (``repro.data``, ``repro.logic``) can depend on it
without cycles.
"""

from .metrics import (
    METRICS,
    MetricsRegistry,
    SCHEDULING_METRICS,
    parity_diff,
    parity_view,
)
from .spans import Span, TRACER, Tracer
from .export import (
    format_trace,
    metrics_document,
    write_metrics_json,
)

__all__ = [
    "METRICS",
    "MetricsRegistry",
    "SCHEDULING_METRICS",
    "parity_diff",
    "parity_view",
    "Span",
    "TRACER",
    "Tracer",
    "format_trace",
    "metrics_document",
    "write_metrics_json",
]
