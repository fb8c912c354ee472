"""Per-layer tracing from outside the program.

The benchmark does not edit ``src/``.  Instead it interposes on the
module-level names through which one layer calls the next (for example
``repro.core.inverse_chase.hom_set``) and records a span per call.  A
span is ``(name, start, end, parent, op)``: ``parent`` indexes the
enclosing span in the same thread's list (-1 for the op's root) and
``op`` numbers the operation.  Generator layers are timed per
``next()``, so a lazy producer's work is billed to the producer even
though its consumer drives it.  Spans stay in memory; the caller
writes them out once, at exit.

A layer's self time is its spans' durations minus the durations of
their direct children.  Whatever the root span of an op keeps for
itself is unattributed (``other``).

Only spans inside a traced op are recorded: :meth:`Tracer.op` opens
the root and switches recording on for the calling thread.  Outside an
op, or in an op opened with ``traced=False``, the interposers call
straight through.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

ROOT = "op"

#: Span names of the layers, in reporting order.
LAYERS = (
    "logic.parser",
    "data.columnar",
    "core.hom_sets",
    "core.covers",
    "core.subsumption",
    "core.inverse_chase",
    "chase",
    "logic.homomorphisms",
    "core.semantics",
    "core.certain",
    "incremental",
    "service",
)


def _size(result) -> int:
    return len(result)


def _chase_facts(result) -> int:
    return len(result.result)


def _one(_result) -> int:
    return 1


def _is_false(result) -> int:
    return 0 if result else 1


def _is_true(result) -> int:
    return 1 if result else 0


_HOMS = (("core.hom_sets.homs", _size),)
_SUB = (("core.subsumption.checked", _one), ("core.subsumption.pruned", _is_false))
_JUSTIFY = (("core.semantics.calls", _one), ("core.semantics.justified", _is_true))
_PARSED = (("logic.parser.facts", _size),)

#: ``(module, attribute, layer, kind, counters)``.  A "call" counter is
#: ``(name, fn)`` adding ``fn(result)``; an "iter" layer is timed per
#: next() and each of its counter names counts the items yielded.
INTERPOSERS = (
    ("repro.data.io", "parse_instance", "logic.parser", "call", _PARSED),
    ("repro.data.io", "parse_tgds", "logic.parser", "call", ()),
    ("repro.data.io", "parse_query", "logic.parser", "call", ()),
    ("repro.service.registry", "parse_instance", "logic.parser", "call", _PARSED),
    ("repro.service.registry", "parse_tgds", "logic.parser", "call", ()),
    ("repro.service.registry", "hom_set", "core.hom_sets", "call", _HOMS),
    ("repro.service.registry", "minimal_subsumers", "core.subsumption", "call", ()),
    ("repro.service.app", "parse_instance", "logic.parser", "call", _PARSED),
    ("repro.service.app", "parse_query", "logic.parser", "call", ()),
    ("repro.semantics.paper", "inverse_chase", "core.inverse_chase", "call", ()),
    ("repro.semantics.paper", "certain_answer", "core.certain", "call", ()),
    ("repro.core.certain", "inverse_chase", "core.inverse_chase", "call", ()),
    ("repro.core.certain", "certain_answers", "core.certain", "call",
     (("core.certain.answers", _size),)),
    ("repro.core.inverse_chase", "hom_set", "core.hom_sets", "call", _HOMS),
    ("repro.core.inverse_chase", "enumerate_covers", "core.covers", "iter",
     ("core.covers.coverings",)),
    ("repro.core.inverse_chase", "minimal_subsumers", "core.subsumption", "call", ()),
    ("repro.core.inverse_chase", "models_all", "core.subsumption", "call", _SUB),
    ("repro.core.inverse_chase", "chase_restricted", "chase", "call",
     (("chase.facts", _chase_facts),)),
    ("repro.core.inverse_chase", "chase", "chase", "call",
     (("chase.facts", _chase_facts),)),
    ("repro.core.inverse_chase", "instance_homomorphisms", "logic.homomorphisms",
     "iter", ("logic.homomorphisms.finishing_homs",)),
    ("repro.core.inverse_chase", "is_justified", "core.semantics", "call", _JUSTIFY),
    ("repro.incremental.state", "hom_set", "core.hom_sets", "call", _HOMS),
    ("repro.incremental.state", "minimal_subsumers", "core.subsumption", "call", ()),
    ("repro.incremental.state", "models_all", "core.subsumption", "call", _SUB),
    ("repro.incremental.state", "is_justified", "core.semantics", "call", _JUSTIFY),
    ("repro.incremental.state", "inverse_chase_candidates", "core.inverse_chase",
     "iter", ()),
    # Storage: the build of an instance's columnar sidecar (looking up a
    # built or inactive store is not work).
    ("repro.data.columnar", "ColumnarStore.build", "data.columnar", "call", ()),
)


class _ThreadLog:
    __slots__ = ("spans", "counts", "stack", "on", "op")

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.stack: list[int] = []
        self.on = False
        self.op = -1


class Tracer:
    """Span and counter recorder; one list per thread, no locks per span."""

    def __init__(self):
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()
        self._ops = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog()
            self._local.log = log
            with self._lock:
                self._logs.append(log)
        return log

    def _open(self, log: _ThreadLog, name: str) -> int:
        index = len(log.spans)
        parent = log.stack[-1] if log.stack else -1
        log.spans.append([name, time.perf_counter(), 0.0, parent, log.op])
        log.stack.append(index)
        return index

    def _close(self, log: _ThreadLog, index: int) -> None:
        log.spans[index][2] = time.perf_counter()
        log.stack.pop()

    @contextmanager
    def op(self, traced: bool = True, name: str = ROOT):
        """One operation: the root span, with recording on if ``traced``."""
        log = self._log()
        if not traced:
            yield
            return
        with self._lock:
            log.op = self._ops
            self._ops += 1
        log.on = True
        index = self._open(log, name)
        try:
            yield
        finally:
            self._close(log, index)
            log.on = False

    @contextmanager
    def span(self, name: str):
        """A span around the caller's own call into a layer."""
        log = self._log()
        if not log.on:
            yield
            return
        index = self._open(log, name)
        try:
            yield
        finally:
            self._close(log, index)

    # -- interposers -------------------------------------------------------

    def wrap_call(self, fn, layer: str, counters=()):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log = self._log()
            if not log.on:
                return fn(*args, **kwargs)
            index = self._open(log, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(log, index)
            for key, count in counters:
                log.counts[key] += count(result)
            return result

        return traced

    def wrap_iter(self, fn, layer: str, keys=()):
        def timed(iterator):
            try:
                while True:
                    log = self._log()
                    if not log.on:
                        item = next(iterator, _END)
                    else:
                        index = self._open(log, layer)
                        try:
                            item = next(iterator, _END)
                        finally:
                            self._close(log, index)
                        if item is not _END:
                            for key in keys:
                                log.counts[key] += 1
                    if item is _END:
                        return
                    yield item
            finally:
                close = getattr(iterator, "close", None)
                if close is not None:
                    close()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            if not self._log().on:
                return iterator
            return timed(iter(iterator))

        return traced

    def install(self) -> None:
        """Patch every name in ``INTERPOSERS``; :meth:`uninstall` undoes it."""
        for module_name, attr, layer, kind, counters in INTERPOSERS:
            owner = importlib.import_module(module_name)
            *path, attr = attr.split(".")
            for name in path:
                owner = getattr(owner, name)
            original = vars(owner)[attr]
            wrap = self.wrap_iter if kind == "iter" else self.wrap_call
            wrapped = wrap(getattr(owner, attr), layer, counters)
            if isinstance(owner, type):
                # A class attribute: the wrapper calls the bound original.
                wrapped = staticmethod(wrapped)
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def span_lists(self) -> list[list[list]]:
        with self._lock:
            return [list(log.spans) for log in self._logs]

    def counts(self) -> dict[str, int]:
        total: dict[str, int] = defaultdict(int)
        with self._lock:
            logs = list(self._logs)
        for log in logs:
            for key, value in log.counts.items():
                total[key] += value
        return dict(total)


_END = object()


def reduce_spans(span_lists) -> dict:
    """Self time per span name, and the ops' root wall time.

    Returns ``{"self": {name: seconds}, "wall": seconds, "ops": count}``
    where ``wall`` sums the root spans.  Each span list belongs to one
    thread; ``parent`` indexes into the same list.
    """
    self_s: dict[str, float] = defaultdict(float)
    wall = 0.0
    ops = 0
    for spans in span_lists:
        children = [0.0] * len(spans)
        for name, start, end, parent, _op in spans:
            if parent >= 0:
                children[parent] += end - start
        for i, (name, start, end, parent, _op) in enumerate(spans):
            self_s[name] += (end - start) - children[i]
            if parent < 0:
                wall += end - start
                ops += 1
    return {"self": dict(self_s), "wall": wall, "ops": ops}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(reduced: dict, counts: dict, counters: dict) -> dict:
    """Per-layer metrics per op from a reduction, trace counts and the
    program's own METRICS counter deltas (``counters``).

    The root span's self time is ``other``; ``trace.coverage`` is the
    share of root wall time attributed to a named layer.
    """
    ops = max(reduced["ops"], 1)
    self_s = reduced["self"]
    per_op_ms = {name: 1000.0 * self_s.get(name, 0.0) / ops for name in LAYERS}
    other = self_s.get(ROOT, 0.0)

    def hit_ratio(*names):
        hits = sum(counters.get(f"{n}_hits", 0) for n in names)
        misses = sum(counters.get(f"{n}_misses", 0) for n in names)
        return _ratio(hits, hits + misses)

    parser_s = self_s.get("logic.parser", 0.0)
    checked = counts.get("core.subsumption.checked", 0)
    calls = counts.get("core.semantics.calls", 0)
    return {
        "logic.parser.self_ms": per_op_ms["logic.parser"],
        "logic.parser.facts_per_s": _ratio(counts.get("logic.parser.facts", 0), parser_s),
        "data.columnar.self_ms": per_op_ms["data.columnar"],
        "core.hom_sets.self_ms": per_op_ms["core.hom_sets"],
        "core.hom_sets.homs": counts.get("core.hom_sets.homs", 0) / ops,
        "core.covers.self_ms": per_op_ms["core.covers"],
        "core.covers.coverings": counts.get("core.covers.coverings", 0) / ops,
        "core.subsumption.self_ms": per_op_ms["core.subsumption"],
        "core.subsumption.pruned_ratio": _ratio(
            counts.get("core.subsumption.pruned", 0), checked
        ),
        "core.inverse_chase.self_ms": per_op_ms["core.inverse_chase"],
        "chase.self_ms": per_op_ms["chase"],
        "chase.facts": counts.get("chase.facts", 0) / ops,
        "logic.homomorphisms.self_ms": per_op_ms["logic.homomorphisms"],
        "logic.homomorphisms.finishing_homs": counts.get(
            "logic.homomorphisms.finishing_homs", 0
        ) / ops,
        "core.semantics.self_ms": per_op_ms["core.semantics"],
        "core.semantics.calls": calls / ops,
        "core.semantics.justified_ratio": _ratio(
            counts.get("core.semantics.justified", 0), calls
        ),
        "core.semantics.cache_hit_ratio": hit_ratio("justification"),
        "core.certain.self_ms": per_op_ms["core.certain"],
        "core.certain.answers": counts.get("core.certain.answers", 0) / ops,
        "planner.plan_hit_ratio": hit_ratio("plan_cache", "vector_plan_cache"),
        "engine.cache.hom_set_hit_ratio": hit_ratio("hom_set_cache"),
        "incremental.self_ms": per_op_ms["incremental"],
        "incremental.fast_delta_ratio": _ratio(
            counters.get("incremental_fast_deltas", 0),
            counters.get("incremental_deltas", 0),
        ),
        "incremental.cold_rebuilds": counters.get("incremental_cold_rebuilds", 0) / ops,
        "service.self_ms": per_op_ms["service"],
        "service.result_hit_ratio": hit_ratio("service_result_cache"),
        "service.instance_hit_ratio": hit_ratio("service_instance_cache"),
        "other.self_ms": 1000.0 * other / ops,
        "trace.coverage": _ratio(reduced["wall"] - other, reduced["wall"]),
    }
