"""Span tracing: nesting, aggregation, lazy iterators, exporters."""

from __future__ import annotations

import json
import threading

from repro.observability import (
    METRICS,
    Tracer,
    format_trace,
    metrics_document,
    write_metrics_json,
)


def make_tracer() -> Tracer:
    tracer = Tracer()
    tracer.enable()
    return tracer


class TestDisabledTracer:
    def test_span_is_noop(self):
        tracer = Tracer()
        with tracer.span("anything") as sp:
            sp.add_steps(3)
        assert tracer.roots() == []
        assert tracer.to_dict() == []

    def test_traced_iter_passes_through(self):
        tracer = Tracer()
        assert list(tracer.traced_iter("loop", range(4))) == [0, 1, 2, 3]
        assert tracer.roots() == []


class TestNesting:
    def test_children_attach_to_open_parent(self):
        tracer = make_tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        roots = tracer.roots()
        assert [r.name for r in roots] == ["outer"]
        assert [c.name for c in roots[0].children] == ["inner"]

    def test_wall_time_accumulates(self):
        tracer = make_tracer()
        with tracer.span("timed"):
            pass
        (root,) = tracer.roots()
        assert root.wall_ms >= 0.0
        assert root.count == 1

    def test_reset_clears_the_forest(self):
        tracer = make_tracer()
        with tracer.span("stale"):
            pass
        tracer.reset()
        assert tracer.roots() == []

    def test_threads_get_independent_stacks(self):
        tracer = make_tracer()
        seen = []

        def worker():
            with tracer.span("worker-span"):
                seen.append(True)

        with tracer.span("main-span"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        names = sorted(r.name for r in tracer.roots())
        # The worker's span roots at its own stack, not under main-span.
        assert names == ["main-span", "worker-span"]


class TestAggregation:
    def test_repeats_merge_into_one_node(self):
        tracer = make_tracer()
        with tracer.span("parent"):
            for _ in range(5):
                with tracer.span("hot", aggregate=True):
                    pass
        (root,) = tracer.roots()
        assert len(root.children) == 1
        hot = root.children[0]
        assert hot.name == "hot" and hot.count == 5

    def test_plain_repeats_stay_separate(self):
        tracer = make_tracer()
        with tracer.span("parent"):
            for _ in range(3):
                with tracer.span("cold"):
                    pass
        (root,) = tracer.roots()
        assert len(root.children) == 3

    def test_traced_iter_counts_steps(self):
        tracer = make_tracer()
        with tracer.span("parent"):
            assert list(tracer.traced_iter("produce", iter("abc"))) == list("abc")
        (root,) = tracer.roots()
        (node,) = root.children
        assert node.name == "produce"
        # One entry per item plus the final exhaustion probe, which is
        # timed too (generator teardown can do real filtering work).
        assert node.steps == 3 and node.count == 4

    def test_metrics_delta_attaches_to_plain_spans(self):
        tracer = make_tracer()
        with tracer.span("measured"):
            METRICS.inc("spans_test_counter", 4)
        (root,) = tracer.roots()
        assert root.metrics.get("spans_test_counter") == 4


class TestExporters:
    def test_to_dict_shape(self):
        tracer = make_tracer()
        with tracer.span("root") as sp:
            sp.add_steps(2)
            with tracer.span("phase"):
                pass
        (node,) = tracer.to_dict()
        assert node["name"] == "root" and node["steps"] == 2
        assert node["children"][0]["name"] == "phase"
        json.dumps(node)  # must be JSON-serialisable as-is

    def test_format_trace_renders_tree(self):
        tracer = make_tracer()
        with tracer.span("cli.recover"):
            with tracer.span("execute"):
                pass
        text = format_trace(tracer.roots())
        assert "trace:" in text
        assert "cli.recover" in text
        assert "    execute" in text  # indented under its parent

    def test_format_trace_empty(self):
        assert "(no spans recorded)" in format_trace([])

    def test_metrics_document_and_write(self, tmp_path):
        doc = metrics_document(counters={"a": 1}, trace=[], command="recover")
        assert doc == {"counters": {"a": 1}, "trace": [], "command": "recover"}
        path = tmp_path / "metrics.json"
        write_metrics_json(str(path), counters={"a": 1}, trace=[])
        assert json.loads(path.read_text()) == {"counters": {"a": 1}, "trace": []}
