"""Tests of the benchmark's own machinery (``pytest benchmarks/e2e``).

Covers the percentile/sample-count rule, self-time arithmetic on
synthetic spans, the oracle against the engine on small inputs, the
seeded inputs, and the open loop's due-time accounting.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import statistics
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from stats import percentile, quartiles, spread, summary, tail_percentile  # noqa: E402
from trace import Tracer, layer_metrics, reduce_spans  # noqa: E402


# -- percentiles and sample counts --------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(99) is None
    assert tail_percentile(100) == 90.0
    assert tail_percentile(999) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10_000) == 99.9


def test_summary_reports_count_median_and_supported_tail():
    values = list(range(1, 101))
    s = summary(values)
    assert s["n"] == 100 and s["p50"] == 50.5
    assert s["tail_p"] == 90.0 and s["tail"] == pytest.approx(90.1)
    assert summary([3.0, 1.0, 2.0]) == {"n": 3, "p50": 2.0, "tail_p": None, "tail": None}


def test_percentile_interpolates_and_quartiles_match_statistics():
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile([5], 90) == 5
    values = [random.Random(4).random() for _ in range(10)]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / q2)


# -- self times ---------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["op", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["c", 5.0, 9.0, 0, 0],
    ]
    reduced = reduce_spans([spans])
    assert reduced["self"] == {"op": 3.0, "a": 2.0, "b": 1.0, "c": 4.0}
    assert reduced["wall"] == 10.0 and reduced["ops"] == 1
    # Self times partition the root's wall time.
    assert sum(reduced["self"].values()) == reduced["wall"]


def test_self_time_per_thread_lists_and_coverage():
    first = [["op", 0.0, 4.0, -1, 0], ["chase", 0.0, 3.0, 0, 0]]
    second = [["op", 0.0, 6.0, -1, 1], ["core.semantics", 1.0, 6.0, 0, 1]]
    reduced = reduce_spans([first, second])
    assert reduced["wall"] == 10.0 and reduced["ops"] == 2
    layers = layer_metrics(reduced, {}, {})
    assert layers["chase.self_ms"] == 1500.0
    assert layers["core.semantics.self_ms"] == 2500.0
    assert layers["other.self_ms"] == 1000.0
    assert layers["trace.coverage"] == pytest.approx(0.8)


def test_iterator_layers_bill_production_to_the_producer():
    tracer = Tracer()

    def work(seconds):
        time.sleep(seconds)
        return seconds

    inner = tracer.wrap_call(work, "inner")

    def produce():
        yield inner(0.02)
        yield inner(0.02)

    producer = tracer.wrap_iter(produce, "producer", ("items",))
    consumer = tracer.wrap_call(lambda it: [work(0.01) for _ in it], "consumer")
    with tracer.op():
        consumer(producer())
    reduced = reduce_spans(tracer.span_lists())
    spans = tracer.span_lists()[0]
    names = [s[0] for s in spans]
    # One span per next() (two items and the final StopIteration).
    assert names.count("producer") == 3
    for span in spans:
        if span[0] == "inner":
            assert spans[span[3]][0] == "producer"
    assert reduced["self"]["inner"] >= 0.04
    assert reduced["self"]["consumer"] == pytest.approx(0.02, abs=0.015)
    assert reduced["self"]["producer"] < 0.01
    assert tracer.counts() == {"items": 2}


def test_untraced_ops_record_nothing_and_install_is_undone():
    # ``repro.core`` re-exports a function named ``inverse_chase``, so
    # the submodule is reached through importlib.
    ic = importlib.import_module("repro.core.inverse_chase")
    original = ic.hom_set
    tracer = Tracer()
    tracer.install()
    try:
        assert ic.hom_set is not original
        with tracer.op(traced=False):
            pass
        assert tracer.span_lists() == [[]]
    finally:
        tracer.uninstall()
    assert ic.hom_set is original


# -- oracle vs engine ---------------------------------------------------------


def _cli(argv):
    import repro.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = repro.cli.main(argv)
    return rc, out.getvalue()


def test_oracle_matches_engine_on_a_small_graph(tmp_path):
    g = inputs.graph(random.Random(7), 60, 4)
    (tmp_path / "m").write_text(inputs.EF_MAPPING)
    (tmp_path / "t").write_text(g.text())
    (tmp_path / "q").write_text(inputs.PATH3_QUERY)
    files = ["--mapping", str(tmp_path / "m"), "--target", str(tmp_path / "t")]
    rc, out = _cli(["recover", *files])
    assert rc == 0
    assert oracle.same_recoveries(oracle.cli_recoveries(out), [oracle.ef_recovery(g.edges)])
    rc, out = _cli(["certain", *files, "--query", str(tmp_path / "q")])
    assert rc == 0
    answers = oracle.path3_answers(g.edges)
    assert oracle.cli_answers(out) == answers
    # Sinks have no out-edge, so they are never answers.
    assert answers and not {(f"c{v}",) for v in g.sinks} & answers


def test_oracle_matches_engine_on_lemma1(tmp_path):
    target, a, b = inputs.cli_blowup_target(3)
    (tmp_path / "m").write_text(inputs.LEMMA1_MAPPING)
    (tmp_path / "t").write_text(target)
    (tmp_path / "q").write_text(inputs.LEMMA1_QUERY)
    files = ["--mapping", str(tmp_path / "m"), "--target", str(tmp_path / "t"),
             "--max-recoveries", run.BLOWUP_BUDGET]
    expected = oracle.lemma1_recoveries(a, b)
    assert len(expected) == 1398
    rc, out = _cli(["recover", *files])
    assert rc == 0 and oracle.same_recoveries(oracle.cli_recoveries(out), expected)
    rc, out = _cli(["certain", *files, "--query", str(tmp_path / "q")])
    assert rc == 0 and oracle.cli_answers(out) == oracle.lemma1_answers(a)


def test_oracle_matches_incremental_state_under_churn():
    from repro.incremental import RecoveryState
    from repro.logic.parser import parse_instance, parse_query, parse_tgds
    from repro.logic.tgds import Mapping

    g = inputs.graph(random.Random(11), 80, 8)
    state = RecoveryState(Mapping(parse_tgds(inputs.EF_MAPPING)), parse_instance(g.text()))
    query = parse_query(inputs.PATH3_QUERY)
    stream = inputs.DeltaStream(5, g)
    changed = 0
    for _ in range(6):
        before = oracle.path3_answers(stream.live)
        kind, (u, v) = stream.next()
        fact = parse_instance(f"F(c{u}, c{v})").facts
        state.apply_delta(**{kind: fact})
        (recovery,) = state.recoveries
        assert {(f.relation, tuple(map(str, f.args))) for f in recovery} == oracle.ef_recovery(stream.live)
        answers = {tuple(map(str, t)) for t in state.certain(query)}
        assert answers == oracle.path3_answers(stream.live)
        changed += answers != before
    assert changed  # inserts from sinks move the answer set


def test_cli_output_parsers_reject_malformed_output():
    with pytest.raises(ValueError):
        oracle.cli_recoveries("no header\n")
    with pytest.raises(ValueError):
        oracle.cli_recoveries("2 recovery(ies):\n   {E(a, b)}\n")
    with pytest.raises(ValueError):
        oracle.cli_answers("answer status: degraded\n")


# -- seeded inputs ------------------------------------------------------------


def test_inputs_are_seeded_and_recorded():
    recorded = json.loads((HERE / "input_hashes.json").read_text())
    for workload in run.WORKLOADS:
        digest = inputs.input_digest(workload, inputs.DEFAULT_SEED)
        assert recorded[workload] == digest
        assert inputs.input_digest(workload, 1) != digest


def test_service_stream_mix_is_exact_per_block():
    stream = inputs.ServiceInputs(2).requests(200, inputs.SERVICE_RATE)
    dues = [r.due for r in stream]
    assert dues == sorted(dues)
    for i in range(0, 200, 10):
        block = stream[i:i + 10]
        assert sum(r.target is None for r in block) == inputs.SERVICE_FRESH_PER_10
        assert sum(r.endpoint == "recover" for r in block) == 5
    # Zipf: the hottest target is the most requested.
    hot = [r.target for r in stream if r.target is not None]
    assert max(set(hot), key=hot.count) == 0


# -- open-loop accounting -----------------------------------------------------


class _FakeServer:
    """Answers every request after a fixed service time."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def request(self, method, path, body=None, headers=None):
        time.sleep(self.seconds)
        return 200, b"{}"


def test_open_loop_times_requests_from_their_due_time():
    g = inputs.graph(random.Random(1), 8, 2)
    batch = [run.Sent("t0", "recover", g, None) for _ in range(5)]
    # Four requests due at once (two must queue), one due when idle.
    for req, due in zip(batch, (0.05, 0.05, 0.05, 0.05, 0.40)):
        req.due = due
    start = time.perf_counter()
    run.drive(_FakeServer(0.1), batch, start=start, until=start + 1.0, open_loop=True)
    latency = [req.done - req.due for req in batch]
    assert all(0.09 < x < 0.16 for x in latency[:2])
    # Queued behind a busy client: the wait counts, and it is not lateness.
    assert all(0.19 < x < 0.26 for x in latency[2:4])
    assert batch[2].late is None and batch[3].late is None
    assert batch[4].late is not None and batch[4].late < 0.005
    assert 0.09 < latency[4] < 0.16


def test_open_loop_skips_requests_due_after_the_phase():
    g = inputs.graph(random.Random(1), 8, 2)
    batch = [run.Sent("t0", "certain", g, None) for _ in range(3)]
    for req, due in zip(batch, (0.0, 0.01, 5.0)):
        req.due = due
    start = time.perf_counter()
    run.drive(_FakeServer(0.01), batch, start=start, until=start + 0.5, open_loop=True)
    assert [bool(req.done) for req in batch] == [True, True, False]
