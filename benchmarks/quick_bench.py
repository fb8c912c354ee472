#!/usr/bin/env python
"""Quick-bench harness for the engine layer (PR regression gate).

Times the inverse-chase and certainty benchmarks on a small fixture
and writes a JSON report.

The report's per-phase timings come from the observability layer's
span tree (one traced run, see ``measure_traced_phases``) rather than
ad-hoc stopwatches.  ``--metrics-json`` additionally writes that run's
counters + trace as the same JSON document the CLI's flag of that
name produces, for CI artifact upload.

A scaling-curve section (``--scale-sizes``, skip with ``--no-scaling``)
compares the interned columnar storage backend against the object
backend on generated workloads of 10³–10⁵ facts: inverse-chase and
certainty wall times per size, per-phase breakdowns from spans, and a
regression gate requiring the columnar backend to win by
``--min-columnar-speedup`` at the largest size with bit-identical
results at every size.

A churn section (skip with ``--no-churn``) is the incremental-recovery
gate: at each scaling size it bootstraps a maintained
``repro.incremental.RecoveryState`` and drives it through single-fact
deltas (alternating fresh-fact inserts with deletions of existing
facts), timing delta maintenance — ``apply_delta`` plus refreshed
recoveries plus certain answers — against a cold recompute on the very
same evolved target.  Results must be bit-identical at every step, and
at the largest size the maintained path must beat cold recompute by
``--min-churn-speedup``.

A service section (skip with ``--no-service``) measures what the
long-running service exists to amortize: repeat ``/recover`` requests
against a warm in-process server (mapping registered once, per-tenant
caches and the result cache hot) versus cold one-shot CLI invocations
in a fresh process per request, on a ``scaled_recovery_workload``
fixture.  The gate requires warm repeat requests to beat cold runs by
``--min-service-speedup`` with service responses bit-identical to
direct library calls.

Usage::

    PYTHONPATH=src python benchmarks/quick_bench.py --out BENCH_PR8.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager

from conftest import lemma1_fixture

from repro.core.certain import certain_answer
from repro.core.inverse_chase import inverse_chase
from repro.data import instances
from repro.data.atoms import Atom
from repro.data.terms import Constant
from repro.engine.cache import clear_registered_caches
from repro.incremental import RecoveryState
from repro.logic.parser import parse_query
from repro.observability import (
    METRICS,
    TRACER,
    phase_wall_times,
    write_metrics_json,
)
from repro.resilience import CheckpointManager, Deadline
from repro.workloads import path_query, scaled_recovery_workload

#: Fixture size: the Lemma-1-remark family, asymmetric (3 S-facts,
#: 4 T-facts -> |Chase^-1| = 1398).  Big enough that a run takes a
#: few hundred milliseconds, so timer noise stays small.
N_S, N_T = 3, 4


def fixture():
    """The recovery-set blow-up workload (E6/E7's family, scaled)."""
    return lemma1_fixture(N_S, N_T)


def bench_inverse_chase():
    """E6's fixture: the recovery-set blow-up workload."""
    mapping, target = fixture()
    return inverse_chase(
        mapping,
        target,
        verify_justification=False,
        max_recoveries=100000,
    )


def bench_certainty():
    """E7's fixture: exact certainty through the recovery set."""
    mapping, target = fixture()
    # First components are certain (every recovery covers every S-fact),
    # so the answer set is nonempty and the intersection never
    # early-exits: the full recovery set is evaluated.
    query = parse_query("q(x) :- R(x, y)")
    return certain_answer(
        query,
        mapping,
        target,
        max_recoveries=100000,
        verify_justification=False,
    )


BENCHMARKS = {
    "inverse_chase": bench_inverse_chase,
    "certainty": bench_certainty,
}

def measure(fn, repeats):
    """Best-of / mean-of timings after one warmup run."""
    timings = []
    clear_registered_caches()
    result = fn()  # warmup + the result to report
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - start)
    return {
        "best_s": min(timings),
        "mean_s": statistics.fmean(timings),
        "repeats": repeats,
    }, result


def canonical(result):
    """A backend-independent fingerprint of a benchmark's result.

    Sorted in every branch, so sequences are compared as sets of
    fingerprints.
    """
    if isinstance(result, (set, frozenset)):
        return sorted(str(answer) for answer in result)
    if isinstance(result, (list, tuple)):
        return sorted(str(recovery) for recovery in result)
    return [str(result)]


# --------------------------------------------------------------------
# Scaling curves: the interned columnar backend against the object
# backend on generated large-instance workloads.  The micro-fixtures
# above never cross COLUMNAR_MIN_FACTS, so this is the only
# section where the columnar path is actually engaged; it is also the
# PR gate: at the largest size the columnar backend must beat the
# object backend by --min-columnar-speedup on inverse-chase or
# certainty, with bit-identical results at every size.
# --------------------------------------------------------------------

#: Path length of the scaling query; ``project="source"`` makes every
#: variable past the first existential, so the answer set stays at most
#: the vertex count while the join explores |E|·degree^(length-1)
#: bindings — the configuration that separates tuple-at-a-time from
#: set-at-a-time evaluation.
SCALE_QUERY_LENGTH = 3

#: Edges per vertex in the generated graph (facts / domain_size).
SCALE_DEGREE = 16


def scale_workload(facts: int):
    """One scaling point: workload, query, and its graph parameters."""
    domain = max(64, facts // SCALE_DEGREE)
    mapping, target = scaled_recovery_workload(
        11, facts=facts, domain_size=domain
    )
    query = path_query(SCALE_QUERY_LENGTH, project="source")
    return mapping, target, query, domain


@contextmanager
def columnar_threshold(min_facts: int):
    """Patch ``COLUMNAR_MIN_FACTS`` for a block, clearing every
    registered cache on entry and exit so results computed on one
    backend are never served to the other."""
    previous = instances.COLUMNAR_MIN_FACTS
    instances.COLUMNAR_MIN_FACTS = min_facts
    clear_registered_caches()
    try:
        yield
    finally:
        instances.COLUMNAR_MIN_FACTS = previous
        clear_registered_caches()


def measure_scaling_point(facts: int, columnar: bool, repeats: int):
    """Timings for one (size, backend) cell, results kept for parity.

    The columnar cell runs with the default size threshold (the path a
    user gets); the object cell raises the threshold past every
    instance.  Spans stay enabled during the timed runs — the overhead
    is per span, identical for both backends, and buys the per-phase
    breakdown without a second (minutes-long) traced pass.
    """
    mapping, target, query, _ = scale_workload(facts)
    inverse_timings, certain_timings = [], []
    recoveries = answers = None
    phases = {}
    threshold = instances.COLUMNAR_MIN_FACTS if columnar else sys.maxsize
    with columnar_threshold(threshold):
        for _ in range(repeats):
            clear_registered_caches()
            TRACER.reset()
            TRACER.enable()
            try:
                with TRACER.span("bench.scaling"):
                    start = time.perf_counter()
                    recoveries = inverse_chase(
                        mapping, target, verify_justification=False
                    )
                    mid = time.perf_counter()
                    answers = certain_answer(
                        query, mapping, target, verify_justification=False
                    )
                    end = time.perf_counter()
            finally:
                TRACER.disable()
            inverse_timings.append(mid - start)
            certain_timings.append(end - mid)
            phases = phase_wall_times(TRACER.to_dict())
    timing = {
        "inverse_best_s": min(inverse_timings),
        "certain_best_s": min(certain_timings),
        "repeats": repeats,
        "phases_ms": {name: round(ms, 3) for name, ms in sorted(phases.items())},
    }
    return timing, recoveries, answers


def run_scaling(sizes, repeats: int, min_speedup: float):
    """Columnar vs object across ``sizes``; gate at the largest size."""
    section = {
        "query": f"path length {SCALE_QUERY_LENGTH}, project=source",
        "degree": SCALE_DEGREE,
        "columnar_min_facts": instances.COLUMNAR_MIN_FACTS,
        "points": [],
    }
    failures = []
    identical = True
    gate_speedup = 0.0
    for facts in sizes:
        col_timing, col_recs, col_answers = measure_scaling_point(
            facts, True, repeats
        )
        obj_timing, obj_recs, obj_answers = measure_scaling_point(
            facts, False, repeats
        )
        same = (
            canonical(col_recs) == canonical(obj_recs)
            and col_answers == obj_answers
        )
        identical = identical and same
        speedups = {
            "inverse": round(
                obj_timing["inverse_best_s"] / col_timing["inverse_best_s"], 2
            ),
            "certainty": round(
                obj_timing["certain_best_s"] / col_timing["certain_best_s"], 2
            ),
        }
        if facts == max(sizes):
            gate_speedup = max(speedups.values())
        section["points"].append(
            {
                "facts": facts,
                "domain_size": max(64, facts // SCALE_DEGREE),
                "recoveries": len(col_recs),
                "answers": len(col_answers),
                "columnar": col_timing,
                "object": obj_timing,
                "speedups": speedups,
                "results_identical_across_backends": same,
            }
        )
        print(
            f"scaling {facts} facts:"
            f" inverse col={col_timing['inverse_best_s']:.2f}s"
            f" obj={obj_timing['inverse_best_s']:.2f}s"
            f" ({speedups['inverse']}x) |"
            f" certainty col={col_timing['certain_best_s']:.2f}s"
            f" obj={obj_timing['certain_best_s']:.2f}s"
            f" ({speedups['certainty']}x)"
            + ("" if same else "  RESULTS DIFFER")
        )
    section["results_identical_across_backends"] = identical
    section["gate"] = {
        "largest_facts": max(sizes),
        "best_speedup": gate_speedup,
        "min_required": min_speedup,
        "passed": identical and gate_speedup >= min_speedup,
    }
    if not identical:
        failures.append("columnar_results")
    if gate_speedup < min_speedup:
        failures.append("columnar_speedup")
    return section, failures


# --------------------------------------------------------------------
# Churn: semi-naive delta maintenance against cold recompute.  The
# maintained state and the from-scratch pipeline answer for the *same*
# evolved target object at every step, so the comparison is pure
# algorithm (O(Δ) maintenance vs O(|J|) recompute), not fixture drift.
# --------------------------------------------------------------------

def measure_churn_point(facts: int, deltas: int):
    """One churn cell: bootstrap, then ``deltas`` single-fact deltas.

    Odd steps delete a random fact of the original exchange (retiring
    the covering hom it supports), even steps insert a fresh fact over
    unseen constants (admitting a new hom).  The incremental pass is
    traced as a whole; the cold pass re-times ``inverse_chase`` +
    ``certain_answer`` on each evolved child with cleared caches (an
    epoch the maintained state rebuilds cold seeds the hom-set cache,
    which a cold consumer must not inherit).
    """
    mapping, target, query, _ = scale_workload(facts)
    rng = random.Random(23)
    original = sorted(target.facts)

    clear_registered_caches()
    TRACER.reset()
    TRACER.enable()
    steps = []
    try:
        start = time.perf_counter()
        with TRACER.span("bench.churn_bootstrap"):
            state = RecoveryState(mapping, target, verify_justification=False)
        bootstrap_s = time.perf_counter() - start
        for i in range(deltas):
            if i % 2 == 0:
                add = [Atom("F", [Constant(f"churn{i}x"), Constant(f"churn{i}y")])]
                remove = []
            else:
                add = []
                remove = [original.pop(rng.randrange(len(original)))]
            start = time.perf_counter()
            with TRACER.span("bench.churn_delta"):
                state.apply_delta(add=add, remove=remove)
                recoveries = state.recoveries
                answers = state.certain(query)
            elapsed = time.perf_counter() - start
            steps.append(
                {
                    "target": state.target,
                    "recoveries": canonical(recoveries),
                    "answers": answers,
                    "incremental_s": elapsed,
                }
            )
    finally:
        TRACER.disable()
    incremental_phases = phase_wall_times(TRACER.to_dict())

    TRACER.reset()
    TRACER.enable()
    identical = True
    try:
        for step in steps:
            clear_registered_caches()
            start = time.perf_counter()
            with TRACER.span("bench.churn_cold"):
                cold_recoveries = inverse_chase(
                    mapping, step["target"], verify_justification=False
                )
                cold_answers = certain_answer(
                    query, mapping, step["target"], verify_justification=False
                )
            step["cold_s"] = time.perf_counter() - start
            identical = (
                identical
                and canonical(cold_recoveries) == step["recoveries"]
                and cold_answers == step["answers"]
            )
    finally:
        TRACER.disable()
    cold_phases = phase_wall_times(TRACER.to_dict())

    incremental_total = sum(s["incremental_s"] for s in steps)
    cold_total = sum(s["cold_s"] for s in steps)
    return {
        "facts": facts,
        "deltas": deltas,
        "bootstrap_s": round(bootstrap_s, 4),
        "incremental_total_s": round(incremental_total, 4),
        "cold_total_s": round(cold_total, 4),
        "per_delta": [
            {
                "incremental_s": round(s["incremental_s"], 4),
                "cold_s": round(s["cold_s"], 4),
                "speedup": round(s["cold_s"] / s["incremental_s"], 2),
            }
            for s in steps
        ],
        "speedup": round(cold_total / incremental_total, 2),
        "incremental_phases_ms": {
            name: round(ms, 3) for name, ms in sorted(incremental_phases.items())
        },
        "cold_phases_ms": {
            name: round(ms, 3) for name, ms in sorted(cold_phases.items())
        },
        "results_identical_with_cold": identical,
    }


def run_churn(sizes, deltas: int, min_speedup: float):
    """Delta maintenance vs cold recompute across ``sizes``."""
    section = {
        "query": f"path length {SCALE_QUERY_LENGTH}, project=source",
        "deltas_per_size": deltas,
        "points": [],
    }
    failures = []
    identical = True
    gate_speedup = 0.0
    for facts in sizes:
        point = measure_churn_point(facts, deltas)
        identical = identical and point["results_identical_with_cold"]
        if facts == max(sizes):
            gate_speedup = point["speedup"]
        section["points"].append(point)
        print(
            f"churn {facts} facts ({deltas} deltas):"
            f" bootstrap={point['bootstrap_s']:.2f}s"
            f" incremental={point['incremental_total_s']:.3f}s"
            f" cold={point['cold_total_s']:.2f}s"
            f" ({point['speedup']}x)"
            + ("" if point["results_identical_with_cold"] else "  RESULTS DIFFER")
        )
    section["results_identical_with_cold"] = identical
    section["gate"] = {
        "largest_facts": max(sizes),
        "speedup": gate_speedup,
        "min_required": min_speedup,
        "passed": identical and gate_speedup >= min_speedup,
    }
    if not identical:
        failures.append("churn_results")
    if gate_speedup < min_speedup:
        failures.append("churn_speedup")
    return section, failures


def measure_deadline_overhead(repeats: int) -> dict:
    """Cost of the cooperative checks: generous deadline vs none.

    The deadline never trips (10-minute wall budget, astronomically
    large step budget), so the measured delta is pure bookkeeping:
    step increments in the search loops plus the periodic wall-clock
    read.  Runs are interleaved so drift hits both sides equally.
    """
    mapping, target = fixture()

    def run(deadline):
        return inverse_chase(
            mapping,
            target,
            verify_justification=False,
            max_recoveries=100000,
            deadline=deadline,
        )

    run(None)  # warmup
    without, with_deadline = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        bare = run(None)
        without.append(time.perf_counter() - start)
        deadline = Deadline(wall_ms=600_000, max_steps=10**15)
        start = time.perf_counter()
        guarded = run(deadline)
        with_deadline.append(time.perf_counter() - start)
        assert bare == guarded, "a generous deadline changed the result"
    best_without, best_with = min(without), min(with_deadline)
    return {
        "no_deadline_best_s": best_without,
        "generous_deadline_best_s": best_with,
        "overhead_pct": round((best_with / best_without - 1.0) * 100.0, 2),
        "repeats": repeats,
    }


#: The scaling point the checkpoint-overhead gate runs at: large enough
#: that the run spans many covering boundaries and (at the default 1s
#: cadence) several actual snapshot writes.
CHECKPOINT_FACTS = 20_000


def measure_checkpoint_overhead(repeats: int, facts: int = CHECKPOINT_FACTS) -> dict:
    """Cost of cadenced checkpointing: snapshots on vs none.

    Runs the inverse chase on the ``facts``-sized scaling workload with
    a :class:`CheckpointManager` at the default 1-second cadence and
    without one, interleaved so clock drift hits both sides equally.
    The measured delta is the boundary bookkeeping (one ``due()`` probe
    and state capture per covering) plus however many cadenced saves
    actually fired — i.e. exactly what a user enabling ``--checkpoint``
    pays.  Results must be identical with and without.
    """
    mapping, target, _query, _domain = scale_workload(facts)

    def run(manager):
        return inverse_chase(
            mapping, target, verify_justification=False, checkpoint=manager
        )

    run(None)  # warmup
    without, with_ckpt = [], []
    saves = bytes_written = 0
    with tempfile.TemporaryDirectory(prefix="bench-ckpt-") as tmpdir:
        for i in range(repeats):
            clear_registered_caches()
            start = time.perf_counter()
            bare = run(None)
            without.append(time.perf_counter() - start)
            clear_registered_caches()
            manager = CheckpointManager(os.path.join(tmpdir, f"snap-{i}"))
            base = METRICS.snapshot()
            start = time.perf_counter()
            checkpointed = run(manager)
            with_ckpt.append(time.perf_counter() - start)
            delta = METRICS.delta_since(base)
            saves = delta.get("checkpoint_saves", 0)
            bytes_written = delta.get("checkpoint_bytes_written", 0)
            assert bare == checkpointed, "checkpointing changed the result"
    best_without, best_with = min(without), min(with_ckpt)
    return {
        "facts": facts,
        "no_checkpoint_best_s": best_without,
        "checkpoint_best_s": best_with,
        "overhead_pct": round((best_with / best_without - 1.0) * 100.0, 2),
        "saves_per_run": saves,
        "bytes_per_run": bytes_written,
        "repeats": repeats,
    }


def measure_degradation() -> dict:
    """Counters of an actually-tripping run: the ladder in action."""
    mapping, target = fixture()
    METRICS.reset()
    result = inverse_chase(
        mapping,
        target,
        deadline=Deadline(max_steps=200),
        mode="degrade",
    )
    return {
        "status": result.status,
        "rung": result.rung,
        "result_size": len(result),
        "deadline_hits": METRICS.get("deadline_hits"),
        "degradations": METRICS.get("degradations"),
    }


def measure_traced_phases():
    """One traced E6 run: per-phase wall times out of the span tree.

    Replaces the stopwatch-per-phase approach — the engine's own spans
    are the timing source, so the report's phase breakdown and the
    CLI's ``--trace`` output can never disagree.  Also returns the
    run's counters.
    """
    clear_registered_caches()
    METRICS.reset()
    TRACER.reset()
    TRACER.enable()
    try:
        with TRACER.span("bench.inverse_chase"):
            bench_inverse_chase()
    finally:
        TRACER.disable()
    trace = TRACER.to_dict()
    return trace, phase_wall_times(trace), METRICS.snapshot()


#: Fact count for the service warm-vs-cold fixture: big enough that the
#: cold run is dominated by real recovery work (not just interpreter
#: startup), small enough that a handful of repeats stays under a
#: minute.
SERVICE_FACTS = 2_000


def measure_service_warm_vs_cold(
    repeats: int, min_speedup: float, facts: int = SERVICE_FACTS
):
    """Repeat-request latency against a warm server vs cold one-shots.

    Cold: ``python -m repro recover`` in a fresh subprocess per request
    — every invocation re-parses Σ, re-derives ``SUB(Σ)`` and
    recompiles every plan.  Warm: the same mapping and target served by
    an in-process :func:`repro.service.running_server` over real HTTP,
    registered (and precompiled) once; ``warm_repeat`` is the service's
    actual repeat-request latency (result cache eligible), and
    ``warm_compute`` forces recomputation with ``no_cache`` to isolate
    what the warm engine caches alone buy.  Every service response is
    checked bit-identical to a direct library call.
    """
    import subprocess
    import urllib.request

    from repro.data.io import save_instance, save_mapping
    from repro.service import ServiceConfig, running_server
    from repro.service.wire import render_instances

    mapping, target = scaled_recovery_workload(7, facts=facts)
    direct = render_instances(inverse_chase(mapping, target))
    src_dir = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    failures = []
    with tempfile.TemporaryDirectory(prefix="bench-service-") as tmpdir:
        mapping_path = os.path.join(tmpdir, "bench.mapping")
        target_path = os.path.join(tmpdir, "bench.instance")
        save_mapping(mapping, mapping_path)
        save_instance(target, target_path)
        with open(target_path, encoding="utf-8") as handle:
            target_text = handle.read()
        with open(mapping_path, encoding="utf-8") as handle:
            mapping_text = handle.read()

        cold = []
        command = [
            sys.executable, "-m", "repro", "recover",
            "--mapping", mapping_path, "--target", target_path,
        ]
        env = {**os.environ, "PYTHONPATH": src_dir}
        for _ in range(repeats):
            start = time.perf_counter()
            proc = subprocess.run(
                command, env=env, capture_output=True, text=True
            )
            cold.append(time.perf_counter() - start)
            assert proc.returncode == 0, proc.stderr

        def post(base, path, body):
            request = urllib.request.Request(
                base + path, data=json.dumps(body).encode(), method="POST"
            )
            start = time.perf_counter()
            with urllib.request.urlopen(request, timeout=600) as response:
                payload = json.loads(response.read())
            return time.perf_counter() - start, payload

        warm_compute, warm_repeat = [], []
        identical = True
        with running_server(ServiceConfig(port=0)) as (_service, base):
            register_s, _ = post(
                base, "/mappings",
                {
                    "tgds": mapping_text,
                    "name": "bench",
                    "warm_targets": [target_text],
                },
            )
            body = {"mapping": "bench", "target": target_text}
            for _ in range(repeats):
                elapsed, payload = post(
                    base, "/recover", {**body, "no_cache": True}
                )
                warm_compute.append(elapsed)
                identical &= payload["result"]["recoveries"] == direct
            post(base, "/recover", body)  # populate the result cache
            for _ in range(repeats):
                elapsed, payload = post(base, "/recover", body)
                warm_repeat.append(elapsed)
                identical &= payload["result"]["recoveries"] == direct
                identical &= payload["cached"] is True

    speedups = {
        "warm_repeat_vs_cold": round(min(cold) / min(warm_repeat), 2),
        "warm_compute_vs_cold": round(min(cold) / min(warm_compute), 2),
    }
    section = {
        "facts": facts,
        "recoveries": len(direct),
        "repeats": repeats,
        "register_s": round(register_s, 4),
        "cold_best_s": round(min(cold), 4),
        "warm_compute_best_s": round(min(warm_compute), 4),
        "warm_repeat_best_s": round(min(warm_repeat), 4),
        "speedups": speedups,
        "results_identical_with_library": identical,
        "gate": {
            "min_required": min_speedup,
            "achieved": speedups["warm_repeat_vs_cold"],
            "passed": identical
            and speedups["warm_repeat_vs_cold"] >= min_speedup,
        },
    }
    if not identical:
        failures.append("service_results")
    if speedups["warm_repeat_vs_cold"] < min_speedup:
        failures.append("service_speedup")
    return section, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_PR9.json", help="report path")
    parser.add_argument(
        "--metrics-json",
        metavar="PATH",
        default=None,
        help="also write counters + span trace as a CLI-style metrics document",
    )
    parser.add_argument("--repeats", type=int, default=5, help="timed repeats")
    parser.add_argument(
        "--max-deadline-overhead",
        type=float,
        default=5.0,
        help="fail if a never-tripping deadline costs more than this %%",
    )
    parser.add_argument(
        "--max-checkpoint-overhead",
        type=float,
        default=5.0,
        help=(
            "fail if cadenced checkpointing costs more than this %% on the "
            f"{CHECKPOINT_FACTS}-fact scaling workload"
        ),
    )
    parser.add_argument(
        "--scale-sizes",
        default="5000,20000,100000",
        help="comma-separated fact counts for the columnar scaling curve",
    )
    parser.add_argument(
        "--scale-repeats",
        type=int,
        default=1,
        help="timed repeats per scaling point (the runs take seconds to minutes)",
    )
    parser.add_argument(
        "--min-columnar-speedup",
        type=float,
        default=3.0,
        help=(
            "fail unless the columnar backend beats the object backend by "
            "this factor on inverse-chase or certainty at the largest size"
        ),
    )
    parser.add_argument(
        "--no-scaling",
        action="store_true",
        help="skip the columnar scaling curve (minutes of runtime)",
    )
    parser.add_argument(
        "--churn-deltas",
        type=int,
        default=6,
        help="single-fact deltas per churn point (alternating insert/delete)",
    )
    parser.add_argument(
        "--min-churn-speedup",
        type=float,
        default=5.0,
        help=(
            "fail unless delta maintenance beats cold recompute by this "
            "factor at the largest churn size"
        ),
    )
    parser.add_argument(
        "--no-churn",
        action="store_true",
        help="skip the incremental churn benchmark (minutes of runtime)",
    )
    parser.add_argument(
        "--min-service-speedup",
        type=float,
        default=2.0,
        help=(
            "fail unless warm repeat requests against the service beat "
            "cold one-shot CLI invocations by this factor"
        ),
    )
    parser.add_argument(
        "--service-facts",
        type=int,
        default=SERVICE_FACTS,
        help="fact count for the service warm-vs-cold fixture",
    )
    parser.add_argument(
        "--no-service",
        action="store_true",
        help="skip the service warm-vs-cold benchmark",
    )
    args = parser.parse_args(argv)

    report = {
        "fixture": (
            f"lemma1_remark family, {N_S} S-facts x {N_T} T-facts,"
            " verify_justification=False"
        ),
        "python": platform.python_version(),
        "benchmarks": {},
    }
    failures = []
    for name, fn in BENCHMARKS.items():
        timing, result = measure(fn, args.repeats)
        report["benchmarks"][name] = {
            "serial": timing,
            "result_size": len(canonical(result)),
        }
        print(f"{name}: serial={timing['best_s']:.3f}s")

    # The overhead is a small ratio of two ~150ms timings, so it needs
    # more repeats than the throughput benchmarks for a stable minimum.
    overhead = measure_deadline_overhead(max(3 * args.repeats, 12))
    report["resilience"] = {
        "deadline_overhead": overhead,
        "degraded_run": measure_degradation(),
    }
    print(
        f"deadline overhead: {overhead['overhead_pct']}%"
        f" (no deadline {overhead['no_deadline_best_s']:.3f}s,"
        f" generous deadline {overhead['generous_deadline_best_s']:.3f}s)"
    )
    degraded = report["resilience"]["degraded_run"]
    print(
        f"degraded run: status={degraded['status']} rung={degraded['rung']}"
        f" deadline_hits={degraded['deadline_hits']}"
        f" degradations={degraded['degradations']}"
    )
    if overhead["overhead_pct"] > args.max_deadline_overhead:
        failures.append("deadline_overhead")

    # The floor is higher than the other measurements': the delta being
    # resolved (~0.1s of save cost on a ~3s run) is comparable to
    # scheduler noise on shared runners, and best-of only converges on
    # the quiet-window minimum for both sides with enough samples.
    ckpt = measure_checkpoint_overhead(max(args.repeats, 10))
    report["resilience"]["checkpoint_overhead"] = ckpt
    print(
        f"checkpoint overhead ({ckpt['facts']} facts): {ckpt['overhead_pct']}%"
        f" (off {ckpt['no_checkpoint_best_s']:.3f}s,"
        f" on {ckpt['checkpoint_best_s']:.3f}s,"
        f" {ckpt['saves_per_run']} save(s)/run)"
    )
    if ckpt["overhead_pct"] > args.max_checkpoint_overhead:
        failures.append("checkpoint_overhead")

    trace, phases, counters = measure_traced_phases()
    report["phases"] = {name: round(ms, 3) for name, ms in sorted(phases.items())}
    print(
        "phases (from spans): "
        + " ".join(f"{name}={ms:.1f}ms" for name, ms in sorted(phases.items()))
    )

    if not args.no_service:
        service, service_failures = measure_service_warm_vs_cold(
            max(args.repeats, 3), args.min_service_speedup, args.service_facts
        )
        report["service"] = service
        failures.extend(service_failures)
        print(
            f"service ({service['facts']} facts):"
            f" cold={service['cold_best_s']:.3f}s"
            f" warm-compute={service['warm_compute_best_s']:.3f}s"
            f" ({service['speedups']['warm_compute_vs_cold']}x)"
            f" warm-repeat={service['warm_repeat_best_s']:.3f}s"
            f" ({service['speedups']['warm_repeat_vs_cold']}x)"
            + (
                ""
                if service["results_identical_with_library"]
                else "  RESULTS DIFFER"
            )
        )

    sizes = sorted(int(s) for s in args.scale_sizes.split(",") if s.strip())
    if not args.no_churn:
        churn, churn_failures = run_churn(
            sizes, args.churn_deltas, args.min_churn_speedup
        )
        report["churn"] = churn
        failures.extend(churn_failures)

    if not args.no_scaling:
        scaling, scaling_failures = run_scaling(
            sizes, args.scale_repeats, args.min_columnar_speedup
        )
        report["scaling"] = scaling
        failures.extend(scaling_failures)

    if args.metrics_json:
        write_metrics_json(
            args.metrics_json,
            counters=counters,
            trace=trace,
            command="quick_bench",
        )
        print(f"wrote {args.metrics_json}")

    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    if failures:
        print(f"FAIL: gates missed: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
