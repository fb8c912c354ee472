#!/usr/bin/env python3
"""End-to-end benchmark: CLI, service and view-churn workloads.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload cli_scale --seed 1 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --seed 1 --out results.json     # all workloads

Each workload drives an entry point users call -- ``python -m repro``
subprocesses, a ``repro serve`` subprocess over HTTP, or
``repro.incremental.RecoveryState`` in process -- with inputs from
``inputs.py``, checks every output against ``oracle.py`` outside the
timed windows, and prints one ``workload metric value unit`` line per
metric.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  The traced pass times each layer through the
interposers of ``trace.py``; the end-to-end numbers come from untraced
runs only.  Without ``--workload`` every workload runs in its own fresh
process.  Scratch files live under ``.bench_work/`` in the repository
root and are removed on exit.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import http.client
import itertools
import json
import math
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402
from stats import percentile, summary  # noqa: E402

WORKLOADS = ("cli_scale", "cli_blowup", "service_mix", "view_churn")
#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5
#: Share of a service run spent in the open-loop phase; the rest is
#: the closed-loop capacity phase.
OPEN_LOOP_SHARE = 0.6
#: Generator lateness p90 above this makes a service run invalid.
MAX_LATENESS_MS = 5.0
#: Lemma-1 emits several thousand candidates before deduplication to
#: 1 398 recoveries; the CLI's default budget of 1 000 would refuse it.
BLOWUP_BUDGET = "20000"


class Run:
    """Outcome of one workload run: ops, failures, timings, metrics."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.timings: dict[str, list[float]] = {}
        self.metrics: dict[str, tuple[float, str]] = {}
        self.notes: dict[str, object] = {}

    def op(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)

    def time(self, kind: str, ms: float) -> None:
        self.timings.setdefault(kind, []).append(ms)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


class Bench:
    """Paths, environment and options shared by the workload runners."""

    def __init__(self, args):
        self.seed = args.seed
        self.seconds = args.seconds
        self.traced = bool(args.trace)
        self.work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
        self.env = {
            k: v for k, v in os.environ.items() if not k.startswith("REPRO_")
        }
        self.env["PYTHONPATH"] = str(SRC)

    def write(self, name: str, text: str) -> str:
        path = self.work / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def process(self, argv: list[str]) -> tuple[float, int, str, str, float]:
        """Run ``python argv`` to completion: ``(ms, rc, stdout, stderr, rss_mb)``.

        Timed from spawn to reaping; ``wait4`` gives the child's peak RSS.
        """
        err_path = self.work / "stderr.txt"
        with open(err_path, "w+b") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv],
                stdout=subprocess.PIPE,
                stderr=err,
                env=self.env,
                cwd=self.work,
            )
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = (time.perf_counter() - started) * 1000.0
            proc.stdout.close()
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode(errors="replace")
        return elapsed, proc.returncode, out.decode(), stderr, usage.ru_maxrss / 1024.0

    def startup_ms(self) -> float:
        """Median wall time of ``python -c "import repro.cli"``."""
        return statistics.median(
            self.process(["-c", "import repro.cli"])[0] for _ in range(SETUP_REPEATS)
        )


# -- CLI workloads ------------------------------------------------------------


class CliWorkload:
    """The files and per-op checks of one CLI workload."""

    def __init__(self, bench: Bench, workload: str):
        self.bench = bench
        if workload == "cli_scale":
            g = inputs.cli_scale_target(bench.seed)
            texts = (inputs.EF_MAPPING, g.text(), inputs.PATH3_QUERY)
            self.expected_recoveries = [oracle.ef_recovery(g.edges)]
            self.expected_answers = oracle.path3_answers(g.edges)
            budget: list[str] = []
        else:
            target, a, b = inputs.cli_blowup_target(bench.seed)
            texts = (inputs.LEMMA1_MAPPING, target, inputs.LEMMA1_QUERY)
            self.expected_recoveries = oracle.lemma1_recoveries(a, b)
            self.expected_answers = oracle.lemma1_answers(a)
            budget = ["--max-recoveries", BLOWUP_BUDGET]
        self.files = dict(zip(("m.mapping", "t.instance", "q.query"), texts))
        mapping, target, query = (str(bench.work / name) for name in self.files)
        common = ["--mapping", mapping, "--target", target, *budget]
        self.argv = {
            "recover": ["recover", *common],
            "certain": ["certain", *common, "--query", query],
        }

    def write_files(self) -> None:
        for name, text in self.files.items():
            self.bench.write(name, text)

    def check(self, kind: str, rc: int, stdout: str) -> str:
        """An error description, or "" when the output is right."""
        if rc != 0:
            return f"{kind}: exit code {rc}"
        try:
            if kind == "recover":
                ok = oracle.same_recoveries(
                    oracle.cli_recoveries(stdout), self.expected_recoveries
                )
            else:
                ok = oracle.cli_answers(stdout) == self.expected_answers
        except ValueError as error:
            return f"{kind}: {error}"
        return "" if ok else f"{kind}: output differs from the oracle"


def run_cli(bench: Bench, workload: str) -> Run:
    run = Run(workload)
    cli = CliWorkload(bench, workload)
    setups = []
    for _ in range(SETUP_REPEATS):
        # What a CLI user pays before any command: the input files and
        # interpreter start plus package import.
        started = time.perf_counter()
        cli.write_files()
        ms, rc, _, stderr, _ = bench.process(["-m", "repro", "--help"])
        setups.append(time.perf_counter() - started)
        run.op(rc == 0, f"repro --help: exit code {rc} {stderr[-200:]}")
    pairs: list[float] = []
    peak = 0.0
    while sum(pairs) < bench.seconds * 1000.0:
        pair = 0.0
        for kind in ("recover", "certain"):
            ms, rc, stdout, stderr, rss = bench.process(["-m", "repro", *cli.argv[kind]])
            pair += ms
            peak = max(peak, rss)
            run.time(kind, ms)
            error = cli.check(kind, rc, stdout)
            run.op(not error, f"{error} {stderr[-200:]}")
        pairs.append(pair)
    run.metric("setup_s", statistics.median(setups), "s")
    run.metric("recover_p50_ms", statistics.median(run.timings["recover"]), "ms")
    run.metric("certain_p50_ms", statistics.median(run.timings["certain"]), "ms")
    # One client, so throughput is the reciprocal of the op time; the
    # median pair keeps a burst of machine noise from moving it.
    run.metric("ops_per_s", 2000.0 / statistics.median(pairs), "1/s")
    run.metric("peak_rss_mb", peak, "MB")
    return run


def trace_cli(bench: Bench, workload: str) -> Run:
    """CLI ops through ``traced_repro.py``, each paired with a plain one.

    Every op is a fresh process, as for a user, so no cache or interned
    term survives from one op to the next.
    """
    from trace import layer_metrics, reduce_spans

    run = Run(workload)
    cli = CliWorkload(bench, workload)
    cli.write_files()
    span_lists: list = []
    counts: dict[str, int] = {}
    counters: dict[str, int] = {}
    walls: dict[tuple[str, bool], list[float]] = {}
    dump = str(bench.work / "spans.json")

    def op(kind: str, traced: bool) -> None:
        prefix = [str(HERE / "traced_repro.py"), "--spans", dump] if traced else ["-m", "repro"]
        ms, rc, stdout, stderr, _ = bench.process([*prefix, *cli.argv[kind]])
        walls.setdefault((kind, traced), []).append(ms)
        error = cli.check(kind, rc, stdout)
        run.op(not error, f"{error} {stderr[-200:]}")
        if traced:
            with open(dump, encoding="utf-8") as fh:
                dumped = json.load(fh)
            span_lists.extend(dumped["spans"])
            for total, part in ((counts, dumped["counts"]), (counters, dumped["counters"])):
                for key, value in part.items():
                    total[key] = total.get(key, 0) + value

    started = time.perf_counter()
    round_ = 0
    while time.perf_counter() - started < bench.seconds:
        for k, kind in enumerate(("recover", "certain")):
            for traced in ((True, False) if (round_ + k) % 2 == 0 else (False, True)):
                op(kind, traced)
        round_ += 1
    layers = layer_metrics(reduce_spans(span_lists), counts, counters)
    layers["startup.self_ms"] = bench.startup_ms()
    layers["trace.overhead_pct"] = overhead_pct(walls)
    return finish_trace(run, layers)


def overhead_pct(walls: dict[tuple[str, bool], list[float]]) -> float:
    """Traced over untraced time, in percent, over equal numbers of ops
    of each kind."""
    traced = untraced = 0.0
    for kind in {k for k, _ in walls}:
        on, off = walls.get((kind, True), []), walls.get((kind, False), [])
        n = min(len(on), len(off))
        traced += sum(on[:n])
        untraced += sum(off[:n])
    return 100.0 * (traced / untraced - 1.0) if untraced else 0.0


def finish_trace(run: Run, layers: dict) -> Run:
    """Report every per-layer metric of ``BENCHMARK.json`` (0 where the
    workload does not reach the layer)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for entry in spec["per_layer"]:
        run.metric(entry["name"], layers.get(entry["name"], 0.0), entry["unit"])
    coverage = layers.get("trace.coverage", 0.0)
    run.notes["trace_valid"] = coverage >= 0.9
    if coverage < 0.9:
        print(f"WARNING: trace.coverage {coverage:.3f} < 0.9", file=sys.stderr)
    return run


# -- service_mix --------------------------------------------------------------

QUERY_TEXT = inputs.PATH3_QUERY.strip()


class Server:
    """A ``repro serve`` subprocess on an OS-chosen port."""

    def __init__(self, bench: Bench, spans: str | None = None):
        if spans is None:
            argv = ["-m", "repro"]
        else:
            argv = [str(HERE / "traced_repro.py"), "--spans", spans]
        self.proc = subprocess.Popen(
            [sys.executable, *argv, "serve", "--port", "0"],
            stderr=subprocess.PIPE,
            stdout=subprocess.DEVNULL,
            env=bench.env,
            cwd=bench.work,
            text=True,
        )
        line = self.proc.stderr.readline()
        match = re.search(r"http://([\d.]+):(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not announce its address: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        # Drain stderr so a chatty server can never block on a full pipe.
        self._drain = threading.Thread(target=self.proc.stderr.read, daemon=True)
        self._drain.start()

    def request(self, method: str, path: str, body: bytes | None = None,
                headers: dict | None = None) -> tuple[int, bytes]:
        """One request on its own connection: ``(status, body)``.

        Keep-alive is avoided on purpose: the server writes headers and
        body separately without TCP_NODELAY, so on a reused connection
        a response intermittently waits ~40 ms for the client's delayed
        ACK, which makes latencies bimodal at random.
        """
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            conn.request(method, path, body=body,
                         headers={"Connection": "close", **(headers or {})})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def get(self, path: str) -> dict:
        return json.loads(self.request("GET", path)[1])

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if hasattr(self, "_drain"):
            self._drain.join(timeout=10)
        self.proc.stderr.close()


def post(server: Server, path: str, body: bytes, tenant: str,
         traced: bool | None = None) -> tuple[int, bytes]:
    headers = {"Content-Type": "application/json", "X-Tenant": tenant}
    if traced is not None:
        headers["X-Bench-Trace"] = "1" if traced else "0"
    return server.request("POST", path, body, headers)


def boot_service(bench: Bench, hot: dict, spans: str | None = None) -> Server:
    """Start the server, wait for /healthz, register both tenants."""
    server = Server(bench, spans)
    try:
        deadline = time.monotonic() + 60
        while True:
            try:
                if server.get("/healthz").get("ok"):
                    break
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
        for tenant, graphs in hot.items():
            body = json.dumps({
                "tgds": inputs.EF_MAPPING,
                "name": "ef",
                "warm_targets": [g.text() for g in graphs],
            }).encode()
            status, data = post(server, "/mappings", body, tenant)
            if status != 201:
                raise RuntimeError(f"registration failed: {status} {data[:200]!r}")
    except BaseException:
        server.stop()
        raise
    return server


class Sent:
    """One request as sent, and what came back."""

    __slots__ = ("tenant", "endpoint", "graph", "body", "traced", "due",
                 "sent", "done", "status", "data", "late")

    def __init__(self, tenant, endpoint, graph, traced):
        self.tenant, self.endpoint, self.graph = tenant, endpoint, graph
        body = {"mapping": "ef", "target": graph.text()}
        if endpoint == "certain":
            body["query"] = QUERY_TEXT
        self.body = json.dumps(body).encode()
        self.traced = traced
        self.due = self.sent = self.done = 0.0
        self.status = 0
        self.data = b""
        self.late = None


def drive(server: Server, batch: list[Sent], *, start: float, until: float,
          open_loop: bool) -> None:
    """Send ``batch`` from two client threads, one request at a time each.

    Open loop: request ``i`` is due at ``start + batch[i].due`` and is
    timed from then; when a client is free early, the wait to the due
    time is a sleep and its overshoot is the generator's lateness.
    Closed loop: each client sends its next request as soon as the
    previous one completes, until ``until``.
    """
    lock = threading.Lock()
    cursor = [0]

    def worker():
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(batch):
                return
            req = batch[i]
            now = time.perf_counter()
            if open_loop:
                req.due += start
                if req.due >= until:
                    return
                if now < req.due:
                    time.sleep(req.due - now)
                    now = time.perf_counter()
                    req.late = now - req.due
            else:
                if now >= until:
                    return
                req.due = now
            req.sent = now
            try:
                req.status, req.data = post(
                    server, f"/{req.endpoint}", req.body, req.tenant, req.traced
                )
            except (OSError, http.client.HTTPException) as error:
                req.status, req.data = -1, repr(error).encode()
            req.done = time.perf_counter()

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class ServiceCheck:
    """Oracle answers per target graph (hot graphs repeat)."""

    def __init__(self):
        self._expected: dict[inputs.Graph, tuple] = {}

    def error(self, req: Sent) -> str:
        if req.status != 200:
            return f"{req.endpoint}: HTTP {req.status} {req.data[:200]!r}"
        if req.graph not in self._expected:
            self._expected[req.graph] = (
                [oracle.ef_recovery(req.graph.edges)],
                oracle.path3_answers(req.graph.edges),
            )
        recoveries, answers = self._expected[req.graph]
        payload = json.loads(req.data)
        result = payload.get("result", {})
        if payload.get("status") != "exact":
            return f"{req.endpoint}: status {payload.get('status')}"
        if req.endpoint == "recover":
            ok = oracle.same_recoveries(oracle.service_recoveries(result), recoveries)
        else:
            ok = oracle.service_answers(result) == answers
        return "" if ok else f"{req.endpoint}: response differs from the oracle"


def run_service(bench: Bench, workload: str) -> Run:
    run = Run(workload)
    service = inputs.ServiceInputs(bench.seed)
    hot = service.hot
    spans = str(bench.work / "spans.json") if bench.traced else None
    setups = []
    server = None
    for _ in range(1 if bench.traced else SETUP_REPEATS):
        if server is not None:
            server.stop()
        started = time.perf_counter()
        server = boot_service(bench, hot, spans)
        setups.append(time.perf_counter() - started)
    try:
        # Traced runs trace every other request; None sends no header.
        flags = itertools.cycle((True, False)) if bench.traced else itertools.repeat(None)

        def sent(reqs) -> list[Sent]:
            return [
                Sent(r.tenant, r.endpoint,
                     hot[r.tenant][r.target] if r.target is not None
                     else service.fresh_target(), next(flags))
                for r in reqs
            ]

        warm = [
            Sent(tenant, endpoint, g, next(flags))
            for tenant, graphs in hot.items()
            for g in graphs
            for endpoint in ("recover", "certain")
        ]
        drive(server, warm, start=0.0, until=math.inf, open_loop=False)
        before = server.get("/metrics")["counters"]

        # Both phases send a fixed number of requests, sized so that
        # they take about --seconds at the commit that introduced the
        # benchmark; fixed work keeps the request mix and the server's
        # cache fill (hence its memory) the same on every run.  A phase
        # stops early only at three times its planned length.
        t_open = bench.seconds * OPEN_LOOP_SHARE
        stream = service.requests(
            10 * math.ceil(inputs.SERVICE_RATE * t_open / 10), inputs.SERVICE_RATE
        )
        phase1 = sent(stream)
        for req, r in zip(phase1, stream):
            req.due = r.due
        start = time.perf_counter()
        drive(server, phase1, start=start, until=start + 3 * t_open, open_loop=True)
        phase1 = [r for r in phase1 if r.done]

        t_closed = bench.seconds - t_open
        phase2 = sent(service.requests(
            10 * math.ceil(inputs.SERVICE_CAPACITY * t_closed / 10), 1.0,
            fresh_per_10=10,
        ))
        start = time.perf_counter()
        drive(server, phase2, start=start, until=start + 3 * t_closed, open_loop=False)
        phase2 = [r for r in phase2 if r.done]
        end = max(r.done for r in phase2)

        after = server.get("/metrics")["counters"]
        peak = server.peak_rss_mb()
    finally:
        server.stop()

    check = ServiceCheck()
    for req in warm + phase1 + phase2:
        error = check.error(req)
        run.op(not error, error)
    for req in phase1:
        run.time(req.endpoint, (req.done - req.due) * 1000.0)
    lateness = [r.late * 1000.0 for r in phase1 if r.late is not None]
    lateness_p90 = percentile(lateness, 90) if lateness else 0.0
    run.notes["lateness_p90_ms"] = lateness_p90
    run.notes["lateness_n"] = len(lateness)
    run.notes["valid"] = lateness_p90 <= MAX_LATENESS_MS
    if lateness_p90 > MAX_LATENESS_MS:
        print(f"WARNING: generator lateness p90 {lateness_p90:.2f} ms "
              f"> {MAX_LATENESS_MS} ms; this run is invalid", file=sys.stderr)
    capacity = len(phase2) / (end - start)
    run.notes["offered_rps"] = inputs.SERVICE_RATE

    if not bench.traced:
        run.metric("setup_s", statistics.median(setups), "s")
        run.metric("recover_p50_ms", statistics.median(run.timings["recover"]), "ms")
        run.metric("certain_p50_ms", statistics.median(run.timings["certain"]), "ms")
        run.metric("ops_per_s", capacity, "1/s")
        run.metric("peak_rss_mb", peak, "MB")
        return run

    from trace import layer_metrics, reduce_spans

    with open(spans, encoding="utf-8") as fh:
        dumped = json.load(fh)
    delta = {k: after.get(k, 0) - before.get(k, 0) for k in after}
    layers = layer_metrics(reduce_spans(dumped["spans"]), dumped["counts"], delta)
    overhead, walls = [], {}
    for req in phase1 + phase2:
        payload = json.loads(req.data) if req.status == 200 else {"cached": True}
        if payload["cached"]:
            continue
        overhead.append((req.done - req.sent) * 1000.0 - payload["report"]["elapsed_ms"])
        walls.setdefault((req.endpoint, req.traced), []).append(req.done - req.sent)
    layers["service.overhead_ms"] = statistics.median(overhead) if overhead else 0.0
    layers["service.rejected"] = sum(
        1 for r in warm + phase1 + phase2 if r.status == 429
    )
    layers["startup.self_ms"] = bench.startup_ms()
    layers["trace.overhead_pct"] = overhead_pct(
        {k: [statistics.median(v)] for k, v in walls.items()}
    )
    layers["loadgen.lateness_p90_ms"] = lateness_p90
    return finish_trace(run, layers)


# -- view_churn ---------------------------------------------------------------


def run_view(bench: Bench, workload: str) -> Run:
    from trace import Tracer, layer_metrics, reduce_spans
    from repro.incremental import RecoveryState
    from repro.logic.parser import parse_instance, parse_query, parse_tgds
    from repro.logic.tgds import Mapping
    from repro.observability.metrics import METRICS

    run = Run(workload)
    g = inputs.view_churn_target(bench.seed)
    text = g.text()
    mapping = Mapping(parse_tgds(inputs.EF_MAPPING))
    query = parse_query(inputs.PATH3_QUERY)
    tracer = Tracer()
    if bench.traced:
        tracer.install()
    setups = []
    state = None
    for _ in range(1 if bench.traced else SETUP_REPEATS):
        state = None
        gc.collect()  # free the previous state before the next bootstrap
        started = time.perf_counter()
        state = RecoveryState(mapping, parse_instance(text))
        answers = state.certain(query)
        setups.append(time.perf_counter() - started)
    run.op(_strings(answers) == oracle.path3_answers(g.edges),
           "bootstrap certain answers differ from the oracle")

    stream = inputs.DeltaStream(bench.seed, g)
    walls: dict[tuple[str, bool], list[float]] = {}
    counters_before = METRICS.snapshot()
    ops: list[float] = []
    # Whole insert/delete pairs, so every run has as many of each.
    while sum(ops) < bench.seconds * 1000.0 or len(ops) % 2:
        kind, (u, v) = stream.next()
        fact = parse_instance(f"F(c{u}, c{v})").facts
        delta = {"add": fact} if kind == "add" else {"remove": fact}
        traced = bench.traced and len(ops) % 2 == 0
        with tracer.op(traced):
            t0 = time.perf_counter()
            with tracer.span("incremental"):
                state.apply_delta(**delta)
            t1 = time.perf_counter()
            with tracer.span("incremental"):
                recoveries = state.recoveries
                answers = state.certain(query)
            t2 = time.perf_counter()
        ops.append((t2 - t0) * 1000.0)
        walls.setdefault(("op", traced), []).append(t2 - t0)
        run.time("recover", (t1 - t0) * 1000.0)
        run.time("certain", (t2 - t1) * 1000.0)
        expected = oracle.ef_recovery(stream.live)
        ok = (
            len(recoveries) == 1
            and {(a.relation, tuple(map(str, a.args))) for a in recoveries[0]} == expected
            and _strings(answers) == oracle.path3_answers(stream.live)
        )
        run.op(ok, f"{kind} {u} {v}: view differs from the oracle")

    if not bench.traced:
        run.metric("setup_s", statistics.median(setups), "s")
        run.metric("recover_p50_ms", statistics.median(run.timings["recover"]), "ms")
        run.metric("certain_p50_ms", statistics.median(run.timings["certain"]), "ms")
        run.metric("ops_per_s", 1000.0 / statistics.median(ops), "1/s")
        run.metric(
            "peak_rss_mb",
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        )
        return run

    tracer.uninstall()
    counters = METRICS.snapshot()
    delta = {k: v - counters_before.get(k, 0) for k, v in counters.items()}
    layers = layer_metrics(reduce_spans(tracer.span_lists()), tracer.counts(), delta)
    layers["trace.overhead_pct"] = overhead_pct(walls)
    return finish_trace(run, layers)


def _strings(answers) -> set:
    """Engine answer tuples as tuples of term strings (the oracle's form)."""
    return {tuple(map(str, answer)) for answer in answers}


# -- entry point --------------------------------------------------------------

RUNNERS = {
    ("cli_scale", False): run_cli,
    ("cli_blowup", False): run_cli,
    ("cli_scale", True): trace_cli,
    ("cli_blowup", True): trace_cli,
    ("service_mix", False): run_service,
    ("service_mix", True): run_service,
    ("view_churn", False): run_view,
    ("view_churn", True): run_view,
}


def run_one(args) -> int:
    bench = Bench(args)
    if args.seed == inputs.DEFAULT_SEED:
        recorded = json.loads((HERE / "input_hashes.json").read_text())
        digest = inputs.input_digest(args.workload, args.seed)
        if recorded.get(args.workload) != digest:
            print(f"error: inputs of {args.workload} drifted from "
                  f"input_hashes.json ({digest})", file=sys.stderr)
            return 2
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    bench.work.mkdir(parents=True, exist_ok=True)
    try:
        run = RUNNERS[(args.workload, bench.traced)](bench, args.workload)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        with contextlib.suppress(OSError):  # only when no other run uses it
            bench.work.parent.rmdir()
    report(run, args)
    return 0


def report(run: Run, args) -> None:
    w = run.workload
    for name, (value, unit) in run.metrics.items():
        print(f"{w} {name} {value:.6g} {unit}")
    for kind, values in run.timings.items():
        s = summary(values)
        line = f"{w} {kind}_ms p50 {s['p50']:.6g} n={s['n']}"
        if s["tail"] is not None:
            line += f" p{s['tail_p']:g} {s['tail']:.6g}"
        print(line)
    for name, value in run.notes.items():
        print(f"{w} {name} {value}")
    print(f"{w} failed_frac {run.failed / max(run.attempted, 1):.6g} "
          f"({run.failed}/{run.attempted})")
    for error in run.errors:
        print(f"{w} error {error}", file=sys.stderr)
    result = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in run.metrics.items()
        },
    }
    if args.out:
        detail = {
            "workload": w,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "result": result,
            "timings": {k: summary(v) for k, v in run.timings.items()},
            "samples_ms": run.timings,
            "notes": run.notes,
        }
        Path(args.out).write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))


def run_all(args) -> int:
    """Every workload in a fresh process; ``--out`` gets all results."""
    runs = []
    status = 0
    for workload in WORKLOADS:
        out = ROOT / ".bench_work" / f"all-{os.getpid()}-{workload}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out", str(out)]
        code = subprocess.call(argv)
        status = status or code
        if out.exists():
            runs.append(json.loads(out.read_text()))
            out.unlink()
    with contextlib.suppress(OSError):
        out.parent.rmdir()
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the run's result and detail here")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
