"""Command-line interface: ``python -m repro <command> ...``.

Six commands cover the library's main workflows, all operating on DSL
files (see :mod:`repro.data.io`):

* ``exchange``  — chase a source instance forward into a target;
* ``recover``   — compute ``Chase^{-1}(Sigma, J)``, optionally cored;
* ``validate``  — decide J-validity, reporting uncoverable facts;
* ``certain``   — certain answers of a source query over the target;
* ``repair``    — repair an altered target and recover from it;
* ``serve``     — run the long-running recovery service (HTTP).

Example::

    python -m repro recover --mapping orders.mapping --target dump.instance
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from typing import Optional, Sequence

from .chase.standard import chase
from .core.cores import core_recoveries
from .core.repair import uncoverable_facts
from .data.io import load_instance, load_mapping, load_query, save_instance
from .semantics import get_semantics, semantics_names
from .engine.counters import snapshot as counter_snapshot
from .errors import DeadlineExceededError, NotRecoverableError, ReproError
from .observability import METRICS, TRACER, format_trace, write_metrics_json
from .reporting import (
    RunReport,
    format_answers,
    format_counters,
    format_run_report,
)
from .resilience import AnytimeResult, CheckpointManager, Deadline


def _positive_int(text: str) -> int:
    """Argparse type: a strictly positive integer (exit code 2 otherwise)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def _positive_float(text: str) -> float:
    """Argparse type: a strictly positive, finite number (exit code 2
    otherwise — ``nan`` or ``inf`` would silently disable a deadline).
    """
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {value}"
        )
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Instance-based recovery of exchanged data (PODS 2015).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--mapping", required=True, help="mapping DSL file")
        p.add_argument(
            "--stats",
            action="store_true",
            help="print engine counters (work done, cache hits) after the run",
        )
        p.add_argument(
            "--trace",
            action="store_true",
            help="record engine spans and print the trace tree after the run",
        )
        p.add_argument(
            "--metrics-json",
            metavar="PATH",
            default=None,
            help=(
                "write counters + the span trace tree as a JSON document "
                "to PATH (implies span recording)"
            ),
        )

    def semantics(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--semantics",
            default=None,
            metavar="MODE",
            help=(
                "recovery-semantics mode (registered: "
                + ", ".join(semantics_names())
                + "; default: paper)"
            ),
        )

    def resilience(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--deadline-ms",
            type=_positive_float,
            default=None,
            metavar="MS",
            help="wall-clock deadline for the whole computation",
        )
        p.add_argument(
            "--degrade",
            action="store_true",
            help=(
                "on deadline expiry, degrade to a sound-incomplete answer "
                "instead of failing (see the resilience ladder)"
            ),
        )

    def checkpointing(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--checkpoint",
            metavar="PATH",
            default=None,
            help=(
                "durable snapshot file: enumeration state is saved here "
                "periodically so a crash costs only the delta since the "
                "last save"
            ),
        )
        p.add_argument(
            "--checkpoint-every-ms",
            type=_positive_float,
            default=1000.0,
            metavar="MS",
            help="minimum interval between snapshot writes (default 1000)",
        )
        p.add_argument(
            "--resume",
            action="store_true",
            help=(
                "resume from the --checkpoint snapshot when it is present, "
                "uncorrupted and matches the inputs; cold-start otherwise"
            ),
        )

    p_exchange = sub.add_parser("exchange", help="chase a source forward")
    common(p_exchange)
    p_exchange.add_argument("--source", required=True, help="source instance file")
    p_exchange.add_argument("--out", help="write the target here (default stdout)")

    p_recover = sub.add_parser("recover", help="compute Chase^{-1}(Sigma, J)")
    common(p_recover)
    semantics(p_recover)
    resilience(p_recover)
    checkpointing(p_recover)
    p_recover.add_argument("--target", required=True, help="target instance file")
    p_recover.add_argument(
        "--max-recoveries",
        type=int,
        default=1000,
        help="budget on distinct recoveries (duplicate candidates do not count)",
    )
    p_recover.add_argument(
        "--cores",
        action="store_true",
        help="present the recovery set minimally (cores, deduplicated)",
    )

    p_validate = sub.add_parser("validate", help="decide validity for recovery")
    common(p_validate)
    semantics(p_validate)
    p_validate.add_argument("--target", required=True)

    p_certain = sub.add_parser("certain", help="certain answers of a source query")
    common(p_certain)
    semantics(p_certain)
    resilience(p_certain)
    checkpointing(p_certain)
    p_certain.add_argument("--target", required=True)
    p_certain.add_argument("--query", required=True, help="query DSL file")
    p_certain.add_argument(
        "--max-recoveries",
        type=int,
        default=1000,
        help="budget on distinct recoveries (duplicate candidates do not count)",
    )

    p_repair = sub.add_parser("repair", help="repair an altered target and recover")
    common(p_repair)
    semantics(p_repair)
    resilience(p_repair)
    p_repair.add_argument("--target", required=True)
    p_repair.add_argument("--max-removals", type=int, default=3)

    p_serve = sub.add_parser(
        "serve",
        help="run the recovery service (long-running HTTP server)",
        description=(
            "Serve /mappings, /recover, /certain, /repair, /jobs/<id>, "
            "/metrics and /healthz over HTTP with warm per-tenant caches, "
            "admission control and per-request QoS (see docs/API.md)."
        ),
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8765)
    p_serve.add_argument(
        "--max-inflight", type=_positive_int, default=8,
        help="executing requests across all tenants (default 8)",
    )
    p_serve.add_argument(
        "--max-queue", type=_positive_int, default=16,
        help="requests allowed to wait for a slot (default 16)",
    )
    p_serve.add_argument(
        "--max-inflight-per-tenant", type=_positive_int, default=2,
        help="admitted (queued or executing) requests per tenant (default 2)",
    )
    p_serve.add_argument(
        "--queue-timeout-s", type=_positive_float, default=5.0,
        help="longest a request may wait for a slot before a 429 (default 5)",
    )
    p_serve.add_argument(
        "--tenant-cache-budget", type=_positive_int, default=64,
        help="per-tenant entry budget for each engine cache (default 64)",
    )
    p_serve.add_argument(
        "--result-cache-size", type=int, default=256,
        help="exact responses cached per tenant; 0 disables (default 256)",
    )
    p_serve.add_argument(
        "--spool-dir", default=None, metavar="DIR",
        help="checkpoint spool for async jobs (enables crash-resume)",
    )
    p_serve.add_argument(
        "--job-workers", type=_positive_int, default=2,
        help="worker threads draining async jobs (default 2)",
    )
    p_serve.add_argument(
        "--max-recoveries", type=_positive_int, default=1000,
        help="server-side ceiling on any request's max_recoveries",
    )
    p_serve.add_argument(
        "--default-deadline-ms", type=_positive_float, default=None,
        help="deadline applied to requests that name none (default: unbounded)",
    )
    return parser


def _deadline_from(args) -> Optional[Deadline]:
    ms = getattr(args, "deadline_ms", None)
    return Deadline(wall_ms=ms) if ms is not None else None


def _checkpoint_from(args) -> Optional[CheckpointManager]:
    path = getattr(args, "checkpoint", None)
    if path is None:
        return None
    return CheckpointManager(
        path,
        every_ms=getattr(args, "checkpoint_every_ms", 1000.0),
        resume=getattr(args, "resume", False),
    )


def _note_checkpoint(args, manager: Optional[CheckpointManager]) -> None:
    """Record the checkpoint path and resume outcome for --stats."""
    if manager is None:
        return
    args._report["checkpoint"] = str(manager.path)
    args._report["resume_outcome"] = manager.resume_outcome or ""


def _mode_from(args) -> str:
    return "degrade" if getattr(args, "degrade", False) else "raise"


def _semantics_from(args):
    """Resolve the run's semantics strategy and record it for --stats.

    An unknown name raises :class:`~repro.semantics.UnknownSemanticsError`
    (a :class:`~repro.errors.ReproError`), so it exits with code 2 and
    the registered modes listed — the same failure the service maps to
    a 422.
    """
    strategy = get_semantics(getattr(args, "semantics", None))
    args._report["semantics"] = strategy.name
    return strategy


def _note_anytime(args, result: AnytimeResult) -> None:
    """Print a degraded result's provenance and record it for --stats."""
    args._report.update(status=result.status, rung=result.rung)
    if result.is_exact:
        return
    print(f"answer status: {result.status} (ladder rung: {result.rung})")
    if result.detail:
        print(f"  {result.detail}")


def _cmd_exchange(args) -> int:
    with TRACER.span("load"):
        mapping = load_mapping(args.mapping)
        source = load_instance(args.source)
    with TRACER.span("execute"):
        target = chase(mapping, source).result
    if args.out:
        save_instance(target, args.out)
        print(f"wrote {len(target)} facts to {args.out}")
    else:
        for fact in target:
            print(fact)
    return 0


def _cmd_recover(args) -> int:
    with TRACER.span("load"):
        mapping = load_mapping(args.mapping)
        target = load_instance(args.target)
    with TRACER.span("execute"):
        manager = _checkpoint_from(args)
        result = _semantics_from(args).recoveries(
            mapping,
            target,
            max_recoveries=args.max_recoveries,
            deadline=_deadline_from(args),
            mode=_mode_from(args),
            checkpoint=manager,
        )
        _note_checkpoint(args, manager)
        if isinstance(result, AnytimeResult):
            _note_anytime(args, result)
            recoveries = list(result)
        else:
            recoveries = result
        if not recoveries:
            if isinstance(result, AnytimeResult) and not result.is_exact:
                print("no recoveries obtained within the deadline")
            else:
                print(
                    "target admits no recovery under the "
                    f"{args._report['semantics']} semantics"
                )
            return 1
        if args.cores:
            recoveries = core_recoveries(recoveries)
    args._report["result_size"] = len(recoveries)
    print(f"{len(recoveries)} recovery(ies):")
    for recovery in recoveries:
        print("  ", recovery)
    return 0


def _cmd_validate(args) -> int:
    with TRACER.span("load"):
        mapping = load_mapping(args.mapping)
        target = load_instance(args.target)
    with TRACER.span("execute"):
        strategy = _semantics_from(args)
        if strategy.is_valid(mapping, target):
            if strategy.name == "paper":
                print("valid: some source instance justifies every target fact")
            else:
                print(
                    f"valid: target admits a solution under the "
                    f"{strategy.name} semantics"
                )
            return 0
        print("INVALID: no source instance can justify this target")
        orphans = uncoverable_facts(mapping, target)
        for fact in sorted(orphans):
            print("  uncoverable:", fact)
        return 1


def _cmd_certain(args) -> int:
    with TRACER.span("load"):
        mapping = load_mapping(args.mapping)
        target = load_instance(args.target)
        query = load_query(args.query)
    with TRACER.span("execute"):
        manager = _checkpoint_from(args)
        strategy = _semantics_from(args)
        try:
            answers = strategy.certain(
                query,
                mapping,
                target,
                max_recoveries=args.max_recoveries,
                deadline=_deadline_from(args),
                mode=_mode_from(args),
                checkpoint=manager,
            )
        except NotRecoverableError:
            print(
                "target admits no solution under the "
                f"{strategy.name} semantics; certain answers undefined"
            )
            return 1
        _note_checkpoint(args, manager)
        if isinstance(answers, AnytimeResult):
            _note_anytime(args, answers)
            answers = set(answers)
    args._report["result_size"] = len(answers)
    print(format_answers(answers))
    return 0


def _cmd_repair(args) -> int:
    with TRACER.span("load"):
        mapping = load_mapping(args.mapping)
        target = load_instance(args.target)
    with TRACER.span("execute"):
        repaired_list, recoveries = _semantics_from(args).repair_and_recover(
            mapping,
            target,
            max_removals=args.max_removals,
            deadline=_deadline_from(args),
            mode=_mode_from(args),
        )
        if not repaired_list:
            print("no repair found within the removal budget")
            return 1
        if isinstance(recoveries, AnytimeResult):
            _note_anytime(args, recoveries)
            recoveries = list(recoveries)
    args._report["result_size"] = len(recoveries)
    for repaired in repaired_list:
        removed = target.facts - repaired.facts
        print(f"repair removes {len(removed)} fact(s):")
        for fact in sorted(removed):
            print("  -", fact)
    print(f"{len(recoveries)} recovery(ies) of the repaired target:")
    for recovery in recoveries:
        print("  ", recovery)
    return 0


def _cmd_serve(args) -> int:
    from .service import ServiceConfig, create_server

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        max_inflight_per_tenant=args.max_inflight_per_tenant,
        queue_timeout_s=args.queue_timeout_s,
        tenant_cache_budget=args.tenant_cache_budget,
        result_cache_size=args.result_cache_size,
        spool_dir=args.spool_dir,
        job_workers=args.job_workers,
        max_recoveries=args.max_recoveries,
        default_deadline_ms=args.default_deadline_ms,
    )
    server = create_server(config)
    host, port = server.server_address[:2]
    print(f"repro service listening on http://{host}:{port}", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.shutdown()
        server.server_close()
        server.service.shutdown()
    return 0


_COMMANDS = {
    "exchange": _cmd_exchange,
    "recover": _cmd_recover,
    "validate": _cmd_validate,
    "certain": _cmd_certain,
    "repair": _cmd_repair,
    "serve": _cmd_serve,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code.

    Exit codes: 0 success, 1 empty/negative result, 2 library error or
    unreadable input file, 3 deadline expired (without ``--degrade``).
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "resume", False) and not getattr(args, "checkpoint", None):
        parser.error("--resume requires --checkpoint PATH")
    METRICS.reset()
    tracing = bool(getattr(args, "trace", False) or getattr(args, "metrics_json", None))
    if tracing:
        TRACER.reset()
        TRACER.enable()
    args._report = {"status": "exact", "rung": "enumeration", "result_size": 0}
    started = time.perf_counter()
    try:
        with TRACER.span(f"cli.{args.command}"):
            return _COMMANDS[args.command](args)
    except DeadlineExceededError as error:
        print(f"error: {error}", file=sys.stderr)
        for key, value in sorted(error.progress.items()):
            print(f"  progress: {key} = {value}", file=sys.stderr)
        if error.partial:
            print(
                f"  partial results available: {len(error.partial)}",
                file=sys.stderr,
            )
        print(
            "hint: pass --degrade for a sound (possibly incomplete) answer",
            file=sys.stderr,
        )
        args._report["status"] = "deadline-exceeded"
        return 3
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        # A missing or unreadable input file is a usage error, not an
        # empty result: exit 1 would read as "not recoverable".
        if error.filename is not None:
            print(f"error: {error.filename}: {error.strerror}", file=sys.stderr)
        else:
            print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        elapsed_ms = (time.perf_counter() - started) * 1000
        trace = TRACER.to_dict() if tracing else None
        # One RunReport serves every output surface: --stats renders it
        # as a table, --metrics-json writes report.to_dict() — the same
        # serializer the service's response envelopes use, so a CLI
        # metrics document and a service response never disagree on
        # shape.
        report = RunReport(
            command=args.command,
            elapsed_ms=elapsed_ms,
            counters=counter_snapshot(),
            trace=trace,
            **args._report,
        )
        if getattr(args, "stats", False):
            print(format_run_report(report), file=sys.stderr)
            print(format_counters(report.counters), file=sys.stderr)
        if getattr(args, "trace", False):
            print(format_trace(), file=sys.stderr)
        if getattr(args, "metrics_json", None):
            write_metrics_json(args.metrics_json, **report.to_dict())
        if tracing:
            TRACER.disable()


if __name__ == "__main__":  # pragma: no cover - module execution
    sys.exit(main())
