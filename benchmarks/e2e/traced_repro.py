#!/usr/bin/env python3
"""``python -m repro`` with the benchmark's layer interposers installed.

Usage::

    python3 benchmarks/e2e/traced_repro.py --spans SPANS.json recover --mapping ...
    python3 benchmarks/e2e/traced_repro.py --spans SPANS.json serve --port 0

Everything after ``--spans PATH`` goes to ``repro.cli.main`` unchanged.
A CLI command is one op, rooted at ``repro.cli.main``.  Under ``serve``
each request's ``RecoveryService.dispatch`` call is the root of one op,
and only requests carrying ``X-Bench-Trace: 1`` are traced; the others
run with the interposers passing through, which is what the overhead
comparison needs.  On exit (for ``serve``: the CLI's SIGINT shutdown)
the spans, trace counts and the program's METRICS counters go to PATH
as JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

from trace import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans":
        print(__doc__, file=sys.stderr)
        return 2
    spans, cli_args = argv[1], argv[2:]
    import repro.cli
    from repro.observability.metrics import METRICS
    from repro.service.app import RecoveryService

    tracer = Tracer()
    tracer.install()
    dispatch = RecoveryService.dispatch

    def traced_dispatch(self, method, path, raw_body=b"", headers=None):
        traced = (headers or {}).get("X-Bench-Trace") == "1"
        with tracer.op(traced, name="service"):
            return dispatch(self, method, path, raw_body, headers)

    RecoveryService.dispatch = traced_dispatch
    try:
        if cli_args[0] == "serve":
            return repro.cli.main(cli_args)
        with tracer.op():
            return repro.cli.main(cli_args)
    finally:
        RecoveryService.dispatch = dispatch
        tracer.uninstall()
        with open(spans, "w", encoding="utf-8") as fh:
            json.dump({
                "spans": tracer.span_lists(),
                "counts": tracer.counts(),
                "counters": METRICS.snapshot(),
            }, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
