#!/usr/bin/env python3
"""Compare two sets of benchmark results against ``BENCHMARK.json``.

Usage::

    python3 benchmarks/e2e/compare.py --base A1.json A2.json ... --new B1.json B2.json ...

Each file is a ``run.py --out`` document (one workload, or every
workload under ``"runs"``).  For every (metric, workload) pair the
report gives each side's median and quartiles and a verdict:

* ``regression`` -- the new median is worse than the base median by
  more than the metric's bound;
* ``unresolved`` -- the base runs' own spread (interquartile distance
  over median) exceeds the bound, so a difference cannot be told from
  noise -- unless every new run is better than every base run;
* ``gain`` -- the new side wins at least 9 of every 10 pairs (files
  are paired in the order given; ties count for neither side), the
  medians differ by more than the base's interquartile distance, and
  the new side failed no more ops than the base;
* ``same`` otherwise.

Service runs whose load generator ran late (``valid: false``) are
dropped.  Per-layer metrics (traced runs) have no bound; they get the
medians and the gain rule only.  Exit status 1 when any pair regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import quartiles, spread  # noqa: E402

WIN_SHARE = 0.9


def load(paths) -> tuple[dict[tuple[str, str], list[float]], dict[str, int]]:
    """``(metric, workload) -> values`` in file order, and failed ops
    per workload."""
    values: dict[tuple[str, str], list[float]] = {}
    failed: dict[str, int] = {}
    for path in paths:
        doc = json.loads(Path(path).read_text())
        for run in doc.get("runs", [doc]):
            if run.get("notes", {}).get("valid") is False:
                continue
            workload = run["workload"]
            failed[workload] = failed.get(workload, 0) + run["result"]["failed"]
            for name, metric in run["result"]["metrics"].items():
                values.setdefault((name, workload), []).append(metric["value"])
    return values, failed


def better(a: float, b: float, direction: str) -> bool:
    """Whether ``a`` is better than ``b``."""
    return a < b if direction == "lower" else a > b


def verdict(base: list[float], new: list[float], direction: str,
            bound: float | None) -> str:
    q1, base_med, q3 = quartiles(base)
    new_med = statistics.median(new)
    if bound is not None:
        worse = (new_med - base_med) if direction == "lower" else (base_med - new_med)
        if worse > bound * abs(base_med):
            return "regression"
        all_better = all(better(n, b, direction) for n in new for b in base)
        if spread(base) > bound and not all_better:
            return "unresolved"
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if better(n, b, direction))
    if pairs and wins >= WIN_SHARE * len(pairs) and abs(new_med - base_med) > q3 - q1:
        return "gain"
    return "same"


def _fmt(q) -> str:
    return "/".join(f"{v:.4g}" for v in q)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    parser.add_argument("--spec", default=str(HERE.parents[1] / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    (base, base_failed), (new, new_failed) = load(args.base), load(args.new)
    regressed = False
    print(f"{'metric':36} {'workload':12} {'base q1/med/q3':>30} "
          f"{'new q1/med/q3':>30} {'change':>8}  verdict")
    for key in sorted(base.keys() & new.keys()):
        name, workload = key
        spec_metric = metrics.get(name)
        if spec_metric is None:
            continue
        b, n = base[key], new[key]
        bq, nq = quartiles(b), quartiles(n)
        change = (nq[1] - bq[1]) / abs(bq[1]) * 100 if bq[1] else 0.0
        result = verdict(b, n, spec_metric["better"], spec_metric.get("bound"))
        if result == "gain" and new_failed.get(workload, 0) > base_failed.get(workload, 0):
            result = "same (gain void: more failed ops)"
        regressed |= result == "regression"
        print(f"{name:36} {workload:12} {_fmt(bq):>30} {_fmt(nq):>30} "
              f"{change:+7.1f}%  {result} (n={len(b)}/{len(n)})")
    for workload in sorted(base_failed.keys() | new_failed.keys()):
        print(f"failed ops {workload}: base {base_failed.get(workload, 0)}, "
              f"new {new_failed.get(workload, 0)}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
