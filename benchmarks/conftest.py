"""Shared helpers for the benchmark harness.

Run with ``pytest benchmarks/ --benchmark-only -s`` to get both the
timing tables from pytest-benchmark and the reproduction tables
(paper-stated artifact vs. measured artifact) printed by each
experiment.

Besides the pytest fixtures this module holds the small
random-exchange shape shared across benchmark files.  Benchmark modules
import it with ``from conftest import ...`` — pytest puts the
benchmarks directory on ``sys.path`` (there is no ``__init__.py`` here).
"""

from __future__ import annotations

import sys

import pytest

from repro.workloads import exchange_workload


def emit(text: str) -> None:
    """Print a reproduction table, visible under ``-s``."""
    print("\n" + text, file=sys.stderr)


@pytest.fixture(scope="session")
def report():
    return emit


def small_exchange(seed: int, source_facts: int, **overrides):
    """The small random-exchange shape shared by E5 and E17.

    Two tgds, binary relations, single-atom bodies, a domain scaling
    with the source — the common parameters deduplicated from the
    per-file builders; ``overrides`` tweaks any of them per caller.
    """
    options = dict(
        tgds=2,
        source_facts=source_facts,
        domain_size=max(3, source_facts // 2),
        max_arity=2,
        max_body_atoms=1,
    )
    options.update(overrides)
    return exchange_workload(seed, **options)
