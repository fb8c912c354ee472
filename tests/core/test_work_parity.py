"""Work-parity pin: the exact engine work of one Definition 9 run.

The counters below were recorded with the per-covering pipeline as it
stood before the parallel executor was removed.  They pin that the
single remaining Definition 9 body (backward chase, forward chase,
finishing search, justification gate) does exactly the same work:
the same coverings, the same emitted candidates, the same
justification memo hits and misses, the same homomorphism steps — on
both storage backends.  ``homomorphisms_explored`` was re-pinned lower
once the Definition 2 oracle began trying its minimal-image fast path
before ``satisfies`` and the canonical chase, which that path skips.
"""

from __future__ import annotations

import random
import sys

import pytest

from repro.core.certain import certain_answer
from repro.core.inverse_chase import inverse_chase
from repro.core.semantics import is_justified
from repro.data.instances import COLUMNAR_MIN_FACTS
from repro.errors import BudgetExceededError, DeadlineExceededError
from repro.logic.parser import parse_instance, parse_query, parse_tgds
from repro.logic.tgds import Mapping
from repro.observability import METRICS
from tests.conftest import storage_backend

PINNED = (
    "coverings_evaluated",
    "recoveries_emitted",
    "justification_hits",
    "justification_misses",
    "homomorphisms_explored",
)


def lemma1():
    """The Lemma-1 blow-up family with 3 S-facts and 3 T-facts."""
    facts = ", ".join([f"S(a{i})" for i in range(3)] + [f"T(b{i})" for i in range(3)])
    return (
        Mapping(parse_tgds("R(x, y) -> S(x); R(u, v) -> T(v)")),
        parse_instance(facts),
        parse_query("q(x) :- R(x, y)"),
    )


def ef_graph():
    """A 1 200-edge E→F copy graph, above the columnar threshold."""
    rng = random.Random(7)
    edges: set[tuple[int, int]] = set()
    while len(edges) < 1200:
        edges.add((rng.randrange(80), rng.randrange(100)))
    facts = ", ".join(f"F(c{u}, c{v})" for u, v in sorted(edges))
    return (
        Mapping(parse_tgds("E(x0, x1) -> F(x0, x1)")),
        parse_instance(facts),
        parse_query("q(p0) :- E(p0, p1), E(p1, p2), E(p2, p3)"),
    )


FIXTURES = {"lemma1": lemma1, "ef_graph": ef_graph}

#: ``(fixture, operation) -> (result size, pinned counter values)``;
#: identical with and without the columnar backend.
EXPECTED = {
    ("lemma1", "inverse_chase"): (219, (1, 729, 510, 219, 4293)),
    ("lemma1", "certain_answer"): (3, (1, 729, 510, 219, 5409)),
    ("ef_graph", "inverse_chase"): (1, (1, 1, 0, 1, 4801)),
    ("ef_graph", "certain_answer"): (80, (1, 1, 0, 1, 4881)),
}


@pytest.mark.parametrize("backend", ["object", "columnar"])
@pytest.mark.parametrize("key", sorted(EXPECTED), ids="-".join)
def test_work_counters_are_pinned(key, backend):
    name, operation = key
    # Rebuilt per run: lazy indexes and columnar stores live on the
    # instance objects, so a reused fixture would skip their builds.
    mapping, target, query = FIXTURES[name]()
    if name == "ef_graph":
        assert len(target) > COLUMNAR_MIN_FACTS
    with storage_backend(backend):
        METRICS.reset()
        if operation == "inverse_chase":
            result = inverse_chase(mapping, target)
        else:
            result = certain_answer(query, mapping, target)
        snapshot = METRICS.snapshot()
    size, counters = EXPECTED[key]
    assert len(result) == size
    assert tuple(snapshot.get(counter, 0) for counter in PINNED) == counters


@pytest.mark.parametrize("on_budget", ["raise", "truncate"])
def test_max_recoveries_counts_distinct_recoveries(on_budget):
    """729 candidates yield 219 recoveries: the budget bounds the 219."""
    mapping, target, _ = lemma1()
    METRICS.reset()
    full = inverse_chase(mapping, target, max_recoveries=219, on_budget=on_budget)
    assert len(full) == 219
    assert METRICS.get("recoveries_emitted") == 729
    if on_budget == "truncate":
        cut = inverse_chase(mapping, target, max_recoveries=218, on_budget="truncate")
    else:
        with pytest.raises(BudgetExceededError) as excinfo:
            inverse_chase(mapping, target, max_recoveries=218)
        cut = excinfo.value.partial
    assert cut == full[:218]


@pytest.mark.parametrize("limit", ["budget", "deadline"])
def test_error_progress_counts_recoveries(limit, monkeypatch):
    """An interrupted run reports the recoveries in ``partial``, not the
    candidates (duplicates included) emitted before them."""
    mapping, target, _ = lemma1()
    if limit == "budget":
        with pytest.raises(BudgetExceededError) as excinfo:
            inverse_chase(mapping, target, max_recoveries=218)
        assert len(excinfo.value.partial) == 218
    else:
        # No deadline check of this fixture falls after the first
        # recovery, so expiry is injected at the 100th justification.
        calls = []

        def expiring(*args, **kwargs):
            calls.append(None)
            if len(calls) == 100:
                raise DeadlineExceededError("justification", "injected")
            return is_justified(*args, **kwargs)

        module = sys.modules["repro.core.inverse_chase"]
        monkeypatch.setattr(module, "is_justified", expiring)
        with pytest.raises(DeadlineExceededError) as excinfo:
            inverse_chase(mapping, target)
        assert excinfo.value.partial
    error = excinfo.value
    assert error.progress["recoveries_emitted"] == len(error.partial)
