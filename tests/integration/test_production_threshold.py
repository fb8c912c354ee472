"""Parity at the production storage threshold.

The differential suites pin one backend for every instance
(``storage_backend`` in ``tests/conftest.py``).  Users get the
production threshold instead: each instance picks its backend by its
own size against ``COLUMNAR_MIN_FACTS`` (1 024), so a 1 500-fact target
is columnar and any smaller instance a run builds stays on the object
path.  This module checks that setting against the object path, and
checkpointing and delta maintenance under it against plain cold runs.
"""

from __future__ import annotations

import pytest

from repro.core.certain import certain_answer
from repro.core.inverse_chase import inverse_chase
from repro.data.atoms import Atom
from repro.data.instances import COLUMNAR_MIN_FACTS, Instance
from repro.data.terms import Constant
from repro.engine.cache import clear_registered_caches
from repro.incremental import RecoveryState
from repro.resilience import CheckpointManager
from repro.workloads import path_query, scaled_recovery_workload
from tests.conftest import storage_backend


@pytest.fixture(scope="module")
def graph():
    mapping, target = scaled_recovery_workload(11, facts=1500, domain_size=93)
    return mapping, target, path_query(3, project="source")


@pytest.fixture(scope="module")
def default_results(graph):
    mapping, target, query = graph
    assert len(target) >= COLUMNAR_MIN_FACTS
    clear_registered_caches()
    recoveries = inverse_chase(mapping, target)
    assert target.columnar_store() is not None
    return recoveries, certain_answer(query, mapping, target)


def test_default_threshold_matches_object_path(graph, default_results):
    mapping, target, query = graph
    recoveries, answers = default_results
    with storage_backend("object"):
        # A fresh copy: the shared target already carries its store.
        target = Instance(target.facts)
        assert target.columnar_store() is None
        assert inverse_chase(mapping, target) == recoveries
        assert certain_answer(query, mapping, target) == answers
    assert answers


def test_checkpointing_leaves_the_result_unchanged(
    graph, default_results, tmp_path
):
    mapping, target, _ = graph
    clear_registered_caches()
    manager = CheckpointManager(tmp_path / "snap")
    assert inverse_chase(mapping, target, checkpoint=manager) == default_results[0]


def test_deltas_match_cold_recompute(graph):
    mapping, target, query = graph
    clear_registered_caches()
    state = RecoveryState(mapping, target)
    deltas = [
        ([Atom("F", [Constant("churn0x"), Constant("churn0y")])], []),
        ([], [sorted(target.facts)[len(target) // 2]]),
    ]
    for add, remove in deltas:
        state.apply_delta(add=add, remove=remove)
        maintained = (state.recoveries, state.certain(query))
        clear_registered_caches()
        assert maintained == (
            inverse_chase(mapping, state.target),
            certain_answer(query, mapping, state.target),
        )
