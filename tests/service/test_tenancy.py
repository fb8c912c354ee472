"""Multi-tenant correctness under concurrency (the PR's acceptance bar).

Three properties are pinned, all driven through the in-process
dispatcher (no sockets — the HTTP layer is exercised in test_http):

1. **Determinism** — a service response's result fields are
   bit-identical to a direct library call on the same inputs, under a
   concurrent mixed-tenant barrage.
2. **Partition isolation** — one tenant churning through distinct
   targets evicts only its own partitions; the other tenant's warm
   entries survive byte-for-byte (same keys, growing hit counts).
3. **Counter parity** — the process-wide metrics of a concurrent
   mixed-tenant run equal those of the serial run issuing the same
   requests, modulo scheduling counters (single-flight caches make
   hits/misses deterministic; see ``parity_view``).
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.core.inverse_chase import inverse_chase
from repro.engine.cache import clear_registered_caches
from repro.observability import METRICS, parity_diff
from repro.service import RecoveryService, ServiceConfig
from repro.service.wire import render_instances

ALPHA_TGDS = "S(x, y) -> T(x, y)\nR(x) -> T(x, x)"
BETA_TGDS = "P(x, y) -> T(y, x)\nW(x) -> T(x, x)"

#: Shared-shape targets: both tenants ask about T-facts, so any
#: partition leak would hand one tenant the other's parsed instances
#: or plans (their mappings disagree about what covers a T-fact).
TARGETS = [
    "T(a, b)\nT(c, c)",
    "T(c, c)\nT(d, d)",
    "T(a, b)",
    "T(e, f)\nT(g, g)",
]


def post(service, path, body, tenant):
    return service.dispatch("POST", path, json.dumps(body).encode(), {"X-Tenant": tenant})


def fresh_service(**overrides):
    defaults = dict(
        port=0,
        max_inflight=16,
        max_queue=64,
        max_inflight_per_tenant=64,
        queue_timeout_s=30.0,
    )
    defaults.update(overrides)
    clear_registered_caches()
    service = RecoveryService(ServiceConfig(**defaults))
    post(service, "/mappings", {"tgds": ALPHA_TGDS, "name": "m"}, "alpha")
    post(service, "/mappings", {"tgds": BETA_TGDS, "name": "m"}, "beta")
    return service


def request_plan(repeat=2):
    """The mixed-tenant request multiset both runs issue."""
    plan = []
    for _ in range(repeat):
        for target in TARGETS:
            plan.append(("alpha", {"mapping": "m", "target": target}))
            plan.append(("beta", {"mapping": "m", "target": target}))
    return plan


def run_concurrently(service, plan, n_threads=8):
    """Issue ``plan`` across ``n_threads`` workers; return responses in
    plan order."""
    results = [None] * len(plan)
    cursor = iter(range(len(plan)))
    lock = threading.Lock()

    def worker():
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            tenant, body = plan[index]
            status, payload, _ = post(service, "/recover", body, tenant)
            assert status == 200, payload
            results[index] = payload

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    assert all(result is not None for result in results)
    return results


@pytest.fixture
def expected():
    """Ground truth from direct library calls, per (tenant, target)."""
    from repro.logic.parser import parse_instance, parse_tgds
    from repro.logic.tgds import Mapping

    clear_registered_caches()
    truth = {}
    for tenant, tgds in (("alpha", ALPHA_TGDS), ("beta", BETA_TGDS)):
        mapping = Mapping(parse_tgds(tgds))
        for target in TARGETS:
            recoveries = list(inverse_chase(mapping, parse_instance(target)))
            truth[(tenant, target)] = render_instances(recoveries)
    return truth


class TestDeterminism:
    def test_concurrent_responses_match_direct_library_calls(self, expected):
        service = fresh_service()
        try:
            plan = request_plan(repeat=3)
            results = run_concurrently(service, plan)
            for (tenant, body), payload in zip(plan, results):
                want = expected[(tenant, body["target"])]
                assert payload["result"]["recoveries"] == want, (
                    f"tenant {tenant} target {body['target']!r}"
                )
                assert payload["status"] == "exact"
        finally:
            service.shutdown()

    def test_tenants_with_different_mappings_disagree(self, expected):
        # Sanity for the fixture itself: the shared-shape targets MUST
        # produce different recoveries per tenant, or the isolation
        # assertions above would pass vacuously.
        assert any(
            expected[("alpha", target)] != expected[("beta", target)]
            for target in TARGETS
        )


class TestPartitionIsolation:
    def test_churning_tenant_never_evicts_the_other(self):
        service = fresh_service(tenant_cache_budget=8, instance_cache_size=4)
        try:
            warm_body = {"mapping": "m", "target": TARGETS[0]}
            post(service, "/recover", warm_body, "beta")
            from repro.engine.cache import partitioned_cache_stats

            before = {
                cache: stats.get("tenant:beta")
                for cache, stats in partitioned_cache_stats().items()
            }
            # Alpha churns through far more distinct targets than any
            # budget holds, forcing evictions in alpha's partitions.
            def churn(start):
                for i in range(start, start + 12):
                    post(
                        service, "/recover",
                        {"mapping": "m", "target": f"T(x{i}, y{i})", "no_cache": True},
                        "alpha",
                    )

            threads = [threading.Thread(target=churn, args=(i * 12,)) for i in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            after = {
                cache: stats.get("tenant:beta")
                for cache, stats in partitioned_cache_stats().items()
            }
            for cache, stats_before in before.items():
                if stats_before is None:
                    continue
                assert after[cache]["size"] == stats_before["size"], cache
                assert after[cache]["misses"] == stats_before["misses"], cache
            # And beta's warm entry still hits: repeat request computes
            # nothing new in beta's partitions.
            status, payload, _ = post(
                service, "/recover", {**warm_body, "no_cache": True}, "beta"
            )
            final = {
                cache: stats.get("tenant:beta")
                for cache, stats in partitioned_cache_stats().items()
            }
            assert final["service_instance"]["misses"] == (
                before["service_instance"]["misses"]
            )
            assert final["service_instance"]["hits"] > (
                before["service_instance"]["hits"]
            )
        finally:
            service.shutdown()

    def test_result_cache_is_per_tenant(self):
        service = fresh_service()
        try:
            body = {"mapping": "m", "target": TARGETS[0]}
            _, first_alpha, _ = post(service, "/recover", body, "alpha")
            _, first_beta, _ = post(service, "/recover", body, "beta")
            # Same endpoint, same target text: a shared result cache
            # would hand beta alpha's answer. The mappings differ, so
            # the results must too.
            assert first_alpha["result"] != first_beta["result"]
            _, second_beta, _ = post(service, "/recover", body, "beta")
            assert second_beta["cached"] is True
            assert second_beta["result"] == first_beta["result"]
        finally:
            service.shutdown()


class TestCounterParity:
    def test_concurrent_run_matches_serial_counters(self):
        plan = request_plan(repeat=2)

        serial_service = fresh_service()
        try:
            baseline = METRICS.snapshot()
            for tenant, body in plan:
                status, payload, _ = post(serial_service, "/recover", body, tenant)
                assert status == 200
            serial = METRICS.delta_since(baseline)
        finally:
            serial_service.shutdown()

        concurrent_service = fresh_service()
        try:
            baseline = METRICS.snapshot()
            run_concurrently(concurrent_service, plan)
            concurrent = METRICS.delta_since(baseline)
        finally:
            concurrent_service.shutdown()

        diffs = parity_diff(serial, concurrent)
        assert not diffs, f"counter parity broken: {diffs}"
