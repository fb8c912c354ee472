"""Recovery-as-a-service: the HTTP application and its transport.

The service exists to amortize compilation.  A one-shot CLI run pays
for parsing Σ, deriving ``SUB(Σ)``, enumerating hom-sets and compiling
join plans on every invocation; a long-running process pays once at
``POST /mappings`` time and serves every later request out of warm,
per-tenant cache partitions.  The moving parts:

* :class:`RecoveryService` — a framework-free request core.  Its
  :meth:`~RecoveryService.dispatch` method maps ``(method, path,
  body, headers)`` to ``(status, payload, extra_headers)`` with no
  socket in sight, so tests and benchmarks can drive the full handler
  stack in-process.
* :class:`_RequestHandler`/:func:`create_server` — a thin
  ``http.server`` transport (stdlib only, threaded) that feeds the
  dispatcher and writes JSON back.
* :func:`running_server` — a context manager that boots the server on
  a background thread and tears it down, for tests.

Request flow for the compute endpoints (``/recover``, ``/certain``,
``/repair``): resolve tenant → admission control (429 + Retry-After
when over the caps) → enter the tenant's cache partition → resolve the
registered mapping and the content-addressed target → build the QoS
deadline (after admission, so queueing does not eat the budget) → run
the core algorithm → attach rung provenance and a
:class:`repro.reporting.RunReport` envelope.  Exact results land in a
per-tenant result cache; degraded ones never do.
"""

from __future__ import annotations

import json
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Iterator, Optional, Tuple

from ..core.cores import core_recoveries
from ..engine.cache import (
    PartitionedLRUCache,
    cache_partition,
    configure_partition,
    partitioned_cache_stats,
)
from ..engine.counters import snapshot as counter_snapshot
from ..errors import (
    BudgetExceededError,
    DeadlineExceededError,
    NotRecoverableError,
    ParseError,
    ReproError,
)
from ..logic.parser import parse_instance, parse_query
from ..observability import TRACER
from ..observability.export import metrics_document
from ..observability.metrics import METRICS
from ..reporting import RunReport
from ..resilience import CheckpointManager
from ..semantics import UnknownSemanticsError, get_semantics
from .admission import AdmissionController, AdmissionRejected
from .jobs import JobManager
from .qos import QoS, provenance, qos_from
from .registry import MappingRegistry, RegisteredMapping, tenant_partition
from .wire import (
    WireError,
    content_key,
    error_payload,
    get_bool,
    get_int,
    get_str,
    instance_text,
    parse_json_body,
    render_answers,
    render_instance,
    render_instances,
    tenant_of,
    valid_name,
)

#: ``dispatch``'s return shape: status code, JSON payload, extra headers.
Response = Tuple[int, dict, dict]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one service process (all enforced, none advisory)."""

    host: str = "127.0.0.1"
    port: int = 8765
    #: Admission control (see :class:`.admission.AdmissionController`).
    max_inflight: int = 8
    max_queue: int = 16
    max_inflight_per_tenant: int = 2
    queue_timeout_s: float = 5.0
    retry_after_s: float = 1.0
    #: Per-tenant budget for every partitioned engine cache (entries).
    tenant_cache_budget: int = 64
    #: Content-addressed parsed targets kept per tenant.
    instance_cache_size: int = 32
    #: Exact responses kept per tenant (0 disables the result cache).
    result_cache_size: int = 256
    #: Spool directory for job checkpoints (None → jobs run without
    #: durability; crash-restart re-runs them from scratch).
    spool_dir: Optional[str] = None
    job_workers: int = 2
    max_pending_jobs: int = 32
    #: Server-side ceiling a request's ``max_recoveries`` cannot exceed.
    max_recoveries: int = 1000
    #: Deadline applied when a request names none (None → unbounded).
    default_deadline_ms: Optional[float] = None


class _Uncacheable(Exception):
    """Escape hatch: a computed response that must not enter the
    result cache (degraded rung, error status) rides this exception
    out of the cache's single-flight compute slot."""

    def __init__(self, status: int, payload: dict):
        self.status = status
        self.payload = payload


class RecoveryService:
    """The request core: routing, tenancy, admission, QoS, caching."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        cfg = self.config
        self.registry = MappingRegistry(
            instance_cache_size=cfg.instance_cache_size
        )
        self.admission = AdmissionController(
            max_inflight=cfg.max_inflight,
            max_queue=cfg.max_queue,
            max_inflight_per_tenant=cfg.max_inflight_per_tenant,
            queue_timeout_s=cfg.queue_timeout_s,
            retry_after_s=cfg.retry_after_s,
        )
        self.jobs = JobManager(
            workers=cfg.job_workers,
            max_pending=cfg.max_pending_jobs,
            spool_dir=cfg.spool_dir,
            retry_after_s=cfg.retry_after_s,
        )
        self._results: Optional[PartitionedLRUCache] = (
            PartitionedLRUCache("service_result", maxsize=cfg.result_cache_size)
            if cfg.result_cache_size > 0
            else None
        )
        self._known_tenants: set[str] = set()
        self._tenant_lock = threading.Lock()
        # Monotonic, not wall-clock: the chaos harness injects clock
        # skew, and a stepped wall clock must never make /healthz or
        # /metrics report negative uptime.
        self.started_at = time.monotonic()

    # -- tenancy ------------------------------------------------------------

    def _enter_tenant(self, tenant: str) -> str:
        """Pin the tenant's cache budget on first contact; return the
        partition name.  The pin fixes the tenant's capacity on every
        partitioned cache, independent of the shared default — a
        tenant's warm-state footprint is a service-level contract."""
        partition = tenant_partition(tenant)
        with self._tenant_lock:
            if tenant not in self._known_tenants:
                configure_partition(partition, self.config.tenant_cache_budget)
                self._known_tenants.add(tenant)
        return partition

    # -- dispatch -----------------------------------------------------------

    def dispatch(
        self,
        method: str,
        path: str,
        raw_body: bytes = b"",
        headers: Optional[dict[str, str]] = None,
    ) -> Response:
        """Route one request; never raises (errors become payloads)."""
        headers = headers or {}
        try:
            return self._route(method, path, raw_body, headers)
        except AdmissionRejected as error:
            return (
                429,
                error_payload(
                    "rejected",
                    str(error),
                    reason=error.reason,
                    retry_after_s=error.retry_after_s,
                ),
                # RFC 7231 Retry-After is integer delta-seconds; round
                # sub-second hints up so the header stays parseable.
                {"Retry-After": str(max(1, math.ceil(error.retry_after_s)))},
            )
        except WireError as error:
            kind = {
                404: "not-found",
                409: "conflict",
                422: "unprocessable",
            }.get(error.http_status, "bad-request")
            return error.http_status, error_payload(kind, str(error)), {}
        except UnknownSemanticsError as error:
            return 422, error_payload("unknown-semantics", str(error)), {}
        except DeadlineExceededError as error:
            return (
                504,
                error_payload(
                    "deadline",
                    str(error),
                    progress=dict(error.progress),
                    partial_results=len(error.partial),
                ),
                {},
            )
        except NotRecoverableError as error:
            return 422, error_payload("not-recoverable", str(error)), {}
        except BudgetExceededError as error:
            return (
                422,
                error_payload(
                    "budget", str(error), partial_results=len(error.partial)
                ),
                {},
            )
        except ParseError as error:
            return 400, error_payload("parse-error", str(error)), {}
        except ReproError as error:
            return 500, error_payload("engine-error", str(error)), {}
        except Exception as error:  # noqa: BLE001 - service boundary
            METRICS.inc("service_internal_errors")
            return (
                500,
                error_payload(
                    "internal", f"{type(error).__name__}: {error}"
                ),
                {},
            )

    def _route(
        self, method: str, path: str, raw_body: bytes, headers: dict[str, str]
    ) -> Response:
        path = path.split("?", 1)[0].rstrip("/") or "/"
        if method == "GET":
            if path == "/healthz":
                return self._healthz()
            if path == "/metrics":
                return self._metrics()
            if path == "/mappings":
                tenant = tenant_of({}, headers)
                return 200, {"ok": True, "mappings": self.registry.describe(tenant)}, {}
            if path.startswith("/jobs/"):
                tenant = tenant_of({}, headers)
                job = self.jobs.get(tenant, path[len("/jobs/"):])
                return 200, {"ok": True, "job": job.describe()}, {}
            raise WireError(f"no such resource {path!r}", http_status=404)
        if method == "POST":
            body = parse_json_body(raw_body)
            if path == "/mappings":
                return self._register(body, headers)
            if path.startswith("/mappings/") and path.endswith("/facts"):
                name = path[len("/mappings/") : -len("/facts")]
                return self._facts(
                    valid_name(name, "mapping name"), body, headers
                )
            if path in ("/recover", "/certain", "/repair"):
                return self._compute_endpoint(path[1:], body, headers)
            raise WireError(f"no such resource {path!r}", http_status=404)
        raise WireError(f"method {method} not allowed", http_status=405)

    # -- endpoint: POST /mappings -------------------------------------------

    def _register(self, body: dict, headers: dict[str, str]) -> Response:
        tenant = tenant_of(body, headers)
        self._count_request(tenant, "mappings")
        self._enter_tenant(tenant)
        text = get_str(body, "tgds")
        name = body.get("name")
        if name is not None:
            name = valid_name(name, "mapping name")
        warm = body.get("warm_targets", [])
        if not isinstance(warm, list):
            raise WireError("field 'warm_targets' must be a list")
        warm_texts = tuple(
            instance_text({"target": entry}) for entry in warm
        )
        started = time.perf_counter()
        with self.admission.admit(tenant):
            with TRACER.span("service.mappings"):
                entry, created = self.registry.register(
                    tenant,
                    text,
                    name=name,
                    precompile=get_bool(body, "precompile", True),
                    warm_targets=warm_texts,
                )
        report = RunReport(
            command="service.mappings",
            elapsed_ms=(time.perf_counter() - started) * 1000.0,
            result_size=entry.subsumer_count,
        )
        payload = {
            "ok": True,
            "tenant": tenant,
            "created": created,
            "mapping": entry.describe(),
            "report": report.to_dict(),
        }
        return (201 if created else 200), payload, {}

    # -- endpoint: POST /mappings/<name>/facts ------------------------------

    def _facts(
        self, mapping_id: str, body: dict, headers: dict[str, str]
    ) -> Response:
        """Apply a fact delta to the mapping's materialized recovery view.

        ``target`` (DSL text or a fact list) initializes or replaces
        the view's base instance; ``add``/``remove`` are fact deltas
        maintained semi-naively through
        :class:`repro.incremental.RecoveryState`.  Every effective
        delta advances the view's epoch, which versions the result
        cache: entries computed against the old target can no longer
        be addressed, so no stale exact result survives a mutation.
        """
        tenant = tenant_of(body, headers)
        self._count_request(tenant, "facts")
        self._enter_tenant(tenant)
        entry = self.registry.get(tenant, mapping_id)
        add_text = instance_text(body, "add") if "add" in body else ""
        remove_text = instance_text(body, "remove") if "remove" in body else ""
        verify = get_bool(body, "verify_justification", True)
        qos = qos_from(body, self.config.default_deadline_ms)
        started = time.perf_counter()
        with self.admission.admit(tenant):
            with cache_partition(tenant_partition(tenant)):
                with TRACER.span("service.facts"):
                    add = (
                        parse_instance(add_text).facts if add_text else frozenset()
                    )
                    remove = (
                        parse_instance(remove_text).facts
                        if remove_text
                        else frozenset()
                    )
                    view = self.registry.view_of(tenant, mapping_id)
                    if "target" in body:
                        base = self.registry.target_for(
                            tenant, instance_text(body)
                        )
                        view = self.registry.materialize(
                            tenant, mapping_id, base, verify=verify
                        )
                    elif view is None:
                        raise WireError(
                            f"mapping {mapping_id!r} has no materialized "
                            "target; supply 'target' to initialize the view",
                            http_status=409,
                        )
                    elif view.verify != verify:
                        raise WireError(
                            "materialized view was built with "
                            f"verify_justification={view.verify}; "
                            "re-send 'target' to rebuild it differently"
                        )
                    before = view.state.target
                    child = view.state.apply_delta(
                        add=add, remove=remove, deadline=qos.deadline()
                    )
                    if child is not before:
                        view.deltas += 1
                    valid = bool(view.state.recoveries)
        report = RunReport(
            command="service.facts",
            elapsed_ms=(time.perf_counter() - started) * 1000.0,
            result_size=len(child.facts),
        )
        payload = {
            "ok": True,
            "tenant": tenant,
            "mapping": entry.mapping_id,
            "fingerprint": entry.fingerprint,
            "applied": {"added": len(add), "removed": len(remove)},
            "view": {**view.describe(), "valid": valid},
            "report": report.to_dict(),
        }
        return 200, payload, {}

    # -- endpoints: POST /recover | /certain | /repair ----------------------

    def _strategy_of(self, body: dict):
        """Resolve the request's semantics mode (default: config's).

        An unknown name raises
        :class:`~repro.semantics.UnknownSemanticsError`, which
        :meth:`dispatch` maps to a 422 listing the registered modes.
        """
        name = body.get("semantics")
        if name is not None and not isinstance(name, str):
            raise WireError("field 'semantics' must be a string")
        strategy = get_semantics(name)
        METRICS.inc(f"service_semantics[{strategy.name}]")
        return strategy

    def _compute_endpoint(
        self, endpoint: str, body: dict, headers: dict[str, str]
    ) -> Response:
        tenant = tenant_of(body, headers)
        self._count_request(tenant, endpoint)
        self._enter_tenant(tenant)
        entry = self.registry.get(tenant, get_str(body, "mapping"))
        qos = qos_from(body, self.config.default_deadline_ms)
        if body.get("mode", "sync") == "async":
            job = self.jobs.submit(
                tenant,
                endpoint,
                lambda manager: self._admitted_execute(
                    endpoint, tenant, entry, body, qos, manager
                )[:2],
            )
            return (
                202,
                {
                    "ok": True,
                    "tenant": tenant,
                    "job": job.describe(include_response=False),
                    "poll": f"/jobs/{job.job_id}",
                },
                {},
            )
        return self._admitted_execute(endpoint, tenant, entry, body, qos, None)

    def _admitted_execute(
        self,
        endpoint: str,
        tenant: str,
        entry: RegisteredMapping,
        body: dict,
        qos: QoS,
        manager: Optional[CheckpointManager],
    ) -> Response:
        with self.admission.admit(tenant):
            status, payload = self._execute(
                endpoint, tenant, entry, body, qos, manager
            )
        return status, payload, {}

    def _execute(
        self,
        endpoint: str,
        tenant: str,
        entry: RegisteredMapping,
        body: dict,
        qos: QoS,
        manager: Optional[CheckpointManager],
    ) -> tuple[int, dict]:
        if endpoint in ("recover", "certain") and "target" not in body:
            return self._execute_view(endpoint, tenant, entry, body, qos)
        target_text = instance_text(body)
        runner, options = self._plan_run(endpoint, entry, body, qos, manager)
        cache_key = (
            endpoint,
            entry.fingerprint,
            content_key(target_text),
            options,
        )
        with cache_partition(tenant_partition(tenant)):
            target = self.registry.target_for(tenant, target_text)
            return self._cached_response(
                cache_key, body, lambda: runner(tenant, target)
            )

    def _cached_response(
        self,
        cache_key: tuple,
        body: dict,
        compute: Callable[[], tuple[int, dict]],
    ) -> tuple[int, dict]:
        """Serve from the per-tenant result cache, computing on miss.

        Must run inside the tenant's cache partition.  Only exact 200
        responses enter the cache; degraded and error responses depend
        on the deadline that produced them and ride out uncached.
        """
        if self._results is None or get_bool(body, "no_cache", False):
            status, payload = compute()
            return status, {**payload, "cached": False}
        fresh: list[tuple[int, dict]] = []

        def guarded() -> tuple[int, dict]:
            status, payload = compute()
            fresh.append((status, payload))
            if status != 200 or payload.get("status") != "exact":
                raise _Uncacheable(status, payload)
            return status, payload

        try:
            status, payload = self._results.get_or_compute(cache_key, guarded)
        except _Uncacheable as partial:
            return partial.status, {**partial.payload, "cached": False}
        return status, {**payload, "cached": not fresh}

    def _execute_view(
        self,
        endpoint: str,
        tenant: str,
        entry: RegisteredMapping,
        body: dict,
        qos: QoS,
    ) -> tuple[int, dict]:
        """Serve ``/recover`` or ``/certain`` from the materialized view.

        The result-cache key carries the view's current epoch instead
        of a target content hash: a delta gives the target a fresh
        epoch, so entries cached before the mutation are unreachable
        and warm requests after a small delta are near-cache-hit speed
        without ever serving a stale answer.
        """
        strategy = self._strategy_of(body)
        if strategy.name != "paper":
            raise WireError(
                "materialized views are maintained under the 'paper' "
                f"semantics; supply 'target' explicitly to use mode "
                f"{strategy.name!r}"
            )
        view = self.registry.view_of(tenant, entry.mapping_id)
        if view is None:
            raise WireError(
                "missing required field 'target' and mapping "
                f"{entry.mapping_id!r} has no materialized view "
                f"(POST /mappings/{entry.mapping_id}/facts to create one)"
            )
        verify = get_bool(body, "verify_justification", True)
        if verify != view.verify:
            raise WireError(
                "materialized view was built with "
                f"verify_justification={view.verify}"
            )
        state = view.state
        METRICS.inc("service_view_requests")
        deadline = qos.deadline()
        if endpoint == "recover":
            cores = get_bool(body, "cores", False)
            options: tuple = (verify, cores)

            def compute() -> tuple[int, dict]:
                started = time.perf_counter()
                with TRACER.span("service.recover"):
                    recoveries = state.recoveries
                return self._recovery_payload(
                    "recover",
                    tenant,
                    entry,
                    recoveries,
                    cores,
                    None,
                    started,
                    rung_override="incremental",
                    detail_override="materialized view",
                )

        else:
            query_text = get_str(body, "query")
            query = parse_query(query_text)
            options = (verify, content_key(query_text))

            def compute() -> tuple[int, dict]:
                started = time.perf_counter()
                with TRACER.span("service.certain"):
                    answers = state.certain(query, deadline)
                rendered = render_answers(answers)
                payload = self._envelope(
                    "certain",
                    tenant,
                    entry,
                    "exact",
                    "incremental",
                    "materialized view",
                    started,
                    result_size=len(rendered),
                    manager=None,
                    result={"answers": rendered, "count": len(rendered)},
                )
                return 200, payload

        cache_key = (
            endpoint,
            entry.fingerprint,
            ("view", entry.mapping_id, state.target.epoch),
            options,
        )
        with cache_partition(tenant_partition(tenant)):
            return self._cached_response(cache_key, body, compute)

    def _plan_run(
        self,
        endpoint: str,
        entry: RegisteredMapping,
        body: dict,
        qos: QoS,
        manager: Optional[CheckpointManager],
    ) -> tuple[Callable[[str, Any], tuple[int, dict]], tuple]:
        """Validate the endpoint-specific fields *before* admission and
        return ``(runner, options_key)``; the runner does the actual
        core-layer call once a slot and the tenant partition are held."""
        cfg = self.config
        strategy = self._strategy_of(body)
        max_recoveries = get_int(
            body, "max_recoveries", cfg.max_recoveries, maximum=cfg.max_recoveries
        )
        verify = get_bool(body, "verify_justification", True)
        if endpoint == "recover":
            cores = get_bool(body, "cores", False)
            options = (strategy.name, max_recoveries, verify, cores)

            def run(tenant: str, target: Any) -> tuple[int, dict]:
                started = time.perf_counter()
                with TRACER.span("service.recover"):
                    outcome = strategy.recoveries(
                        entry.mapping,
                        target,
                        max_recoveries=max_recoveries,
                        verify_justification=verify,
                        deadline=qos.deadline(),
                        mode=qos.mode,
                        checkpoint=manager,
                    )
                return self._recovery_payload(
                    "recover",
                    tenant,
                    entry,
                    outcome,
                    cores,
                    manager,
                    started,
                    semantics=strategy.name,
                )

            return run, options
        if endpoint == "certain":
            query_text = get_str(body, "query")
            query = parse_query(query_text)
            options = (strategy.name, max_recoveries, verify, content_key(query_text))

            def run(tenant: str, target: Any) -> tuple[int, dict]:
                started = time.perf_counter()
                with TRACER.span("service.certain"):
                    outcome = strategy.certain(
                        query,
                        entry.mapping,
                        target,
                        max_recoveries=max_recoveries,
                        verify_justification=verify,
                        deadline=qos.deadline(),
                        mode=qos.mode,
                        checkpoint=manager,
                    )
                answers, status, rung, detail = provenance(outcome)
                rendered = render_answers(answers)
                payload = self._envelope(
                    "certain",
                    tenant,
                    entry,
                    status,
                    rung,
                    detail,
                    started,
                    result_size=len(rendered),
                    manager=manager,
                    result={"answers": rendered, "count": len(rendered)},
                    semantics=strategy.name,
                )
                return 200, payload

            return run, options
        # endpoint == "repair"
        max_removals = get_int(body, "max_removals", 4, minimum=0, maximum=16)
        options = (strategy.name, max_recoveries, max_removals)

        def run(tenant: str, target: Any) -> tuple[int, dict]:
            started = time.perf_counter()
            with TRACER.span("service.repair"):
                repaired_list, outcome = strategy.repair_and_recover(
                    entry.mapping,
                    target,
                    max_recoveries=max_recoveries,
                    max_removals=max_removals,
                    deadline=qos.deadline(),
                    mode=qos.mode,
                )
            recoveries, status, rung, detail = provenance(outcome)
            recoveries = list(recoveries)
            result: dict[str, Any] = {"repaired": bool(repaired_list)}
            if repaired_list:
                # "repair"/"removed" keep the historical single-repair
                # shape (first repair wins); "repairs" carries the full
                # set for modes that quantify over several.
                result["repair"] = render_instance(repaired_list[0])
                result["removed"] = sorted(
                    str(fact)
                    for fact in set(target.facts) - set(repaired_list[0].facts)
                )
                result["repairs"] = render_instances(repaired_list)
            result["count"] = len(recoveries)
            result["recoveries"] = render_instances(recoveries)
            payload = self._envelope(
                "repair",
                tenant,
                entry,
                status,
                rung,
                detail,
                started,
                result_size=len(recoveries),
                manager=None,
                result=result,
                semantics=strategy.name,
            )
            return 200, payload

        return run, options

    def _recovery_payload(
        self,
        endpoint: str,
        tenant: str,
        entry: RegisteredMapping,
        outcome: Any,
        cores: bool,
        manager: Optional[CheckpointManager],
        started: float,
        rung_override: Optional[str] = None,
        detail_override: str = "",
        semantics: str = "paper",
    ) -> tuple[int, dict]:
        recoveries, status, rung, detail = provenance(outcome)
        if rung_override is not None and status == "exact":
            rung, detail = rung_override, detail_override
        recoveries = list(recoveries)
        if cores and recoveries:
            recoveries = core_recoveries(recoveries)
        # Theorem 3: an *exact* empty enumeration means J is not valid
        # for recovery; a degraded empty one is inconclusive.
        valid: Optional[bool] = bool(recoveries)
        if not recoveries and status != "exact":
            valid = None
        result = {
            "valid": valid,
            "count": len(recoveries),
            "recoveries": render_instances(recoveries),
        }
        payload = self._envelope(
            endpoint,
            tenant,
            entry,
            status,
            rung,
            detail,
            started,
            result_size=len(recoveries),
            manager=manager,
            result=result,
            semantics=semantics,
        )
        return 200, payload

    def _envelope(
        self,
        endpoint: str,
        tenant: str,
        entry: RegisteredMapping,
        status: str,
        rung: str,
        detail: str,
        started: float,
        *,
        result_size: int,
        manager: Optional[CheckpointManager],
        result: dict,
        semantics: str = "paper",
    ) -> dict:
        # Per-request counter deltas are not attributable under
        # concurrency (METRICS is process-global), so the per-request
        # report carries none; process-wide truth lives at /metrics.
        report = RunReport(
            command=f"service.{endpoint}",
            status=status,
            rung=rung,
            semantics=semantics,
            detail=detail,
            elapsed_ms=(time.perf_counter() - started) * 1000.0,
            result_size=result_size,
            checkpoint=getattr(manager, "path", "") if manager else "",
        )
        return {
            "ok": True,
            "tenant": tenant,
            "mapping": entry.mapping_id,
            "fingerprint": entry.fingerprint,
            "status": status,
            "rung": rung,
            "semantics": semantics,
            "result": result,
            "report": report.to_dict(),
        }

    # -- endpoints: GET /metrics | /healthz ---------------------------------

    def _metrics(self) -> Response:
        doc = metrics_document(
            counters=counter_snapshot(),
            service={
                "uptime_s": round(time.monotonic() - self.started_at, 3),
                "tenants": self.registry.tenants(),
                "admission": self.admission.stats(),
                "jobs": self.jobs.stats(),
                "cache_partitions": partitioned_cache_stats(),
            },
        )
        return 200, doc, {}

    def _healthz(self) -> Response:
        stats = self.admission.stats()
        return (
            200,
            {
                "ok": True,
                "uptime_s": round(time.monotonic() - self.started_at, 3),
                "tenants": len(self.registry.tenants()),
                "executing": stats["executing"],
                "queued": stats["queued"],
                "jobs": self.jobs.stats(),
            },
            {},
        )

    def _count_request(self, tenant: str, endpoint: str) -> None:
        METRICS.inc("service_requests")
        METRICS.inc(f"tenant[{tenant}].requests")
        METRICS.inc(f"tenant[{tenant}].{endpoint}_requests")

    def shutdown(self) -> None:
        self.jobs.shutdown()


# -- transport ---------------------------------------------------------------


class _RequestHandler(BaseHTTPRequestHandler):
    """Feeds the stdlib HTTP server into :meth:`RecoveryService.dispatch`."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-service/1.0"
    #: TCP_NODELAY: a keep-alive response must not wait for the
    #: client's delayed ACK of the previous one (~40 ms stalls).
    disable_nagle_algorithm = True

    def _respond(self) -> None:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            # The body cannot be delimited: answer without reading it
            # (``rfile.read(-1)`` would block until the client hangs
            # up) and close the connection, whose stream is now unframed.
            status, payload, extra = (
                400,
                error_payload("bad-request", f"invalid Content-Length {header!r}"),
                {"Connection": "close"},
            )
        else:
            raw = self.rfile.read(length) if length else b""
            service: RecoveryService = self.server.service  # type: ignore[attr-defined]
            status, payload, extra = service.dispatch(
                self.command, self.path, raw, dict(self.headers.items())
            )
        body = json.dumps(payload, sort_keys=False).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in extra.items():
            self.send_header(name, value)
        if self.request_version == "HTTP/0.9":
            self.wfile.write(body)  # no header block in HTTP/0.9
            return
        # Header block and body leave in one write, so a reused
        # connection never holds a small body back behind its headers.
        self._headers_buffer.append(b"\r\n" + body)
        self.flush_headers()

    do_GET = _respond
    do_POST = _respond

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # the service's telemetry lives in /metrics, not stderr


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    #: Listen backlog beyond which the kernel refuses connections —
    #: admission control proper happens in AdmissionController.
    request_queue_size = 32


def create_server(
    config: Optional[ServiceConfig] = None,
    service: Optional[RecoveryService] = None,
) -> _Server:
    """A ready-to-serve HTTP server wrapping a :class:`RecoveryService`."""
    config = config or ServiceConfig()
    server = _Server((config.host, config.port), _RequestHandler)
    server.service = service or RecoveryService(config)  # type: ignore[attr-defined]
    return server


@contextmanager
def running_server(
    config: Optional[ServiceConfig] = None,
) -> Iterator[tuple[RecoveryService, str]]:
    """Boot a server on a daemon thread; yield ``(service, base_url)``.

    Binding to port 0 (the tests' default) lets the OS pick a free
    port; the yielded URL reflects the actual binding.
    """
    server = create_server(config)
    host, port = server.server_address[:2]
    thread = threading.Thread(
        target=server.serve_forever, name="repro-service", daemon=True
    )
    thread.start()
    service: RecoveryService = server.service  # type: ignore[attr-defined]
    try:
        yield service, f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown()
        thread.join(timeout=5.0)
