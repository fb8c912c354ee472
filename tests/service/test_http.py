"""End-to-end HTTP: real sockets through ``http.server`` to the core.

Each test boots the threaded server on an OS-assigned port via
:func:`repro.service.running_server` and speaks actual HTTP with
``urllib`` — the same path ``repro serve`` exposes.  Error mapping
(400/404/405/409/422/429/504), response envelopes, async jobs and the
metrics document are all pinned here.
"""

from __future__ import annotations

import http.client
import json
import socket
import socketserver
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.service import (
    AdmissionRejected,
    RecoveryService,
    ServiceConfig,
    running_server,
)

TGDS = "S(x, y) -> T(x, y)\nR(x) -> T(x, x)"


def call(base, method, path, body=None, tenant=None, timeout=10):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(base + path, data=data, method=method)
    request.add_header("Content-Type", "application/json")
    if tenant:
        request.add_header("X-Tenant", tenant)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


def call_raw(base, path, data, tenant=None, timeout=10):
    """POST ``data`` verbatim (no JSON encoding); ``(status, payload)``."""
    request = urllib.request.Request(base + path, data=data, method="POST")
    if tenant:
        request.add_header("X-Tenant", tenant)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture(scope="class")
def server():
    with running_server(ServiceConfig(port=0)) as (service, base):
        call(base, "POST", "/mappings", {"tgds": TGDS, "name": "m"}, tenant="t1")
        yield service, base


class TestEndpoints:
    def test_register_and_reregister(self, server):
        _, base = server
        status, payload, _ = call(
            base, "POST", "/mappings", {"tgds": TGDS, "name": "m2"}, tenant="t1"
        )
        assert status == 201
        assert payload["created"] is True
        assert payload["mapping"]["mapping_id"] == "m2"
        status, payload, _ = call(
            base, "POST", "/mappings", {"tgds": TGDS, "name": "m2"}, tenant="t1"
        )
        assert status == 200
        assert payload["created"] is False

    def test_conflicting_registration_is_409(self, server):
        _, base = server
        status, payload, _ = call(
            base, "POST", "/mappings", {"tgds": "A(x) -> B(x)", "name": "m"},
            tenant="t1",
        )
        assert status == 409
        assert payload["error"]["kind"] == "conflict"

    def test_recover_envelope(self, server):
        _, base = server
        status, payload, _ = call(
            base, "POST", "/recover",
            {"mapping": "m", "target": "T(a, b)\nT(c, c)"}, tenant="t1",
        )
        assert status == 200
        assert payload["status"] == "exact"
        assert payload["rung"] == "enumeration"
        assert payload["result"]["valid"] is True
        assert payload["result"]["recoveries"] == [
            ["R(c)", "S(a, b)"],
            ["S(a, b)", "S(c, c)"],
        ]
        report = payload["report"]
        assert report["command"] == "service.recover"
        assert report["result_size"] == 2

    def test_repeat_request_is_served_from_result_cache(self, server):
        _, base = server
        body = {"mapping": "m", "target": "T(x, y)"}
        status, first, _ = call(base, "POST", "/recover", body, tenant="t1")
        status, second, _ = call(base, "POST", "/recover", body, tenant="t1")
        assert first["cached"] is False or second["cached"] is True
        assert second["result"] == first["result"]

    def test_no_cache_bypasses_result_cache(self, server):
        _, base = server
        body = {"mapping": "m", "target": "T(p, q)", "no_cache": True}
        for _ in range(2):
            status, payload, _ = call(base, "POST", "/recover", body, tenant="t1")
            assert payload["cached"] is False

    def test_certain_answers(self, server):
        _, base = server
        status, payload, _ = call(
            base, "POST", "/certain",
            {"mapping": "m", "target": "T(a, b)", "query": "q(x) :- S(x, y)"},
            tenant="t1",
        )
        assert status == 200
        assert payload["result"]["answers"] == [["a"]]

    def test_repair(self, server):
        _, base = server
        status, payload, _ = call(
            base, "POST", "/repair", {"mapping": "m", "target": "T(a, b)"},
            tenant="t1",
        )
        assert status == 200
        assert payload["result"]["repaired"] is True

    def test_async_job_lifecycle(self, server):
        _, base = server
        status, payload, _ = call(
            base, "POST", "/recover",
            {"mapping": "m", "target": "T(j, k)", "mode": "async"}, tenant="t1",
        )
        assert status == 202
        job_id = payload["job"]["job_id"]
        assert payload["poll"] == f"/jobs/{job_id}"
        for _ in range(100):
            status, payload, _ = call(base, "GET", f"/jobs/{job_id}", tenant="t1")
            if payload["job"]["state"] in ("done", "failed"):
                break
            time.sleep(0.05)
        assert payload["job"]["state"] == "done"
        assert payload["job"]["response"]["result"]["valid"] is True

    def test_job_is_tenant_scoped(self, server):
        _, base = server
        status, payload, _ = call(
            base, "POST", "/recover",
            {"mapping": "m", "target": "T(u, v)", "mode": "async"}, tenant="t1",
        )
        job_id = payload["job"]["job_id"]
        status, payload, _ = call(base, "GET", f"/jobs/{job_id}", tenant="other")
        assert status == 404

    def test_metrics_document(self, server):
        _, base = server
        status, payload, _ = call(base, "GET", "/metrics")
        assert status == 200
        assert payload["counters"]["service_requests"] >= 1
        service = payload["service"]
        assert "t1" in service["tenants"]
        partitions = service["cache_partitions"]
        assert "tenant:t1" in partitions["service_instance"]

    def test_healthz(self, server):
        _, base = server
        status, payload, _ = call(base, "GET", "/healthz")
        assert status == 200
        assert payload["ok"] is True

    def test_list_mappings(self, server):
        _, base = server
        status, payload, _ = call(base, "GET", "/mappings", tenant="t1")
        assert status == 200
        assert any(m["mapping_id"] == "m" for m in payload["mappings"])


class TestResponseWrites:
    def test_reused_connection_answers_every_request_in_one_write(
        self, server, monkeypatch
    ):
        # Headers and body in one send (plus TCP_NODELAY) is what keeps
        # a reused connection from stalling on the client's delayed
        # ACK; counting the handler's socket writes pins it without a
        # timing assertion.
        _, base = server
        writes = []
        write = socketserver._SocketWriter.write

        def counting_write(self, data):
            writes.append(len(data))
            return write(self, data)

        monkeypatch.setattr(socketserver._SocketWriter, "write", counting_write)
        url = urllib.parse.urlsplit(base)
        connection = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
        requests = 12
        try:
            for i in range(requests):
                body = json.dumps({"mapping": "m", "target": f"T(a{i}, b{i})"})
                connection.request(
                    "POST", "/recover", body,
                    {"Content-Type": "application/json", "X-Tenant": "t1"},
                )
                response = connection.getresponse()
                payload = json.loads(response.read())
                assert response.status == 200
                assert payload["result"]["recoveries"] == [[f"S(a{i}, b{i})"]]
        finally:
            connection.close()
        assert len(writes) == requests

    def test_http09_request_gets_the_bare_body(self, server):
        _, base = server
        url = urllib.parse.urlsplit(base)
        with socket.create_connection((url.hostname, url.port), timeout=10) as sock:
            sock.sendall(b"GET /healthz\r\n\r\n")
            data = b""
            while chunk := sock.recv(4096):
                data += chunk
        assert json.loads(data)["ok"] is True


class TestErrorMapping:
    def test_unknown_path_404(self, server):
        _, base = server
        status, payload, _ = call(base, "GET", "/nope")
        assert status == 404

    def test_method_not_allowed_405(self, server):
        _, base = server
        status, payload, _ = call(base, "GET", "/recover")
        assert status == 404  # GET /recover is not a resource
        request = urllib.request.Request(
            base + "/healthz", data=b"{}", method="POST"
        )
        try:
            with urllib.request.urlopen(request, timeout=10) as response:
                status = response.status
        except urllib.error.HTTPError as error:
            status = error.code
        assert status == 404

    def test_malformed_json_400(self, server):
        _, base = server
        status, payload = call_raw(base, "/recover", b"{not json")
        assert status == 400
        assert payload["error"]["kind"] == "bad-request"

    @pytest.mark.parametrize(
        "number", ["NaN", "Infinity", "-Infinity", "1e999", "9" * 400, "9" * 5000]
    )
    def test_unrepresentable_deadline_400(self, server, number):
        # ``NaN <= 0`` is false: a lenient decoder would run the request
        # with no deadline at all.  Huge integers overflow a float or
        # exceed the interpreter's digit limit.
        _, base = server
        raw = '{"mapping": "m", "target": "T(a, b)", "deadline_ms": %s}' % number
        status, payload = call_raw(base, "/recover", raw.encode(), tenant="t1")
        assert status == 400
        assert payload["error"]["kind"] == "bad-request"

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_malformed_content_length_400(self, server, length):
        # Answered without reading the body: ``-1`` must not block on
        # the socket until the client hangs up.
        _, base = server
        url = urllib.parse.urlsplit(base)
        request = (
            "POST /recover HTTP/1.1\r\n"
            f"Host: {url.netloc}\r\n"
            f"Content-Length: {length}\r\n\r\n{{}}"
        )
        with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
            sock.sendall(request.encode())
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split()[1] == b"400"
        assert json.loads(body)["error"]["kind"] == "bad-request"

    def test_unknown_mapping_404(self, server):
        _, base = server
        status, payload, _ = call(
            base, "POST", "/recover", {"mapping": "ghost", "target": "T(a, b)"},
            tenant="t1",
        )
        assert status == 404

    def test_bad_tenant_name_400(self, server):
        _, base = server
        status, payload, _ = call(
            base, "POST", "/recover",
            {"mapping": "m", "target": "T(a, b)", "tenant": "no/slashes"},
        )
        assert status == 400

    def test_bad_query_400(self, server):
        _, base = server
        status, payload, _ = call(
            base, "POST", "/certain",
            {"mapping": "m", "target": "T(a, b)", "query": "q(x) -> S(x, y)"},
            tenant="t1",
        )
        assert status == 400
        assert payload["error"]["kind"] == "parse-error"

    def test_exact_deadline_expiry_504(self, server):
        _, base = server
        status, payload, _ = call(
            base, "POST", "/recover",
            {
                "mapping": "m",
                "target": "T(d1, d2)\nT(d3, d4)\nT(d5, d6)",
                "deadline_ms": 1e-4,
                "no_cache": True,
            },
            tenant="t1",
        )
        assert status == 504
        assert payload["error"]["kind"] == "deadline"
        assert "progress" in payload["error"]

    def test_degrade_mode_returns_rung_provenance(self, server):
        _, base = server
        status, payload, _ = call(
            base, "POST", "/recover",
            {
                "mapping": "m",
                "target": "T(g1, g2)\nT(g3, g4)\nT(g5, g6)",
                "deadline_ms": 1e-4,
                "qos": "degrade",
                "no_cache": True,
            },
            tenant="t1",
        )
        assert status == 200
        assert payload["status"] in ("exact", "sound-incomplete")
        assert payload["rung"] != ""

    def test_invalid_qos_400(self, server):
        _, base = server
        status, payload, _ = call(
            base, "POST", "/recover",
            {"mapping": "m", "target": "T(a, b)", "qos": "best-effort"},
            tenant="t1",
        )
        assert status == 400


class TestSemanticsOverHTTP:
    """Per-request ``semantics`` selection with envelope provenance."""

    XR_TGDS = "S(x) -> T(x, y)"
    XR_TARGET = "T(a, b)\nT(a, c)"  # two witnesses for one S(a): invalid

    @pytest.fixture(scope="class")
    def xr_server(self, server):
        service, base = server
        call(
            base, "POST", "/mappings",
            {"tgds": self.XR_TGDS, "name": "xr"}, tenant="t1",
        )
        return service, base

    def test_envelope_defaults_to_paper(self, server):
        _, base = server
        status, payload, _ = call(
            base, "POST", "/recover",
            {"mapping": "m", "target": "T(s, s)"}, tenant="t1",
        )
        assert status == 200
        assert payload["semantics"] == "paper"
        assert payload["report"]["semantics"] == "paper"

    def test_unknown_mode_is_422(self, server):
        _, base = server
        status, payload, _ = call(
            base, "POST", "/recover",
            {"mapping": "m", "target": "T(a, b)", "semantics": "no_such_mode"},
            tenant="t1",
        )
        assert status == 422
        assert payload["error"]["kind"] == "unknown-semantics"
        assert "registered modes" in payload["error"]["message"]

    def test_non_string_mode_is_400(self, server):
        _, base = server
        status, payload, _ = call(
            base, "POST", "/recover",
            {"mapping": "m", "target": "T(a, b)", "semantics": 7}, tenant="t1",
        )
        assert status == 400

    def test_xr_recovers_inconsistent_target_paper_cannot(self, xr_server):
        _, base = xr_server
        body = {"mapping": "xr", "target": self.XR_TARGET, "no_cache": True}
        status, payload, _ = call(base, "POST", "/recover", body, tenant="t1")
        assert status == 200
        assert payload["result"]["valid"] is False  # paper: no recovery
        status, payload, _ = call(
            base, "POST", "/recover",
            dict(body, semantics="exchange_repairs"), tenant="t1",
        )
        assert status == 200
        assert payload["semantics"] == "exchange_repairs"
        assert payload["result"]["recoveries"] == [["S(a)"]]

    def test_xr_certain_where_paper_is_422(self, xr_server):
        _, base = xr_server
        body = {
            "mapping": "xr",
            "target": self.XR_TARGET,
            "query": "q(x) :- S(x)",
            "no_cache": True,
        }
        status, payload, _ = call(base, "POST", "/certain", body, tenant="t1")
        assert status == 422
        assert payload["error"]["kind"] == "not-recoverable"
        status, payload, _ = call(
            base, "POST", "/certain",
            dict(body, semantics="exchange_repairs"), tenant="t1",
        )
        assert status == 200
        assert payload["semantics"] == "exchange_repairs"
        assert payload["result"]["answers"] == [["a"]]

    def test_xr_repair_lists_every_repair(self, xr_server):
        _, base = xr_server
        status, payload, _ = call(
            base, "POST", "/repair",
            {
                "mapping": "xr",
                "target": self.XR_TARGET,
                "semantics": "exchange_repairs",
            },
            tenant="t1",
        )
        assert status == 200
        result = payload["result"]
        assert result["repaired"] is True
        assert sorted(result["repairs"]) == [["T(a, b)"], ["T(a, c)"]]
        assert result["recoveries"] == [["S(a)"]]

    def test_result_cache_is_partitioned_by_mode(self, xr_server):
        # Same mapping/target under different semantics must not share
        # a cache slot — the options tuple carries the strategy name.
        _, base = xr_server
        body = {"mapping": "xr", "target": "T(k, l)\nT(k, m)"}
        status, paper, _ = call(base, "POST", "/recover", body, tenant="t1")
        status, xr_payload, _ = call(
            base, "POST", "/recover",
            dict(body, semantics="exchange_repairs"), tenant="t1",
        )
        assert paper["result"]["valid"] is False
        assert xr_payload["result"]["recoveries"] == [["S(k)"]]


class TestAdmissionOverHTTP:
    def test_tenant_cap_is_429_with_retry_after(self):
        config = ServiceConfig(
            port=0,
            max_inflight=1,
            max_queue=1,
            max_inflight_per_tenant=1,
            queue_timeout_s=0.05,
            retry_after_s=2.0,
        )
        with running_server(config) as (service, base):
            call(base, "POST", "/mappings", {"tgds": TGDS, "name": "m"}, tenant="a")
            import threading

            results = []

            # Self-join facts each have two coverings (S(c,c) or R(c)),
            # so 8 of them force a 256-recovery enumeration — slow
            # enough that the threads genuinely overlap.
            target = "\n".join(f"T(c{i}, c{i})" for i in range(8))

            def slow_request():
                results.append(
                    call(
                        base, "POST", "/recover",
                        {"mapping": "m", "target": target, "no_cache": True},
                        tenant="a",
                    )
                )

            threads = [threading.Thread(target=slow_request) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
            statuses = sorted(status for status, _, _ in results)
            assert statuses.count(200) >= 1
            rejected = [
                (status, payload, headers)
                for status, payload, headers in results
                if status == 429
            ]
            assert rejected, f"expected at least one 429, got {statuses}"
            status, payload, headers = rejected[0]
            assert headers["Retry-After"] == "2"
            # RFC 7231: Retry-After delta-seconds must parse as a
            # non-negative integer — no fractional values on the wire.
            assert int(headers["Retry-After"]) >= 1
            assert payload["error"]["kind"] == "rejected"
            assert payload["error"]["reason"] in (
                "tenant-limit", "queue-full", "queue-timeout"
            )


class TestRetryAfterHeader:
    """The 429 mapping emits RFC 7231 integer delta-seconds."""

    @pytest.mark.parametrize(
        "hint_s, expected", [(0.5, "1"), (1.0, "1"), (2.0, "2"), (2.2, "3")]
    )
    def test_header_is_integer_and_rounds_up(self, hint_s, expected):
        service = RecoveryService(ServiceConfig(retry_after_s=hint_s))
        try:

            def rejecting_route(method, path, raw_body, headers):
                raise AdmissionRejected("tenant-limit", "t1", hint_s)

            service._route = rejecting_route
            status, payload, headers = service.dispatch("POST", "/recover", b"{}")
        finally:
            service.shutdown()
        assert status == 429
        assert headers["Retry-After"] == expected
        assert int(headers["Retry-After"]) >= 1
        # The precise fractional hint still reaches clients in the body.
        assert payload["error"]["retry_after_s"] == hint_s


class TestUptimeClock:
    """Uptime is monotonic: wall-clock steps must not make it negative."""

    def test_uptime_survives_wall_clock_step_backwards(self, monkeypatch):
        service = RecoveryService(ServiceConfig())
        try:
            # Simulate NTP stepping the wall clock an hour into the
            # past.  started_at is taken from time.monotonic(), so the
            # skewed time.time() must not influence the reading.
            skewed = time.time() - 3600.0
            monkeypatch.setattr(time, "time", lambda: skewed)
            status, health, _ = service.dispatch("GET", "/healthz")
            assert status == 200
            assert health["uptime_s"] >= 0
            status, metrics, _ = service.dispatch("GET", "/metrics")
            assert status == 200
            assert metrics["service"]["uptime_s"] >= 0
        finally:
            monkeypatch.undo()
            service.shutdown()

    def test_uptime_is_non_decreasing(self):
        service = RecoveryService(ServiceConfig())
        try:
            _, first, _ = service.dispatch("GET", "/healthz")
            _, second, _ = service.dispatch("GET", "/healthz")
            assert second["uptime_s"] >= first["uptime_s"] >= 0
        finally:
            service.shutdown()
