"""Socket-level round trips for the real HTTP front end.

The in-process router stays the unit-test surface for handler logic;
these tests pin down what the socket layer adds: transport (JSON bodies,
query strings, text passthrough for /metrics), admission control (429 +
Retry-After), and lifecycle (ephemeral ports, graceful shutdown with no
stray threads).  Responses are asserted *against the in-process router*
wherever possible — the server must add transport, never behavior.
"""

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs import get_metrics
from repro.scenarios.football import FootballScenario
from repro.service import MdmHttpServer, MdmService


@pytest.fixture()
def scenario():
    return FootballScenario.build(anchors_only=True)


@pytest.fixture()
def service(scenario):
    return MdmService(scenario.mdm)


@pytest.fixture()
def server(service):
    instance = MdmHttpServer(service, port=0, max_in_flight=4)
    instance.start()
    yield instance
    instance.stop()


def fetch(url, body=None, method=None):
    """(status, headers, decoded body) for one request; never raises."""
    data = body if isinstance(body, bytes) else (
        None if body is None else json.dumps(body).encode()
    )
    request = urllib.request.Request(
        url, data=data, method=method or ("POST" if data else "GET")
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            raw = response.read()
            status, headers = response.status, dict(response.headers)
    except urllib.error.HTTPError as exc:
        raw = exc.read()
        status, headers = exc.code, dict(exc.headers)
        exc.close()
    if headers.get("Content-Type", "").startswith("application/json"):
        return status, headers, json.loads(raw)
    return status, headers, raw.decode()


def query_nodes(scenario):
    walk = scenario.walk_player_team_names()
    return sorted(c.value for c in walk.concepts) + sorted(
        f.value for f in walk.features
    )


class TestRoundTrips:
    def test_binds_an_ephemeral_port(self, server):
        assert server.url.startswith("http://127.0.0.1:")
        assert not server.url.endswith(":0")

    def test_get_parity_with_in_process_router(self, service, server):
        for path in ("/summary", "/globalGraph", "/sources", "/releases"):
            status, _, body = fetch(server.url + path)
            reference = service.request("GET", path)
            assert status == reference.status, path
            assert body == reference.body, path

    def test_query_round_trip_matches_in_process(
        self, scenario, service, server
    ):
        payload = {"nodes": query_nodes(scenario)}
        status, _, body = fetch(server.url + "/query", body=payload)
        reference = service.request("POST", "/query", payload)
        assert status == 200
        assert body["columns"] == reference.body["columns"]
        assert body["rows"] == reference.body["rows"]
        assert body["generation"] == reference.body["generation"]

    def test_query_string_reaches_the_router(self, server):
        status, _, body = fetch(server.url + "/querylog/recent?limit=1")
        assert status == 200
        assert len(body["records"]) <= 1

    def test_unknown_route_is_404(self, service, server):
        status, _, body = fetch(server.url + "/no/such/route")
        reference = service.request("GET", "/no/such/route")
        assert status == reference.status == 404
        assert body == reference.body

    def test_handler_error_is_400(self, server):
        status, _, body = fetch(
            server.url + "/query", body={"nodes": []}
        )
        assert status == 400
        assert "nodes" in body["error"]

    def test_unparseable_body_is_400(self, server):
        status, _, body = fetch(server.url + "/query", body=b"{not json")
        assert status == 400
        assert body == {"error": "request body is not valid JSON"}

    def test_metrics_is_plain_text_prometheus(self, server):
        status, headers, text = fetch(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert isinstance(text, str)
        assert "# TYPE mdm_http_requests_total counter" in text


class TestAdmissionControl:
    def test_saturated_server_returns_429_with_retry_after(self, server):
        rejected = get_metrics().counter(
            "mdm_requests_rejected_total",
            "Requests refused by admission control (HTTP 429).",
        )
        before = rejected.value()
        # Deterministically saturate: hold every in-flight slot.
        for _ in range(server.max_in_flight):
            assert server.admission.acquire(blocking=False)
        try:
            status, headers, body = fetch(server.url + "/summary")
        finally:
            for _ in range(server.max_in_flight):
                server.admission.release()
        assert status == 429
        assert headers["Retry-After"] == str(server.retry_after_s)
        assert "saturated" in body["error"]
        assert rejected.value() == before + 1

    def test_recovers_after_saturation(self, server):
        for _ in range(server.max_in_flight):
            assert server.admission.acquire(blocking=False)
        for _ in range(server.max_in_flight):
            server.admission.release()
        status, _, _ = fetch(server.url + "/summary")
        assert status == 200

    def test_rejects_bad_max_in_flight(self, service):
        with pytest.raises(ValueError):
            MdmHttpServer(service, port=0, max_in_flight=0)

    def test_listen_backlog_holds_every_admitted_request(self, service):
        """With the accept loop not running, ``max_in_flight`` clients
        still connect: the kernel queues them instead of dropping SYNs
        past socketserver's default backlog of 5."""
        instance = MdmHttpServer(service, port=0)
        connected = []
        try:
            for _ in range(instance.max_in_flight):
                connected.append(
                    socket.create_connection(
                        instance.server_address[:2], timeout=0.2
                    )
                )
        finally:
            for sock in connected:
                sock.close()
            instance.server_close()
        assert len(connected) == instance.max_in_flight


class TestLifecycle:
    def test_graceful_shutdown_leaves_no_stray_threads(self, service):
        baseline = set(threading.enumerate())
        instance = MdmHttpServer(service, port=0).start()
        for _ in range(3):
            status, _, _ = fetch(instance.url + "/summary")
            assert status == 200
        instance.stop()
        strays = [
            thread
            for thread in threading.enumerate()
            if thread not in baseline and thread.is_alive()
        ]
        assert not strays, [thread.name for thread in strays]

    def test_stop_then_connect_refused(self, service):
        instance = MdmHttpServer(service, port=0).start()
        url = instance.url
        instance.stop()
        with pytest.raises(OSError):
            urllib.request.urlopen(url + "/summary", timeout=2)

    def test_double_start_is_refused(self, server):
        with pytest.raises(RuntimeError):
            server.start()

    def test_context_manager_starts_and_stops(self, service):
        with MdmHttpServer(service, port=0) as instance:
            status, _, _ = fetch(instance.url + "/summary")
            assert status == 200
        assert instance._serve_thread is None
