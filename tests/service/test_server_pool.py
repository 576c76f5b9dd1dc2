"""The HTTP server's handler pool: reused workers, one write per response.

``MdmHttpServer`` answers each connection on a reused handler thread: a
worker starts only when none is idle, up to ``max_in_flight + 1``, and
``stop()`` joins them all once the accepted connections are answered.
These tests pin what reuse must not change: admission still answers
429 while every slot is held, a silent client neither blocks others
nor keeps its worker, a client that resets or stalls mid-request or
resets mid-response leaves no traceback, clients that reconnect at once
find the worker idle, and no request inherits a read-lock depth or a
span from the request before it on the same worker.

The clients speak raw HTTP/1.0 and read to the end of the stream, which
arrives only after the worker is done with the connection, so a
sequential client always finds the previous request's worker idle.
Every thread is joined under a timeout.
"""

import http.client
import json
import socket
import struct
import sys
import threading
import time

import pytest

from repro.chaos import FailpointRegistry, set_failpoints
from repro.obs import capture, get_metrics, get_tracer
from repro.rdf.namespaces import EX
from repro.scenarios.football import FootballScenario
from repro.service import MdmHttpServer, MdmService
from repro.service import server as server_module

JOIN_S = 10


@pytest.fixture()
def service():
    return MdmService(FootballScenario.build(anchors_only=True).mdm)


@pytest.fixture()
def registry():
    fresh = FailpointRegistry(seed=0)
    set_failpoints(fresh)
    try:
        yield fresh
    finally:
        fresh.release()
        set_failpoints(None)


QUERY = {"nodes": [EX.Player.value, EX.playerName.value]}


def request_bytes(method, path, body=None):
    data = b"" if body is None else json.dumps(body).encode()
    head = f"{method} {path} HTTP/1.0\r\nContent-Length: {len(data)}\r\n\r\n"
    return head.encode() + data


def exchange(server, raw, timeout=JOIN_S):
    """Send one raw request and read the response to the end of the stream."""
    with socket.create_connection(server.server_address[:2], timeout=timeout) as sock:
        sock.sendall(raw)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def status_of(response):
    return int(response.split(b" ", 2)[1])


def body_of(response):
    return json.loads(response.split(b"\r\n\r\n", 1)[1])


def live_workers():
    return [
        t for t in threading.enumerate()
        if t.name.startswith("mdm-http-worker") and t.is_alive()
    ]


def wait_for(condition, timeout=JOIN_S):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition not met in time"
        time.sleep(0.005)


class Held:
    """Wraps ``service.request``: requests to ``path`` wait in the
    handler until :meth:`release`, after recording their thread."""

    def __init__(self, service, path="/query"):
        self.path = path
        self.entered = threading.Semaphore(0)
        self.released = threading.Event()
        self.threads = []
        real = service.request

        def request(method, path, body=None, query=None):
            self.threads.append(threading.current_thread())
            if path == self.path:
                self.entered.release()
                assert self.released.wait(JOIN_S)
            return real(method, path, body, query)

        service.request = request

    def wait_entered(self, count):
        for _ in range(count):
            assert self.entered.acquire(timeout=JOIN_S)

    def release(self):
        self.released.set()


def in_threads(target, count):
    results = []
    threads = [
        threading.Thread(target=lambda: results.append(target())) for _ in range(count)
    ]
    for thread in threads:
        thread.start()
    return threads, results


def join_all(threads):
    for thread in threads:
        thread.join(timeout=JOIN_S)
    assert not any(thread.is_alive() for thread in threads)


# --- reuse ------------------------------------------------------------------ #


def test_sequential_requests_reuse_one_worker(service):
    workers = get_metrics().gauge("mdm_http_workers")
    before = workers.value()
    with MdmHttpServer(service, port=0, max_in_flight=4) as server:
        for _ in range(20):
            assert status_of(exchange(server, request_bytes("GET", "/summary"))) == 200
        assert len(live_workers()) == 1
        assert workers.value() == before + 1
    assert live_workers() == []
    assert workers.value() == before


def test_a_request_past_the_admission_bound_gets_its_429(service):
    held = Held(service)
    server = MdmHttpServer(service, port=0, max_in_flight=2).start()
    try:
        threads, responses = in_threads(
            lambda: exchange(server, request_bytes("POST", "/query", QUERY)), 2
        )
        held.wait_entered(2)
        started = time.monotonic()
        rejected = exchange(server, request_bytes("GET", "/summary"))
        assert time.monotonic() - started < 2.0
        assert status_of(rejected) == 429
        assert f"Retry-After: {server.retry_after_s}".encode() in rejected
        assert len(live_workers()) == 3
        held.release()
        join_all(threads)
        assert [status_of(r) for r in responses] == [200, 200]
    finally:
        held.release()
        server.stop()


# --- clients that misbehave ----------------------------------------------- #


def test_a_silent_client_delays_no_one_and_loses_its_worker(service, monkeypatch):
    monkeypatch.setattr(server_module, "SOCKET_TIMEOUT_S", 2.0)
    server = MdmHttpServer(service, port=0, max_in_flight=2).start()
    silent = socket.create_connection(server.server_address[:2], timeout=JOIN_S)
    try:
        wait_for(lambda: len(live_workers()) == 1)  # handed to a worker
        assert status_of(exchange(server, request_bytes("GET", "/summary"))) == 200
        silent.setblocking(False)
        with pytest.raises(BlockingIOError):
            silent.recv(1)  # still connected: the other client did not wait
        silent.settimeout(JOIN_S)
        assert silent.recv(1) == b""  # dropped after the timeout, unanswered
        # Its worker is free again: two held requests need no third one.
        held = Held(service)
        threads, responses = in_threads(
            lambda: exchange(server, request_bytes("POST", "/query", QUERY)), 2
        )
        held.wait_entered(2)
        held.release()
        join_all(threads)
        assert [status_of(r) for r in responses] == [200, 200]
        assert len(live_workers()) == 2
    finally:
        silent.close()
        server.stop()


def test_a_reset_client_prints_no_traceback(service, capsys):
    held = Held(service)
    handled = get_metrics().histogram("mdm_http_handler_seconds")
    server = MdmHttpServer(service, port=0, max_in_flight=1).start()
    try:
        client = socket.create_connection(server.server_address[:2], timeout=JOIN_S)
        client.sendall(request_bytes("POST", "/query", QUERY))
        held.wait_entered(1)
        # Close with a reset, then let the handler answer into it.
        client.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        client.close()
        time.sleep(0.05)
        before = handled.count()
        held.release()
        wait_for(lambda: handled.count() == before + 1)  # done with the reset one
        assert status_of(exchange(server, request_bytes("GET", "/summary"))) == 200
        assert len(set(held.threads)) == 1  # the same worker served both
    finally:
        held.release()
        server.stop()
    assert "Traceback" not in capsys.readouterr().err


def partial_body_request():
    """A ``POST /query`` that announces 100 body bytes and sends 8."""
    head = b"POST /query HTTP/1.0\r\nContent-Length: 100\r\n\r\n"
    return head + b'{"nodes"'


@pytest.mark.parametrize("drop", ["reset", "stall"])
def test_a_client_dropped_mid_body_prints_no_traceback(service, capsys, monkeypatch, drop):
    """A client that resets, or stalls past the socket timeout, while its
    body is read is dropped unanswered: nothing on stderr, its admission
    slot released and its worker answering the next request."""
    monkeypatch.setattr(server_module, "SOCKET_TIMEOUT_S", 0.5)
    handled = get_metrics().histogram("mdm_http_handler_seconds")
    server = MdmHttpServer(service, port=0, max_in_flight=1).start()
    try:
        before = handled.count()
        client = socket.create_connection(server.server_address[:2], timeout=JOIN_S)
        client.sendall(partial_body_request())
        time.sleep(0.2)  # the worker is now waiting for the other 92 bytes
        if drop == "reset":
            client.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            client.close()
        else:
            assert client.recv(1) == b""  # dropped after the timeout, unanswered
            client.close()
        wait_for(lambda: handled.count() == before + 1)  # done with the dropped one
        response = exchange(server, request_bytes("POST", "/query", QUERY))
        assert status_of(response) == 200  # the only admission slot is free
        assert len(live_workers()) == 1
    finally:
        server.stop()
    assert "Traceback" not in capsys.readouterr().err


def test_two_reconnecting_clients_need_at_most_three_workers(service):
    """Two ``http.client`` clients, each posting queries back to back:
    ``http.client`` stops reading at ``Content-Length`` and reconnects at
    once, so a worker counted idle only after its response left would
    often be passed over and another started."""
    workers = get_metrics().gauge("mdm_http_workers")
    before = workers.value()
    with MdmHttpServer(service, port=0) as server:
        host, port = server.server_address[:2]
        body = json.dumps(QUERY)

        def client():
            statuses = []
            for _ in range(150):
                connection = http.client.HTTPConnection(host, port, timeout=JOIN_S)
                connection.request("POST", "/query", body)
                response = connection.getresponse()
                response.read()
                connection.close()
                statuses.append(response.status)
            return statuses

        threads, results = in_threads(client, 2)
        join_all(threads)
        assert workers.value() - before <= 3
    assert [set(result) for result in results] == [{200}, {200}]
    assert live_workers() == []


# --- nothing carries over between requests on one worker ------------------- #


def test_a_failed_request_leaves_no_read_lock_behind(service, registry):
    held = Held(service, path=None)
    with MdmHttpServer(service, port=0, max_in_flight=1) as server:
        for spec in ("cache.rewrite=error:times(1)", "lock.read=error:times(1)"):
            registry.arm_spec(spec)
            failed = exchange(server, request_bytes("POST", "/query", QUERY))
            assert status_of(failed) == 500
            assert "FailpointError" in body_of(failed)["error"]
            # A write needs the write lock, which a leftover read depth
            # on this thread would refuse as an upgrade.
            written = exchange(server, request_bytes("POST", "/sources", {"name": "extra"}))
            assert status_of(written) == 200
    assert len(set(held.threads)) == 1


def test_a_request_starts_its_own_trace_on_a_reused_worker(service):
    held = Held(service, path=None)
    leaked = []
    real = service.request

    def request(method, path, body=None, query=None):
        if path == "/leak":
            # A span entered and never exited: the worker's context
            # would carry it into the next request.
            span = get_tracer().span("leaked")
            span.__enter__()
            leaked.append(span)
        return real(method, path, body, query)

    service.request = request
    with capture() as (tracer, _), MdmHttpServer(service, port=0) as server:
        assert status_of(exchange(server, request_bytes("GET", "/leak"))) == 404
        assert status_of(exchange(server, request_bytes("GET", "/summary"))) == 200
        (root,) = [s for s in tracer.recent(10) if s.name == "http:GET /summary"]
    assert len(set(held.threads)) == 1
    assert root.parent_id is None
    assert root.trace_id != leaked[0].trace_id
    assert all(s.parent_id != leaked[0].span_id for s in root.iter_spans())


# --- one write, and shutdown ------------------------------------------------ #


def test_a_small_response_leaves_in_one_write(service, monkeypatch):
    with MdmHttpServer(service, port=0) as server:
        port = server.server_address[1]
        writes = []
        for name in ("send", "sendall"):
            real = getattr(socket.socket, name)

            def counting(sock, data, *args, _real=real):
                if sock.getsockname()[1] == port:  # the server's end
                    writes.append(len(data))
                return _real(sock, data, *args)

            monkeypatch.setattr(socket.socket, name, counting)
        response = exchange(server, request_bytes("POST", "/query", QUERY))
        monkeypatch.undo()
    assert status_of(response) == 200 and len(response) < 8192
    assert writes == [len(response)]


def test_stop_returns_after_the_request_in_flight_has_answered(service):
    baseline = set(threading.enumerate())
    answered = threading.Event()
    real = service.request

    def slow(method, path, body=None, query=None):
        entered.set()
        time.sleep(0.5)
        try:
            return real(method, path, body, query)
        finally:
            answered.set()

    entered = threading.Event()
    service.request = slow
    server = MdmHttpServer(service, port=0).start()
    threads, responses = in_threads(
        lambda: exchange(server, request_bytes("POST", "/query", QUERY)), 1
    )
    assert entered.wait(JOIN_S)
    server.stop()
    assert answered.is_set()
    strays = [
        t for t in threading.enumerate()
        if t not in baseline and t not in threads and t.is_alive()
    ]
    assert strays == [], [t.name for t in strays]
    join_all(threads)
    assert [status_of(r) for r in responses] == [200]


# --- many clients ------------------------------------------------------------ #


def test_many_clients_stay_within_the_cap(service):
    """Eight clients, four slots, a tiny switch interval: every request
    is answered (200 or 429), the pool never passes ``max_in_flight + 1``
    and ``stop()`` leaves no worker."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    peak = []
    try:
        with MdmHttpServer(service, port=0, max_in_flight=4) as server:

            def client():
                statuses = []
                for _ in range(15):
                    response = exchange(server, request_bytes("POST", "/query", QUERY))
                    statuses.append(status_of(response))
                    peak.append(len(live_workers()))
                return statuses

            threads, results = in_threads(client, 8)
            join_all(threads)
    finally:
        sys.setswitchinterval(interval)
    statuses = [status for result in results for status in result]
    assert len(statuses) == 120 and set(statuses) <= {200, 429}
    assert max(peak) <= 5
    assert live_workers() == []
