"""The socket front end: a real HTTP server over the in-process router.

The paper's backend is "a set of REST APIs" consumed by a web frontend
over HTTP (§2.5).  :mod:`repro.service.http` keeps that interaction
shape in-process for deterministic unit tests; this module puts actual
sockets in front of the same :class:`~repro.service.api.MdmService` so
many OS-level clients can hit one MDM concurrently:

- :class:`MdmHttpServer` is an ``HTTPServer`` whose handler adapts each
  socket request (method, path, query string, JSON body) onto
  ``Router.dispatch`` — JSON in / JSON out, ``str`` bodies passed
  through as ``text/plain`` so ``GET /metrics`` stays scrapeable by
  Prometheus — and sends the whole response in one write.
- **Handler pool**: the accept loop hands each connection to a reused
  handler thread.  A worker starts only when none is idle, up to
  ``max_in_flight + 1``, so a request past the admission bound always
  finds a worker to answer its 429.  Each connection runs in a fresh
  :mod:`contextvars` context, so no span leaks into the next request on
  the same worker, and under :data:`SOCKET_TIMEOUT_S`, so a silent or
  stalled client frees its worker.
- **Admission control**: a bounded in-flight-request semaphore.  When
  ``max_in_flight`` requests are already executing, new ones are turned
  away immediately with ``429 Too Many Requests`` + a ``Retry-After``
  header instead of queueing unboundedly; rejections are counted in
  ``mdm_requests_rejected_total``.
- **Graceful shutdown**: :meth:`MdmHttpServer.stop` stops accepting,
  lets the workers answer every connection already accepted, joins
  them and closes the listening socket — no stray threads survive it.

The in-process router remains the unit-test surface; this wrapper adds
only transport and back-pressure, never routing logic.
"""

from __future__ import annotations

import contextvars
import io
import json
import queue
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Any, List, Optional, Tuple
from urllib.parse import parse_qsl, urlparse

from ..chaos.failpoints import FailpointError
from ..chaos.failpoints import fire as _failpoint
from ..core.config import DEFAULT_MAX_IN_FLIGHT
from ..obs import get_metrics
from .api import MdmService

__all__ = ["MdmHttpServer", "serve"]

#: Seconds suggested to rejected clients via the ``Retry-After`` header.
DEFAULT_RETRY_AFTER_S = 1

#: Seconds a connection's socket may wait on its client, for the request
#: or to take the response, before its worker drops it.
SOCKET_TIMEOUT_S = 10.0


class _MdmRequestHandler(BaseHTTPRequestHandler):
    """Adapts one socket request onto the service's router."""

    # HTTP/1.0: the connection closes after each response, so a worker
    # is free for the next connection once it has answered, and stop()
    # never waits on an idle keep-alive socket.  Clients pay a reconnect
    # per request, which is the right trade for a governance service
    # (queries dominate, not chatter).
    protocol_version = "HTTP/1.0"
    server_version = "repro-mdm"
    sys_version = ""

    # The driving server (typed for readers; set by socketserver).
    server: "MdmHttpServer"

    def setup(self) -> None:
        super().setup()
        # Collect the response, head and body alike, for finish() to
        # send in one write: a second write costs the client another
        # segment and wake-up.
        self.wfile = self._response = io.BytesIO()

    def handle(self) -> None:
        try:
            super().handle()
        except ConnectionResetError:
            # The client reset while its request was read: drop it
            # unanswered.  A stall there raises TimeoutError, which
            # handle_one_request already drops.
            self.close_connection = True

    def finish(self) -> None:
        # Idle before the response leaves: a client that reconnects as
        # soon as it has read it finds this worker idle and starts no other.
        self.server.count_idle()
        try:
            self.connection.sendall(self._response.getvalue())
        except (BrokenPipeError, ConnectionResetError, TimeoutError):
            pass  # client gave up or stalled mid-response; nothing left to salvage
        super().finish()

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Silence the default per-request stderr line.

        The router already feeds ``mdm_http_requests_total`` and the
        request-latency histogram; a second, unstructured log stream
        would just interleave garbage under concurrency.
        """

    # One implementation for every verb the router understands.
    def do_GET(self) -> None:  # noqa: N802 — http.server naming
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._handle("POST")

    def do_PUT(self) -> None:  # noqa: N802
        self._handle("PUT")

    def do_DELETE(self) -> None:  # noqa: N802
        self._handle("DELETE")

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #

    def _read_body(self) -> Tuple[bool, Any]:
        """(ok, parsed JSON body or None) — draining the socket either way."""
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            return True, None
        raw = self.rfile.read(length)
        try:
            return True, json.loads(raw)
        except (UnicodeDecodeError, json.JSONDecodeError):
            return False, None

    def _handle(self, method: str) -> None:
        server = self.server
        try:
            # Chaos hook: delay/hang simulate a slow accept loop, error
            # turns into a 503 the way a dying front end would answer.
            _failpoint("service.admission")
        except FailpointError as exc:
            self._read_body()
            self._send(503, {"error": str(exc)})
            return
        if not server.admission.acquire(blocking=False):
            # Saturated: drain the request so the client can read the
            # response, then bounce with back-pressure advice.
            self._read_body()
            get_metrics().counter("mdm_requests_rejected_total").inc()
            self._send(
                429,
                {"error": "server saturated; retry later"},
                extra_headers={"Retry-After": str(server.retry_after_s)},
            )
            return
        try:
            ok, body = self._read_body()
            if not ok:
                self._send(400, {"error": "request body is not valid JSON"})
                return
            parsed = urlparse(self.path)
            query = dict(parse_qsl(parsed.query))
            response = server.service.request(method, parsed.path, body, query)
            self._send(response.status, response.body)
        finally:
            server.admission.release()

    def _send(
        self,
        status: int,
        body: Any,
        extra_headers: Optional[dict] = None,
    ) -> None:
        if isinstance(body, str):
            # Plain-text passthrough — the Prometheus exposition format
            # of GET /metrics must not be JSON-wrapped.
            data = body.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            data = json.dumps(body, sort_keys=True).encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)


class MdmHttpServer(HTTPServer):
    """An HTTP server bound to one :class:`MdmService`, answering on a
    pool of reused handler threads.

    ``port=0`` binds an ephemeral port (tests); :attr:`url` reports the
    resolved address.  Use :meth:`start`/:meth:`stop` for a background
    server or :meth:`serve_forever` to block the calling thread (the
    CLI path).
    """

    def __init__(
        self,
        service: MdmService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        retry_after_s: int = DEFAULT_RETRY_AFTER_S,
    ):
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        # listen() runs inside super().__init__(): queue as many pending
        # connections as the server admits, not socketserver's 5.
        self.request_queue_size = max_in_flight
        super().__init__((host, port), _MdmRequestHandler)
        self.service = service
        self.max_in_flight = max_in_flight
        self.retry_after_s = retry_after_s
        self.admission = threading.BoundedSemaphore(max_in_flight)
        self._serve_thread: Optional[threading.Thread] = None
        #: Accepted connections on their way to a worker; None stops one.
        self._handoffs: "queue.SimpleQueue" = queue.SimpleQueue()
        self._workers: List[threading.Thread] = []
        #: Workers done with their last connection and not yet handed one.
        self._idle = 0
        self._pool_lock = threading.Lock()
        #: ``busy``: the worker's connection is not yet counted idle.
        self._worker_state = threading.local()

    # ------------------------------------------------------------------ #
    # the handler pool
    # ------------------------------------------------------------------ #

    def process_request(self, request: Any, client_address: Any) -> None:
        """Hand the connection to an idle worker, or start one while
        fewer than ``max_in_flight + 1`` run; past that it waits for the
        first worker to free up."""
        with self._pool_lock:
            if self._idle:
                self._idle -= 1
            elif len(self._workers) <= self.max_in_flight:
                worker = threading.Thread(
                    target=self._work,
                    name=f"mdm-http-worker_{len(self._workers)}",
                    daemon=True,
                )
                worker.start()
                self._workers.append(worker)
        self._handoffs.put((request, client_address, time.perf_counter()))

    def _work(self) -> None:
        workers = get_metrics().gauge("mdm_http_workers")
        workers.inc()
        try:
            while (handoff := self._handoffs.get()) is not None:
                # A fresh context per connection: no span (or other
                # context variable) of one request reaches the next.
                contextvars.Context().run(self._serve, *handoff)
        finally:
            workers.dec()

    def count_idle(self) -> None:
        """Count the calling worker idle, once per connection."""
        if self._worker_state.busy:
            self._worker_state.busy = False
            with self._pool_lock:
                self._idle += 1

    def _serve(
        self, request: socket.socket, client_address: Any, handed_off: float
    ) -> None:
        request.settimeout(SOCKET_TIMEOUT_S)
        self._worker_state.busy = True
        try:
            self.finish_request(request, client_address)
        except Exception:  # noqa: BLE001 — the worker must outlive any request
            self.handle_error(request, client_address)
        finally:
            self.count_idle()  # if setup() raised, finish() did not run
            self.shutdown_request(request)
        get_metrics().histogram("mdm_http_handler_seconds").observe(
            time.perf_counter() - handed_off
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def url(self) -> str:
        """The server's base URL (resolved even for ephemeral ports)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "MdmHttpServer":
        """Serve on a background thread; returns self for chaining."""
        if self._serve_thread is not None:
            raise RuntimeError("server is already running")
        self._serve_thread = threading.Thread(
            target=self.serve_forever, name="mdm-http-serve", daemon=True
        )
        self._serve_thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, answer what was accepted, join the workers and
        close the socket."""
        self.shutdown()
        if self._serve_thread is not None:
            self._serve_thread.join()
            self._serve_thread = None
        self.server_close()

    def server_close(self) -> None:
        """Close the listening socket; each worker stops once the
        connections handed to the pool before it are answered, and is
        joined."""
        super().server_close()
        with self._pool_lock:
            workers, self._workers = self._workers, []
        for _ in workers:
            self._handoffs.put(None)
        for worker in workers:
            worker.join()

    def __enter__(self) -> "MdmHttpServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def serve(
    service: MdmService,
    host: str = "127.0.0.1",
    port: int = 0,
    max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
    retry_after_s: int = DEFAULT_RETRY_AFTER_S,
) -> MdmHttpServer:
    """Start a background :class:`MdmHttpServer`; caller owns ``stop()``."""
    return MdmHttpServer(
        service,
        host=host,
        port=port,
        max_in_flight=max_in_flight,
        retry_after_s=retry_after_s,
    ).start()
