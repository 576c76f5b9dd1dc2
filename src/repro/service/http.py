"""A minimal in-process HTTP-style router (the Jersey substitute).

MDM's backend "is implemented as a set of REST APIs ... thus the frontend
interacts with the backend by means of HTTP REST calls" (paper §2.5).
Offline we keep the exact interaction shape — method + path + JSON body
in, status + JSON body out — without sockets: handlers are called
directly, so the service layer is deterministic and unit-testable.

Routes use ``:name`` segments for path parameters::

    router.add("POST", "/sources/:name/wrappers", handler)
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..obs import get_metrics, get_tracer

__all__ = ["JsonRequest", "JsonResponse", "Router", "ServiceError"]


#: The kinds of body field :meth:`JsonRequest.typed` checks.
_KINDS: Dict[str, Callable[[Any], bool]] = {
    "boolean": lambda v: isinstance(v, bool),
    "list of strings": lambda v: isinstance(v, list) and all(isinstance(i, str) for i in v),
    "list of objects": lambda v: isinstance(v, list) and all(isinstance(i, dict) for i in v),
}
_REQUIRED = object()


class ServiceError(Exception):
    """Raised by handlers to produce a non-200 response."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass(frozen=True)
class JsonRequest:
    """One request: method, path, path params, query params, JSON body."""

    method: str
    path: str
    path_params: Mapping[str, str] = field(default_factory=dict)
    query: Mapping[str, str] = field(default_factory=dict)
    body: Any = None

    def require(self, *keys: str) -> Tuple[Any, ...]:
        """Fetch required body keys; raises 400 if any is missing."""
        if not isinstance(self.body, Mapping):
            raise ServiceError(400, "request body must be a JSON object")
        missing = [k for k in keys if k not in self.body]
        if missing:
            raise ServiceError(400, f"missing body fields: {missing}")
        return tuple(self.body[k] for k in keys)

    def typed(self, key: str, kind: str, default: Any = _REQUIRED) -> Any:
        """Body field ``key``, which must be a ``kind`` of :data:`_KINDS`;
        ``default`` when absent.  Raises 400 when it is mistyped, or
        absent without a default."""
        absent = isinstance(self.body, Mapping) and key not in self.body
        if absent and default is not _REQUIRED:
            return default
        (value,) = self.require(key)
        if not _KINDS[kind](value):
            raise ServiceError(400, f"{key} must be a {kind}")
        return value


@dataclass(frozen=True)
class JsonResponse:
    """One response: status and a JSON-serializable body."""

    status: int
    body: Any

    @property
    def ok(self) -> bool:
        """Whether the status is 2xx."""
        return 200 <= self.status < 300

    def json(self) -> str:
        """The body serialized as JSON text."""
        return json.dumps(self.body, indent=2, sort_keys=True)


Handler = Callable[[JsonRequest], Any]


class _Route:
    def __init__(self, method: str, pattern: str, handler: Handler):
        self.method = method.upper()
        #: The original pattern (e.g. ``/sources/:name/wrappers``) — the
        #: low-cardinality label value for per-route metrics.
        self.pattern = pattern
        self.handler = handler
        self.param_names: List[str] = []
        regex_parts: List[str] = []
        for segment in pattern.strip("/").split("/"):
            if segment.startswith(":"):
                self.param_names.append(segment[1:])
                regex_parts.append(r"([^/]+)")
            else:
                regex_parts.append(re.escape(segment))
        self.regex = re.compile("^/" + "/".join(regex_parts) + "$")

    def match(self, method: str, path: str) -> Optional[Dict[str, str]]:
        if method.upper() != self.method:
            return None
        m = self.regex.match(path)
        if m is None:
            return None
        return dict(zip(self.param_names, m.groups()))


class Router:
    """Dispatches requests to registered handlers."""

    def __init__(self):
        self._routes: List[_Route] = []

    def add(self, method: str, pattern: str, handler: Handler) -> None:
        """Register a handler for ``method pattern``."""
        self._routes.append(_Route(method, pattern, handler))

    def dispatch(
        self,
        method: str,
        path: str,
        body: Any = None,
        query: Optional[Mapping[str, str]] = None,
    ) -> JsonResponse:
        """Route one request; returns a :class:`JsonResponse` always.

        Handler return values become 200 bodies; :class:`ServiceError`
        maps to its status; other exceptions map to 500 with the message.

        Every dispatch feeds the per-route request counter and latency
        histogram (``mdm_http_requests_total`` /
        ``mdm_http_request_seconds``, labeled by the route *pattern*, not
        the raw path, to keep cardinality bounded) and runs under an
        ``http:<METHOD> <pattern>`` span when tracing is enabled.
        """
        metrics = get_metrics()
        requests_total = metrics.counter("mdm_http_requests_total")
        for route in self._routes:
            params = route.match(method, path)
            if params is None:
                continue
            request = JsonRequest(
                method=method.upper(),
                path=path,
                path_params=params,
                query=dict(query or {}),
                body=body,
            )
            started = time.perf_counter()
            with get_tracer().span(
                f"http:{route.method} {route.pattern}"
            ) as span:
                try:
                    result = route.handler(request)
                    response = JsonResponse(200, result)
                except ServiceError as exc:
                    response = JsonResponse(exc.status, {"error": exc.message})
                except Exception as exc:  # noqa: BLE001 — service boundary
                    response = JsonResponse(
                        500, {"error": f"{type(exc).__name__}: {exc}"}
                    )
                span.set_tag("status", response.status)
            requests_total.inc(
                method=route.method,
                route=route.pattern,
                status=str(response.status),
            )
            metrics.histogram("mdm_http_request_seconds").observe(
                time.perf_counter() - started, route=route.pattern
            )
            return response
        requests_total.inc(
            method=method.upper(), route="<unmatched>", status="404"
        )
        return JsonResponse(404, {"error": f"no route for {method} {path}"})

    def routes(self) -> List[Tuple[str, str]]:
        """The registered (method, pattern-regex) pairs for introspection."""
        return [(r.method, r.regex.pattern) for r in self._routes]
