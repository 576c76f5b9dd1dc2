"""In-process mock REST server with versioned endpoints.

The paper's sources are "external REST APIs … which … continuously apply
changes in their structure" (§1).  Offline, we simulate them faithfully:
a :class:`MockRestServer` hosts versioned routes (``/v1/players``,
``/v2/players``, …), serves JSON/XML/CSV payloads, supports query-string
filtering and pagination, and returns proper status codes (404 unknown
route, 410 retired version).  Wrappers interact with it through the same
request/response shape they would use with ``requests`` against a live
API, so the integration code path is identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..chaos.failpoints import FailpointError
from ..chaos.failpoints import fire as _failpoint
from .formats import encode_csv, encode_json, encode_xml

__all__ = [
    "Request",
    "Response",
    "Endpoint",
    "MockRestServer",
    "HttpError",
]

Record = Dict[str, Any]
RecordProvider = Callable[[], List[Record]]


class HttpError(RuntimeError):
    """Raised by :meth:`MockRestServer.get_or_raise` on non-2xx responses."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


@dataclass(frozen=True)
class Request:
    """A GET request: path plus query parameters."""

    path: str
    params: Mapping[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Response:
    """The server's answer."""

    status: int
    content_type: str
    body: str

    @property
    def ok(self) -> bool:
        """Whether the status is 2xx."""
        return 200 <= self.status < 300


_MIME = {
    "json": "application/json",
    "xml": "application/xml",
    "csv": "text/csv",
}


@dataclass
class Endpoint:
    """One versioned collection endpoint.

    ``provider`` returns the current record list on every call (so the
    backing data may change between requests, like a live API).
    ``fields`` optionally restricts/falls the record keys served, letting
    schema versions share one provider.
    """

    name: str
    version: int
    payload_format: str
    provider: RecordProvider
    fields: Optional[Sequence[str]] = None
    item_tag: str = "item"
    root_tag: str = "items"
    retired: bool = False
    page_size: Optional[int] = None

    @property
    def path(self) -> str:
        """The route, e.g. ``/v2/players``."""
        return f"/v{self.version}/{self.name}"

    def records(self) -> List[Record]:
        """The records as served (after field restriction)."""
        raw = self.provider()
        if self.fields is None:
            return [dict(r) for r in raw]
        return [{k: r.get(k) for k in self.fields} for r in raw]


class MockRestServer:
    """Hosts endpoints and answers GET requests in-process."""

    def __init__(self, base_url: str = "http://api.local"):
        self.base_url = base_url
        self._endpoints: Dict[str, Endpoint] = {}
        self.request_log: List[Request] = []

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #

    def register(self, endpoint: Endpoint) -> None:
        """Mount an endpoint at its versioned path (replacing any old one)."""
        if endpoint.payload_format not in _MIME:
            raise ValueError(f"unknown format {endpoint.payload_format!r}")
        self._endpoints[endpoint.path] = endpoint

    def retire(self, name: str, version: int) -> None:
        """Mark a version as retired — requests will get HTTP 410.

        This simulates a provider sunsetting an old API version, the event
        that breaks GAV-mapped pipelines.
        """
        path = f"/v{version}/{name}"
        endpoint = self._endpoints.get(path)
        if endpoint is None:
            raise KeyError(f"no endpoint at {path}")
        endpoint.retired = True

    def endpoints(self) -> List[Endpoint]:
        """All mounted endpoints, sorted by path."""
        return [self._endpoints[p] for p in sorted(self._endpoints)]

    def latest_version(self, name: str) -> Optional[int]:
        """Highest non-retired version of ``name``, or None."""
        versions = [
            e.version
            for e in self._endpoints.values()
            if e.name == name and not e.retired
        ]
        return max(versions) if versions else None

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #

    def get(self, path: str, params: Optional[Mapping[str, str]] = None) -> Response:
        """Answer a GET request."""
        request = Request(path, dict(params or {}))
        self.request_log.append(request)
        endpoint = self._endpoints.get(path)
        if endpoint is None:
            return Response(404, "text/plain", f"no such endpoint: {path}")
        if endpoint.retired:
            return Response(
                410, "text/plain", f"version v{endpoint.version} of {endpoint.name} is retired"
            )
        records = endpoint.records()
        records = self._apply_filters(records, request.params, endpoint)
        records, page_info = self._apply_pagination(records, request.params, endpoint)
        body = self._encode(records, endpoint)
        try:
            # error → 503 (real REST backends fail with a status code,
            # not a Python exception inside the server); corrupt mangles
            # the encoded body so decode/schema checks trip downstream.
            body = _failpoint("restapi.get", payload=body, key=path)
        except FailpointError as exc:
            return Response(503, "text/plain", str(exc))
        return Response(200, _MIME[endpoint.payload_format], body)

    def get_or_raise(self, path: str, params: Optional[Mapping[str, str]] = None) -> Response:
        """Like :meth:`get` but raising :class:`HttpError` on failure."""
        response = self.get(path, params)
        if not response.ok:
            raise HttpError(response.status, response.body)
        return response

    def get_all_pages(self, path: str, params: Optional[Mapping[str, str]] = None) -> List[Response]:
        """Fetch every page of a paginated endpoint.

        Pages are as long as the request's ``per_page`` when it sends
        one, else the endpoint's ``page_size``; with neither there is
        one page.  Paging stops at the first page shorter than that.
        """
        endpoint = self._endpoints.get(path)
        responses: List[Response] = []
        page = 1
        while True:
            merged = dict(params or {})
            merged["page"] = str(page)
            response = self.get(path, merged)
            responses.append(response)
            if not response.ok:
                break
            size = self._page_size(merged, endpoint)
            if size is None:
                break
            # Stop once a short (or empty) page arrives.
            count = self._count_records(response, endpoint)
            if count < size:
                break
            page += 1
        return responses

    @staticmethod
    def _count_records(response: Response, endpoint: Endpoint) -> int:
        from .formats import decode_csv, decode_json, decode_xml

        if endpoint.payload_format == "json":
            return len(decode_json(response.body))
        if endpoint.payload_format == "xml":
            return len(decode_xml(response.body))
        return len(decode_csv(response.body))

    @staticmethod
    def _apply_filters(
        records: List[Record], params: Mapping[str, str], endpoint: Endpoint
    ) -> List[Record]:
        filtered = records
        for key, value in params.items():
            if key in ("page", "per_page"):
                continue
            filtered = [
                r for r in filtered if str(r.get(key)) == value
            ]
        return filtered

    @staticmethod
    def _page_size(params: Mapping[str, str], endpoint: Endpoint) -> Optional[int]:
        """Records per page: the request's ``per_page``, else the endpoint's."""
        if "per_page" in params:
            return max(1, int(params["per_page"]))
        return endpoint.page_size

    @classmethod
    def _apply_pagination(
        cls, records: List[Record], params: Mapping[str, str], endpoint: Endpoint
    ) -> Tuple[List[Record], Optional[Dict[str, int]]]:
        size = cls._page_size(params, endpoint)
        if size is None:
            return records, None
        page = max(1, int(params.get("page", "1")))
        start = (page - 1) * size
        return records[start : start + size], {"page": page, "per_page": size}

    @staticmethod
    def _encode(records: List[Record], endpoint: Endpoint) -> str:
        if endpoint.payload_format == "json":
            return encode_json(records)
        if endpoint.payload_format == "xml":
            return encode_xml(records, item_tag=endpoint.item_tag, root_tag=endpoint.root_tag)
        return encode_csv(records, columns=list(endpoint.fields) if endpoint.fields else None)

    def url(self, path: str) -> str:
        """Full URL for a path (documentation/logging only)."""
        return self.base_url + path
