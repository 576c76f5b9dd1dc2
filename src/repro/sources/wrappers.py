"""Wrappers: the access mechanism from the mediator/wrapper architecture.

A wrapper (paper §2.2) encapsulates how a source is queried — "an API
request or a database query" — and exposes a *signature*
``w(a1, ..., an)``: a flat, first-normal-form relation over named
attributes.  "The query contained in the wrapper might rename (e.g. foot)
or add new attributes (e.g. teamId)", which here is the ``attribute_map``:
each signature attribute is produced from a path into the (flattened)
payload or a computed function.

``RestWrapper.fetch()`` is strict by design: if the payload no longer
contains an expected path — the typical effect of a breaking schema
change hitting a wrapper written for the previous version — it raises
:class:`WrapperSchemaError` rather than silently emitting NULLs.  That
strictness is what makes the GAV baseline "crash" in the evolution
scenario while MDM's LAV rewriting routes around it.
"""

from __future__ import annotations

import contextvars
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..chaos import clock as chaos_clock
from ..chaos.failpoints import fire as _failpoint
from ..obs import get_metrics, get_tracer
from ..relational.algebra import CAP_FILTERS, CAP_LIMIT, CAP_PROJECTION, Scan
from ..relational.executor import apply_pushdown, row_getter
from ..relational.relation import Relation
from ..relational.types import AttrType
from .formats import DECODE_ERRORS, decode_csv, decode_json, decode_xml, flatten_record
from .restapi import HttpError, MockRestServer, Response

__all__ = [
    "Wrapper",
    "RestWrapper",
    "StaticWrapper",
    "WrapperSchemaError",
    "WrapperFetchError",
    "WrapperTimeoutError",
    "RetryPolicy",
    "AttributeSpec",
    "FetchResult",
    "sharing_requests",
]

Record = Dict[str, Any]

#: How a signature attribute is produced from one flattened payload record:
#: a key (str) into the flattened record, or a function of it.
AttributeSpec = Union[str, Callable[[Record], Any]]

#: The decoded, flattened payloads already fetched in this context, keyed
#: by request; ``None`` outside :func:`sharing_requests`.
_SHARED_REQUESTS: contextvars.ContextVar[Optional[Dict[Hashable, List[Record]]]] = (
    contextvars.ContextVar("mdm_shared_requests", default=None)
)


@contextmanager
def sharing_requests() -> Iterator[None]:
    """Let the REST wrappers fetched in this block share identical GETs.

    Inside the block, a :class:`RestWrapper` that would send a request
    another wrapper already sent successfully maps its attributes from
    that decoded payload instead of asking the source again.  Only
    successful decodes are shared, never a failure.  The memo lives in a
    :mod:`contextvars` variable, so it is private to the block's context:
    a thread started inside (a retry policy's per-attempt timeout) does
    not inherit it and sends its own GET.
    """
    token = _SHARED_REQUESTS.set({})
    try:
        yield
    finally:
        _SHARED_REQUESTS.reset(token)


@dataclass(frozen=True)
class FetchResult:
    """A wrapper's answer to a fetch request (a :class:`Scan`).

    ``rows_transferred`` counts rows that actually crossed the wrapper
    boundary (post source-side filtering); ``rows_source`` is the
    source's full cardinality when the wrapper knows it (``None`` for
    remote sources that never materialized the full payload here).
    """

    relation: Relation
    rows_transferred: int
    rows_source: Optional[int] = None


class WrapperSchemaError(RuntimeError):
    """The payload no longer matches the wrapper's expectations."""

    def __init__(self, wrapper_name: str, attribute: str, detail: str):
        super().__init__(
            f"wrapper {wrapper_name!r}: cannot produce attribute "
            f"{attribute!r}: {detail}"
        )
        self.wrapper_name = wrapper_name
        self.attribute = attribute


class WrapperFetchError(RuntimeError):
    """A wrapper fetch failed terminally after exhausting its retry policy."""

    def __init__(self, wrapper_name: str, attempts: int, cause: BaseException):
        super().__init__(
            f"wrapper {wrapper_name!r}: fetch failed after {attempts} "
            f"attempt(s): {type(cause).__name__}: {cause}"
        )
        self.wrapper_name = wrapper_name
        self.attempts = attempts
        self.cause = cause


class WrapperTimeoutError(WrapperFetchError):
    """One fetch attempt exceeded the policy's per-attempt timeout."""

    def __init__(self, wrapper_name: str, timeout_s: float, attempt: int):
        RuntimeError.__init__(
            self,
            f"wrapper {wrapper_name!r}: fetch attempt {attempt} exceeded "
            f"{timeout_s:g}s timeout",
        )
        self.wrapper_name = wrapper_name
        self.attempts = attempt
        self.timeout_s = timeout_s
        self.cause = None


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff/timeout policy for wrapper fetches.

    Attempts are capped at ``attempts``; each attempt may be bounded by
    ``timeout_s`` (None = unbounded).  Between attempts the policy sleeps
    ``backoff_base_s * backoff_multiplier**(attempt-1)`` capped at
    ``max_backoff_s``, plus ``jitter(attempt)`` when a jitter hook is
    given — the hook keeps backoff deterministic under test (pass e.g.
    ``lambda attempt: 0.0``) while real deployments can plug randomness.
    ``sleep`` is injectable for the same reason; its default goes through
    :func:`repro.chaos.clock.sleep`, so installing a
    :class:`~repro.chaos.clock.VirtualClock` makes every backoff instant
    (and recorded) without touching the policy.

    The default policy (one attempt, no timeout) is semantically the
    plain ``fetch()`` call: the original exception propagates unwrapped.
    """

    attempts: int = 1
    timeout_s: Optional[float] = None
    backoff_base_s: float = 0.05
    backoff_multiplier: float = 2.0
    max_backoff_s: float = 2.0
    jitter: Optional[Callable[[int], float]] = None
    sleep: Callable[[float], None] = chaos_clock.sleep

    def __post_init__(self):
        if type(self.attempts) is not int or self.attempts < 1:
            raise ValueError("retry policy needs an integer number of attempts >= 1")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("per-attempt timeout must be positive")
        if self.backoff_base_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff durations must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff multiplier must be >= 1")

    def backoff_s(self, attempt: int) -> float:
        """Sleep duration after failed attempt number ``attempt`` (1-based)."""
        delay = min(
            self.backoff_base_s * self.backoff_multiplier ** (attempt - 1),
            self.max_backoff_s,
        )
        if self.jitter is not None:
            delay += self.jitter(attempt)
        return max(0.0, delay)

    def describe(self) -> Dict[str, Any]:
        """JSON-shaped view (CLI/service configuration echoes)."""
        return {
            "attempts": self.attempts,
            "timeout_s": self.timeout_s,
            "backoff_base_s": self.backoff_base_s,
            "backoff_multiplier": self.backoff_multiplier,
            "max_backoff_s": self.max_backoff_s,
        }


class Wrapper:
    """Abstract wrapper: a name, a signature, and ``fetch()``."""

    def __init__(self, name: str, attributes: Sequence[str]):
        if not name:
            raise ValueError("wrapper name must be non-empty")
        if not attributes:
            raise ValueError("wrapper signature needs at least one attribute")
        if len(set(attributes)) != len(attributes):
            raise ValueError(f"duplicate attributes in signature: {attributes}")
        self.name = name
        self.attributes: Tuple[str, ...] = tuple(attributes)

    @property
    def signature(self) -> str:
        """The paper's notation, e.g. ``w1(id, pName, height, ...)``."""
        return f"{self.name}({', '.join(self.attributes)})"

    def fetch(self) -> List[Record]:
        """The current rows as dicts keyed exactly by the signature."""
        raise NotImplementedError

    def endpoint(self) -> Optional[Hashable]:
        """The identity of the source request this wrapper sends, or None.

        Wrappers that declare the same endpoint read one source request,
        so a query fetches them together and lets them share it (see
        :func:`sharing_requests`).  ``None`` (the default) declares
        nothing to share.
        """
        return None

    def capabilities(self) -> frozenset:
        """Pushdown capabilities this wrapper declares.

        A subset of ``{"filters", "projection", "limit"}``.  Declaring
        ``filters`` is a contract: the wrapper's :meth:`_fetch_push`
        returns exactly the rows an executor-side ``Select`` with the
        same conjunction would keep.  The base wrapper declares nothing,
        so unknown subclasses transparently fall back to full fetches
        with residual evaluation mediator-side.
        """
        return frozenset()

    def _fetch_push(self, scan: Scan) -> FetchResult:
        """One pushed-fetch attempt.

        The base implementation is the uncapable fallback: fetch the
        full payload and apply the request mediator-side with executor
        semantics, so ``rows_transferred`` stays the full cardinality.
        Capable subclasses override this to apply (part of) the request
        before rows cross the boundary.
        """
        rows = self.fetch()
        relation = Relation.from_dicts(
            rows, attribute_order=list(self.attributes), name=self.name
        )
        return FetchResult(
            relation=apply_pushdown(relation, scan),
            rows_transferred=len(rows),
            rows_source=len(rows),
        )

    def _fetch_bounded(
        self,
        timeout_s: Optional[float],
        attempt: int,
        call: Optional[Callable[[], Any]] = None,
    ) -> Any:
        """One fetch attempt, bounded by ``timeout_s`` when given.

        The bounded variant runs the fetch in a daemon thread and abandons
        it on timeout (the thread finishes in the background); sources here
        are in-process, so an abandoned attempt holds no scarce resources.
        ``call`` substitutes the work (default: plain :meth:`fetch`).
        """
        call = call if call is not None else self.fetch
        if timeout_s is None:
            return call()
        result: Dict[str, Any] = {}

        def attempt_fetch() -> None:
            try:
                result["rows"] = call()
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                result["error"] = exc

        worker = threading.Thread(
            target=attempt_fetch, name=f"fetch-{self.name}", daemon=True
        )
        worker.start()
        worker.join(timeout_s)
        if worker.is_alive():
            raise WrapperTimeoutError(self.name, timeout_s, attempt)
        if "error" in result:
            raise result["error"]
        return result["rows"]

    def fetch_retrying(
        self,
        policy: Optional["RetryPolicy"] = None,
        call: Optional[Callable[[], Any]] = None,
    ) -> Tuple[Any, int]:
        """``fetch()`` under a :class:`RetryPolicy`; returns ``(rows, attempts)``.

        Each failed attempt short of the cap increments
        ``mdm_wrapper_retry_total``; exhausting the policy increments
        ``mdm_wrapper_failure_total`` and raises
        :class:`WrapperFetchError` (or the original exception unwrapped
        when the policy allows a single untimed attempt, preserving the
        strict-fetch contract existing callers rely on).
        """
        policy = policy or RetryPolicy()
        metrics = get_metrics()
        last_error: Optional[BaseException] = None
        for attempt in range(1, policy.attempts + 1):
            try:
                _failpoint("wrapper.fetch", key=self.name)
                return self._fetch_bounded(policy.timeout_s, attempt, call), attempt
            except Exception as exc:  # noqa: BLE001 — policy decides
                last_error = exc
                if attempt < policy.attempts:
                    metrics.counter("mdm_wrapper_retry_total").inc(wrapper=self.name)
                    _failpoint("retry.sleep", key=self.name)
                    policy.sleep(policy.backoff_s(attempt))
        metrics.counter("mdm_wrapper_failure_total").inc(wrapper=self.name)
        assert last_error is not None
        strict = policy.attempts == 1 and policy.timeout_s is None
        if strict or isinstance(last_error, WrapperTimeoutError):
            raise last_error
        raise WrapperFetchError(
            self.name, policy.attempts, last_error
        ) from last_error

    def fetch_relation(self, retry: Optional["RetryPolicy"] = None) -> Relation:
        """The current rows as a typed :class:`Relation` named after the wrapper.

        A full :meth:`fetch_request`: same ``retry`` policy, span and
        metrics.
        """
        return self.fetch_request(None, retry)[0].relation

    def fetch_request(
        self,
        scan: Optional[Scan] = None,
        retry: Optional["RetryPolicy"] = None,
    ) -> Tuple[FetchResult, int]:
        """The one instrumented fetch, honoring an optional pushed request.

        Every wrapper fetch goes through here, so it is the
        instrumentation point: fetch latency and row counts flow into the
        ``mdm_wrapper_fetch_seconds`` / ``mdm_wrapper_rows_total`` series,
        failures into ``mdm_wrapper_errors_total``, and a ``fetch:<name>``
        span (tagged with the attempt count) is emitted when the process
        tracer is enabled.  ``retry`` applies a :class:`RetryPolicy`
        around the raw fetch.

        ``scan=None`` or a plain ``Scan(name)`` fetches the whole payload
        and ``rows_transferred`` equals the relation's cardinality.  A
        pushed Scan routes through :meth:`_fetch_push`, its span is
        tagged with the scan's :attr:`~Scan.request`, and
        ``mdm_wrapper_rows_total`` counts the rows that actually crossed
        the boundary.
        """
        metrics = get_metrics()
        started = time.perf_counter()
        pushed = scan is not None and scan.is_pushed()
        with get_tracer().span(f"fetch:{self.name}", wrapper=self.name) as span:
            if pushed:
                span.set_tag("request", scan.request)
            try:
                if pushed:
                    result, attempts = self.fetch_retrying(
                        retry, call=lambda: self._fetch_push(scan)
                    )
                else:
                    rows, attempts = self.fetch_retrying(retry)
                    rows = _failpoint("wrapper.payload", payload=rows, key=self.name)
                    result = FetchResult(
                        relation=Relation.from_dicts(
                            rows,
                            attribute_order=list(self.attributes),
                            name=self.name,
                        ),
                        rows_transferred=len(rows),
                        rows_source=len(rows),
                    )
            except Exception as exc:
                metrics.counter("mdm_wrapper_errors_total").inc(wrapper=self.name)
                span.set_tag("attempts", getattr(exc, "attempts", 1))
                raise
            metrics.histogram("mdm_wrapper_fetch_seconds").observe(
                time.perf_counter() - started, wrapper=self.name
            )
            metrics.counter("mdm_wrapper_rows_total").inc(
                result.rows_transferred, wrapper=self.name
            )
            span.set_tag("rows", result.rows_transferred)
            span.set_tag("attempts", attempts)
            return result, attempts

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.signature}>"


class StaticWrapper(Wrapper):
    """A wrapper over fixed in-memory rows (tests, examples, baselines)."""

    def __init__(
        self,
        name: str,
        attributes: Sequence[str],
        rows: Sequence[Mapping[str, Any]],
    ):
        super().__init__(name, attributes)
        self._rows = [
            {a: row.get(a) for a in self.attributes} for row in rows
        ]

    def fetch(self) -> List[Record]:
        return [dict(r) for r in self._rows]

    def capabilities(self) -> frozenset:
        return frozenset({CAP_FILTERS, CAP_PROJECTION, CAP_LIMIT})

    def _fetch_push(self, scan: Scan) -> FetchResult:
        """Apply the request source-side: only matching rows 'transfer'.

        Rows are obtained via :meth:`fetch` (subclasses inject delays or
        failures there) and typed over the *full* row set, so the
        filtered relation carries exactly the schema and coerced values
        an unpushed fetch would have produced — byte-exact by
        construction.
        """
        result = super()._fetch_push(scan)
        return replace(result, rows_transferred=len(result.relation))


class RestWrapper(Wrapper):
    """A wrapper that issues a GET against a (mock) REST endpoint.

    Parameters
    ----------
    name, attributes:
        The signature.
    server, path:
        Where to fetch (e.g. ``/v1/players``).
    attribute_map:
        Signature attribute → :data:`AttributeSpec`.  Attributes absent
        from the map default to their own name as the payload key.
    params:
        Extra query parameters sent with every request.
    strict:
        When True (default), a missing payload key raises
        :class:`WrapperSchemaError`; when False it yields NULL (the
        "silently partial results" failure mode the paper warns about).
    supports_filters:
        Opt-in declaration that the endpoint's query parameters are a
        *safe prefilter* for pushed equality filters: the server may
        drop only rows the exact predicate would drop too.  The mock
        server compares ``str(raw_field) == value``, which matches the
        typed predicate for type-stable string columns but can disagree
        on e.g. mixed boolean columns (``str(True)`` is ``"True"``, the
        coerced cell is ``"true"``) — hence off by default.  The exact
        predicate is always re-applied to the typed rows after the
        prefilter, so a *superset*-returning server keeps the right
        rows; an under-returning one does not.  The answer is *not*
        byte-identical to an unpushed fetch in one case: column types
        are inferred from the prefiltered subset alone, so a column the
        full payload would widen (``score`` values ``1`` and ``2.5``,
        filtered to the ``1`` row) comes back INTEGER ``1`` instead of
        FLOAT ``1.0``; INTEGER/STRING and BOOLEAN/STRING mixes diverge
        the same way.
    """

    def __init__(
        self,
        name: str,
        attributes: Sequence[str],
        server: MockRestServer,
        path: str,
        attribute_map: Optional[Mapping[str, AttributeSpec]] = None,
        params: Optional[Mapping[str, str]] = None,
        strict: bool = True,
        paginate: bool = False,
        supports_filters: bool = False,
    ):
        super().__init__(name, attributes)
        self.server = server
        self.path = path
        self.attribute_map: Dict[str, AttributeSpec] = dict(attribute_map or {})
        self.params = dict(params or {})
        self.strict = strict
        #: Fetch every page of a paginated endpoint instead of one GET.
        self.paginate = paginate
        self.supports_filters = supports_filters

    def _decode(self, response: Response) -> List[Record]:
        if "json" in response.content_type:
            records = decode_json(response.body)
        elif "xml" in response.content_type:
            records = decode_xml(response.body)
        elif "csv" in response.content_type:
            records = decode_csv(response.body)
        else:
            raise WrapperSchemaError(
                self.name, "*", f"unsupported content type {response.content_type}"
            )
        return [flatten_record(r) for r in records]

    def endpoint(self) -> Optional[Hashable]:
        return (self.server, self.path)

    def _responses(self, send: Mapping[str, str]) -> List[Response]:
        if not self.paginate:
            return [self.server.get_or_raise(self.path, send)]
        responses = self.server.get_all_pages(self.path, send)
        for response in responses:
            if not response.ok:
                raise HttpError(response.status, response.body)
        return responses

    def fetch(self) -> List[Record]:
        decoded = self._decoded(None)
        return self._map_records(decoded, self._plain_keys(decoded))

    def _decoded(self, params: Optional[Mapping[str, str]]) -> List[Record]:
        """The decoded, flattened records one request returns.

        A failed request, or a payload its decoder rejects, raises
        :class:`WrapperSchemaError`.  Inside :func:`sharing_requests` a
        request another wrapper already sent is answered from its
        records; they may be shared, so callers never modify them.
        """
        send = dict(self.params if params is None else params)
        shared = _SHARED_REQUESTS.get()
        key = (self.server, self.path, tuple(sorted(send.items())), self.paginate)
        decoded = None if shared is None else shared.get(key)
        if decoded is None:
            try:
                responses = self._responses(send)
            except HttpError as exc:
                raise WrapperSchemaError(
                    self.name, "*", f"endpoint {self.path} failed: {exc}"
                ) from exc
            decoded = []
            for response in responses:
                try:
                    decoded.extend(self._decode(response))
                except DECODE_ERRORS as exc:
                    raise WrapperSchemaError(
                        self.name, "*", f"endpoint {self.path} sent a payload "
                        f"that does not decode: {exc}"
                    ) from exc
            if shared is not None:
                shared[key] = decoded
        return decoded

    def _plain_keys(self, decoded: List[Record]) -> Optional[List[str]]:
        """Each signature attribute's payload key, when every spec is a
        plain key present in every record; otherwise None."""
        specs = [self.attribute_map.get(a, a) for a in self.attributes]
        keys = [spec for spec in specs if isinstance(spec, str)]
        if len(keys) == len(specs):
            needed = set(keys)
            if all(needed <= record.keys() for record in decoded):
                return keys
        return None

    def _map_records(
        self, decoded: List[Record], keys: Optional[List[str]]
    ) -> List[Record]:
        """Each decoded record as a row keyed by the signature.

        ``keys`` is what :meth:`_plain_keys` returned for ``decoded``.
        When it is a list, the rows are built in one pass; when None,
        each attribute is produced and checked one by one.  A computed
        spec gets a copy of the record, since ``decoded`` may be shared
        with other wrappers.
        """
        if keys is not None:
            pairs = list(zip(self.attributes, keys))
            return [{a: record[k] for a, k in pairs} for record in decoded]
        specs = [self.attribute_map.get(a, a) for a in self.attributes]
        computed = any(callable(spec) for spec in specs)
        rows: List[Record] = []
        for record in decoded:
            if computed:
                record = dict(record)
            row: Record = {}
            for attribute, spec in zip(self.attributes, specs):
                if callable(spec):
                    try:
                        row[attribute] = spec(record)
                    except (KeyError, TypeError, ValueError) as exc:
                        if self.strict:
                            raise WrapperSchemaError(
                                self.name, attribute, f"computed spec failed: {exc}"
                            ) from exc
                        row[attribute] = None
                else:
                    if spec in record:
                        row[attribute] = record[spec]
                    elif self.strict:
                        raise WrapperSchemaError(
                            self.name,
                            attribute,
                            f"payload key {spec!r} missing "
                            f"(payload keys: {sorted(record)})",
                        )
                    else:
                        row[attribute] = None
            rows.append(row)
        return rows

    def capabilities(self) -> frozenset:
        caps = {CAP_PROJECTION}
        if self.supports_filters:
            caps.add(CAP_FILTERS)
        return frozenset(caps)

    def _prefilter_params(self, scan: Scan) -> Optional[Dict[str, str]]:
        """Query params for the server-side prefilter, or None if unusable.

        Only plain-string equality filters whose attribute maps to a
        top-level (dot-free) payload key that does not collide with the
        wrapper's standing params can ride as query parameters; anything
        else stays mediator-side.  Returns None when no filter qualifies.
        """
        if not self.supports_filters or not scan.filters:
            return None
        params = dict(self.params)
        sent = False
        for column, op, value in scan.filters:
            if op != "=" or not isinstance(value, str):
                continue
            spec = self.attribute_map.get(column, column)
            if not isinstance(spec, str) or "." in spec:
                continue
            if spec in params or spec in ("page", "per_page"):
                continue
            params[spec] = value
            sent = True
        return params if sent else None

    def _relation(self, params: Optional[Mapping[str, str]]) -> Relation:
        """One request's records as a typed relation over the signature.

        When every spec is a plain key present in every record, each
        row is one tuple taken straight from its decoded record;
        otherwise the records are mapped (and strict-checked) as by
        :meth:`fetch` first.  Typed the same way either way.
        """
        decoded = self._decoded(params)
        keys = self._plain_keys(decoded)
        if keys is None:
            return Relation.from_dicts(
                self._map_records(decoded, None),
                attribute_order=list(self.attributes),
                name=self.name,
            )
        return Relation.from_rows(
            self.attributes, list(map(row_getter(keys), decoded)), name=self.name
        )

    def _fetch_push(self, scan: Scan) -> FetchResult:
        """Prefilter at the endpoint, then apply the exact request.

        Every signature attribute is still mapped (and strict-checked)
        for every returned record, so a schema break surfaces exactly as
        on the unpushed path; the rows are built once, as tuples, from
        the decoded records (:meth:`_relation`).  If the prefiltered
        subset types a column as ANY (all-null slice) or comes back
        empty, the full payload is re-fetched.  A subset whose types are
        narrower than the full payload's is not detected (see the class
        docstring).
        """
        params = self._prefilter_params(scan)
        relation = self._relation(params)
        prefiltered = params is not None
        if prefiltered and (
            not relation
            or any(a.type is AttrType.ANY for a in relation.schema.attributes)
        ):
            relation = self._relation(None)
            prefiltered = False  # the full payload crossed after all
        return FetchResult(
            relation=apply_pushdown(relation, scan),
            rows_transferred=len(relation),
            rows_source=None if prefiltered else len(relation),
        )
