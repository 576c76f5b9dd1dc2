"""A named failpoint registry for deterministic fault injection.

The paper's claim is that MDM keeps analysts' queries alive *while the
ecosystem changes under them* — which is only credible if every boundary
the system crosses (wrapper fetches, REST calls, retry sleeps, cache
probes, lock acquisitions, docstore writes, service admission, snapshot
save/load) can be made to fail on demand, deterministically, in tests.
This module provides that vocabulary.

Every instrumented call site is a **named failpoint**: production code
calls ``fire("wrapper.fetch", key=name)`` and, when the site is armed,
the registry applies one of six trigger modes:

``error[(message)]``
    raise :class:`FailpointError` at the site;
``delay(seconds)``
    sleep on the active :mod:`~repro.chaos.clock` (instant under a
    :class:`~repro.chaos.clock.VirtualClock`);
``hang[(max_wait_s)]``
    block until :meth:`FailpointRegistry.release` (bounded by
    ``max_wait_s``, default 30 s, so a forgotten release cannot wedge a
    suite);
``corrupt``
    deterministically mangle the payload the site passed in;
plus two *conditions* that compose with any mode: ``nth(k)`` (fire only
on the k-th matching call) and ``prob(p)`` (fire with probability ``p``
from a per-site RNG seeded by the registry seed — same seed, same firing
sequence, always).  ``times(k)`` caps total firings.

Arming surfaces: the ``$MDM_FAILPOINTS`` env variable, ``POST
/failpoints`` on the service, ``repro-mdm serve --failpoints`` and, in
code, :func:`get_failpoints` (``arm_spec``) or :func:`set_failpoints`.
All of them arm the one process-wide registry.  The spec grammar is::

    spec  := entry (";" entry)*
    entry := site ["[" key "]"] "=" mode ["(" arg ")"] (":" cond)*
    cond  := "nth(" int ")" | "prob(" float ")" | "times(" int ")"

e.g. ``wrapper.fetch[w1]=error:nth(2);retry.sleep=delay(0.5)``.

**Disarmed overhead is near zero**: :func:`fire` is one global load and
one attribute check before returning — the sites stay compiled into hot
paths (cache probes, lock acquisition) within the < 2 % budget the
parallel-fetch benchmark enforces.

Every trigger increments ``mdm_failpoint_triggers_total{site,mode}``,
tags the current span with ``failpoint=<site>:<mode>``, and appends to
an ordered trigger log — the determinism oracle the chaos harness
replays against.
"""

from __future__ import annotations

import os
import random
import re
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..obs import current_span, get_metrics
from . import clock as chaos_clock

__all__ = [
    "FailpointError",
    "Failpoint",
    "FailpointRegistry",
    "SITES",
    "fire",
    "get_failpoints",
    "set_failpoints",
    "parse_spec",
]

#: The failpoint catalog — every site compiled into production code.
#: Arming a name outside this set (other than the ``x.`` test prefix)
#: raises, so a typo cannot silently arm nothing.
SITES = frozenset(
    {
        "wrapper.fetch",  # key=wrapper name; before each fetch attempt
        "wrapper.payload",  # key=wrapper name; corruptible fetched rows
        "retry.sleep",  # key=wrapper name; before each backoff sleep
        "fetch.apply",  # key=relation name; a pushed Scan applied (apply_pushdown)
        "restapi.get",  # key=endpoint path; mock REST endpoint serving
        "cache.rewrite",  # rewrite-cache lookup
        "cache.result",  # result-cache lookup
        "cache.wrapper",  # wrapper-cache lookup
        "lock.read",  # ReadWriteLock.acquire_read
        "lock.write",  # ReadWriteLock.acquire_write
        "docstore.write",  # key=collection name; document mutation
        "docstore.save",  # DocumentStore.save entry
        "service.admission",  # socket server request admission
        "persistence.save",  # save_mdm entry
        "persistence.save.dataset.mid",  # mid TriG temp-file write
        "persistence.save.dataset",  # TriG temp complete, not yet visible
        "persistence.save.commit",  # both temps staged, before replaces
        "persistence.save.metadata",  # dataset visible, metadata still old
        "persistence.load",  # load_mdm entry
        "persistence.load.dataset",  # corruptible TriG text payload
        "persistence.load.metadata",  # before JSONL docstore load
    }
)

_MODES = frozenset({"error", "delay", "hang", "corrupt"})

_ENTRY_RE = re.compile(
    r"^(?P<site>[A-Za-z0-9_.\-]+)"
    r"(?:\[(?P<key>[^\]]+)\])?"
    r"=(?P<action>.+)$"
)
_CALL_RE = re.compile(r"^(?P<name>[a-z]+)(?:\((?P<arg>[^)]*)\))?$")


class FailpointError(RuntimeError):
    """The injected fault raised by an ``error``-mode failpoint."""

    def __init__(self, site: str, message: Optional[str] = None):
        self.site = site
        super().__init__(message or f"failpoint {site!r} fired")


@dataclass
class Failpoint:
    """One armed site: a trigger mode plus its firing conditions."""

    site: str
    mode: str
    arg: Optional[str] = None
    key: Optional[str] = None
    nth: Optional[int] = None
    prob: Optional[float] = None
    times: Optional[int] = None
    calls: int = 0
    fired: int = 0
    rng: random.Random = field(default_factory=random.Random, repr=False)
    event: threading.Event = field(default_factory=threading.Event, repr=False)

    def describe(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "site": self.site,
            "mode": self.mode,
            "calls": self.calls,
            "fired": self.fired,
        }
        for attr in ("arg", "key", "nth", "prob", "times"):
            value = getattr(self, attr)
            if value is not None:
                out[attr] = value
        return out


def _parse_entry(entry: str) -> Failpoint:
    match = _ENTRY_RE.match(entry.strip())
    if match is None:
        raise ValueError(f"bad failpoint entry {entry!r} (want site[key]=mode(...):cond)")
    site = match.group("site")
    parts = match.group("action").split(":")
    call = _CALL_RE.match(parts[0].strip())
    if call is None or call.group("name") not in _MODES:
        raise ValueError(
            f"bad failpoint mode {parts[0]!r} for site {site!r} "
            f"(want one of {sorted(_MODES)})"
        )
    point = Failpoint(site=site, mode=call.group("name"), arg=call.group("arg"),
                      key=match.group("key"))
    if point.mode == "delay":
        if point.arg is None:
            raise ValueError(f"delay failpoint on {site!r} needs delay(seconds)")
        float(point.arg)  # validate early
    for raw in parts[1:]:
        cond = _CALL_RE.match(raw.strip())
        if cond is None or cond.group("arg") is None:
            raise ValueError(f"bad failpoint condition {raw!r} on site {site!r}")
        name, arg = cond.group("name"), cond.group("arg")
        if name == "nth":
            point.nth = int(arg)
        elif name == "prob":
            point.prob = float(arg)
            if not 0.0 <= point.prob <= 1.0:
                raise ValueError(f"prob({arg}) on {site!r} outside [0, 1]")
        elif name == "times":
            point.times = int(arg)
        else:
            raise ValueError(f"unknown failpoint condition {name!r} on site {site!r}")
    return point


def parse_spec(spec: str) -> List[Failpoint]:
    """Parse a ``site=mode:cond;site2=…`` spec string into failpoints."""
    return [_parse_entry(e) for e in spec.split(";") if e.strip()]


def _corrupt_payload(payload: Any) -> Any:
    """Deterministic payload corruption (no RNG — the *decision* to fire
    is where seeded randomness lives; the mangling itself is a pure
    function so oracle checks stay reproducible)."""
    if isinstance(payload, str):
        return payload[: len(payload) // 2] + "\x00corrupt\x00"
    if isinstance(payload, bytes):
        return payload[: len(payload) // 2] + b"\x00corrupt\x00"
    if isinstance(payload, (list, tuple)):
        items = [_corrupt_payload(item) for item in payload[:-1]]
        return type(payload)(items)
    if isinstance(payload, dict):
        return {k: _corrupt_payload(v) for k, v in payload.items()}
    if isinstance(payload, (int, float)) and not isinstance(payload, bool):
        return -payload - 1
    return payload


class FailpointRegistry:
    """All armed failpoints plus the ordered trigger log.

    Deterministic by construction: each armed point owns a
    ``random.Random`` seeded from ``(registry seed, site)``, so a fixed
    seed yields an identical firing sequence run after run regardless of
    what else the process does with the global RNG.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._lock = threading.Lock()
        self._points: Dict[str, Failpoint] = {}
        self._log: List[Dict[str, Any]] = []
        # Read without the lock on the fire() fast path — a stale False
        # only delays arming by one already-in-flight call.
        self._armed = False

    # ------------------------------------------------------------------ #
    # arming / disarming
    # ------------------------------------------------------------------ #

    def arm(self, point: Failpoint) -> Failpoint:
        """Arm one failpoint (re-arming a site replaces it)."""
        if point.site not in SITES and not point.site.startswith("x."):
            raise ValueError(
                f"unknown failpoint site {point.site!r}; known sites: "
                f"{', '.join(sorted(SITES))} (or the 'x.' test prefix)"
            )
        point.rng = random.Random(f"{self.seed}:{point.site}")
        with self._lock:
            self._points[point.site] = point
            self._armed = True
        return point

    def arm_spec(self, spec: str) -> List[Failpoint]:
        """Parse and arm every entry of a spec string."""
        return [self.arm(point) for point in parse_spec(spec)]

    def disarm(self, site: str) -> bool:
        """Disarm one site; returns whether it was armed."""
        with self._lock:
            found = self._points.pop(site, None)
            self._armed = bool(self._points)
        if found is not None:
            found.event.set()  # free any thread hanging on it
            return True
        return False

    def clear(self) -> None:
        """Disarm everything and forget the trigger log."""
        with self._lock:
            points = list(self._points.values())
            self._points.clear()
            self._log.clear()
            self._armed = False
        for point in points:
            point.event.set()

    def release(self, site: Optional[str] = None) -> int:
        """Release ``hang`` failpoints (all of them when ``site`` is None)."""
        released = 0
        with self._lock:
            points = list(self._points.values())
        for point in points:
            if site is None or point.site == site:
                point.event.set()
                released += 1
        return released

    @property
    def armed(self) -> bool:
        return self._armed

    # ------------------------------------------------------------------ #
    # firing
    # ------------------------------------------------------------------ #

    def fire(self, site: str, payload: Any = None, key: Optional[str] = None) -> Any:
        """Evaluate ``site``; apply its trigger if armed and due.

        Returns the (possibly corrupted) payload; raises
        :class:`FailpointError` for ``error`` mode.
        """
        with self._lock:
            point = self._points.get(site)
            if point is None:
                return payload
            if point.key is not None and point.key != key:
                return payload
            point.calls += 1
            if point.nth is not None and point.calls != point.nth:
                return payload
            if point.times is not None and point.fired >= point.times:
                return payload
            if point.prob is not None and point.rng.random() >= point.prob:
                return payload
            point.fired += 1
            self._log.append(
                {"seq": len(self._log) + 1, "site": site, "mode": point.mode, "key": key}
            )
        # Effects happen outside the registry lock: a hanging or sleeping
        # failpoint must not serialize every other site in the process.
        self._record(site, point.mode)
        if point.mode == "error":
            raise FailpointError(site, point.arg)
        if point.mode == "delay":
            chaos_clock.sleep(float(point.arg or 0.0))
        elif point.mode == "hang":
            point.event.wait(timeout=float(point.arg) if point.arg else 30.0)
        elif point.mode == "corrupt":
            return _corrupt_payload(payload)
        return payload

    @staticmethod
    def _record(site: str, mode: str) -> None:
        get_metrics().counter("mdm_failpoint_triggers_total").inc(site=site, mode=mode)
        span = current_span()
        if span is not None:
            span.set_tag("failpoint", f"{site}:{mode}")

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def trigger_log(self) -> List[Dict[str, Any]]:
        """The ordered trigger history (the determinism oracle)."""
        with self._lock:
            return [dict(entry) for entry in self._log]

    def state(self) -> Dict[str, Any]:
        """JSON-ready snapshot for ``GET /failpoints``."""
        with self._lock:
            return {
                "seed": self.seed,
                "armed": [p.describe() for p in sorted(self._points.values(),
                                                       key=lambda p: p.site)],
                "triggers": len(self._log),
                "log": [dict(entry) for entry in self._log[-50:]],
            }


# ---------------------------------------------------------------------- #
# process-wide registry + the fire() fast path
# ---------------------------------------------------------------------- #

_registry: Optional[FailpointRegistry] = None
_registry_lock = threading.Lock()


def _env_seed() -> int:
    try:
        return int(os.environ.get("MDM_FAILPOINT_SEED", "0"))
    except ValueError:
        return 0


def get_failpoints() -> FailpointRegistry:
    """The process-wide registry (created, and armed from
    ``$MDM_FAILPOINTS``, on first use)."""
    global _registry
    with _registry_lock:
        if _registry is None:
            _registry = FailpointRegistry(seed=_env_seed())
            spec = os.environ.get("MDM_FAILPOINTS")
            if spec:
                _registry.arm_spec(spec)
        return _registry


def set_failpoints(registry: Optional[FailpointRegistry]) -> None:
    """Swap the process registry (tests install a fresh one per case)."""
    global _registry
    with _registry_lock:
        _registry = registry


def fire(site: str, payload: Any = None, key: Optional[str] = None) -> Any:
    """Evaluate a failpoint site against the process registry.

    This is the call compiled into production code paths, so the
    disarmed path is two loads and a branch — nothing else.
    """
    registry = _registry
    if registry is None or not registry._armed:
        return payload
    return registry.fire(site, payload=payload, key=key)


_hook_installed = False


def _install_hooks() -> None:
    """Inject :func:`fire` into modules that must stay stdlib-only.

    ``core.locking`` documents "no imports from the rest of repro"; it
    exposes an optional callback instead, installed here the first time
    the chaos package loads (which any arming surface guarantees).
    """
    global _hook_installed
    if _hook_installed:
        return
    from ..core import locking

    locking.set_failpoint_hook(fire)
    _hook_installed = True


_install_hooks()

if os.environ.get("MDM_FAILPOINTS"):
    get_failpoints()
