"""Deterministic fault injection for the MDM stack.

Two small primitives with a large blast radius:

- :mod:`repro.chaos.failpoints` — a named failpoint registry.  Every
  boundary the system crosses (wrapper fetch, REST serving, retry
  sleeps, the three generation-keyed caches, ``ReadWriteLock``
  acquisition, docstore writes, service admission, snapshot save/load)
  carries a ``fire("site")`` call that is two loads and a branch when
  disarmed, and a seeded deterministic trigger — ``error``, ``delay``,
  ``hang``-until-release, ``corrupt``-payload, ``nth(k)``, ``prob(p)``
  — when armed via ``$MDM_FAILPOINTS``, ``POST /failpoints``,
  ``repro-mdm serve --failpoints`` or, in code, the process registry
  (``get_failpoints().arm_spec(…)``).
- :mod:`repro.chaos.clock` — the virtual clock the retry/backoff
  machinery and ``delay`` triggers consult, so fault tests assert exact
  backoff schedules without real sleeps.

The chaos harness in ``tests/chaos/`` drives seeded random
interleavings of queries, the nine metadata mutations and failpoint
firings against a per-generation answer oracle, plus crash-recovery
round-trips through the (now atomic) persistence layer.
"""

from __future__ import annotations

from .clock import SystemClock, VirtualClock, get_clock, set_clock, use_clock
from .failpoints import (
    SITES,
    Failpoint,
    FailpointError,
    FailpointRegistry,
    fire,
    get_failpoints,
    parse_spec,
    set_failpoints,
)

__all__ = [
    "SystemClock",
    "VirtualClock",
    "get_clock",
    "set_clock",
    "use_clock",
    "SITES",
    "Failpoint",
    "FailpointError",
    "FailpointRegistry",
    "fire",
    "get_failpoints",
    "parse_spec",
    "set_failpoints",
]
