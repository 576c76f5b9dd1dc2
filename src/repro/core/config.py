"""The execution configuration of an MDM, as one frozen value.

The five knobs that shape how a query executes and how a release is
gated live in :class:`ExecutionConfig`, so a query captures *one*
configuration with its generation, and a reconfiguration is *one*
assignment of a value validated as a whole: never half-applied, and a
rejected update changes nothing.  Cache capacities are not part of it;
they stay on their :class:`~repro.core.lru.GenerationLRU` objects.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Mapping

from ..sources.wrappers import RetryPolicy

__all__ = ["DEFAULT_MAX_IN_FLIGHT", "ExecutionConfig", "IMPACT_GATES", "env_capacity"]

#: Valid postures of the evolution-impact gate on wrapper releases:
#: ``off`` (no pre-release analysis), ``advisory`` (analyze and record
#: the verdict on the release document) or ``blocking`` (additionally
#: refuse BROKEN releases before any metadata mutates).
IMPACT_GATES = ("off", "advisory", "blocking")

#: Requests the HTTP service executes at once before it bounces new ones
#: with a 429 (the default admission bound of ``MdmHttpServer``).
DEFAULT_MAX_IN_FLIGHT = 32

#: Values (case-insensitive) that switch an ``MDM_*`` on/off variable off.
_OFF_WORDS = ("0", "false", "no", "off")


def _env_flag(environ: Mapping[str, str], name: str) -> bool:
    """An ``MDM_*`` on/off variable: on unless set to one of the off words."""
    return environ.get(name, "1").strip().lower() not in _OFF_WORDS


def env_capacity(name: str, environ: Mapping[str, str] = os.environ) -> int:
    """A cache capacity from the variable ``name``; 0 (disabled) when unset."""
    return int(environ.get(name, "0"))


@dataclass(frozen=True)
class ExecutionConfig:
    """How queries execute; immutable — replace it to reconfigure."""

    #: Upper bound on source endpoints fetched at once per query, the
    #: calling thread included: it fetches them in turn, and up to this
    #: many minus one shared helper threads take the ones it has not
    #: reached while it waits on a source (1 = serial, no helper).  The
    #: helpers come from one pool per process, sized for
    #: ``DEFAULT_MAX_IN_FLIGHT`` queries at this default; a query fetches
    #: itself what no free helper takes.
    max_fetch_workers: int = 4
    #: Retry policy applied to every wrapper fetch during execution.
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    #: Run the logical plan optimizer on every UCQ before execution.
    optimize: bool = True
    #: Fold eligible predicates/projections into the wrapper fetch
    #: (capability-gated; uncapable wrappers keep full fetches).
    pushdown: bool = True
    #: Evolution-impact gate posture, one of :data:`IMPACT_GATES`.
    impact_gate: str = "off"

    def __post_init__(self) -> None:
        workers = self.max_fetch_workers
        if type(workers) is not int or workers < 1:
            raise ValueError(f"max_fetch_workers must be an integer >= 1, not {workers!r}")
        if not isinstance(self.retry_policy, RetryPolicy):
            raise TypeError(f"retry_policy must be a RetryPolicy, not {self.retry_policy!r}")
        for name in ("optimize", "pushdown"):
            value = getattr(self, name)
            if type(value) is not bool:
                raise TypeError(f"{name} must be a boolean, not {value!r}")
        if self.impact_gate not in IMPACT_GATES:
            raise ValueError(f"impact_gate must be one of {IMPACT_GATES}, not {self.impact_gate!r}")

    @classmethod
    def from_env(cls, environ: Mapping[str, str] = os.environ) -> "ExecutionConfig":
        """The defaults, overridden by the ``MDM_*`` variables of ``environ``
        (a bad value raises :class:`ValueError`)."""
        return cls(
            max_fetch_workers=int(environ.get("MDM_FETCH_WORKERS", "4")),
            optimize=_env_flag(environ, "MDM_OPTIMIZE"),
            pushdown=_env_flag(environ, "MDM_PUSHDOWN"),
            impact_gate=environ.get("MDM_IMPACT_GATE", "off").strip().lower(),
        )
