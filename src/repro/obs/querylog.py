"""The structured query log: one record per end-to-end OMQ execution.

Metadata-profiling work in data ecosystems argues governance needs
*continuously collected operational metadata*, not one-off debug dumps.
The query log is that stream for MDM: every :meth:`repro.core.mdm.MDM.execute`
call — traced or not, successful or not — appends exactly one
:class:`QueryLogRecord` carrying a correlation id (the trace_id of the
query's trace, whether or not the trace was sampled), per-phase wall
times, row counts, rewrite- and result-cache dispositions,
partial/failure status and wrapper attempt counts.

Records land in a bounded in-memory ring (served by
``GET /querylog/recent``) and, when a path is configured
(``MDM_QUERYLOG`` env var or :func:`configure_query_log`), in an
append-only JSONL file that ``repro trace --follow`` can tail.

Standard library only; imports nothing from the rest of :mod:`repro`.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "QueryLogRecord",
    "QueryLog",
    "get_query_log",
    "set_query_log",
    "reset_query_log",
    "configure_query_log",
]


@dataclass(frozen=True)
class QueryLogRecord:
    """One executed (or failed) OMQ, shaped for machines.

    ``correlation_id`` equals the ``trace_id`` of the query's trace, so a
    log record can be joined to its span tree via ``GET /traces/<id>``
    whenever the trace was sampled; ``trace_decision`` records what the
    sampler did ("sampled" / "slow" / "dropped" / "off").
    """

    correlation_id: str
    started_at: float
    duration_ms: float
    status: str  # "ok" | "partial" | "error"
    walk: str
    ucq_size: int
    rows_fetched: int
    rows_returned: int
    rewrite_cache: str  # "hit" | "miss" | "bypass"
    phase_ms: Mapping[str, float] = field(default_factory=dict)
    fetch_attempts: Mapping[str, int] = field(default_factory=dict)
    skipped_wrappers: Tuple[str, ...] = ()
    trace_decision: str = "off"
    error: Optional[str] = None
    result_cache: str = "off"  # "hit" | "miss" | "bypass" | "off"

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QueryLogRecord":
        """Rebuild a record from its :meth:`to_dict` shape (JSONL tailing)."""
        return cls(
            correlation_id=str(data.get("correlation_id", "")),
            started_at=float(data.get("started_at", 0.0)),
            duration_ms=float(data.get("duration_ms", 0.0)),
            status=str(data.get("status", "ok")),
            walk=str(data.get("walk", "")),
            ucq_size=int(data.get("ucq_size", 0)),
            rows_fetched=int(data.get("rows_fetched", 0)),
            rows_returned=int(data.get("rows_returned", 0)),
            rewrite_cache=str(data.get("rewrite_cache", "bypass")),
            phase_ms=dict(data.get("phase_ms") or {}),
            fetch_attempts=dict(data.get("fetch_attempts") or {}),
            skipped_wrappers=tuple(data.get("skipped_wrappers") or ()),
            trace_decision=str(data.get("trace_decision", "off")),
            error=data.get("error"),
            result_cache=str(data.get("result_cache", "off")),
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-shaped rendering (JSONL lines, the /querylog endpoint)."""
        return {
            "correlation_id": self.correlation_id,
            "started_at": self.started_at,
            "duration_ms": round(self.duration_ms, 6),
            "status": self.status,
            "walk": self.walk,
            "ucq_size": self.ucq_size,
            "rows_fetched": self.rows_fetched,
            "rows_returned": self.rows_returned,
            "rewrite_cache": self.rewrite_cache,
            "phase_ms": {k: round(v, 6) for k, v in self.phase_ms.items()},
            "fetch_attempts": dict(self.fetch_attempts),
            "skipped_wrappers": list(self.skipped_wrappers),
            "trace_decision": self.trace_decision,
            "error": self.error,
            "result_cache": self.result_cache,
        }

    def summary_line(self) -> str:
        """One human-readable line (``trace --follow`` output)."""
        extra = ""
        if self.status == "error":
            extra = f"  error={self.error}"
        elif self.skipped_wrappers:
            extra = f"  skipped={','.join(self.skipped_wrappers)}"
        return (
            f"{self.correlation_id[:12]}  {self.status:<7} "
            f"{self.duration_ms:8.3f}ms  ucq={self.ucq_size} "
            f"rows={self.rows_returned} cache={self.rewrite_cache} "
            f"walk={self.walk}{extra}"
        )


class QueryLog:
    """Bounded ring of recent records plus an optional JSONL mirror.

    Thread-safe: concurrent queries through the service layer (or pool
    workers finishing out of order) may record simultaneously.
    """

    def __init__(self, capacity: int = 512, jsonl_path: Optional[str] = None):
        if capacity < 1:
            raise ValueError("query log capacity must be >= 1")
        self._ring: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.jsonl_path = str(jsonl_path) if jsonl_path else None
        self._fh: Optional[Any] = None
        #: Total records ever logged (survives ring eviction).
        self.total = 0

    def record(self, record: QueryLogRecord) -> QueryLogRecord:
        """Append one record (and mirror it to the JSONL file, if any)."""
        line = None
        if self.jsonl_path:
            line = json.dumps(record.to_dict(), sort_keys=True, default=str)
        with self._lock:
            self._ring.append(record)
            self.total += 1
            if line is not None:
                if self._fh is None:
                    self._fh = open(self.jsonl_path, "a", encoding="utf-8")
                self._fh.write(line + "\n")
                self._fh.flush()
        return record

    def recent(self, n: int = 20) -> List[QueryLogRecord]:
        """The last ``n`` records, oldest first."""
        with self._lock:
            items = list(self._ring)
        return items[-n:] if n >= 0 else items

    def clear(self) -> None:
        """Drop buffered records (the JSONL file is left untouched)."""
        with self._lock:
            self._ring.clear()

    def close(self) -> None:
        """Flush and close the JSONL mirror (idempotent)."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)


#: The process-local query log all MDM instances record into.  A JSONL
#: mirror can be preconfigured through the environment.
_query_log = QueryLog(jsonl_path=os.environ.get("MDM_QUERYLOG") or None)


def get_query_log() -> QueryLog:
    """The process-local query log."""
    return _query_log


def set_query_log(log: QueryLog) -> QueryLog:
    """Replace the process-local query log; returns it for chaining."""
    global _query_log
    _query_log = log
    return log


def reset_query_log() -> QueryLog:
    """Install a fresh empty query log (test isolation helper)."""
    return set_query_log(QueryLog())


def configure_query_log(
    capacity: int = 512, jsonl_path: Optional[str] = None
) -> QueryLog:
    """Install a query log with the given ring size / JSONL mirror."""
    return set_query_log(QueryLog(capacity=capacity, jsonl_path=jsonl_path))
