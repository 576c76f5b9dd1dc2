"""A reentrant readers–writer lock for the MDM metadata snapshot.

The paper's backend serves "a set of REST APIs" to interactive analysts
while stewards evolve the metadata underneath them (§2.5).  Offline that
means one :class:`~repro.core.mdm.MDM` object shared by many service
threads: queries must never observe a half-applied release (wrapper
registered but mapping missing), and releases must never tear a
running query's snapshot.

:class:`ReadWriteLock` provides the standard shared/exclusive discipline
with the two properties MDM needs:

- **Reentrancy.** A thread holding the read lock may re-acquire it
  (``execute`` → ``rewrite`` → graph reads all guard independently), and
  a thread holding the write lock may take either lock again (mutators
  call read helpers internally).  Read→write *upgrades* are refused —
  they deadlock two upgrading readers against each other.
- **Writer preference.** Once a writer is waiting, new top-level readers
  queue behind it.  Under a steady analyst query stream a release would
  otherwise starve forever; reentrant re-acquisitions are exempt so an
  in-flight reader can always finish.

Standard library only; no imports from the rest of :mod:`repro`.  Fault
injection therefore arrives through an *injected* hook rather than an
import: :mod:`repro.chaos.failpoints` calls :func:`set_failpoint_hook`
when it loads, after which ``lock.read`` / ``lock.write`` failpoints can
stall or fail acquisitions in chaos tests.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional

__all__ = ["ReadWriteLock", "set_failpoint_hook"]

#: Installed by repro.chaos.failpoints; None until the chaos package
#: loads, and a two-load no-op check on every acquisition afterwards.
_failpoint_hook: Optional[Callable[[str], None]] = None


def set_failpoint_hook(hook: Optional[Callable[[str], None]]) -> None:
    """Register the chaos ``fire`` callback for lock-acquisition sites."""
    global _failpoint_hook
    _failpoint_hook = hook


class ReadWriteLock:
    """Shared (read) / exclusive (write) lock, reentrant per thread."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        #: Threads currently inside a top-level read section.
        self._readers = 0
        #: Ident of the thread holding the write lock, if any.
        self._writer: int | None = None
        self._writer_depth = 0
        #: Writers blocked in :meth:`acquire_write` (for writer preference).
        self._writers_waiting = 0
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _read_depth(self) -> int:
        return getattr(self._local, "read_depth", 0)

    # ------------------------------------------------------------------ #
    # read side
    # ------------------------------------------------------------------ #

    def acquire_read(self) -> None:
        """Enter a shared section (blocks while a writer holds or waits)."""
        if _failpoint_hook is not None:
            _failpoint_hook("lock.read")
        me = threading.get_ident()
        depth = self._read_depth()
        if depth > 0 or self._writer == me:
            # Reentrant read, or a read inside our own write section:
            # already protected, never wait (waiting here would deadlock
            # against ourselves or a queued writer).
            self._local.read_depth = depth + 1
            return
        with self._cond:
            while self._writer is not None or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        self._local.read_depth = 1

    def release_read(self) -> None:
        """Leave a shared section."""
        depth = self._read_depth()
        if depth <= 0:
            raise RuntimeError("release_read() without a matching acquire")
        self._local.read_depth = depth - 1
        if depth == 1 and self._writer != threading.get_ident():
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def read_locked(self) -> Iterator["ReadWriteLock"]:
        """``with lock.read_locked():`` — shared access for the block."""
        self.acquire_read()
        try:
            yield self
        finally:
            self.release_read()

    # ------------------------------------------------------------------ #
    # write side
    # ------------------------------------------------------------------ #

    def acquire_write(self) -> None:
        """Enter the exclusive section (blocks until all readers drain)."""
        if _failpoint_hook is not None:
            _failpoint_hook("lock.write")
        me = threading.get_ident()
        if self._writer == me:
            self._writer_depth += 1
            return
        if self._read_depth() > 0:
            raise RuntimeError(
                "cannot upgrade a read lock to a write lock (two upgrading "
                "readers would deadlock); release the read lock first"
            )
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer is not None or self._readers:
                    self._cond.wait()
                self._writer = me
                self._writer_depth = 1
            finally:
                self._writers_waiting -= 1

    def release_write(self) -> None:
        """Leave the exclusive section."""
        if self._writer != threading.get_ident():
            raise RuntimeError("release_write() by a thread not holding it")
        self._writer_depth -= 1
        if self._writer_depth == 0:
            with self._cond:
                self._writer = None
                self._cond.notify_all()

    @contextmanager
    def write_locked(self) -> Iterator["ReadWriteLock"]:
        """``with lock.write_locked():`` — exclusive access for the block."""
        self.acquire_write()
        try:
            yield self
        finally:
            self.release_write()

    # ------------------------------------------------------------------ #
    # introspection (tests, /config endpoints)
    # ------------------------------------------------------------------ #

    def state(self) -> Dict[str, int]:
        """A point-in-time snapshot of the lock's occupancy."""
        with self._cond:
            return {
                "readers": self._readers,
                "writer_held": int(self._writer is not None),
                "writers_waiting": self._writers_waiting,
            }

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        s = self.state()
        return (
            f"<ReadWriteLock readers={s['readers']} "
            f"writer={'yes' if s['writer_held'] else 'no'} "
            f"waiting={s['writers_waiting']}>"
        )
