"""A reader-writer lock with writer preference and a phase-fair handoff.

RedisGraph guards each graph with exactly this: any number of concurrent
read queries (each on its own pool thread), or a single writer.  Writer
preference keeps update latency bounded under read-heavy load: a reader
that arrives while a writer holds or awaits the lock queues.  When the
writer releases, every reader queued at that moment is admitted at once
(counted as holding the lock before it even wakes), so a writer that
re-acquires straight away waits for them instead of starving them.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

__all__ = ["RWLock"]


class RWLock:
    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0
        self._readers_waiting = 0
        self._phase = 0  # bumped by each release that admits the queued readers

    # -- reader side ---------------------------------------------------
    def acquire_read(self) -> None:
        with self._cond:
            if not (self._writer or self._writers_waiting):
                self._readers += 1
                return
            self._readers_waiting += 1
            phase = self._phase
            while self._phase == phase:
                self._cond.wait()
            # admitted (and counted in _readers) by release_write

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    # -- writer side ---------------------------------------------------
    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            while self._writer or self._readers:
                self._cond.wait()
            self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            if self._readers_waiting:
                self._readers += self._readers_waiting
                self._readers_waiting = 0
                self._phase += 1
            self._cond.notify_all()

    @contextmanager
    def read(self):
        self.acquire_read()
        try:
            yield self
        finally:
            self.release_read()

    @contextmanager
    def write(self):
        self.acquire_write()
        try:
            yield self
        finally:
            self.release_write()
