"""The module thread pool (paper §II).

A fixed number of workers consume a shared queue.  Each submitted job —
one graph query — runs entirely on one worker.  ``Job`` is a small
future: ``result()`` waits for the job and re-raises its exception, and
an optional callback runs on the worker once the job finished.  Shutdown
drains the queue, so stopping the server never orphans queued work.
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Callable, Optional

__all__ = ["ThreadPool", "Job"]


class Job:
    """A submitted unit of work; a future with an optional callback."""

    __slots__ = ("fn", "args", "callback", "_event", "_result", "_error")

    def __init__(self, fn: Callable, args: tuple, callback: Optional[Callable[["Job"], None]]) -> None:
        self.fn = fn
        self.args = args
        self.callback = callback
        self._event = threading.Event()
        self._result: Any = None
        self._error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            self._result = self.fn(*self.args)
        except BaseException as exc:  # noqa: BLE001 - errors travel to the caller
            self._error = exc
        self._event.set()
        if self.callback is not None:
            self.callback(self)

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> Any:
        if not self._event.wait(timeout):
            raise TimeoutError("job did not complete in time")
        if self._error is not None:
            raise self._error
        return self._result


class ThreadPool:
    def __init__(self, threads: int, name: str = "graph-worker") -> None:
        if threads < 1:
            raise ValueError("thread pool needs at least one thread")
        self.size = threads
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue()
        self._workers = [
            threading.Thread(target=self._worker, name=f"{name}-{i}", daemon=True)
            for i in range(threads)
        ]
        self._shutdown = False
        self._lock = threading.Lock()
        for w in self._workers:
            w.start()

    def _worker(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            job.run()

    def submit(self, fn: Callable, *args: Any, callback: Optional[Callable[[Job], None]] = None) -> Job:
        """Queue a job; it runs on the first free worker."""
        if self._shutdown:
            raise RuntimeError("thread pool is shut down")
        job = Job(fn, args, callback)
        self._queue.put(job)
        return job

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the pool once every queued job has run."""
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
        for _ in self._workers:
            self._queue.put(None)
        for w in self._workers:
            w.join(timeout=timeout)
