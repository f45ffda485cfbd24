"""Per-execution profiling (GRAPH.PROFILE).

A :class:`ProfileRun` holds the record/time counters of ONE execution,
keyed by plan-operation identity.  Attaching it to the run's
:class:`~repro.execplan.expressions.ExecContext` (instead of mutating the
operations, as the engine once did) keeps cached plans stateless: a
PROFILE and any number of plain executions of the same cached artifact
can run concurrently without touching each other's numbers.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterator

__all__ = ["ProfileRun"]


class _OpCounters:
    __slots__ = ("rows", "batches", "ms", "morsels")

    def __init__(self) -> None:
        self.rows = 0
        self.batches = 0
        self.ms = 0.0
        self.morsels = 0


def _metered(gen: Iterator, counters: _OpCounters) -> Iterator:
    """The one metering loop: time spent inside ``gen`` (not in its
    consumer) and the batches/rows it yields accumulate into
    ``counters``.  Rows count by batch length, so per-op row counts are
    identical at every ``exec_batch_size``."""
    start = time.perf_counter()
    for batch in gen:
        counters.rows += len(batch)
        counters.batches += 1
        counters.ms += (time.perf_counter() - start) * 1e3
        yield batch
        start = time.perf_counter()
    counters.ms += (time.perf_counter() - start) * 1e3


class ProfileRun:
    """Row/time counters for every operation of one plan execution."""

    def __init__(self) -> None:
        self._counters: Dict[int, _OpCounters] = {}
        # serial metering runs on the coordinator thread only; morsel
        # partitions meter locally and flush here under the lock
        self._lock = threading.Lock()

    def _counters_for(self, op) -> _OpCounters:
        counters = self._counters.get(id(op))
        if counters is None:
            counters = _OpCounters()
            self._counters[id(op)] = counters
        return counters

    def wrap_batches(self, op, gen: Iterator) -> Iterator:
        """Meter a produce_batches() generator.  Apply-style operators
        re-invoke subtrees once per outer record; counters accumulate
        across those re-invocations, like RedisGraph's per-op totals."""
        return _metered(gen, self._counters_for(op))

    def wrap_partition(self, op, gen: Iterator) -> Iterator:
        """Meter one morsel of ``op``'s partitioned stream.  Runs on a
        worker thread, so counters accumulate locally and flush into the
        shared totals under the run's lock when the morsel finishes;
        summed across morsels, per-op row counts equal the serial run's."""
        local = _OpCounters()
        local.morsels = 1
        try:
            yield from _metered(gen, local)
        finally:
            with self._lock:
                counters = self._counters_for(op)
                counters.rows += local.rows
                counters.batches += local.batches
                counters.ms += local.ms
                counters.morsels += local.morsels

    def suffix(self, op) -> str:
        """The EXPLAIN-line decoration for one operation."""
        counters = self._counters.get(id(op)) or _OpCounters()
        line = (
            f" | Records produced: {counters.rows}, Batches: {counters.batches}, "
            f"Execution time: {counters.ms:.6f} ms"
        )
        if counters.morsels:
            line += f", Morsels: {counters.morsels}"
        return line
