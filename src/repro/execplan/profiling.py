"""Per-execution profiling (GRAPH.PROFILE).

A :class:`ProfileRun` holds the record/time counters of ONE execution,
keyed by plan-operation identity.  Attaching it to the run's
:class:`~repro.execplan.expressions.ExecContext` (instead of mutating the
operations, as the engine once did) keeps cached plans stateless: a
PROFILE and any number of plain executions of the same cached artifact
can run concurrently without touching each other's numbers.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator

__all__ = ["ProfileRun"]


class _OpCounters:
    __slots__ = ("rows", "batches", "ms")

    def __init__(self) -> None:
        self.rows = 0
        self.batches = 0
        self.ms = 0.0


def _metered(gen: Iterator, counters: _OpCounters) -> Iterator:
    """The one metering loop: time spent inside ``gen`` (not in its
    consumer) and the batches/rows it yields accumulate into
    ``counters``.  Rows count by batch length: an op's count is the rows
    of every batch it handed upward.  Where the stream is drained, that
    is the same at every ``exec_batch_size``.  Below a ``LIMIT``, which
    stops pulling once it has its rows, it is the rows of the batches
    made before then: the limit rounded up to whole batches.  For
    ``MATCH (n:N) RETURN n.i LIMIT 3`` over 50 nodes, ``Project`` and
    ``NodeByLabelScan`` show 3 at batch size 1, 7 at 7 and 50 at 1024."""
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

    def suffix(self, op) -> str:
        """The EXPLAIN-line decoration for one operation."""
        counters = self._counters.get(id(op)) or _OpCounters()
        return (
            f" | Records produced: {counters.rows}, Batches: {counters.batches}, "
            f"Execution time: {counters.ms:.6f} ms"
        )
