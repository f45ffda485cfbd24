"""Plan-operation base class and trivial leaves.

Operations form a tree evaluated Volcano-style at *batch* granularity:
``produce_batches(ctx)`` returns a fresh generator of
:class:`~repro.execplan.batch.RecordBatch` columnar batches — the one
contract between operators.  An operation whose semantics are
per-record (the Apply-style ops re-seed their :class:`Argument` once per
outer record; the write ops mutate the graph one record at a time) walks
``batch.iter_rows()`` *inside* itself; nothing row-shaped crosses an
operator boundary.  ``exec_batch_size=1`` is therefore a batch-of-one run
of the same code, not a second engine.

The stream must be re-invocable (Apply-style operators re-run their
subtree once per outer record) **and re-entrant across threads**:
compiled plans are cached and shared (see
:mod:`repro.execplan.plan_cache`), so an operation object may be executed
by many concurrent readers at once.  Subclasses therefore implement
``_produce_batches`` with all state in generator locals or in the per-run
:class:`~repro.execplan.expressions.ExecContext` — never on the operation
object.  The public ``produce_batches`` wrapper is also where per-run
PROFILE metering attaches (``ctx.profile``), so profiling never mutates a
cached plan.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List

from repro.execplan.batch import RecordBatch
from repro.execplan.expressions import ExecContext
from repro.execplan.record import Layout

__all__ = ["PlanOp", "Unit", "Argument", "rechunk"]

_argument_ids = itertools.count()


def rechunk(source: Iterator[RecordBatch], size: int) -> Iterator[RecordBatch]:
    """Split oversized batches (an upstream Unwind or traversal fan-out
    may overshoot) to the configured granularity: one frontier matrix
    never exceeds it, and at ``exec_batch_size=1`` a per-record operator
    sees exactly one record per batch."""
    for batch in source:
        yield from batch.chunks(size)


class PlanOp:
    """Base plan operation."""

    name: str = "Op"

    def __init__(self, children: List["PlanOp"], out_layout: Layout) -> None:
        self.children = children
        self.out_layout = out_layout

    def produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        """The operation's columnar batch stream for one execution
        (metered when the run profiles).  Final: subclasses implement
        ``_produce_batches``."""
        gen = self._produce_batches(ctx)
        if ctx.profile is not None:
            return ctx.profile.wrap_batches(self, gen)
        return gen

    def _produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        raise NotImplementedError

    # -- plan rendering --------------------------------------------------
    def describe(self) -> str:
        """One-line description used by EXPLAIN/PROFILE."""
        return self.name

    def tree_lines(self, indent: int = 0, *, profile=None) -> List[str]:
        """The indented plan tree; ``profile`` is the run's ProfileRun
        (or None for a bare EXPLAIN)."""
        line = "    " * indent + self.describe()
        est = getattr(self, "est_rows", None)
        if est is not None:
            # cost-based planning: the estimate the plan was priced with;
            # under PROFILE it sits next to the actual Records produced
            line += f" | est_rows: {int(round(est))}"
        if profile is not None:
            line += profile.suffix(self)
        lines = [line]
        for child in self.children:
            lines.extend(child.tree_lines(indent + 1, profile=profile))
        return lines


class Unit(PlanOp):
    """Produces exactly one empty record — the leaf under a bare CREATE."""

    name = "Unit"

    def __init__(self) -> None:
        super().__init__([], Layout())

    def _produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        yield RecordBatch(self.out_layout, [], length=1)


class Argument(PlanOp):
    """Leaf that replays a seeded one-row batch — the entry point of
    Apply-style subplans (OPTIONAL MATCH / MERGE match arms), as in
    RedisGraph.

    The seed lives in ``ctx.args`` keyed by this Argument's compile-time
    id, NOT on the operation: concurrent executions of one cached plan
    each seed their own context.
    """

    name = "Argument"

    def __init__(self, layout: Layout) -> None:
        super().__init__([], layout)
        self._arg_id = next(_argument_ids)

    def seed(self, ctx: ExecContext, row: RecordBatch) -> None:
        ctx.args[self._arg_id] = row

    def _produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        yield ctx.args[self._arg_id]
