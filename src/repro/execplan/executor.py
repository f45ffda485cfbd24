"""Query engine: compile once, execute many.

The pipeline is split in two (RedisGraph's query-cache architecture):

* **compile** — lex → parse → validate → plan → optimize, producing a
  graph-independent :class:`~repro.execplan.compiled.CompiledQuery`.
  Compilation happens at most once per distinct query text: artifacts
  live in a thread-safe LRU :class:`~repro.execplan.plan_cache.PlanCache`
  keyed on the canonical text and invalidated when
  ``Graph.schema_version`` moves (new label/reltype, index created or
  dropped, config change).  A text whose inline literals can be lifted
  into parameters is compiled and cached once per *shape* instead
  (:mod:`repro.cypher.autoparam`).
* **bind + execute** — each run gets a fresh
  :class:`~repro.execplan.expressions.ExecContext` holding ALL per-run
  state (parameters, statistics, Argument seeds, PROFILE counters, and
  the operand bindings that resolve the plan's label/reltype/index names
  against the live graph).  Plan operations are stateless, so any number
  of readers may execute one cached artifact concurrently.

Concurrency follows the paper: the engine runs each query start to
finish on the calling thread (nothing splits one query across threads);
read queries take the graph's read lock (many concurrent readers),
update queries take the write lock.  The server layer feeds
queries to a pool; embedded callers just call :meth:`QueryEngine.query`.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cypher.autoparam import lift_literals
from repro.errors import CypherSemanticError, CypherTypeError, GraphError, ReproError
from repro.execplan.compiled import CompiledQuery, PlanSchema, compile_query
from repro.execplan.expressions import ExecContext
from repro.execplan.plan_cache import PlanCache
from repro.execplan.profiling import ProfileRun
from repro.execplan.resultset import QueryResult, QueryStatistics, ResultSet
from repro.graph.graph import Graph

__all__ = ["QueryEngine"]


class QueryEngine:
    """Compiles and runs Cypher queries against one :class:`Graph`."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.plan_cache = PlanCache(graph.config.plan_cache_size)

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile(self, text: str) -> CompiledQuery:
        """Compile ``text`` against the graph's current schema snapshot
        (cache-oblivious; see :meth:`get_plan` for the cached path)."""
        return compile_query(text, PlanSchema.snapshot(self.graph))

    def get_plan(
        self, text: str, params: Optional[Dict[str, Any]] = None, *, lift: bool = True
    ) -> Tuple[CompiledQuery, bool, Optional[Dict[str, Any]]]:
        """The compiled plan for ``text``, whether it came from the cache,
        and the parameters to run it with.  One compilation is shared by
        QUERY / RO_QUERY / EXPLAIN / PROFILE and by every later request
        with the same text.

        The exact text is looked up first.  On a miss, ``lift`` (and a
        cache that can hold entries) tries :func:`lift_literals`: the
        plan is then looked up, compiled and cached under the normalised
        text, and the lifted values join ``params``.  A normalised text
        that does not compile falls back to the exact text, so lifting
        never rejects a query.  Each call counts one hit or one miss."""
        stats_epoch = (
            self.graph.stats.epoch if self.graph.config.cost_based_planner else None
        )
        from repro.procedures import registry as proc_registry

        cache = self.plan_cache
        freshness = (self.graph.schema_version, stats_epoch, proc_registry.version)
        compiled = cache.get(text, *freshness)
        if compiled is not None:
            return compiled, True, params
        lifted = lift_literals(text) if lift and cache.capacity > 0 else None
        if lifted is None:
            cache.count_miss()
            return self._compile_and_cache(text), False, params
        shape, literals = lifted
        run_params = {**params, **literals} if params else literals
        compiled = cache.get(shape, *freshness)
        if compiled is not None:
            return compiled, True, run_params
        cache.count_miss()
        try:
            compiled = self.compile(shape)
        except ReproError:  # the exact text decides every compile error
            return self._compile_and_cache(text), False, params
        cache.put(compiled)
        return compiled, False, run_params

    def _compile_and_cache(self, text: str) -> CompiledQuery:
        compiled = self.compile(text)
        self.plan_cache.put(compiled)
        return compiled

    def set_plan_cache_size(self, capacity: int) -> None:
        """Resize (0 = disable) THIS engine's plan cache — the
        GRAPH.CONFIG-style runtime knob.  Counts as a config change:
        bumps the graph's schema version so artifacts compiled before the
        change are not reused.  Deliberately does not write through to
        ``graph.config`` — the GraphModule shares one GraphConfig across
        every graph key, and module-wide settings belong to
        ``GRAPH.CONFIG SET`` (which updates the config and then calls
        this per engine)."""
        if capacity < 0:
            raise ValueError("plan_cache_size must be >= 0")
        self.graph.bump_schema_version()
        self.plan_cache.resize(capacity)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self,
        compiled: CompiledQuery,
        params: Optional[Dict[str, Any]] = None,
        *,
        cached: bool = False,
        profile_run: Optional[ProfileRun] = None,
        on_commit: Optional[Callable[[], None]] = None,
        on_result: Optional[Callable[[ResultSet], None]] = None,
    ) -> ResultSet:
        """Bind a compiled artifact to the live graph and run it once.

        ``on_commit`` (write queries only) runs after a successful
        execution while the write lock is still held — the durability
        layer's hook: appending to the write log inside the lock keeps
        log order identical to the order writers actually committed in.
        ``on_result`` (the server's reply encoder) then runs, still locked."""
        stats = QueryStatistics(cached_execution=cached)
        ctx = ExecContext(
            self.graph,
            params,
            stats,
            profile=profile_run,
            # read-only runs may memoize resolved matrix operands for the
            # duration of the run: matrices cannot change under the read
            # lock.  Writers re-resolve so later clauses see earlier writes.
            cache_operands=not compiled.writes,
        )
        started = time.perf_counter()
        lock = self.graph.lock.write() if compiled.writes else self.graph.lock.read()
        with lock:
            try:
                result = self._run(compiled, ctx, stats)
            except OverflowError as exc:  # a number past float64: 10^400, sum() over 10**400
                raise CypherTypeError(f"numeric overflow: {exc.args[-1] if exc.args else exc}") from None
            if on_commit is not None and compiled.writes:
                on_commit()
            stats.execution_time_ms = (time.perf_counter() - started) * 1e3
            if on_result is not None:
                on_result(result)
        return result

    def query(
        self,
        text: str,
        params: Optional[Dict[str, Any]] = None,
        *,
        on_commit: Optional[Callable[[], None]] = None,
    ) -> QueryResult:
        """Execute a query and return its :class:`QueryResult`."""
        compiled, hit, run_params = self.get_plan(text, params)
        result = self.execute(compiled, run_params, cached=hit, on_commit=on_commit)
        return QueryResult.wrap(result, compiled=compiled)

    def ro_query(self, text: str, params: Optional[Dict[str, Any]] = None) -> QueryResult:
        """Execute a query after asserting it is read-only (GRAPH.RO_QUERY)."""
        compiled, hit, run_params = self.get_plan(text, params)
        if compiled.writes:
            raise GraphError(
                "graph.RO_QUERY is to be executed only on read-only queries"
            )
        result = self.execute(compiled, run_params, cached=hit)
        return QueryResult.wrap(result, compiled=compiled)

    def _run(self, compiled: CompiledQuery, ctx: ExecContext, stats) -> ResultSet:
        """Execute every plan part; read results serialize column-wise
        straight from the operator pipeline's RecordBatches."""
        columns: List[str] = []
        column_data: List[List[Any]] = []
        for planned in compiled.plans:
            if planned.columns is not None:
                columns = planned.columns
                if not column_data:
                    column_data = [[] for _ in columns]
            for batch in planned.root.produce_batches(ctx):
                # update-only parts drain for their side effects
                if planned.columns is None or not batch.length:
                    continue
                for out, col in zip(column_data, batch.columns):
                    out.extend(col.tolist())
        if len(compiled.plans) > 1 and not compiled.union_all:
            from repro.execplan.ops_stream import _hashable

            rows = list(zip(*column_data)) if column_data and column_data[0] else []
            seen = set()
            deduped: List[tuple] = []
            for row in rows:
                key = tuple(_hashable(v) for v in row)
                if key not in seen:
                    seen.add(key)
                    deduped.append(row)
            return ResultSet(columns, deduped, stats)
        return ResultSet.from_columns(columns, column_data, stats)

    # ------------------------------------------------------------------
    # EXPLAIN / PROFILE
    # ------------------------------------------------------------------
    def explain(self, text: str, params: Optional[Dict[str, Any]] = None) -> str:
        """The execution plan as an indented tree (GRAPH.EXPLAIN).

        ``params`` are accepted (the ``CYPHER k=v`` prefix threads through
        here) and checked against the parameters the query references, so
        an EXPLAIN fails fast on a binding the real run would reject.
        Literals are not lifted: the plan shows the values as written."""
        compiled, _, _ = self.get_plan(text, lift=False)
        if params:
            missing = sorted(compiled.param_names - set(params))
            if missing:
                raise CypherSemanticError(
                    f"missing query parameter ${missing[0]}"
                )
        return compiled.explain()

    def profile(
        self,
        text: str,
        params: Optional[Dict[str, Any]] = None,
        *,
        on_commit: Optional[Callable[[], None]] = None,
    ) -> QueryResult:
        """Execute with per-operation record counts and timings
        (GRAPH.PROFILE); the report is the result's ``.profile``.
        Metering lives in the run's ProfileRun, so profiling a cached
        plan neither mutates it nor races concurrent executions of the
        same artifact.  ``on_commit`` behaves as in :meth:`execute` — a
        PROFILE of a write query is still a write.  Like EXPLAIN, PROFILE
        runs the exact text, literals inline."""
        compiled, hit, _ = self.get_plan(text, lift=False)
        run = ProfileRun()
        result = self.execute(compiled, params, cached=hit, profile_run=run, on_commit=on_commit)
        report = compiled.explain(profile=run)
        return QueryResult.wrap(result, compiled=compiled, profile_report=report)
