"""Compilation artifacts: the graph-independent half of the query pipeline.

``compile_query`` runs lex → parse → validate → plan → optimize exactly
once and freezes the result into a :class:`CompiledQuery` — a plan tree
plus metadata (writes, output columns, referenced parameter names).  The
artifact holds **no references to a live graph**: the planner consults
only a :class:`PlanSchema` snapshot (which indexes exist, the schema
version it was taken at), and every label / relationship-type / index
named by the plan is re-resolved against the live graph at *bind time* —
the start of each execution, through :class:`~repro.execplan.expressions.
ExecContext` — so one artifact can be executed concurrently by many
readers and stays valid while the graph's data (not its schema) changes.

This split is what makes the :class:`~repro.execplan.plan_cache.PlanCache`
sound: a cached artifact is reusable iff its ``schema_version`` still
matches ``Graph.schema_version``; data writes never invalidate it.
"""

from __future__ import annotations

import dataclasses
from typing import FrozenSet, List, Optional, Tuple

from repro.cypher import ast_nodes as A
from repro.cypher.parser import parse
from repro.cypher.semantic import validate
from repro.execplan.optimizer import optimize
from repro.execplan.planner import PlannedQuery, plan_single_query

__all__ = ["PlanSchema", "CompiledQuery", "compile_query", "collect_param_names"]


class PlanSchema:
    """What the planner is allowed to know about a graph: which exact-match
    indexes exist, frozen at one schema version.

    Planning against this snapshot (instead of the live graph) keeps the
    resulting plan graph-independent — matrix and index *contents* are
    looked up by name at execution time.
    """

    __slots__ = ("indexes", "composites", "version", "stats")

    def __init__(
        self,
        indexes: FrozenSet[Tuple[str, str]] = frozenset(),
        version: int = 0,
        stats=None,
        composites: FrozenSet[Tuple[str, Tuple[str, ...]]] = frozenset(),
    ) -> None:
        self.indexes = frozenset(indexes)
        self.composites = frozenset(composites)
        self.version = version
        # GraphStatistics snapshot, or None when cost_based_planner=0 —
        # its absence is what switches the planner back to pure rules
        self.stats = stats

    @classmethod
    def snapshot(cls, graph) -> "PlanSchema":
        # Compilation runs outside the graph lock, so a writer may change
        # the schema mid-snapshot.  Reading the version FIRST keeps that
        # race harmless: if the index set changes after the read, the
        # artifact is stamped with the older version, fails the next
        # cache-freshness check, and is recompiled — a plan is never
        # marked fresher than the schema it actually saw.  The statistics
        # snapshot races the same way, at worst carrying an older epoch.
        version = graph.schema_version
        stats = graph.stats.snapshot() if graph.config.cost_based_planner else None
        return cls(
            frozenset(graph.index_specs()),
            version,
            stats,
            frozenset(graph.composite_index_specs()),
        )

    def has_index(self, label: str, attribute: str) -> bool:
        return (label, attribute) in self.indexes

    def composite_indexes(self, label: str) -> Tuple[Tuple[str, ...], ...]:
        """Attribute tuples of the label's composite indexes, sorted for
        deterministic candidate ordering."""
        return tuple(sorted(attrs for lbl, attrs in self.composites if lbl == label))


class CompiledQuery:
    """A reusable compilation artifact for one query text.

    Immutable after construction; safe to execute from many threads at
    once because plan operations are stateless — all per-run state
    (Argument seeds, profile counters, bound matrix operands) lives in the
    execution's :class:`~repro.execplan.expressions.ExecContext`.
    """

    __slots__ = (
        "text",
        "plans",
        "writes",
        "union_all",
        "param_names",
        "schema_version",
        "stats_epoch",
        "proc_version",
    )

    def __init__(
        self,
        text: str,
        plans: List[PlannedQuery],
        writes: bool,
        union_all: bool,
        param_names: FrozenSet[str],
        schema_version: int,
        stats_epoch: Optional[int] = None,
        proc_version: int = 0,
    ) -> None:
        self.text = text
        self.plans = plans
        self.writes = writes
        self.union_all = union_all
        self.param_names = param_names
        self.schema_version = schema_version
        # statistics epoch the estimates were priced at (None = rule-based)
        self.stats_epoch = stats_epoch
        # procedure-registry version the plan resolved CALLs against
        self.proc_version = proc_version

    @property
    def columns(self) -> Optional[List[str]]:
        for planned in self.plans:
            if planned.columns is not None:
                return planned.columns
        return None

    def explain(self, *, profile=None) -> str:
        return "\n\n".join(p.explain(profile=profile) for p in self.plans)

    def __repr__(self) -> str:
        return (
            f"<CompiledQuery {self.text[:40]!r} writes={self.writes} "
            f"schema_version={self.schema_version}>"
        )


def collect_param_names(node) -> FrozenSet[str]:
    """Every ``$name`` parameter referenced anywhere in an AST."""
    out = set()

    def visit(obj) -> None:
        if isinstance(obj, A.Parameter):
            out.add(obj.name)
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            for field in dataclasses.fields(obj):
                visit(getattr(obj, field.name))
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                visit(item)

    visit(node)
    return frozenset(out)


def compile_query(text: str, schema: PlanSchema) -> CompiledQuery:
    """Parse, validate, plan and optimize ``text`` against a schema
    snapshot.  Pure with respect to the graph: no live references leak
    into the artifact."""
    ast = parse(text)
    validate(ast)
    plans = [plan_single_query(part, schema) for part in ast.parts]
    for planned in plans:
        planned.root = optimize(planned.root)
    if schema.stats is not None:
        from repro.execplan.cost import CostModel, annotate_estimates

        model = CostModel(schema.stats)
        for planned in plans:
            annotate_estimates(planned.root, model)
    writes = any(p.writes for p in plans)
    from repro.procedures import registry as proc_registry

    return CompiledQuery(
        text=text,
        plans=plans,
        writes=writes,
        union_all=ast.union_all,
        param_names=collect_param_names(ast),
        schema_version=schema.version,
        stats_epoch=schema.stats.epoch if schema.stats is not None else None,
        proc_version=proc_registry.version,
    )
