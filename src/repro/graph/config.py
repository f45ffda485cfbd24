"""Graph/module configuration, mirroring RedisGraph's load-time options.

Every knob is described once, declaratively, in :data:`CONFIG_SPECS` —
name, type, default, environment override, runtime mutability, bounds.  :class:`GraphConfig` (still a dataclass, so snapshots
keep round-tripping through ``dataclasses.asdict``) draws its defaults
and validation from the table, and ``GRAPH.CONFIG GET/SET`` in
``rediskv/graph_module.py`` is generated from it rather than hand-coding
each knob.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, Optional, Tuple


def _default_thread_count() -> int:
    return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class ConfigSpec:
    """Declarative description of one configuration knob.

    ``name`` is the python attribute on :class:`GraphConfig`; the
    ``GRAPH.CONFIG`` name is its upper-case form.  ``mutable`` marks knobs
    settable at runtime via ``GRAPH.CONFIG SET``; the rest are load-time
    only.  ``env`` names an environment variable consulted for the
    default at construction time (invalid values fall back silently,
    out-of-range ones clamp to ``min``).
    """

    name: str
    type: type = int
    default: Any = None
    default_factory: Optional[Callable[[], Any]] = None
    env: Optional[str] = None
    mutable: bool = False
    min: Optional[int] = None
    choices: Optional[Tuple[str, ...]] = None
    note: str = ""
    doc: str = ""

    @property
    def redis_name(self) -> str:
        return self.name.upper()

    def parse(self, raw: Any) -> Any:
        """Coerce a raw (possibly string) value to the knob's type."""
        if self.type is int:
            if isinstance(raw, bool):
                raise ValueError(f"{self.redis_name} expects an integer")
            try:
                return int(raw)
            except (TypeError, ValueError):
                raise ValueError(f"{self.redis_name} expects an integer") from None
        return str(raw)

    def check(self, value: Any) -> None:
        """Validate one value; raises ValueError with the knob's message."""
        suffix = f" ({self.note})" if self.note else ""
        if self.min is not None and value < self.min:
            raise ValueError(f"{self.name} must be >= {self.min}{suffix}")
        if self.choices is not None and value not in self.choices:
            allowed = ", ".join(repr(c) for c in self.choices)
            raise ValueError(f"{self.name} must be one of {allowed}")

    def resolve_default(self) -> Any:
        if self.env:
            raw = os.environ.get(self.env)
            if raw:
                try:
                    value = self.parse(raw)
                    if self.min is not None and value < self.min:
                        value = self.min
                    self.check(value)
                    return value
                except ValueError:
                    pass
        if self.default_factory is not None:
            return self.default_factory()
        return self.default


CONFIG_SPECS: Tuple[ConfigSpec, ...] = (
    ConfigSpec(
        name="thread_count",
        default_factory=_default_thread_count,
        min=1,
        doc="Size of the query-execution thread pool (set at module load).",
    ),
    ConfigSpec(
        name="node_capacity",
        default=256,
        min=1,
        doc="Initial matrix dimension; grows geometrically as nodes are created.",
    ),
    ConfigSpec(
        name="delta_max_pending",
        default=10_000,
        min=1,
        doc="Flush a delta matrix into its base CSR after this many pending changes.",
    ),
    ConfigSpec(
        name="exec_batch_size",
        default=1024,
        env="REPRO_EXEC_BATCH_SIZE",
        mutable=True,
        min=1,
        doc=(
            "Records per RecordBatch in the vectorized pipeline; 1 reproduces "
            "row-at-a-time execution exactly (the differential hook)."
        ),
    ),
    ConfigSpec(
        name="plan_cache_size",
        default=256,
        mutable=True,
        min=0,
        note="0 disables caching",
        doc="Capacity of the per-graph LRU plan cache; 0 disables caching.",
    ),
    ConfigSpec(
        name="cost_based_planner",
        default=1,
        env="REPRO_COST_BASED_PLANNER",
        mutable=True,
        min=0,
        note="0 disables cost-based planning",
        doc=(
            "Plan with statistics-driven cardinality estimates; 0 reproduces "
            "the rule-based planner exactly (the planner differential hook)."
        ),
    ),
    ConfigSpec(
        name="wal_fsync",
        type=str,
        default="everysec",
        mutable=True,
        choices=("always", "everysec", "no"),
        doc="Write-log fsync policy: always, everysec, or no.",
    ),
    ConfigSpec(
        name="wal_rotate_bytes",
        default=64 * 1024 * 1024,
        min=4096,
        doc="Size at which the active write-log segment rotates.",
    ),
    ConfigSpec(
        name="auto_snapshot_ops",
        default=0,
        mutable=True,
        min=0,
        note="0 disables auto-snapshots",
        doc="Snapshot a graph automatically after this many logged mutations.",
    ),
)

_SPEC: Dict[str, ConfigSpec] = {s.name: s for s in CONFIG_SPECS}

_BY_REDIS_NAME: Dict[str, ConfigSpec] = {s.redis_name: s for s in CONFIG_SPECS}


def config_spec(redis_name: str) -> Optional[ConfigSpec]:
    """Resolve a ``GRAPH.CONFIG`` name (case-insensitive)."""
    return _BY_REDIS_NAME.get(redis_name.upper())


def _spec_default(name: str) -> Callable[[], Any]:
    return _SPEC[name].resolve_default


@dataclass
class GraphConfig:
    """Tunables of the graph engine.

    Field semantics, defaults, env overrides and runtime mutability all
    live in :data:`CONFIG_SPECS`; see each spec's ``doc``.
    """

    thread_count: int = field(default_factory=_spec_default("thread_count"))
    node_capacity: int = field(default_factory=_spec_default("node_capacity"))
    delta_max_pending: int = field(default_factory=_spec_default("delta_max_pending"))
    exec_batch_size: int = field(default_factory=_spec_default("exec_batch_size"))
    plan_cache_size: int = field(default_factory=_spec_default("plan_cache_size"))
    cost_based_planner: int = field(
        default_factory=_spec_default("cost_based_planner")
    )

    wal_fsync: str = field(default_factory=_spec_default("wal_fsync"))
    wal_rotate_bytes: int = field(default_factory=_spec_default("wal_rotate_bytes"))
    auto_snapshot_ops: int = field(default_factory=_spec_default("auto_snapshot_ops"))

    def validate(self) -> "GraphConfig":
        for spec in CONFIG_SPECS:
            spec.check(getattr(self, spec.name))
        return self


# Every registry entry must be a real dataclass field (and vice versa) —
# catches drift between the table and the class.
assert {s.name for s in CONFIG_SPECS} == {f.name for f in fields(GraphConfig)}
