"""Graph-mutating operations: CREATE, MERGE, DELETE, SET, REMOVE, indices."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import CypherTypeError, EntityNotFound
from repro.execplan.batch import RecordBatch
from repro.execplan.expressions import CompiledExpr, ExecContext
from repro.execplan.ops_base import Argument, PlanOp, rechunk
from repro.execplan.record import Layout, Record
from repro.graph.entities import Edge, Node

__all__ = [
    "NodeCreateSpec",
    "EdgeCreateSpec",
    "Create",
    "Merge",
    "Delete",
    "SetOp",
    "RemoveOp",
    "CreateIndexOp",
    "DropIndexOp",
]


@dataclass
class NodeCreateSpec:
    """One node of a CREATE pattern.  ``bound`` means the variable already
    exists in the incoming record (reuse, don't create)."""

    var: Optional[str]
    labels: Tuple[str, ...]
    properties: Tuple[Tuple[str, CompiledExpr], ...]
    bound: bool


@dataclass
class EdgeCreateSpec:
    """One edge of a CREATE pattern, referencing node specs by index."""

    var: Optional[str]
    reltype: str
    src_index: int  # into the path's node list (already direction-resolved)
    dst_index: int
    properties: Tuple[Tuple[str, CompiledExpr], ...]


class _PatternWriter:
    """Shared CREATE machinery (used by both Create and the Merge create arm)."""

    def __init__(self, paths: Sequence[Tuple[List[NodeCreateSpec], List[EdgeCreateSpec]]]) -> None:
        self.paths = list(paths)

    def new_names(self) -> List[str]:
        names: List[str] = []
        for nodes, edges in self.paths:
            for spec in nodes:
                if spec.var and not spec.bound:
                    names.append(spec.var)
            for spec in edges:
                if spec.var:
                    names.append(spec.var)
        return names

    def write(self, record: Record, in_layout: Layout, out: Record, out_layout: Layout, ctx: ExecContext) -> None:
        graph = ctx.graph
        stats = ctx.stats
        for nodes, edges in self.paths:
            created: List[Node] = []
            # a variable repeated within one path shares its spec object:
            # materialize it once and reuse the node (CREATE cycles)
            materialized: dict = {}
            for spec in nodes:
                if id(spec) in materialized:
                    created.append(materialized[id(spec)])
                    continue
                if spec.bound:
                    # bound either from the incoming record or by an earlier
                    # path of this same clause — both live in `out`
                    value = out[out_layout.slot(spec.var)]
                    if not isinstance(value, Node):
                        raise CypherTypeError(
                            f"CREATE expected {spec.var!r} to be a node, got {type(value).__name__}"
                        )
                    created.append(value)
                    continue
                props = {k: fn(record, ctx) for k, fn in spec.properties}
                props = {k: v for k, v in props.items() if v is not None}
                node = graph.create_node(spec.labels, props)
                created.append(node)
                materialized[id(spec)] = node
                if stats:
                    stats.nodes_created += 1
                    stats.labels_added += len(spec.labels)
                    stats.properties_set += len(props)
                if spec.var:
                    out[out_layout.slot(spec.var)] = node
            for spec in edges:
                props = {k: fn(record, ctx) for k, fn in spec.properties}
                props = {k: v for k, v in props.items() if v is not None}
                edge = graph.create_edge(
                    created[spec.src_index].id, spec.reltype, created[spec.dst_index].id, props
                )
                if stats:
                    stats.relationships_created += 1
                    stats.properties_set += len(props)
                if spec.var:
                    out[out_layout.slot(spec.var)] = edge


def _write_through(child: PlanOp, ctx: ExecContext, write) -> Iterator[RecordBatch]:
    """Apply ``write(record)`` to every record of ``child``'s stream and
    hand each batch on.  The columns go downstream without their property
    memos (``EntityColumn._props``): a gather made before the write — the
    WHERE that selected the rows — must not answer a read after it."""
    for batch in rechunk(child.produce_batches(ctx), ctx.batch_size):
        for record in batch.iter_rows():
            write(record)
        yield batch.forget_properties()


class Create(PlanOp):
    name = "Create"

    def __init__(self, child: PlanOp, paths: Sequence[Tuple[List[NodeCreateSpec], List[EdgeCreateSpec]]]) -> None:
        self._writer = _PatternWriter(paths)
        out_layout = child.out_layout.extend(*self._writer.new_names())
        super().__init__([child], out_layout)

    def _produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        in_layout = self.children[0].out_layout
        layout = self.out_layout
        grow = [None] * (len(layout) - len(in_layout))
        for batch in rechunk(self.children[0].produce_batches(ctx), ctx.batch_size):
            rows = []
            for record in batch.iter_rows():
                out = record + grow
                self._writer.write(record, in_layout, out, layout, ctx)
                rows.append(out)
            yield RecordBatch.from_rows(layout, rows)


class Merge(PlanOp):
    """MERGE: per input record, emit the match arm's results; when the arm
    finds nothing, create the pattern and emit the created bindings.

    ``on_match`` / ``on_create`` hold compiled ``SET`` items (the
    ``ON MATCH SET`` / ``ON CREATE SET`` sub-clauses) applied to exactly
    the arm that produced each output row."""

    name = "Merge"

    def __init__(
        self,
        child: PlanOp,
        match_arm: PlanOp,
        argument: Argument,
        paths: Sequence[Tuple[List[NodeCreateSpec], List[EdgeCreateSpec]]],
        *,
        on_create: Sequence[Tuple[str, Optional[str], Optional[CompiledExpr], Tuple[str, ...], bool]] = (),
        on_match: Sequence[Tuple[str, Optional[str], Optional[CompiledExpr], Tuple[str, ...], bool]] = (),
    ) -> None:
        self._writer = _PatternWriter(paths)
        super().__init__([child, match_arm], match_arm.out_layout)
        self._argument = argument
        self._on_create = list(on_create)
        self._on_match = list(on_match)

    def describe(self) -> str:
        extra = []
        if self._on_match:
            extra.append("ON MATCH SET")
        if self._on_create:
            extra.append("ON CREATE SET")
        return f"Merge | {', '.join(extra)}" if extra else "Merge"

    def _produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        in_layout = self.children[0].out_layout
        layout = self.out_layout
        size = ctx.batch_size
        grow = [None] * (len(layout) - len(in_layout))
        # Output batches are rebuilt from the walked rows: the match arm
        # must see what earlier records of the same input batch created,
        # and no column may carry a property memo older than an ON ... SET.
        # An ON ... SET that writes an entity a buffered row binds first
        # hands those rows downstream, so they are read as the row engine
        # reads them: before the write.
        rows: List[Record] = []
        bound: set = set()  # entities the buffered rows bind (with ON ... SET only)
        on_set = bool(self._on_match or self._on_create)

        def buffer(out: Record, items) -> Iterator[RecordBatch]:
            nonlocal rows
            targets = [out[layout.slot(item[0])] for item in items] if bound else ()
            if any(isinstance(t, (Node, Edge)) and t in bound for t in targets):
                yield from RecordBatch.from_rows(layout, rows).chunks(size)
                rows = []
                bound.clear()
            if items:
                _apply_set_items(items, out, layout, ctx)
            rows.append(out)
            if on_set:
                bound.update(v for v in out if isinstance(v, (Node, Edge)))

        for batch in self.children[0].produce_batches(ctx):
            for record in batch.iter_rows():
                self._argument.seed(ctx, RecordBatch.from_rows(in_layout, [record]))
                matched = False
                for found in self.children[1].produce_batches(ctx):
                    for out in found.iter_rows():
                        matched = True
                        yield from buffer(out, self._on_match)
                if not matched:
                    out = record + grow
                    self._writer.write(record, in_layout, out, layout, ctx)
                    yield from buffer(out, self._on_create)
                if len(rows) >= size:
                    yield from RecordBatch.from_rows(layout, rows).chunks(size)
                    rows = []
                    bound.clear()
        if rows:
            yield from RecordBatch.from_rows(layout, rows).chunks(size)


class Delete(PlanOp):
    name = "Delete"

    def __init__(self, child: PlanOp, exprs: Sequence[CompiledExpr], *, detach: bool) -> None:
        super().__init__([child], child.out_layout)
        self._exprs = list(exprs)
        self._detach = detach

    def describe(self) -> str:
        return "Delete | DETACH" if self._detach else "Delete"

    def _produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        return _write_through(self.children[0], ctx, lambda record: self._delete(record, ctx))

    def _delete(self, record: Record, ctx: ExecContext) -> None:
        graph = ctx.graph
        stats = ctx.stats
        for fn in self._exprs:
            value = fn(record, ctx)
            if value is None:
                continue
            if isinstance(value, Node):
                if graph.has_node(value.id):
                    removed_edges = graph.delete_node(value.id, detach=self._detach)
                    if stats:
                        stats.nodes_deleted += 1
                        stats.relationships_deleted += removed_edges
            elif isinstance(value, Edge):
                if graph.has_edge(value.id):
                    graph.delete_edge(value.id)
                    if stats:
                        stats.relationships_deleted += 1
            else:
                raise CypherTypeError(
                    f"DELETE expects nodes or relationships, got {type(value).__name__}"
                )


def _apply_set_items(
    items: Sequence[Tuple[str, Optional[str], Optional[CompiledExpr], Tuple[str, ...], bool]],
    record: Record,
    layout: Layout,
    ctx: ExecContext,
) -> None:
    """Apply compiled SET items (target var, key, value fn, labels,
    merge_map) to one record — shared by SetOp and Merge's ON CREATE /
    ON MATCH arms."""
    graph = ctx.graph
    stats = ctx.stats
    for target, key, value_fn, labels, merge_map in items:
        entity = record[layout.slot(target)]
        if entity is None:
            continue
        if labels:
            if not isinstance(entity, Node):
                raise CypherTypeError("SET label expects a node")
            for label in labels:
                graph.add_label(entity.id, label)
                if stats:
                    stats.labels_added += 1
            continue
        value = value_fn(record, ctx) if value_fn is not None else None
        if merge_map:
            if not isinstance(value, dict):
                raise CypherTypeError("SET += expects a map")
            if key == "":  # full replacement: SET n = {map}
                for old_key in list(_entity_props(entity)):
                    _set_prop(graph, entity, old_key, None)
            for k, v in value.items():
                _set_prop(graph, entity, k, v)
                if stats:
                    stats.properties_set += 1
        else:
            _set_prop(graph, entity, key, value)
            if stats:
                stats.properties_set += 1


class SetOp(PlanOp):
    name = "Set"

    def __init__(
        self,
        child: PlanOp,
        items: Sequence[Tuple[str, Optional[str], Optional[CompiledExpr], Tuple[str, ...], bool]],
    ) -> None:
        # items: (target var, key, value fn, labels, merge_map)
        super().__init__([child], child.out_layout)
        self._items = list(items)

    def _produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        return _write_through(
            self.children[0],
            ctx,
            lambda record: _apply_set_items(self._items, record, self.out_layout, ctx),
        )


class RemoveOp(PlanOp):
    name = "Remove"

    def __init__(self, child: PlanOp, items: Sequence[Tuple[str, Optional[str], Tuple[str, ...]]]) -> None:
        super().__init__([child], child.out_layout)
        self._items = list(items)

    def _produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        return _write_through(self.children[0], ctx, lambda record: self._remove(record, ctx))

    def _remove(self, record: Record, ctx: ExecContext) -> None:
        graph = ctx.graph
        stats = ctx.stats
        layout = self.out_layout
        for target, key, labels in self._items:
            entity = record[layout.slot(target)]
            if entity is None:
                continue
            if key is not None:
                _set_prop(graph, entity, key, None)
                if stats:
                    stats.properties_set += 1
            for label in labels:
                if not isinstance(entity, Node):
                    raise CypherTypeError("REMOVE label expects a node")
                graph.remove_label(entity.id, label)


class CreateIndexOp(PlanOp):
    name = "CreateIndex"

    def __init__(self, label, attribute=None, *, attributes=None, kind="range", options=()):
        super().__init__([], Layout())
        self._label = label
        self._attributes = tuple(attributes) if attributes else (attribute,)
        self._attribute = self._attributes[0]
        self._kind = kind
        self._options = dict(options)

    def describe(self) -> str:
        attrs = ", ".join(self._attributes)
        tag = "" if self._kind == "range" else f" [{self._kind}]"
        return f"CreateIndex | :{self._label}({attrs}){tag}"

    def _produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        if self._kind == "vector":
            ctx.graph.create_vector_index(self._label, self._attribute, self._options)
        elif self._kind == "composite":
            ctx.graph.create_composite_index(self._label, self._attributes)
        else:
            ctx.graph.create_index(self._label, self._attribute)
        if ctx.stats:
            ctx.stats.indices_created += 1
        return
        yield  # pragma: no cover - generator with no items

class DropIndexOp(PlanOp):
    name = "DropIndex"

    def __init__(self, label, attribute=None, *, attributes=None, kind="range"):
        super().__init__([], Layout())
        self._label = label
        self._attributes = tuple(attributes) if attributes else (attribute,)
        self._attribute = self._attributes[0]
        self._kind = kind

    def describe(self) -> str:
        attrs = ", ".join(self._attributes)
        tag = "" if self._kind == "range" else f" [{self._kind}]"
        return f"DropIndex | :{self._label}({attrs}){tag}"

    def _produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        if self._kind == "vector":
            dropped = ctx.graph.drop_vector_index(self._label, self._attribute)
        elif self._kind == "composite":
            dropped = ctx.graph.drop_composite_index(self._label, self._attributes)
        else:
            dropped = ctx.graph.drop_index(self._label, self._attribute)
        if dropped and ctx.stats:
            ctx.stats.indices_deleted += 1
        return
        yield  # pragma: no cover


def _entity_props(entity) -> dict:
    if isinstance(entity, (Node, Edge)):
        return entity.properties
    raise CypherTypeError(f"cannot set properties on {type(entity).__name__}")


def _set_prop(graph, entity, key: str, value) -> None:
    if isinstance(entity, Node):
        graph.set_node_property(entity.id, key, value)
    elif isinstance(entity, Edge):
        graph.set_edge_property(entity.id, key, value)
    else:
        raise CypherTypeError(f"cannot set properties on {type(entity).__name__}")
