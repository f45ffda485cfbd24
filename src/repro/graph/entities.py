"""Node and Edge handles returned by queries and the Graph API.

They are lightweight views: identity is the (graph, id) pair; property
reads go through the graph's attribute registry so renames/mutations made
by later queries are visible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.graph.graph import Graph

__all__ = ["Node", "Edge"]


class Node:
    """A node handle: ``node.id``, ``node.labels``, ``node.properties``."""

    __slots__ = ("_graph", "id")

    def __init__(self, graph: "Graph", node_id: int) -> None:
        self._graph = graph
        self.id = node_id

    @property
    def labels(self) -> Tuple[str, ...]:
        return self._graph.labels_of(self.id)

    @property
    def properties(self) -> Dict[str, Any]:
        return self._graph.node_properties(self.id)

    def get(self, key: str, default=None):
        value = self._graph.node_property(self.id, key)
        return default if value is None else value

    def __getitem__(self, key: str):
        return self.properties[key]

    def __eq__(self, other) -> bool:
        return isinstance(other, Node) and other._graph is self._graph and other.id == self.id

    def __hash__(self) -> int:
        return hash(("node", id(self._graph), self.id))

    def __repr__(self) -> str:
        labels = ":".join(self.labels)
        return f"(:{labels} {{id={self.id}}})" if labels else f"({{id={self.id}}})"


class Edge:
    """An edge handle: ``edge.id``, ``edge.src``/``dst`` ids, ``edge.type``."""

    __slots__ = ("_graph", "id")

    def __init__(self, graph: "Graph", edge_id: int) -> None:
        self._graph = graph
        self.id = edge_id

    @property
    def src(self) -> int:
        return self._graph.edge_endpoints(self.id)[0]

    @property
    def dst(self) -> int:
        return self._graph.edge_endpoints(self.id)[1]

    @property
    def type(self) -> str:
        return self._graph.edge_type(self.id)

    @property
    def properties(self) -> Dict[str, Any]:
        return self._graph.edge_properties(self.id)

    def get(self, key: str, default=None):
        value = self._graph.edge_property(self.id, key)
        return default if value is None else value

    def __getitem__(self, key: str):
        return self.properties[key]

    def __eq__(self, other) -> bool:
        return isinstance(other, Edge) and other._graph is self._graph and other.id == self.id

    def __hash__(self) -> int:
        return hash(("edge", id(self._graph), self.id))

    def __repr__(self) -> str:
        return f"[:{self.type} {{id={self.id}}} {self.src}->{self.dst}]"
