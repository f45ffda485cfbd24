"""repro.graph — the property-graph storage layer.

This is RedisGraph's graph object rebuilt on :mod:`repro.grblas`:

* nodes and edges live in :class:`~repro.graph.datablock.DataBlock` slot
  stores (id-stable, free-list reuse),
* every relationship type owns a Boolean adjacency
  :class:`~repro.graph.delta_matrix.DeltaMatrix`; every label owns a
  diagonal matrix; one combined adjacency covers untyped traversals,
* matrix updates are buffered as deltas; reads evaluate the flush-free
  ``(base ⊕ Δ+) ⊖ Δ−`` overlay directly while writers compact in bulk at
  ``max_pending`` — the hybrid-matrix trick RedisGraph uses to keep
  single-edge writes O(1)-amortized without reads paying a CSR rebuild,
* a reader-writer lock serializes writers against the query thread pool,
* exact-match indices accelerate ``MATCH (n:L {p: v})`` scans.
"""

from repro.graph.attributes import AttributeRegistry
from repro.graph.bulk import BulkReport, BulkWriter
from repro.graph.config import GraphConfig
from repro.graph.datablock import DataBlock
from repro.graph.delta_matrix import DeltaMatrix, DeltaMatrixView
from repro.graph.entities import Edge, Node
from repro.graph.graph import Graph
from repro.graph.rwlock import RWLock
from repro.graph.schema import Schema

__all__ = [
    "AttributeRegistry",
    "BulkReport",
    "BulkWriter",
    "GraphConfig",
    "DataBlock",
    "DeltaMatrix",
    "DeltaMatrixView",
    "Edge",
    "Node",
    "Graph",
    "RWLock",
    "Schema",
]
