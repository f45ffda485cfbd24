"""A1 — ablation of the algebraic traversal design.

Two knobs the paper's design argues for:

* **batching**: ConditionalTraverse multiplies a whole batch of source
  rows per matrix product.  batch=1 degrades to per-record products
  (pointer-chasing-with-matrices).  The knob is ``exec_batch_size``
  (which batches the whole operator pipeline, traversal included).
* **algebra vs adjacency**: the same 2-hop count through the matrix
  engine vs a per-row Python adjacency walk.
"""

import pytest

from repro.bench.khop import pick_seeds
from repro.datasets.loader import build_graphdb
from repro.graph.config import GraphConfig


@pytest.fixture(scope="module", params=[1, 8, 64], ids=["batch1", "batch8", "batch64"])
def db_with_batch(request, graph500):
    src, dst, n = graph500
    config = GraphConfig(node_capacity=max(1, n), exec_batch_size=request.param)
    db = build_graphdb(src, dst, n, config=config)
    db.graph.flush_all()
    return request.param, db


TWO_HOP = "MATCH (a:V)-[:E]->(b)-[:E]->(c) RETURN count(c)"


def test_traverse_batching(benchmark, db_with_batch):
    """2-hop path count over ~300 sources: batch size is the ablation."""
    batch, db = db_with_batch
    sub = "MATCH (a:V) WHERE id(a) < 300 WITH a MATCH (a)-[:E]->(b)-[:E]->(c) RETURN count(c)"
    benchmark.extra_info["batch_size"] = batch
    result = benchmark(lambda: db.query(sub).scalar())
    assert result >= 0


def test_algebraic_vs_python_walk(benchmark, graph500):
    """The same 2-hop neighborhood via raw Python adjacency — the 'no
    algebra' arm of the ablation (compare with batch64 above)."""
    src, dst, n = graph500
    adj = {}
    for s, d in zip(src.tolist(), dst.tolist()):
        adj.setdefault(s, []).append(d)

    def walk():
        total = 0
        for a in range(300):
            for b in adj.get(a, ()):
                total += len(adj.get(b, ()))
        return total

    benchmark(walk)
