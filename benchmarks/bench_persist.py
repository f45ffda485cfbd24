"""Persistence timings — columnar snapshot save/load plus cold-start
recovery (snapshot + write-log tail).

The durability story only matters if recovery is fast: Redis restarts are
dominated by RDB load time, and RedisGraph inherits that.  Snapshots dump
typed numpy columns and re-install the CSR arrays directly, so load cost
is dominated by record reconstruction, not matrix rebuilds.

Arms (graph shape: ``REPRO_BENCH_PERSIST_EDGES`` recorded edges with a
property, default 100k, between 2x as many nodes with properties):

* ``save`` / ``load`` — snapshot throughput both ways,
* ``recovery`` — a cold start from data dir: snapshot plus a
  ``REPRO_BENCH_PERSIST_TAIL`` (default 500) record write-log tail.

No ratio is asserted here: end-to-end cold recovery is tracked by
``recover_s`` on the ledger's ``social_mix`` workload.
"""

import io
import os

import pytest

from repro import GraphDB
from repro.graph.config import GraphConfig
from repro.graph.persist import load_graph, save_graph

N_EDGES = int(os.environ.get("REPRO_BENCH_PERSIST_EDGES", "100000"))
TAIL_RECORDS = int(os.environ.get("REPRO_BENCH_PERSIST_TAIL", "500"))


@pytest.fixture(scope="module")
def db():
    """~N_EDGES recorded edges (with a property) between 2N propertied
    nodes, plus an index — the surfaces a snapshot must carry."""
    d = GraphDB("persist-bench", GraphConfig(node_capacity=max(16, 2 * N_EDGES)))
    ids = list(range(N_EDGES))
    d.bulk_insert(
        nodes=[
            {"labels": ["V"], "count": N_EDGES, "properties": {"i": ids}},
            {"labels": ["V"], "count": N_EDGES, "properties": {"name": [f"n{i}" for i in ids]}},
        ],
        edges=[
            {"type": "E", "src": ids, "dst": [N_EDGES + i for i in ids], "properties": {"w": ids}},
        ],
    )
    d.query("CREATE INDEX ON :V(i)")
    return d


def snapshot_of(graph) -> io.BytesIO:
    buf = io.BytesIO()
    save_graph(graph, buf)
    buf.seek(0)
    return buf


@pytest.fixture(scope="module")
def snapshot_file(db):
    return snapshot_of(db.graph)


def test_save(benchmark, db):
    benchmark.extra_info.update(mode="save", edges=N_EDGES)
    benchmark(snapshot_of, db.graph)


def load_from(buf: io.BytesIO):
    buf.seek(0)
    return load_graph(buf)


def test_load(benchmark, db, snapshot_file):
    benchmark.extra_info.update(mode="load", edges=N_EDGES)
    graph = benchmark(load_from, snapshot_file)
    assert graph.edge_count == db.graph.edge_count
    assert graph.node_count == db.graph.node_count


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory, db):
    """A durable data dir: snapshot of the big graph + a log tail."""
    from repro.rediskv.durability import DurabilityManager
    from repro.rediskv.graph_module import GraphModule
    from repro.rediskv.keyspace import Keyspace

    path = tmp_path_factory.mktemp("persist-bench")
    config = GraphConfig(node_capacity=max(16, 2 * N_EDGES), wal_fsync="no")
    keyspace = Keyspace()
    keyspace.set_graph("g", db)
    manager = DurabilityManager(path, config, keyspace)
    module = GraphModule(keyspace, config, durability=manager)
    assert manager.save_graph("g", db)
    for i in range(TAIL_RECORDS):
        module.query("g", f"CYPHER i={i} CREATE (:T {{i: $i}})")
    manager.close()
    # undo the tail writes so the shared fixture graph stays pristine
    db.query("MATCH (n:T) DETACH DELETE n")
    return path


def cold_start(path):
    from repro.rediskv.durability import DurabilityManager
    from repro.rediskv.graph_module import GraphModule
    from repro.rediskv.keyspace import Keyspace

    config = GraphConfig(node_capacity=16, wal_fsync="no")
    keyspace = Keyspace()
    manager = DurabilityManager(path, config, keyspace)
    module = GraphModule(keyspace, config)
    stats = manager.recover(module)
    manager.close()
    return keyspace, stats


def test_cold_start_recovery(benchmark, data_dir):
    benchmark.extra_info.update(mode="recovery", edges=N_EDGES, tail=TAIL_RECORDS)
    keyspace, stats = benchmark(cold_start, data_dir)
    assert stats["snapshots"] == 1
    assert stats["replayed"] == TAIL_RECORDS
    restored = keyspace.get_graph("g")
    assert restored.query("MATCH (:V)-[:E]->(b) RETURN count(b)").scalar() == N_EDGES
    assert restored.query("MATCH (n:T) RETURN count(n)").scalar() == TAIL_RECORDS

