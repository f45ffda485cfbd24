"""Variable-length traversal against an independent oracle.

``[:A|B*min..max]`` matches every node whose BFS hop distance from the
source lies in ``[min, max]`` (``min = 0`` admits the source itself; an
omitted ``max`` is unbounded).  The oracle below is a plain-Python BFS over
the edge list this file generated — it shares no code with the engine's
matrix level loop — run against seeded three-type graphs whose last edge
creates and deletes are still pending in the delta matrices (the
flush-free overlay read path), with the destination both free and
already bound, at every ``exec_batch_size`` of the batch differential.
"""

from collections import deque

import numpy as np
import pytest

from repro import GraphDB
from repro.graph.config import GraphConfig

BATCH_SIZES = (1, 7, 1024)
NODES = 16
RANGES = [(lo, hi) for lo in (0, 1, 2) for hi in (1, 3, None) if hi is None or lo <= hi]
PATTERNS = {
    "out": "(a)-[:A|B*{r}]->(b)",
    "in": "(a)<-[:A|B*{r}]-(b)",
    "any": "(a)-[:A|B*{r}]-(b)",
}


def _create_edges(db, edges):
    for etype in ("A", "B", "C"):
        batch = [[s, d, k] for k, (s, t, d) in edges.items() if t == etype]
        db.query(
            "UNWIND $edges AS e MATCH (x:N {i: e[0]}), (y:N {i: e[1]}) "
            f"CREATE (x)-[:{etype} {{k: e[2]}}]->(y)",
            {"edges": batch},
        )


def _build(seed):
    """A graph whose last writes are unflushed, plus its edge list."""
    rng = np.random.default_rng(seed)
    db = GraphDB(f"varlen-{seed}", GraphConfig(node_capacity=NODES))
    db.query(f"UNWIND range(0, {NODES - 1}) AS i CREATE (:N {{i: i}})")

    def draw(count, first_key):
        src = rng.integers(0, NODES, count).tolist()
        dst = rng.integers(0, NODES, count).tolist()
        types = rng.choice(["A", "B", "C"], count).tolist()
        return {first_key + j: (s, t, d) for j, (s, t, d) in enumerate(zip(src, types, dst))}

    edges = draw(22, 0)
    _create_edges(db, edges)
    db.graph.flush_all()
    pending = draw(10, 100)
    _create_edges(db, pending)
    edges.update(pending)
    # delete some flushed edges and one still-pending create
    gone = [int(k) for k in rng.choice(22, 6, replace=False)] + [100]
    db.query("MATCH ()-[r]->() WHERE r.k IN $ks DELETE r", {"ks": gone})
    for k in gone:
        del edges[k]
    assert any(m.dirty for m in db.graph._rel_matrices)
    return db, edges


def _oracle_pairs(edges, direction, lo, hi, sources):
    """Sorted (src, dst) pairs by BFS distance over the edge list."""
    adj = {v: set() for v in range(NODES)}
    for s, t, d in edges.values():
        if t not in ("A", "B"):
            continue
        if direction in ("out", "any"):
            adj[s].add(d)
        if direction in ("in", "any"):
            adj[d].add(s)
    pairs = []
    for src in sources:
        if (lo, hi) == (1, 1):
            # ``*1..1`` plans as one ordinary hop, where a self-loop makes
            # a node its own neighbour (BFS never re-reaches the source)
            pairs.extend((src, w) for w in adj[src])
            continue
        dist = {src: 0}
        queue = deque([src])
        while queue:
            v = queue.popleft()
            if hi is not None and dist[v] == hi:
                continue
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        for v, d in dist.items():
            if d >= lo:
                pairs.append((src, v))
    return sorted(pairs)


@pytest.fixture(scope="module", params=[3, 11])
def graph(request):
    return _build(request.param)


def _range_text(lo, hi):
    return f"{lo}..{'' if hi is None else hi}"


@pytest.mark.parametrize("lo,hi", RANGES)
@pytest.mark.parametrize("direction", sorted(PATTERNS))
@pytest.mark.parametrize("bound", [False, True], ids=["free-dst", "bound-dst"])
def test_varlen_matches_bfs_oracle(graph, direction, lo, hi, bound):
    db, edges = graph
    pattern = PATTERNS[direction].format(r=_range_text(lo, hi))
    if bound:
        # both endpoints bound by an earlier MATCH: the reachability probe
        query = f"MATCH (a:N), (b:N) WHERE a.i % 4 = 1 MATCH {pattern} RETURN a.i, b.i"
        expected = _oracle_pairs(edges, direction, lo, hi, range(1, NODES, 4))
    else:
        query = f"MATCH (a:N) MATCH {pattern} RETURN a.i, b.i"
        expected = _oracle_pairs(edges, direction, lo, hi, range(NODES))
    cfg = db.graph.config
    for size in BATCH_SIZES:
        cfg.exec_batch_size = size
        try:
            got = sorted(tuple(row) for row in db.query(query).rows)
        finally:
            cfg.exec_batch_size = 1024
        assert got == expected, (query, size)


@pytest.fixture(scope="module")
def chain():
    """A 40-node ``:NEXT`` chain 0 -> 1 -> ... -> 39."""
    db = GraphDB("chain")
    db.query("UNWIND range(0, 39) AS i CREATE (:N {i: i})")
    db.query("MATCH (a:N), (b:N) WHERE b.i = a.i + 1 CREATE (a)-[:NEXT]->(b)")
    return db


@pytest.mark.parametrize("size", BATCH_SIZES)
def test_unbounded_pattern_is_not_capped(chain, size):
    chain.graph.config.exec_batch_size = size
    try:
        reach = chain.query("MATCH (a:N {i: 0})-[:NEXT*]->(b) RETURN count(b), max(b.i)")
        far = chain.query("MATCH (a:N {i: 0})-[:NEXT*]->(b:N {i: 39}) RETURN count(*)")
    finally:
        chain.graph.config.exec_batch_size = 1024
    assert reach.rows == [(39, 39)]
    assert far.rows == [(1,)]


def test_explain_prints_unbounded_range(chain):
    plan = chain.explain("MATCH (a:N {i: 0})-[:NEXT*]->(b) RETURN count(b)")
    assert "[*1..]" in plan
    assert "[*2..5]" in chain.explain("MATCH (a:N)-[:NEXT*2..5]->(b) RETURN b")
