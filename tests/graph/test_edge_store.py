"""The per-type edge-id stores against a dict model.

A hypothesis state machine drives edges of two relationship types —
parallel edges, self-loops, ``DELETE r``, ``DETACH DELETE``, slot reuse,
bulk batches and a save → load round trip — and after every step checks
the graph's edge reads against the model: ``edges_between``,
``out_edges`` / ``in_edges``, the named-edge rows of a traversal (out,
in, undirected, the ``ExpandInto`` shape and ``p = (a)-[r]->(b)``) and
the edges ``algo.shortestPath`` picks.

The model is the bookkeeping the graph used to keep in Python dicts: a
``(src, dst, type) → [edge ids]`` map plus per-node out/in id sets.  The
machine runs at overlay fold thresholds 1, 3 and 10 000 (every write
folds, a few writes pend, nothing folds) and at batch sizes 1 and 1024.
"""

import io
from collections import Counter

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule, run_state_machine_as_test

from repro.api import GraphDB
from repro.graph.config import GraphConfig

TYPES = ("R", "S")


class EdgeModel:
    """``(src, dst, type) → [edge ids]`` with per-node out/in id sets."""

    def __init__(self) -> None:
        self.pairs = {}
        self.node_out = {}
        self.node_in = {}
        self.edges = {}  # id -> (src, dst, type)

    def add(self, eid, src, dst, rtype):
        self.pairs.setdefault((src, dst, rtype), []).append(eid)
        self.node_out.setdefault(src, set()).add(eid)
        self.node_in.setdefault(dst, set()).add(eid)
        self.edges[eid] = (src, dst, rtype)

    def remove(self, eid):
        src, dst, rtype = self.edges.pop(eid)
        siblings = self.pairs[(src, dst, rtype)]
        siblings.remove(eid)
        if not siblings:
            del self.pairs[(src, dst, rtype)]
        self.node_out[src].discard(eid)
        self.node_in[dst].discard(eid)

    def incident(self, nid):
        return self.node_out.get(nid, set()) | self.node_in.get(nid, set())

    def between(self, src, dst, rtype=None):
        types = TYPES if rtype is None else (rtype,)
        return [e for t in types for e in self.pairs.get((src, dst, t), ())]


def rows(db, text, params=None):
    return Counter(tuple(r) for r in db.query(text, params).rows)


class EdgeStoreMachine(RuleBasedStateMachine):
    batch_size = 1024

    def __init__(self) -> None:
        super().__init__()
        self.db = GraphDB("edges", GraphConfig(exec_batch_size=self.batch_size))
        self.model = EdgeModel()
        self.nodes = set()

    @property
    def graph(self):
        return self.db.graph

    def _created(self, eid):
        g = self.graph
        src, dst = g.edge_endpoints(eid)
        self.model.add(eid, src, dst, g.edge_type(eid))

    # -- writes ---------------------------------------------------------
    @rule()
    def create_node(self):
        self.nodes.add(self.graph.create_node(["N"]).id)

    @precondition(lambda self: self.nodes)
    @rule(data=st.data(), rtype=st.sampled_from(TYPES))
    def create_edge(self, data, rtype):
        ids = sorted(self.nodes)
        src, dst = data.draw(st.sampled_from(ids)), data.draw(st.sampled_from(ids))
        self._created(self.graph.create_edge(src, rtype, dst).id)

    @precondition(lambda self: self.nodes)
    @rule(data=st.data(), rtype=st.sampled_from(TYPES))
    def self_loop(self, data, rtype):
        nid = data.draw(st.sampled_from(sorted(self.nodes)))
        self.db.query(f"MATCH (a) WHERE id(a) = $a CREATE (a)-[:{rtype}]->(a)", {"a": nid})
        (new,) = [e for e in self.graph.out_edges(nid) if e not in self.model.edges]
        self._created(new)

    @precondition(lambda self: self.model.edges)
    @rule(data=st.data())
    def parallel_edge(self, data):
        src, dst, rtype = self.model.edges[data.draw(st.sampled_from(sorted(self.model.edges)))]
        self._created(self.graph.create_edge(src, rtype, dst).id)

    @precondition(lambda self: self.model.edges)
    @rule(data=st.data())
    def delete_edge(self, data):
        eid = data.draw(st.sampled_from(sorted(self.model.edges)))
        self.db.query("MATCH ()-[r]->() WHERE id(r) = $r DELETE r", {"r": eid})
        self.model.remove(eid)

    @precondition(lambda self: self.nodes)
    @rule(data=st.data())
    def detach_delete(self, data):
        nid = data.draw(st.sampled_from(sorted(self.nodes)))
        result = self.db.query("MATCH (n) WHERE id(n) = $n DETACH DELETE n", {"n": nid})
        incident = self.model.incident(nid)
        assert result.stats.relationships_deleted == len(incident)
        for eid in incident:
            self.model.remove(eid)
        self.nodes.discard(nid)

    @precondition(lambda self: self.nodes)
    @rule(data=st.data(), fresh=st.integers(0, 2))
    def bulk_batch(self, data, fresh):
        """New nodes plus edges of both types among old and new nodes,
        repeats and self-loops included."""
        before = set(self.graph._edges.ids())
        report = self.db.bulk_insert(nodes=[{"labels": ["N"], "count": fresh}])
        self.nodes.update(report.node_ids.tolist())
        ids = sorted(self.nodes)
        specs = []
        for rtype in TYPES:
            pairs = data.draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=4))
            if pairs:
                specs.append({
                    "type": rtype,
                    "src": [s for s, _ in pairs],
                    "dst": [d for _, d in pairs],
                    "endpoints": "graph",
                })
        self.db.bulk_insert(edges=specs)
        for eid in sorted(set(self.graph._edges.ids()) - before):
            self._created(eid)

    @rule()
    def save_and_load(self):
        buf = io.BytesIO()
        self.db.save(buf)
        buf.seek(0)
        self.db = GraphDB.load(buf)

    # -- reads ----------------------------------------------------------
    @invariant()
    def graph_reads_match(self):
        g, model = self.graph, self.model
        assert g.edge_count == len(model.edges)
        for src in self.nodes:
            assert g.out_edges(src) == sorted(model.node_out.get(src, ()))
            assert g.in_edges(src) == sorted(model.node_in.get(src, ()))
            for dst in self.nodes:
                assert sorted(g.edges_between(src, dst)) == sorted(model.between(src, dst))
                for rtype in TYPES:
                    assert sorted(g.edges_between(src, dst, rtype)) == sorted(model.between(src, dst, rtype))

    @invariant()
    def named_rows_match(self):
        db, edges = self.db, self.model.edges
        out = Counter((s, e, d) for e, (s, d, _) in edges.items())
        back = Counter((d, e, s) for e, (s, d, _) in edges.items())
        loops = Counter((s, e, d) for e, (s, d, _) in edges.items() if s == d)
        assert rows(db, "MATCH (a)-[r]->(b) RETURN id(a), id(r), id(b)") == out
        assert rows(db, "MATCH (a)<-[r]-(b) RETURN id(a), id(r), id(b)") == back
        assert rows(db, "MATCH (a)-[r]-(b) RETURN id(a), id(r), id(b)") == out + back - loops
        typed = Counter((s, e, d) for e, (s, d, t) in edges.items() if t == "S")
        assert rows(db, "MATCH (a)-[r:S]->(b) RETURN id(a), id(r), id(b)") == typed
        # ExpandInto: both endpoints bound by the unnamed R hop (one row
        # per connected pair), then every S edge of that pair
        r_pairs = {(s, d) for s, d, t in self.model.pairs if t == "R"}
        into = Counter((s, e, d) for e, (s, d, t) in edges.items() if t == "S" and (s, d) in r_pairs)
        assert rows(db, "MATCH (a)-[:R]->(b), (a)-[r:S]->(b) RETURN id(a), id(r), id(b)") == into
        paths = Counter(
            (e, (s, d), (e,))
            for e, (s, d, _) in edges.items()
        )
        got = Counter(
            (e, tuple(n.id for n in p.nodes), tuple(x.id for x in p.edges))
            for e, p in db.query("MATCH p = (a)-[r]->(b) RETURN id(r), p").rows
        )
        assert got == paths

    @precondition(lambda self: len(self.nodes) >= 2)
    @rule(data=st.data(), rtype=st.sampled_from(TYPES + (None,)))
    def shortest_path_edges(self, data, rtype):
        ids = sorted(self.nodes)
        src, dst = data.draw(st.sampled_from(ids)), data.draw(st.sampled_from(ids))
        typed = "" if rtype is None else f", '{rtype}'"
        found = self.db.query(
            f"MATCH (a), (b) WHERE id(a) = $a AND id(b) = $b "
            f"CALL algo.shortestPath(a, b{typed}) YIELD path RETURN path",
            {"a": src, "b": dst},
        ).rows
        for (path,) in found:
            hops = zip(path.nodes, path.nodes[1:], path.edges)
            for u, v, edge in hops:
                assert edge.id == min(self.model.between(u.id, v.id, rtype))


@pytest.mark.parametrize("batch_size", [1, 1024])
@pytest.mark.parametrize("threshold", [1, 3, 10_000])
def test_edge_store_matches_model(fold_at, threshold, batch_size):
    fold_at(threshold)
    machine = type("Machine", (EdgeStoreMachine,), {"batch_size": batch_size})
    run_state_machine_as_test(
        machine,
        settings=settings(
            max_examples=8,
            stateful_step_count=20,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )


def test_expand_into_shape_plans_expand_into():
    db = GraphDB("plan")
    assert "ExpandInto" in db.explain("MATCH (a)-[:R]->(b), (a)-[r:S]->(b) RETURN id(a), id(r), id(b)")


@pytest.mark.parametrize("batch_size", [1, 1024])
class TestUndirectedSelfLoop:
    """``(a)-[r]-(b)`` matches a self-loop once, like the unnamed
    ``(a)--(b)`` and as the openCypher TCK expects."""

    @pytest.fixture
    def db(self, batch_size):
        db = GraphDB("loop", GraphConfig(exec_batch_size=batch_size))
        db.query("CREATE (a:A)-[:R]->(a)")
        return db

    def test_named_rows(self, db):
        assert db.query("MATCH (a)-[r]-(b) RETURN id(a), id(r), id(b)").rows == [(0, 0, 0)]

    def test_typed_count(self, db):
        assert db.query("MATCH (a)-[r:R]-(b) RETURN count(*)").rows == [(1,)]

    def test_unnamed_count(self, db):
        assert db.query("MATCH (a)--(b) RETURN count(*)").rows == [(1,)]

    def test_expand_into(self, db):
        assert db.query("MATCH (a)-[:R]-(b), (a)-[r:R]-(b) RETURN count(r)").rows == [(1,)]
