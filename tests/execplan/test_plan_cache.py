"""The compile-once pipeline: CompiledQuery artifacts, the schema-versioned
LRU plan cache, and concurrent execution of cached (stateless) plans."""

import threading
import time

import pytest

from repro import GraphDB
from repro.errors import CypherSemanticError
from repro.execplan.compiled import PlanSchema, compile_query
from repro.execplan.plan_cache import PlanCache
from repro.graph.config import GraphConfig
from repro.graph.graph import Graph


@pytest.fixture
def db():
    d = GraphDB("pc", GraphConfig(node_capacity=64))
    d.query(
        "UNWIND range(0, 9) AS i CREATE (:Person {name: 'p' + i, grp: i % 3})"
    )
    d.query(
        "MATCH (a:Person {grp: 0}), (b:Person {grp: 1}) CREATE (a)-[:KNOWS]->(b)"
    )
    return d


class TestCompiledQuery:
    def test_compile_collects_metadata(self, db):
        compiled = db.engine.compile(
            "MATCH (a:Person)-[:KNOWS]->(b) WHERE a.name = $who RETURN b.name LIMIT $n"
        )
        assert compiled.writes is False
        assert compiled.param_names == frozenset({"who", "n"})
        assert compiled.columns == ["b.name"]
        assert compiled.schema_version == db.graph.schema_version

    def test_artifact_is_graph_independent(self, db):
        """A CompiledQuery built from a bare schema snapshot (no graph)
        executes fine against a live graph — names bind at run time."""
        compiled = compile_query("MATCH (n:Person) RETURN count(n)", PlanSchema())
        assert db.engine.execute(compiled).scalar() == 10

    def test_writes_flag(self, db):
        assert db.engine.compile("CREATE (:X)").writes is True
        assert db.engine.compile("MATCH (n) RETURN n").writes is False


class TestCacheHits:
    def test_second_execution_hits(self, db):
        q = "MATCH (n:Person) RETURN count(n)"
        r1 = db.query(q)
        r2 = db.query(q)
        assert r1.stats.cached_execution is False
        assert r2.stats.cached_execution is True
        assert "Cached execution: 0" in "\n".join(r1.stats.summary())
        assert "Cached execution: 1" in "\n".join(r2.stats.summary())
        assert r1.scalar() == r2.scalar() == 10

    def test_parameterized_queries_share_one_plan(self, db):
        q = "MATCH (n:Person {grp: $g}) RETURN count(n)"
        counts = {g: db.query(q, {"g": g}).scalar() for g in (0, 1, 2)}
        assert counts == {0: 4, 1: 3, 2: 3}
        info = db.engine.plan_cache.info()
        assert info["entries"] >= 1
        assert info["hits"] >= 2  # second and third run reused the plan

    def test_whitespace_canonicalization(self, db):
        db.query("MATCH (n:Person) RETURN count(n)")
        r = db.query("  MATCH (n:Person) RETURN count(n)  ")
        assert r.stats.cached_execution is True

    def test_explain_profile_query_share_compilation(self, db):
        q = "MATCH (n:Person) RETURN count(n)"
        db.explain(q)
        misses_after_explain = db.engine.plan_cache.info()["misses"]
        db.query(q)
        report = db.profile(q).profile
        assert "Records produced" in report
        assert db.engine.plan_cache.info()["misses"] == misses_after_explain

    def test_data_writes_do_not_invalidate(self, db):
        q = "MATCH (n:Person) RETURN count(n)"
        db.query(q)
        db.query("CREATE (:Person {name: 'new'})")  # no new label/reltype
        r = db.query(q)
        assert r.stats.cached_execution is True
        assert r.scalar() == 11


class TestSchemaVersionInvalidation:
    def test_new_label_bumps_version(self, db):
        v = db.graph.schema_version
        db.query("CREATE (:Brand)")
        assert db.graph.schema_version > v

    def test_new_reltype_bumps_version(self, db):
        v = db.graph.schema_version
        db.query("MATCH (a:Person {grp: 0}), (b:Person {grp: 1}) CREATE (a)-[:LIKES]->(b)")
        assert db.graph.schema_version > v

    def test_plain_data_write_does_not_bump(self, db):
        v = db.graph.schema_version
        db.query("MATCH (n:Person {grp: 0}) SET n.seen = true")
        db.query("CREATE (:Person {name: 'dup'})")  # label already known
        assert db.graph.schema_version == v

    def test_index_create_invalidates_cached_plan(self, db):
        q = "MATCH (n:Person {name: 'p1'}) RETURN n.grp"
        assert "NodeByLabelScan" in db.explain(q)
        db.query("CREATE INDEX ON :Person(name)")
        plan = db.explain(q)
        assert "IndexRangeScan" in plan
        assert db.query(q).scalar() == 1

    def test_index_drop_invalidates_cached_plan(self, db):
        db.query("CREATE INDEX ON :Person(name)")
        q = "MATCH (n:Person {name: 'p1'}) RETURN n.grp"
        assert "IndexRangeScan" in db.explain(q)
        db.query("DROP INDEX ON :Person(name)")
        assert "IndexRangeScan" not in db.explain(q)
        assert db.query(q).scalar() == 1

    def test_stale_entry_counts_as_miss(self, db):
        q = "MATCH (n:Person) RETURN count(n)"
        db.query(q)
        db.query("CREATE (:Brand)")  # bump
        r = db.query(q)
        assert r.stats.cached_execution is False

    def test_bulk_load_new_label_invalidates_cached_plan(self, db):
        """A plan compiled before a bulk load that introduces its label
        must recompile (schema_version bump) and return the new nodes."""
        q = "MATCH (n:Imported) RETURN count(n)"
        assert db.query(q).scalar() == 0  # compiled while :Imported is unknown
        assert db.query(q).stats.cached_execution is True
        report = db.bulk_insert(
            nodes=[{"labels": ["Imported"], "count": 7, "properties": {"v": list(range(7))}}]
        )
        assert report.labels_added == 1
        r = db.query(q)
        assert r.stats.cached_execution is False  # schema bump evicted it
        assert r.scalar() == 7
        assert db.query(q).stats.cached_execution is True  # recompiled once

    def test_bulk_load_known_labels_keep_cache_warm(self, db):
        """A bulk load that introduces nothing schema-shaped is a data
        write: cached plans survive and see the new rows."""
        q = "MATCH (n:Person) RETURN count(n)"
        before = db.query(q).scalar()
        db.bulk_insert(nodes=[{"labels": ["Person"], "count": 3}])
        r = db.query(q)
        assert r.stats.cached_execution is True
        assert r.scalar() == before + 3

    def test_bulk_load_new_reltype_invalidates_cached_plan(self, db):
        q = "MATCH ()-[:SHIPPED]->(b) RETURN count(b)"
        assert db.query(q).scalar() == 0
        db.bulk_insert(
            nodes=[{"labels": ["Depot"], "count": 2}],
            edges=[{"type": "SHIPPED", "src": [0], "dst": [1]}],
        )
        r = db.query(q)
        assert r.stats.cached_execution is False
        assert r.scalar() == 1


class TestCachePolicy:
    def test_lru_eviction(self):
        db = GraphDB("lru", GraphConfig(node_capacity=16, plan_cache_size=2))
        db.query("RETURN 1")
        db.query("RETURN 2")
        db.query("RETURN 3")  # evicts "RETURN 1"
        assert len(db.engine.plan_cache) == 2
        assert db.query("RETURN 2").stats.cached_execution is True
        assert db.query("RETURN 1").stats.cached_execution is False

    def test_zero_capacity_disables(self):
        db = GraphDB("off", GraphConfig(node_capacity=16, plan_cache_size=0))
        db.query("RETURN 1")
        assert db.query("RETURN 1").stats.cached_execution is False
        assert len(db.engine.plan_cache) == 0

    def test_runtime_resize_knob(self, db):
        db.query("RETURN 1")
        v = db.graph.schema_version
        db.engine.set_plan_cache_size(0)
        assert db.graph.schema_version > v  # config change bumps
        assert len(db.engine.plan_cache) == 0
        assert db.query("RETURN 1").stats.cached_execution is False
        db.engine.set_plan_cache_size(8)
        db.query("RETURN 1")
        assert db.query("RETURN 1").stats.cached_execution is True

    def test_negative_capacity_rejected(self, db):
        with pytest.raises(ValueError):
            db.engine.set_plan_cache_size(-1)
        with pytest.raises(ValueError):
            GraphConfig(plan_cache_size=-1).validate()

    def test_plan_cache_unit_staleness(self):
        cache = PlanCache(4)
        compiled = compile_query("RETURN 1", PlanSchema(version=3))
        cache.put(compiled)
        assert cache.get("RETURN 1", 3) is compiled
        assert cache.get("RETURN 1", 4) is None  # stale: evicted on sight
        assert cache.get("RETURN 1", 3) is None


class TestExplainParams:
    def test_explain_accepts_params(self, db):
        plan = db.explain("MATCH (n:Person {grp: $g}) RETURN n", {"g": 1})
        assert "NodeByLabelScan" in plan

    def test_explain_rejects_missing_param(self, db):
        with pytest.raises(CypherSemanticError, match="missing query parameter"):
            db.explain("MATCH (n:Person {grp: $g}) RETURN n.x + $other", {"g": 1})

    def test_explain_without_params_skips_check(self, db):
        # bare EXPLAIN of a parameterized query still renders the plan
        assert "Results" in db.explain("MATCH (n:Person {grp: $g}) RETURN n")


class TestProfilePerRun:
    def test_profile_counters_do_not_accumulate_across_runs(self, db):
        q = "MATCH (n:Person) RETURN n.name"

        def row_counts(report):
            return [line.split(", Execution time")[0] for line in report.splitlines()]

        first = db.profile(q).profile
        second = db.profile(q).profile
        # cached plan, fresh counters each run — a second PROFILE must not
        # report doubled record counts
        assert row_counts(first) == row_counts(second)

    def test_profile_does_not_disturb_plain_queries(self, db):
        q = "MATCH (n:Person) RETURN count(n)"
        db.query(q)
        db.profile(q)
        assert db.query(q).scalar() == 10


class TestConcurrentCachedExecution:
    def test_many_readers_one_cached_plan(self, db):
        """Acceptance: concurrent executions of ONE cached plan produce
        correct, independent results.  OPTIONAL MATCH exercises the
        Argument seeding that used to live on the (shared) plan ops."""
        q = (
            "MATCH (a:Person {grp: $g}) "
            "OPTIONAL MATCH (a)-[:KNOWS]->(b) "
            "RETURN a.name, count(b) ORDER BY a.name"
        )
        expected = {g: db.query(q, {"g": g}).rows for g in (0, 1, 2)}
        assert len(db.engine.plan_cache) >= 1
        errors = []
        mismatches = []

        def reader(g):
            try:
                for _ in range(25):
                    rows = db.query(q, {"g": g}).rows
                    if rows != expected[g]:
                        mismatches.append((g, rows))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(g,)) for g in (0, 1, 2) * 3]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        assert mismatches == []

    def test_concurrent_profile_and_query(self, db):
        q = "MATCH (a:Person)-[:KNOWS]->(b) RETURN count(b)"
        expected = db.query(q).scalar()
        errors = []

        def plain():
            try:
                for _ in range(20):
                    assert db.query(q).scalar() == expected
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def profiled():
            try:
                for _ in range(10):
                    result = db.profile(q)
                    report = result.profile
                    assert result.scalar() == expected
                    assert "Records produced" in report
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=plain) for _ in range(3)]
        threads += [threading.Thread(target=profiled) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors


class TestWarmCacheSpeedup:
    def test_warm_path_skips_compilation(self, db):
        """Repeated parameterized queries must be much faster warm than
        cold (the bench arm measures the headline >=5x; this guards the
        mechanism with a safety margin for noisy CI boxes)."""
        q = "MATCH (a:Person)-[:KNOWS]->(b) WHERE id(a) = $src RETURN count(b)"
        db.query(q, {"src": 0})  # populate

        n = 60
        t0 = time.perf_counter()
        for i in range(n):
            db.engine.plan_cache.clear()
            db.query(q, {"src": i % 10})
        cold = time.perf_counter() - t0

        t0 = time.perf_counter()
        for i in range(n):
            db.query(q, {"src": i % 10})
        warm = time.perf_counter() - t0

        assert db.query(q, {"src": 0}).stats.cached_execution is True
        assert cold / warm > 2.0, f"warm cache not faster: cold={cold:.4f}s warm={warm:.4f}s"


class TestReadYourWrites:
    def test_write_query_sees_own_edges(self, db):
        """Write executions must NOT memoize matrix operands: a traversal
        after CREATE in the same query observes the new edge."""
        r = db.query(
            "MATCH (a:Person {name: 'p0'}), (b:Person {name: 'p9'}) "
            "CREATE (a)-[:MENTORS]->(b) "
            "WITH a MATCH (a)-[:MENTORS]->(x) RETURN x.name"
        )
        assert r.rows == [("p9",)]


def test_schema_version_monotonic_under_mixed_ops():
    g = Graph("mono", GraphConfig(node_capacity=16))
    seen = [g.schema_version]
    g.create_node(["A"], {})
    seen.append(g.schema_version)
    n1 = g.create_node(["A"], {})
    n2 = g.create_node(["B"], {"k": 1})
    seen.append(g.schema_version)
    g.create_edge(n1.id, "R", n2.id)
    seen.append(g.schema_version)
    g.create_index("B", "k")
    seen.append(g.schema_version)
    g.drop_index("B", "k")
    seen.append(g.schema_version)
    assert seen == sorted(seen)
    assert len(set(seen)) == len(seen)  # every schema-shaping op bumped
