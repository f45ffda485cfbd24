"""IVF vector-search ablation — partitioned top-k vs the exact flat scan.

The workload is ~200k :Doc nodes carrying 64-d embeddings drawn from a
mixture of clusters (the regime IVF partitioning serves: coarse-quantizer
buckets approximate the clusters, so a handful of probes recovers the
true neighbours).  The same top-k query runs through two indexes over the
same rows: one trained IVF index (nlist ~ sqrt(N), default nprobe) and
one pinned ``exact: true`` (PR 9's brute-force matmul, the oracle).

The acceptance bar (asserted even under ``--benchmark-disable``): the IVF
query is >= 5x faster than the exact scan, and recall@10 against the
exact answer stays >= 0.95 averaged over a seeded query batch.
``REPRO_BENCH_VECTOR_SPEEDUP_MIN`` / ``REPRO_BENCH_VECTOR_RECALL_MIN``
override the floors; measured speedup and recall land in the benchmark
JSON artifact via ``extra_info``.  The ``exact: true`` arm is also
asserted byte-identical (ids and scores) to an independent numpy oracle.
"""

import os
import time

import numpy as np
import pytest

from repro import GraphDB
from repro.graph.config import GraphConfig
from repro.graph.index import VectorIndex

VEC_N = int(os.environ.get("REPRO_BENCH_VECTOR_N", "200000"))
VEC_DIM = int(os.environ.get("REPRO_BENCH_VECTOR_DIM", "64"))
VEC_K = 10
N_CLUSTERS = 64
N_QUERIES = 20


def clustered_vectors(rng, n, dim):
    """Rows around N_CLUSTERS random unit directions + noise."""
    centers = rng.normal(size=(N_CLUSTERS, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    assign = rng.integers(0, N_CLUSTERS, size=n)
    return centers[assign] + 0.15 * rng.normal(size=(n, dim)), centers


@pytest.fixture(scope="module")
def vec_db():
    d = GraphDB("bench-ivf", GraphConfig(node_capacity=1024))
    rng = np.random.default_rng(17)
    vecs, centers = clustered_vectors(rng, VEC_N, VEC_DIM)
    d.bulk_insert(
        nodes=[{
            "labels": ("Doc",),
            "count": VEC_N,
            "properties": {"emb": [row.tolist() for row in vecs]},
        }],
        edges=[],
    )
    d.query(f"CREATE VECTOR INDEX ON :Doc(emb) OPTIONS {{dimension: {VEC_DIM}}}")
    ivf = d.graph.get_vector_index("Doc", "emb")
    assert ivf.trained, "bulk load past DEFAULT_TRAIN_MIN must train the quantizer"
    # the exact arm: a standalone `exact: true` index over the same rows —
    # PR 9's flat brute-force path, the timing baseline and answer oracle
    exact = VectorIndex(0, 10, dim=VEC_DIM, exact=True)
    exact.bulk_insert([row.tolist() for row in vecs], list(range(VEC_N)))
    # queries near cluster centers — the realistic ANN lookup pattern
    queries = [
        (centers[i % N_CLUSTERS] + 0.1 * rng.normal(size=VEC_DIM)).tolist()
        for i in range(N_QUERIES)
    ]
    return d, vecs, exact, queries


def brute_force_topk(vecs: np.ndarray, q, k: int):
    """Independent numpy oracle: normalize, matmul, lexsort with id
    tie-break."""
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    unit = np.divide(vecs, norms, out=np.zeros_like(vecs), where=norms > 0)
    qv = np.asarray(q, dtype=np.float64)
    qn = float(np.linalg.norm(qv))
    if qn > 0:
        qv = qv / qn
    scores = unit @ qv
    order = np.lexsort((np.arange(len(vecs)), -scores))[:k]
    return order.tolist(), scores[order]


def recall_at_k(ivf_ids, exact_ids):
    return len(set(int(i) for i in ivf_ids) & set(int(i) for i in exact_ids)) / max(
        1, len(exact_ids)
    )


def test_exact_arm_matches_oracle_bit_for_bit(vec_db):
    """``exact: true`` must reproduce the brute-force scan exactly — the
    IVF arm is measured against a trusted baseline, not a drifted one."""
    d, vecs, exact, queries = vec_db
    for q in queries[:5]:
        exact_ids, exact_scores = exact.query(q, VEC_K)
        oracle_ids, oracle_scores = brute_force_topk(vecs, q, VEC_K)
        assert [int(i) for i in exact_ids] == oracle_ids
        assert np.allclose(exact_scores, oracle_scores)


def test_ivf_topk(benchmark, vec_db):
    d, vecs, exact, queries = vec_db
    ivf = d.graph.get_vector_index("Doc", "emb")
    benchmark.extra_info["vectors"] = VEC_N
    benchmark.extra_info["dim"] = VEC_DIM
    benchmark.extra_info["nlist"] = ivf.nlist
    benchmark.extra_info["nprobe"] = ivf.nprobe
    benchmark(ivf.query, queries[0], VEC_K)


def test_ivf_speedup_and_recall_headline(benchmark, vec_db):
    """The acceptance check: IVF top-k >= 5x faster than the exact flat
    scan at 200k x 64d, with recall@10 >= 0.95 over the query batch."""
    d, vecs, exact, queries = vec_db
    ivf = d.graph.get_vector_index("Doc", "emb")

    recalls = []
    for q in queries:
        ivf_ids, _ = ivf.query(q, VEC_K)
        exact_ids, _ = brute_force_topk(vecs, q, VEC_K)
        recalls.append(recall_at_k(ivf_ids, exact_ids))
    recall = float(np.mean(recalls))

    def best_of(trials, fn):
        best = float("inf")
        for _ in range(trials):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    def run_batch(index):
        for q in queries:
            index.query(q, VEC_K)

    exact_s = best_of(3, lambda: run_batch(exact))
    ivf_s = best_of(3, lambda: run_batch(ivf))
    speedup = exact_s / ivf_s

    benchmark.extra_info["vectors"] = VEC_N
    benchmark.extra_info["dim"] = VEC_DIM
    benchmark.extra_info["nlist"] = ivf.nlist
    benchmark.extra_info["nprobe"] = ivf.nprobe
    benchmark.extra_info["exact_s"] = round(exact_s, 6)
    benchmark.extra_info["ivf_s"] = round(ivf_s, 6)
    benchmark.extra_info["ivf_speedup"] = round(speedup, 2)
    benchmark.extra_info["recall_at_10"] = round(recall, 4)
    benchmark(run_batch, ivf)

    speedup_floor = float(os.environ.get("REPRO_BENCH_VECTOR_SPEEDUP_MIN", "5"))
    recall_floor = float(os.environ.get("REPRO_BENCH_VECTOR_RECALL_MIN", "0.95"))
    print(
        f"\nivf top-k ({VEC_N} x {VEC_DIM}d, nlist={ivf.nlist}, nprobe={ivf.nprobe}, "
        f"{N_QUERIES} queries): exact={exact_s:.4f}s ivf={ivf_s:.4f}s "
        f"-> {speedup:.1f}x, recall@{VEC_K}={recall:.3f}"
    )
    assert speedup >= speedup_floor, (
        f"IVF only {speedup:.1f}x faster than exact (need >= {speedup_floor}x)"
    )
    assert recall >= recall_floor, (
        f"recall@{VEC_K} {recall:.3f} below {recall_floor}"
    )


def test_ivf_via_procedure(benchmark, vec_db):
    d, vecs, exact, queries = vec_db
    q = queries[0]
    call = (
        "CALL db.idx.vector.query('Doc', 'emb', $q, $k) "
        "YIELD node, score RETURN id(node)"
    )
    rows = d.query(call, {"q": q, "k": VEC_K}).rows
    exact_ids, _ = brute_force_topk(vecs, q, VEC_K)
    assert recall_at_k([r[0] for r in rows], exact_ids) >= 0.8  # single query
    benchmark(lambda: d.query(call, {"q": q, "k": VEC_K}).rows)
