"""Input generation for the ledger benchmark: everything comes from `--seed`.

The harness owns its generators (it does not import the program's
`repro.datasets`), so the program only ever receives generated inputs
and a change to the program's own generators cannot move the baseline.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np

# Graph500 Kronecker initiator (the specification's A, B, C; D is the rest)
RMAT_A, RMAT_B, RMAT_C = 0.57, 0.19, 0.19

CITIES = 50
AGE_LOW, AGE_HIGH = 18, 82  # ages are drawn from [AGE_LOW, AGE_HIGH)
SCORES = 10_000


def rmat_edges(rng: np.random.Generator, scale: int, edge_factor: int):
    """Directed R-MAT edge list per the Graph500 specification: one
    quadrant draw per level and edge, vertex labels permuted afterwards
    so that an id says nothing about degree.  Duplicate edges stay (the
    generator emits them and the adjacency matrix collapses them);
    self-loops are dropped, as Graph500's kernel 1 does."""
    n = 1 << scale
    m = edge_factor * n
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    ab = RMAT_A + RMAT_B
    abc = ab + RMAT_C
    for _ in range(scale):
        r = rng.random(m)
        src = (src << 1) | (r >= ab)
        dst = (dst << 1) | (((r >= RMAT_A) & (r < ab)) | (r >= abc))
    perm = rng.permutation(n)
    src, dst = perm[src], perm[dst]
    keep = src != dst
    return src[keep], dst[keep], n


def social_columns(rng: np.random.Generator, persons: int, knows: int) -> Dict[str, np.ndarray]:
    """`:Person {uid, age, city, score}` columns and `:KNOWS` endpoints.
    `uid` equals the row number, which is also the node id the bulk
    loader assigns; scores are integers so that no reply depends on how
    a float prints.  No pair is drawn twice and nobody knows themselves:
    the program stores parallel edges but matches them once per pair."""
    src = rng.integers(0, persons, knows)
    dst = rng.integers(0, persons, knows)
    pairs = rng.permutation(np.unique(src[src != dst] * persons + dst[src != dst]))
    return {
        "uid": np.arange(persons, dtype=np.int64),
        "age": rng.integers(AGE_LOW, AGE_HIGH, persons),
        "city": rng.integers(0, CITIES, persons),
        "score": rng.integers(0, SCORES, persons),
        "src": pairs // persons,
        "dst": pairs % persons,
    }


def city_name(code: int) -> str:
    return f"c{code:02d}"


def fingerprint(*arrays: np.ndarray) -> str:
    """sha256 over the generated arrays (data columns and op schedule)."""
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(str((array.dtype.str, array.shape)).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()
