"""Expected replies, computed without the program (`repro` is not imported).

* k-hop counts: level-synchronous BFS as `scipy.sparse` products on the
  deduplicated edge list;
* `agg` / `wide`: NumPy group-by over the generated columns;
* `social_mix`: a dict model per connection, which owns one `uid`
  partition, so its replies do not depend on what the other connection
  did.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Tuple

import numpy as np
import scipy.sparse as sp

from gen import city_name


def khop_counts(src: np.ndarray, dst: np.ndarray, n: int, seeds: np.ndarray, k: int) -> np.ndarray:
    """For each seed, the number of distinct vertices first reached
    after 1..k hops (the paper's k-hop neighbourhood count; the seed
    itself never counts, even when a cycle returns to it)."""
    adj = sp.csr_matrix((np.ones(len(src), dtype=np.int32), (src, dst)), shape=(n, n))
    adj.data[:] = 1  # the constructor summed duplicate edges
    rows = np.arange(len(seeds))
    visited = sp.csr_matrix((np.ones(len(seeds), dtype=np.int32), (rows, seeds)), shape=(len(seeds), n))
    frontier = visited
    for _ in range(k):
        frontier = frontier @ adj
        frontier.data[:] = 1
        frontier = frontier - frontier.multiply(visited)
        frontier.eliminate_zeros()
        if frontier.nnz == 0:
            break
        visited = visited + frontier
    return np.asarray(visited.getnnz(axis=1)) - 1


def agg_expected(cols: Dict[str, np.ndarray], age_above: int) -> Dict[str, Tuple[int, float]]:
    """`WHERE p.age > $a RETURN p.city, count(*), avg(p.age)` as city -> (count, avg)."""
    keep = cols["age"] > age_above
    city = cols["city"][keep]
    count = np.bincount(city)
    total = np.bincount(city, weights=cols["age"][keep])
    return {city_name(c): (int(count[c]), float(total[c] / count[c])) for c in np.flatnonzero(count)}


def wide_expected(cols: Dict[str, np.ndarray], age: int) -> List[list]:
    """`WHERE p.age = $a RETURN p` as encoded nodes, ordered by node id."""
    return [
        [
            "node",
            int(i),
            ["Person"],
            [["age", age], ["city", city_name(cols["city"][i])], ["score", int(cols["score"][i])], ["uid", int(i)]],
        ]
        for i in np.flatnonzero(cols["age"] == age)
    ]


class SocialModel:
    """What one connection expects of the uids it owns.

    The base columns are shared and never mutated; a connection's writes
    land in its own overlay dicts.  Every read the schedule issues asks
    only for things this connection alone can change: properties of an
    owned `uid`, or the (immutable) uids of an owned person's friends.
    """

    def __init__(self, cols: Dict[str, np.ndarray], friends_ptr: np.ndarray, friends_dst: np.ndarray) -> None:
        self.base_n = len(cols["uid"])
        self._age = cols["age"]
        self._city = cols["city"]
        self._score = cols["score"]
        self._ptr = friends_ptr
        self._dst = friends_dst
        self.score: Dict[int, int] = {}  # acknowledged SETs
        self.created: Dict[int, Tuple[int, str, int]] = {}  # uid -> (age, city, score)
        self.new_friends: Dict[int, List[int]] = {}  # src uid -> sorted created dsts

    def person(self, uid: int) -> list:
        """[age, city, score] of an owned uid."""
        if uid >= self.base_n:
            age, city, score = self.created[uid]
            return [age, city, self.score.get(uid, score)]
        return [int(self._age[uid]), city_name(self._city[uid]), self.score.get(uid, int(self._score[uid]))]

    def friends(self, uid: int) -> List[int]:
        """Friend uids of an owned uid, ascending, one entry per edge."""
        base = self._dst[self._ptr[uid] : self._ptr[uid + 1]].tolist() if uid < self.base_n else []
        extra = self.new_friends.get(uid)
        return sorted(base + extra) if extra else base

    def set_score(self, uid: int, score: int) -> None:
        self.score[uid] = score

    def create_person(self, uid: int, age: int, city: str, score: int) -> None:
        self.created[uid] = (age, city, score)

    def create_knows(self, src: int, dst: int) -> None:
        bisect.insort(self.new_friends.setdefault(src, []), dst)

    @property
    def created_edges(self) -> int:
        return sum(len(dsts) for dsts in self.new_friends.values())


def friends_index(src: np.ndarray, dst: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """CSR of the generated `:KNOWS` edges with each row's dsts ascending."""
    order = np.lexsort((dst, src))
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=ptr[1:])
    return ptr, dst[order]
