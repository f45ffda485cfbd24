"""The four workloads: their data, their op streams and their oracles.

A `Workload` holds everything generated from the seed (bulk-load chunks,
schedule arrays, expected replies).  A `Session` is the mutable part
that belongs to one server instance: the op iterators and, for
`social_mix`, the per-connection models.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Callable, Dict, Iterator, List, Sequence

import numpy as np

import gen
import oracle
from wire import Conn, Op

KEY = "g"
BULK_CHUNK = 100_000  # edges per GRAPH.BULK EDGES chunk
SCHEDULE = 1 << 16  # ops generated per connection; a stream cycles when it runs out

KHOP = "CYPHER seed={seed} MATCH (s:V)-[:E*1..{k}]->(m) WHERE id(s) = $seed RETURN count(DISTINCT m)"
POINT = "CYPHER u={u} MATCH (p:Person) WHERE p.uid = $u RETURN p.age, p.city, p.score"
POINT_INLINED = "MATCH (p:Person) WHERE p.uid = {u} RETURN p.age, p.city, p.score, {op} AS op"
FRIENDS = "CYPHER u={u} MATCH (p:Person)-[:KNOWS]->(f) WHERE p.uid = $u RETURN f.uid ORDER BY f.uid LIMIT 10"
ALL_FRIENDS = "CYPHER u={u} MATCH (p:Person)-[:KNOWS]->(f) WHERE p.uid = $u RETURN f.uid ORDER BY f.uid"
SET_SCORE = "CYPHER u={u} s={s} MATCH (p:Person) WHERE p.uid = $u SET p.score = $s"
CREATE_PERSON = "CYPHER u={u} a={a} c='{c}' s={s} CREATE (:Person {{uid: $u, age: $a, city: $c, score: $s}})"
CREATE_KNOWS = (
    "CYPHER u={u} v={v} MATCH (a:Person), (b:Person) WHERE a.uid = $u AND b.uid = $v CREATE (a)-[:KNOWS]->(b)"
)
COUNT_PERSONS = "MATCH (p:Person) RETURN count(p)"
COUNT_KNOWS = "MATCH ()-[r:KNOWS]->() RETURN count(r)"
AGG = "CYPHER a={a} MATCH (p:Person) WHERE p.age > $a RETURN p.city, count(*), avg(p.age)"
WIDE = "CYPHER a={a} MATCH (p:Person) WHERE p.age = $a RETURN p"


def rows_are(expected: list) -> Callable[[list], bool]:
    return lambda reply: reply[1] == expected


def stat_has(line: str) -> Callable[[list], bool]:
    return lambda reply: line in reply[2]


def bulk_chunks(nodes: dict, reltype: str, src: np.ndarray, dst: np.ndarray) -> List[tuple]:
    """The GRAPH.BULK chunks of one dataset, serialised once."""
    chunks = [("NODES", json.dumps(nodes))]
    for i in range(0, len(src), BULK_CHUNK):
        chunk = {"type": reltype, "src": src[i : i + BULK_CHUNK].tolist(), "dst": dst[i : i + BULK_CHUNK].tolist()}
        chunks.append(("EDGES", json.dumps(chunk)))
    return chunks


def bulk_load(conn: Conn, chunks: Sequence[tuple]) -> None:
    token = conn.call("GRAPH.BULK", KEY, "BEGIN")
    for sub, chunk in chunks:
        conn.call("GRAPH.BULK", KEY, sub, token, chunk)
    conn.call("GRAPH.BULK", KEY, "COMMIT", token)


class Session:
    """Op streams (and models) tied to one freshly loaded server."""

    def __init__(self, streams: List[Iterator[Op]], models: Sequence[oracle.SocialModel] = ()) -> None:
        self.streams = streams
        self.models = models


class Workload:
    name: str
    connections = 1
    data_dir = False
    warmup_ops = 200  # per connection, the last step of set-up
    # end-to-end latency metric -> op class that feeds it on this workload, the main class first
    latency_metrics: Dict[str, str] = {}

    fingerprint: str
    _chunks: List[tuple]

    @property
    def classes(self) -> List[str]:
        return list(self.latency_metrics.values())

    def load(self, conn: Conn) -> None:
        bulk_load(conn, self._chunks)

    def session(self) -> Session:
        raise NotImplementedError

    def recovered(self, conn: Conn, session: Session) -> bool:
        """Is the first reply after a respawn the right one?"""
        return conn.call("PING") == "PONG"


class _Khop(Workload):
    latency_metrics = {"p50_ms": "hop"}
    hops: int
    seed_pool = 0  # 0: every vertex with an out-edge may be a seed

    def __init__(self, seed: int, smoke: bool) -> None:
        rng = np.random.default_rng([seed, 1])  # both k-hop workloads traverse the same graph
        src, dst, n = gen.rmat_edges(rng, 9 if smoke else 14, 16)
        self._chunks = bulk_chunks({"count": n, "labels": ["V"]}, "E", src, dst)
        pick = np.random.default_rng([seed, 2, self.hops])
        candidates = np.unique(src)
        if self.seed_pool:
            candidates = pick.choice(candidates, self.seed_pool, replace=False)
        self._counts = dict(zip(candidates.tolist(), oracle.khop_counts(src, dst, n, candidates, self.hops).tolist()))
        self._schedules = [pick.choice(candidates, SCHEDULE) for _ in range(self.connections)]
        self.fingerprint = gen.fingerprint(src, dst, *self._schedules)

    def _stream(self, seeds: np.ndarray) -> Iterator[Op]:
        for seed in itertools.cycle(seeds.tolist()):
            yield Op("hop", KHOP.format(seed=seed, k=self.hops), rows_are([[self._counts[seed]]]))

    def session(self) -> Session:
        return Session([self._stream(s) for s in self._schedules])


class Khop1(_Khop):
    name = "khop1"
    hops = 1


class KhopDeep(_Khop):
    name = "khop_deep"
    hops = 6
    connections = 2
    warmup_ops = 10
    seed_pool = 64  # one BFS each in the oracle; the server keeps no result cache to hit


def _social(seed: int, smoke: bool):
    """The social dataset, shared by `social_mix` and `analytic`."""
    persons, knows = (400, 4_000) if smoke else (20_000, 200_000)
    cols = gen.social_columns(np.random.default_rng([seed, 3]), persons, knows)
    nodes = {
        "labels": ["Person"],
        "props": {
            "uid": cols["uid"].tolist(),
            "age": cols["age"].tolist(),
            "city": [gen.city_name(c) for c in cols["city"]],
            "score": cols["score"].tolist(),
        },
    }
    return cols, bulk_chunks(nodes, "KNOWS", cols["src"], cols["dst"])


def _social_fingerprint(cols: Dict[str, np.ndarray], schedules) -> str:
    return gen.fingerprint(*(cols[k] for k in sorted(cols)), *schedules)


class SocialMix(Workload):
    name = "social_mix"
    connections = 2
    data_dir = True
    latency_metrics = {"read_p50_ms": "read", "miss_p50_ms": "miss", "write_p50_ms": "write"}
    # 50 % point read, 20 % friends, 10 % inlined point read, 10 % SET, 5 % + 5 % CREATE
    KINDS = ("point", "friends", "miss", "set", "person", "knows")
    SHARES = (0.50, 0.20, 0.10, 0.10, 0.05, 0.05)

    def __init__(self, seed: int, smoke: bool) -> None:
        self._cols, self._chunks = _social(seed, smoke)
        self._persons = len(self._cols["uid"])
        self._friends = oracle.friends_index(self._cols["src"], self._cols["dst"], self._persons)
        rng = np.random.default_rng([seed, 4])
        # per connection: op kind, which owned uid, and a spare draw (new score, age, other endpoint)
        self._schedules = [
            (
                rng.choice(len(self.KINDS), SCHEDULE, p=self.SHARES),
                rng.integers(0, self._persons // 2, SCHEDULE),
                rng.integers(0, 1 << 30, SCHEDULE),
            )
            for _ in range(self.connections)
        ]
        self.fingerprint = _social_fingerprint(self._cols, [a for s in self._schedules for a in s])

    def load(self, conn: Conn) -> None:
        super().load(conn)
        conn.query(KEY, "CREATE INDEX ON :Person(uid)")
        conn.call("GRAPH.SAVE", KEY)

    def _stream(self, parity: int, model: oracle.SocialModel, only_writes: bool = False) -> Iterator[Op]:
        """Connection `parity` touches only uids of its own parity, so its
        model alone decides what each of its replies must be."""
        kinds, picks, spares = (a.tolist() for a in self._schedules[parity])
        for step in itertools.count():
            i = step % SCHEDULE
            kind = self.KINDS[kinds[i]]
            uid = 2 * picks[i] + parity
            spare = spares[i]
            if only_writes and kind in ("point", "friends", "miss"):
                continue
            if kind == "point":
                yield Op("read", POINT.format(u=uid), rows_are([model.person(uid)]))
            elif kind == "friends":
                yield Op("read", FRIENDS.format(u=uid), rows_are([[f] for f in model.friends(uid)[:10]]))
            elif kind == "miss":
                op_id = 2 * step + parity  # a literal no earlier text had: the plan cache cannot hit
                yield Op("miss", POINT_INLINED.format(u=uid, op=op_id), rows_are([model.person(uid) + [op_id]]))
            elif kind == "set":
                score = spare % gen.SCORES
                model.set_score(uid, score)
                yield Op("write", SET_SCORE.format(u=uid, s=score), stat_has("Properties set: 1"))
            elif kind == "person":
                new = self._persons + 2 * len(model.created) + parity  # the person count is even
                age = gen.AGE_LOW + spare % (gen.AGE_HIGH - gen.AGE_LOW)
                city = gen.city_name(spare % gen.CITIES)
                model.create_person(new, age, city, spare % gen.SCORES)
                yield Op(
                    "write",
                    CREATE_PERSON.format(u=new, a=age, c=city, s=spare % gen.SCORES),
                    stat_has("Nodes created: 1"),
                )
            else:
                other = spare % self._persons
                known = model.friends(uid)
                while other == uid or other in known:  # no parallel edge, see gen.social_columns
                    other = (other + 1) % self._persons
                model.create_knows(uid, other)
                yield Op("write", CREATE_KNOWS.format(u=uid, v=other), stat_has("Relationships created: 1"))

    def session(self) -> Session:
        models = [oracle.SocialModel(self._cols, *self._friends) for _ in range(self.connections)]
        return Session([self._stream(p, m) for p, m in enumerate(models)], models)

    def write_streams(self, session: Session) -> List[Iterator[Op]]:
        """The same schedules, reads skipped: a fixed-size log for the timed recovery."""
        return [self._stream(p, m, only_writes=True) for p, m in enumerate(session.models)]

    def _totals(self, session: Session):
        persons = self._persons + sum(len(m.created) for m in session.models)
        knows = len(self._cols["src"]) + sum(m.created_edges for m in session.models)
        return persons, knows

    def recovered(self, conn: Conn, session: Session) -> bool:
        return conn.query(KEY, COUNT_PERSONS)[1] == [[self._totals(session)[0]]]

    def sweep(self, session: Session) -> List[Op]:
        """After a kill and respawn: totals equal initial + acknowledged
        creates, and every acknowledged SET / CREATE reads back."""
        persons, knows = self._totals(session)
        ops = [
            Op("sweep", COUNT_PERSONS, rows_are([[persons]])),
            Op("sweep", COUNT_KNOWS, rows_are([[knows]])),
        ]
        for model in session.models:
            for uid in sorted(set(model.score) | set(model.created)):
                ops.append(Op("sweep", POINT.format(u=uid), rows_are([model.person(uid)])))
            for uid in sorted(model.new_friends):
                ops.append(Op("sweep", ALL_FRIENDS.format(u=uid), rows_are([[f] for f in model.friends(uid)])))
        return ops


class Analytic(Workload):
    name = "analytic"
    warmup_ops = 10
    latency_metrics = {"agg_p50_ms": "agg", "wide_p50_ms": "wide"}

    def __init__(self, seed: int, smoke: bool) -> None:
        cols, self._chunks = _social(seed, smoke)
        # `agg` keeps three quarters of the rows or more, so that its cost is
        # one number and not a range; `wide` returns one age's ~1/64 of them
        agg_ages = range(gen.AGE_LOW, gen.AGE_LOW + 16)
        wide_ages = range(gen.AGE_LOW, gen.AGE_HIGH)
        self._agg = {a: oracle.agg_expected(cols, a) for a in agg_ages}
        self._wide = {a: oracle.wide_expected(cols, a) for a in wide_ages}
        rng = np.random.default_rng([seed, 5])
        self._agg_ages = rng.choice(agg_ages, SCHEDULE)
        self._wide_ages = rng.choice(wide_ages, SCHEDULE)
        self.fingerprint = _social_fingerprint(cols, [self._agg_ages, self._wide_ages])

    @staticmethod
    def _agg_matches(expected: Dict[str, tuple], reply: list) -> bool:
        rows = reply[1]
        if len(rows) != len(expected):
            return False
        for city, count, avg in rows:
            want = expected.get(city)
            if want is None or count != want[0] or not math.isclose(float(avg), want[1], rel_tol=1e-9):
                return False
        return True

    @staticmethod
    def _wide_matches(expected: list, reply: list) -> bool:
        return sorted((row[0] for row in reply[1]), key=lambda node: node[1]) == expected

    def _stream(self) -> Iterator[Op]:
        for a, w in itertools.cycle(zip(self._agg_ages.tolist(), self._wide_ages.tolist())):
            yield Op("agg", AGG.format(a=a), lambda reply, e=self._agg[a]: self._agg_matches(e, reply))
            yield Op("wide", WIDE.format(a=w), lambda reply, e=self._wide[w]: self._wide_matches(e, reply))

    def session(self) -> Session:
        return Session([self._stream()])


WORKLOADS = {w.name: w for w in (Khop1, KhopDeep, SocialMix, Analytic)}
