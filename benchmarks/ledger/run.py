#!/usr/bin/env python3
"""The performance ledger: four RESP-to-RESP workloads with named metrics.

One run of one workload (what `BENCHMARK.json`'s command does):

    python3 benchmarks/ledger/run.py --workload khop1 --seed 11 --seconds 8 --trace 0

prints every end-to-end metric by name (`--trace 1`: every per-layer
metric, from a second, probed server) and ends with one JSON line.

A ledger row (all workloads, untraced and traced, written to a file):

    python3 benchmarks/ledger/run.py --seed 11 --out BENCH.json [--workload NAME] [--smoke]
    python3 benchmarks/ledger/run.py compare A.json B.json

See README.md in this directory for what each name means.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: the program's source is not at {ROOT / 'src'}; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from spans import LAYER_SPANS, Request, SpanFile  # noqa: E402
from wire import Conn, Done, LoopResult, Server, drive  # noqa: E402
from workloads import KEY, WORKLOADS, Session, Workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUPS = 3  # servers set up (and recoveries timed) per run; each measures a third of the seconds
BLOCKS = 6  # a metric's value is the median over this many equal-count slices of the measured ops
RECOVERIES = 5  # timed recoveries per run; their median is reported
RECOVERY_WRITES = 500  # size of the log a timed recovery replays
SMOKE_SECONDS = 0.5
FLUSH_POLICY = "wal_fsync=everysec, auto_snapshot_ops=0; SIGKILL keeps the OS cache"
ALL_CPUS = sorted(os.sched_getaffinity(0))
LATENCY_METRICS = [spec["name"] for spec in SPEC["end_to_end"] if spec["name"].endswith("p50_ms")]
TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0)


class Stat(NamedTuple):
    value: float
    spread: float  # (q3 - q1) / median of the values the median was taken over
    samples: List[float]


def stat(samples: Sequence[float]) -> Stat:
    samples = [float(s) for s in samples]
    middle = statistics.median(samples)
    if len(samples) < 2 or middle == 0:
        return Stat(middle, 0.0, samples)
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return Stat(middle, (q3 - q1) / middle, samples)


class Tally:
    """Operations attempted and failed, over everything a run drives."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, ops: Sequence[Done]) -> None:
        self.attempted += len(ops)
        self.failed += sum(1 for op in ops if not op.ok)

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


class Phase(NamedTuple):
    """What one freshly set-up server contributed to a run."""

    setup_s: float
    warm: LoopResult
    loop: LoopResult  # its share of the measured seconds
    rss_mb: float
    wal_bytes: int  # log growth over `loop`
    spans: Optional[SpanFile]


class Measured(NamedTuple):
    """The raw material of one run of one workload, traced or not."""

    workload: Workload
    affinity: List[int]
    config: Dict[str, object]
    phases: List[Phase]
    recoveries: List[float]
    recovery_spans: List[SpanFile]
    tally: Tally

    @property
    def ops(self) -> List[Done]:
        return [op for phase in self.phases for op in phase.loop.ops]


def wal_size(data_dir: Optional[Path]) -> int:
    if data_dir is None:
        return 0
    return sum(p.stat().st_size for p in (data_dir / "wal").glob("*.log"))


def measure(workload: Workload, seconds: float, traced: bool, smoke: bool, workdir: Path) -> Measured:
    """Set up SETUPS servers one after another and measure on each for
    its share of `seconds`, so that what differs from process to process
    (memory layout, hash seeds) is inside a run and not between runs.
    Then crash the last server and time RECOVERIES recoveries."""
    setups, recoveries = (1, 1) if smoke else (SETUPS, RECOVERIES)
    affinity = ALL_CPUS[-1:]  # one CPU for generator and server, see README "Ground rules"
    os.sched_setaffinity(0, affinity)  # the servers inherit it
    workdir.mkdir(parents=True)
    tally = Tally()
    server = None
    data_dir = None
    conns: List[Conn] = []
    files = itertools.count()

    def crash() -> None:
        """SIGKILL the server; its connections are dead with it."""
        server.kill()
        while conns:
            conns.pop().close()

    def span_file() -> Optional[Path]:
        return workdir / f"spans-{next(files)}.jsonl" if traced else None

    def respawn() -> float:
        nonlocal server
        crash()
        started = time.perf_counter()
        server = Server(data_dir, span_file())
        conn = Conn(server.port)
        tally.check(workload.recovered(conn, session))
        elapsed = time.perf_counter() - started
        conn.close()
        return elapsed

    try:
        phases = []
        for i in range(setups):
            if server is not None:
                crash()
            data_dir = workdir / f"data-{i}" if workload.data_dir else None
            started = time.perf_counter()
            server = Server(data_dir, span_file())
            conns += [Conn(server.port) for _ in range(workload.connections)]
            workload.load(conns[0])
            session: Session = workload.session()
            warm = drive(KEY, conns, session.streams, server, count=workload.warmup_ops)
            setup_s = time.perf_counter() - started
            wal_before = wal_size(data_dir)
            loop = drive(KEY, conns, session.streams, server, seconds=seconds / setups)
            tally.add(warm.ops + loop.ops)
            phases.append(
                Phase(
                    setup_s, warm, loop, server.peak_rss_mb(), wal_size(data_dir) - wal_before,
                    SpanFile(server.dump_spans()) if traced else None,
                )
            )
        config = {name: value for name, value in conns[0].call("GRAPH.CONFIG", "GET", "*")}

        if workload.data_dir:
            # the log now holds however many writes the last server took:
            # check that a crash loses none of them, then cut the log to a
            # fixed size so that recovery time does not follow write throughput
            respawn()
            conns += [Conn(server.port) for _ in range(workload.connections)]
            sweep = workload.sweep(session)
            tally.add(drive(KEY, conns[:1], [iter(sweep)], server, count=len(sweep)).ops)
            conns[0].call("GRAPH.SAVE", KEY)
            writes = workload.write_streams(session)
            tally.add(drive(KEY, conns, writes, server, count=RECOVERY_WRITES // len(conns)).ops)
        recovery_times = []
        recovery_spans = []
        for _ in range(recoveries):
            recovery_times.append(respawn())
            if traced:
                recovery_spans.append(SpanFile(server.dump_spans()))
    finally:
        if server is not None:
            crash()
        os.sched_setaffinity(0, ALL_CPUS)
    return Measured(workload, affinity, config, phases, recovery_times, recovery_spans, tally)


# ----------------------------------------------------------------------
# End-to-end metrics
# ----------------------------------------------------------------------
class Block(NamedTuple):
    started: float  # the reply before its first op, or its phase's start
    ops: List[Done]


def blocks_of(m: Measured) -> List[Block]:
    """Each phase's ops in completion order, cut into equal counts:
    BLOCKS blocks over the whole run."""
    per_phase = BLOCKS // len(m.phases)
    blocks = []
    for phase in m.phases:
        ops = sorted(phase.loop.ops, key=lambda op: op.done)
        edges = [len(ops) * i // per_phase for i in range(per_phase + 1)]
        for a, b in zip(edges, edges[1:]):
            if b > a:
                blocks.append(Block(ops[a - 1].done if a else phase.loop.started, ops[a:b]))
    return blocks


def throughput(blocks: Sequence[Block]) -> Stat:
    """Correct ops per second, block by block."""
    return stat([sum(op.ok for op in b.ops) / (b.ops[-1].done - b.started) for b in blocks])


def latencies_ms(ops: Sequence[Done], cls: str) -> List[float]:
    return [(op.done - op.sent) * 1e3 for op in ops if op.cls == cls and op.ok]


def latency(blocks: Sequence[Block], cls: str) -> Stat:
    per_block = [latencies_ms(block.ops, cls) for block in blocks]
    return stat([statistics.median(block) for block in per_block if block])


def tail(m: Measured, cls: str) -> Optional[dict]:
    """The highest percentile with at least ten samples beyond it."""
    values = latencies_ms(m.ops, cls)
    for percentile in TAIL_LADDER:
        if len(values) * (1 - percentile / 100) >= 10:
            return {"percentile": percentile, "ms": float(np.percentile(values, percentile)), "samples": len(values)}
    return None


def end_to_end(m: Measured) -> Dict[str, dict]:
    """Every end-to-end metric of `BENCHMARK.json`.  A latency metric whose
    op class this workload does not issue repeats the workload's first
    class and is marked `native: false`."""
    workload = m.workload
    blocks = blocks_of(m)
    out: Dict[str, dict] = {}

    def put(name: str, value: Stat, native: bool = True, **extra) -> None:
        out[name] = {"value": value.value, "spread": value.spread, "samples": value.samples, "native": native, **extra}

    put("setup_s", stat([p.setup_s for p in m.phases]))
    put("throughput_ops_s", throughput(blocks))
    for name in LATENCY_METRICS:
        cls = workload.latency_metrics.get(name)
        put(name, latency(blocks, cls or workload.classes[0]), cls is not None, tail=tail(m, cls) if cls else None)
    put("recover_s", stat(m.recoveries))
    put("server_rss_mb", stat([p.rss_mb for p in m.phases]))
    for spec in SPEC["end_to_end"]:
        out[spec["name"]]["unit"] = spec["unit"]
    return out


# ----------------------------------------------------------------------
# Per-layer metrics (traced run)
# ----------------------------------------------------------------------
Pair = Tuple[Done, Request]  # a correct op and what the probes saw of it


def pairs_of(phases: Sequence[Phase], warm: bool = False) -> List[Pair]:
    out = []
    for phase in phases:
        ops = phase.warm.ops if warm else phase.loop.ops
        out += [(op, phase.spans.requests[op.rid]) for op in ops if op.ok]
    return out


def median_where_ran(values: Sequence[float]) -> float:
    """Median over the ops in which the layer ran at all; 0 if it never did."""
    ran = [v for v in values if v]
    return statistics.median(ran) if ran else 0.0


def layer_table(pairs: Sequence[Pair]) -> Dict[str, float]:
    """Per-op medians (zeros included, so that the rows of one op class
    add up), with the residual that closes the client's clock."""
    table = {metric: statistics.median(r.layer_us(metric) for _, r in pairs) for metric in LAYER_SPANS}
    table["rediskv.server.dispatch_us"] = statistics.median(
        (op.done - op.sent) * 1e6 - r.probed_us for op, r in pairs
    )
    return table


def exact_counts(m: Measured) -> Dict[str, int]:
    """Counts over the first server's warm-up ops, whose number is fixed:
    with one connection they repeat exactly from run to run."""
    pairs = pairs_of(m.phases[:1], warm=True)
    hits = sum(r.plan_cached or 0 for _, r in pairs)
    return {
        "ops": len(pairs),
        "reply_bytes": sum(op.reply_bytes for op, _ in pairs),
        "rows_out": sum(r.rows_out or 0 for _, r in pairs),
        "grblas_calls": sum(r.grblas_calls for _, r in pairs),
        "plan_hits": hits,
        "plan_misses": len(pairs) - hits,
        "wal_records": sum(r.calls.get("graph.wal.append", 0) for _, r in pairs),
    }


def per_layer(m: Measured, untraced: Measured) -> Dict[str, dict]:
    """Every per-layer metric of `BENCHMARK.json`, from the traced run `m`."""
    pairs = pairs_of(m.phases)
    first = m.workload.classes[0]
    values = {metric: median_where_ran([r.layer_us(metric) for _, r in pairs]) for metric in LAYER_SPANS}
    values["rediskv.server.dispatch_us"] = layer_table([p for p in pairs if p[0].cls == first])[
        "rediskv.server.dispatch_us"
    ]
    values["reply_bytes"] = statistics.median(op.reply_bytes for op, _ in pairs)
    values["rows_out"] = statistics.median(r.rows_out or 0 for _, r in pairs)
    values["grblas.calls"] = median_where_ran([r.grblas_calls for _, r in pairs])
    plans = [r.plan_cached for _, r in pairs if r.plan_cached is not None]
    values["execplan.plan.cache_hit_ratio"] = sum(plans) / len(plans)
    values["graph.wal.fsyncs"] = sum(
        p.spans.count_between("graph.wal.fsync", [op.rid for op in p.loop.ops]) for p in m.phases
    )
    writes = sum(1 for op, _ in pairs if op.cls == "write")
    values["graph.wal.bytes_per_write"] = sum(p.wal_bytes for p in m.phases) / writes if writes else 0.0
    values["graph.bulk.commit_s"] = statistics.median(sum(p.spans.durations_s("graph.bulk.commit")) for p in m.phases)
    loads = [sum(s.durations_s("graph.persist.load")) for s in m.recovery_spans]
    recovers = [sum(s.durations_s("rediskv.durability.recover")) for s in m.recovery_spans]
    values["graph.persist.load_s"] = statistics.median(loads)
    values["rediskv.durability.replay_s"] = statistics.median(r - l for r, l in zip(recovers, loads))
    values["trace_overhead"] = latency(blocks_of(m), first).value / latency(blocks_of(untraced), first).value
    return {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]} for spec in SPEC["per_layer"]}


# ----------------------------------------------------------------------
# Running and reporting
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Measure one workload untraced and, if asked, once more under the probes."""
    workdir = HERE / ".work" / f"{os.getpid()}-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[name](seed, smoke)
        plain = measure(workload, seconds, False, smoke, workdir / "plain")
        result = {
            "affinity": plain.affinity,
            "connections": workload.connections,
            "fingerprint": workload.fingerprint,
            "config": plain.config,
            "attempted": plain.tally.attempted,
            "failed": plain.tally.failed,
            "failed_share": plain.tally.failed / plain.tally.attempted,
            "client_cpu_us": statistics.median(p.loop.client_cpu_us for p in plain.phases),
            "metrics": end_to_end(plain),
        }
        if trace:
            probed = measure(workload, seconds, True, smoke, workdir / "probed")
            result["attempted"] += probed.tally.attempted
            result["failed"] += probed.tally.failed
            result["failed_share"] = result["failed"] / result["attempted"]
            result["layers"] = per_layer(probed, plain)
            pairs = pairs_of(probed.phases)
            result["layers_by_class"] = {}
            blocks = blocks_of(probed)
            for cls in workload.classes:
                table = layer_table([p for p in pairs if p[0].cls == cls])
                p50_us = latency(blocks, cls).value * 1e3
                # medians of parts need not add up to the median of the whole: say how close they come
                result["layers_by_class"][cls] = dict(table, p50_us=p50_us, attributed_share=sum(table.values()) / p50_us)
            result["exact_counts"] = exact_counts(probed)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # unless another run is using it
        except OSError:
            pass


def print_metrics(name: str, metrics: Dict[str, dict]) -> None:
    for metric, entry in metrics.items():
        notes = []
        if "spread" in entry:
            notes.append(f"spread {entry['spread']:.1%} over {len(entry['samples'])}")
        if entry.get("native") is False:
            notes.append("not native: repeats the workload's first op class")
        if entry.get("tail"):
            t = entry["tail"]
            notes.append(f"p{t['percentile']:g} {t['ms']:.4g} ms of {t['samples']}")
        print(f"{name:11s} {metric:34s} {entry['value']:12.6g} {entry['unit']:6s} {'; '.join(notes)}")


def contract_run(opts) -> int:
    """`--workload W --seed N --seconds S --trace 0|1`: one JSON line last."""
    result = run_workload(opts.workload, opts.seed, opts.seconds, bool(opts.trace))
    metrics = result["layers"] if opts.trace else result["metrics"]
    print_metrics(opts.workload, metrics)
    print(f"{opts.workload:11s} client_cpu_us {result['client_cpu_us']:.1f}; affinity {result['affinity']}")
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]} for name, entry in metrics.items()},
    }
    print(json.dumps(line))
    return 0


def ledger_run(opts) -> int:
    """All workloads (or one), untraced then traced, into one ledger file."""
    names = [opts.workload] if opts.workload else [w["name"] for w in SPEC["workloads"]]
    seconds = SMOKE_SECONDS if opts.smoke else opts.seconds
    ledger = {
        "issue": 11,
        "seed": opts.seed,
        "seconds": seconds,
        "comparable": not opts.smoke,  # a smoke run is 1/50 size: never a baseline
        "cpus": ALL_CPUS,
        "flush_policy": FLUSH_POLICY,
        "workloads": {},
    }
    for name in names:
        result = ledger["workloads"][name] = run_workload(name, opts.seed, seconds, True, opts.smoke)
        print_metrics(name, result["metrics"])
        print_metrics(name, result["layers"])
        print(
            f"{name:11s} failed_share {result['failed_share']:.6f} of {result['attempted']}; "
            f"client_cpu_us {result['client_cpu_us']:.1f}; affinity {result['affinity']}"
        )
    if opts.out:
        Path(opts.out).write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    return 1 if any(w["failed"] for w in ledger["workloads"].values()) else 0


def compare(path_a: str, path_b: str) -> int:
    """Apply each metric's bound to two ledger files of the same inputs."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    for side, ledger in ((path_a, a), (path_b, b)):
        if not ledger["comparable"]:
            print(f"refused: {side} is a smoke run")
            return 2
    same = ("seed", "seconds", "flush_policy")
    per_workload = ("fingerprint", "affinity", "config", "connections")
    differing = [key for key in same if a[key] != b[key]]
    shared = [w["name"] for w in SPEC["workloads"] if w["name"] in a["workloads"] and w["name"] in b["workloads"]]
    differing += [f"{name}.{key}" for name in shared for key in per_workload
                  if a["workloads"][name][key] != b["workloads"][name][key]]
    if differing or not shared:
        print(f"refused: the two runs differ in {', '.join(differing) or 'their workloads'}")
        return 2
    regressed = 0
    print(f"{'workload':11s} {'metric':18s} {'A':>12s} {'B':>12s} {'worse by':>9s} {'bound':>6s} {'spread':>7s}  verdict")
    for name in shared:
        wa, wb = a["workloads"][name], b["workloads"][name]
        for spec in SPEC["end_to_end"]:
            ma, mb = wa["metrics"][spec["name"]], wb["metrics"][spec["name"]]
            if not ma["native"]:
                continue
            worse = (mb["value"] - ma["value"]) / ma["value"] * (1 if spec["better"] == "lower" else -1)
            spread = max(ma["spread"], mb["spread"])
            verdict = "regressed" if worse > spec["bound"] else "unresolved" if spread > spec["bound"] else "ok"
            regressed += verdict == "regressed"
            print(
                f"{name:11s} {spec['name']:18s} {ma['value']:12.5g} {mb['value']:12.5g} "
                f"{worse:+9.1%} {spec['bound']:6.0%} {spread:7.1%}  {verdict}"
            )
        verdict = "regressed" if wb["failed_share"] > wa["failed_share"] else "ok"
        regressed += verdict == "regressed"
        print(f"{name:11s} {'failed_share':18s} {wa['failed_share']:12.5g} {wb['failed_share']:12.5g}"
              f" {'':9s} {'none':>6s} {'':7s}  {verdict}")
        if wa["connections"] == 1:
            counts = "identical" if wa["exact_counts"] == wb["exact_counts"] else "changed"
            print(f"{name:11s} exact counts over {wa['exact_counts']['ops']} warm-up ops: {counts}")
    return 1 if regressed else 0


def main(argv: Sequence[str]) -> int:
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            sys.exit("usage: run.py compare A.json B.json")
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), help="one workload, one JSON result line")
    parser.add_argument("--out", help="write the ledger file here")
    parser.add_argument("--smoke", action="store_true", help="1/50 size, seconds; not comparable")
    opts = parser.parse_args(argv)
    if opts.trace is None:
        return ledger_run(opts)
    if not opts.workload or opts.smoke or opts.out:
        parser.error("--trace goes with --workload alone")
    return contract_run(opts)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
