"""The server side of the ledger benchmark: `RedisLikeServer` as a subprocess.

    python serve.py [--data-dir DIR] [--probe SPANFILE]

Prints the bound port on stdout and serves until killed.  The server is
built with the shipped default `GraphConfig` and nothing else.

With ``--probe`` the benchmark wraps, from this file and before the
server is constructed, the public callables that bound each layer
(`install_probes` below): class methods are patched on the class, module-level
functions are rebound in every loaded ``repro.*`` module that holds the
same object.  Each call pushes one span onto an in-memory list through
a thread-local stack; SIGUSR1 writes the list to SPANFILE as JSON lines
(``{"id", "name", "start", "end", "parent", "rid", "n"}``, times in
``perf_counter_ns``) and then creates ``SPANFILE.done``.  The program
itself emits no spans; that is a later issue.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

# ----------------------------------------------------------------------
# Span recording
# ----------------------------------------------------------------------
# One span is a list [id, name, start_ns, end_ns, parent_id, cell, n].
# `cell` is a one-element list shared by every span of a request: the
# I/O thread's read span creates it, `ThreadPool.submit` fills in the
# request id and carries the cell to the pool thread that runs the job.
SPANS: list = []
_ids = itertools.count(1)
_tls = threading.local()
_conn_seq: dict = {}  # client port -> GRAPH.* commands dispatched so far


def _state():
    try:
        return _tls.state
    except AttributeError:
        _tls.state = state = {"stack": [], "cell": None, "open": set()}
        return state


def traced(name, fn, *, group=None, count=None):
    """Wrap `fn` so each call records a span called `name`.

    `group` makes the probe outermost-only: a call made while another
    probe of the same group is open on this thread goes straight through
    (recursive encoders, grblas entry points that call each other).
    `count(result)` stores a number with the span (bytes, rows, a flag).
    """
    group = group or name
    clock = time.perf_counter_ns

    def probe(*args, **kwargs):
        state = _state()
        if group in state["open"]:
            return fn(*args, **kwargs)
        stack = state["stack"]
        if not stack and state["cell"] is None:
            state["cell"] = [None]
            owns_cell = True
        else:
            owns_cell = False
        span = [next(_ids), name, 0, 0, stack[-1][0] if stack else 0, state["cell"], None]
        SPANS.append(span)
        stack.append(span)
        state["open"].add(group)
        span[2] = clock()
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                span[6] = count(result)
            return result
        finally:
            span[3] = clock()
            stack.pop()
            state["open"].discard(group)
            if owns_cell:
                state["cell"] = None

    return probe


def _patch_method(cls, attr, name, **kw):
    setattr(cls, attr, traced(name, getattr(cls, attr), **kw))


def _patch_function(module, attr, name, **kw):
    original = getattr(module, attr)
    probe = traced(name, original, **kw)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, probe)


def install_probes() -> None:
    """Patch the layer boundaries.  Import everything first so that every
    module holding a reference to a probed function is already loaded."""
    import repro.rediskv.server as server
    import repro.rediskv.resp as resp
    import repro.rediskv.graph_module as graph_module
    import repro.rediskv.durability as durability
    import repro.rediskv.threadpool as threadpool
    import repro.cypher.lexer as lexer
    import repro.cypher.parser as parser
    import repro.execplan.compiled as compiled
    import repro.execplan.executor as executor
    import repro.graph.bulk as bulk
    import repro.graph.persist as persist
    import repro.graph.rwlock as rwlock
    import repro.graph.wal as wal
    import repro.grblas.ewise as ewise
    import repro.grblas.matmul as matmul
    import repro.grblas.reduce as reduce_

    # -- request plumbing: the read span is the I/O thread's root, the
    # job span the pool thread's; submit() ties them to one request id
    read = server._IOLoop._read

    def read_conn(loop, conn):
        state = _state()
        state["port"] = conn.sock.getpeername()[1]
        return read(loop, conn)

    server._IOLoop._read = traced("rediskv.server.read", read_conn)

    submit = threadpool.ThreadPool.submit

    def submit_job(pool, fn, *args, callback=None):
        state = _state()
        cell = state["cell"]
        port = state.get("port")
        if cell is None or port is None:  # not a client request (morsels...)
            return submit(pool, fn, *args, callback=callback)
        seq = _conn_seq[port] = _conn_seq.get(port, 0) + 1
        cell[0] = f"{port}:{seq}"
        job = traced("rediskv.threadpool.job", fn)

        def run_job(*job_args):
            worker = _state()
            worker["cell"] = cell
            try:
                return job(*job_args)
            finally:
                worker["cell"] = None

        return submit(pool, run_job, *args, callback=callback)

    threadpool.ThreadPool.submit = submit_job

    # -- rediskv
    _patch_method(resp.RespParser, "parse_one", "rediskv.resp.decode")
    _patch_function(resp, "encode", "rediskv.resp.encode", count=len)
    _patch_function(graph_module, "parse_cypher_params", "rediskv.graph_module.params")
    _patch_function(graph_module, "encode_value", "rediskv.graph_module.encode")
    # -- cypher
    _patch_function(lexer, "tokenize", "cypher.lexer.tokenize")
    _patch_function(parser, "parse", "cypher.parser.parse")
    # -- execplan
    _patch_method(
        executor.QueryEngine, "get_plan", "execplan.plan.get_plan", count=lambda r: int(r[1])
    )
    _patch_function(compiled, "compile_query", "execplan.plan.compile")
    _patch_method(
        executor.QueryEngine, "execute", "execplan.execute", count=lambda r: len(r.rows)
    )
    # -- graph
    _patch_method(rwlock.RWLock, "acquire_read", "graph.rwlock.wait")
    _patch_method(rwlock.RWLock, "acquire_write", "graph.rwlock.wait")
    _patch_method(durability.DurabilityManager, "log_query", "graph.wal.log_query")
    _patch_method(wal.WriteAheadLog, "append", "graph.wal.append")
    _patch_method(wal.WriteAheadLog, "sync", "graph.wal.sync")
    # the log fsyncs inline and from its timer thread through os.fsync;
    # this process makes no other fsync that matters to a workload
    os.fsync = traced("graph.wal.fsync", os.fsync)
    _patch_method(bulk.BulkWriter, "commit", "graph.bulk.commit")
    _patch_function(persist, "load_graph", "graph.persist.load")
    _patch_method(durability.DurabilityManager, "recover", "rediskv.durability.recover")
    # -- grblas: the public entry points, outermost call only
    for module, attrs in (
        (matmul, ("mxm", "mxv", "vxm")),
        (ewise, ("ewise_add", "ewise_mult", "ewise_add_vector", "ewise_mult_vector")),
        (reduce_, ("reduce_rows", "reduce_cols", "reduce_matrix_scalar", "reduce_vector_scalar")),
    ):
        for attr in attrs:
            _patch_function(module, attr, f"grblas.{attr}", group="grblas")


def dump_spans(path: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as out:
        for sid, name, start, end, parent, cell, n in list(SPANS):
            if not end:
                continue  # still open (the read span this signal interrupted)
            out.write(
                json.dumps(
                    {"id": sid, "name": name, "start": start, "end": end, "parent": parent,
                     "rid": cell[0] if cell else None, "n": n},
                    separators=(",", ":"),
                )
            )
            out.write("\n")
    os.replace(tmp, path)
    Path(path + ".done").touch()


def main() -> None:
    args = argparse.ArgumentParser(description=__doc__)
    args.add_argument("--data-dir", default=None)
    args.add_argument("--probe", default=None, metavar="SPANFILE")
    opts = args.parse_args()
    if not (SRC / "repro").is_dir():
        sys.exit(f"serve.py: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    from repro.rediskv.server import RedisLikeServer

    if opts.probe:
        install_probes()
        signal.signal(signal.SIGUSR1, lambda *_: dump_spans(opts.probe))
    server = RedisLikeServer(port=0, data_dir=opts.data_dir)
    print(server.port, flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
