"""The generator's side of the wire: server subprocess, RESP client, closed loop.

The client is built on the program's public `resp.encode` / `RespParser`
only.  A connection reset, a silent server or a server that exits fails
the whole run (`WireError`), it is not counted as a failed operation.
"""

from __future__ import annotations

import os
import selectors
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Iterator, List, NamedTuple, Optional, Sequence

from repro.rediskv.resp import NEED_MORE, RespError, RespParser, encode

SERVE = Path(__file__).resolve().with_name("serve.py")
SILENCE_LIMIT_S = 60.0


class WireError(RuntimeError):
    """The server or a connection went away; the run cannot be trusted."""


class Server:
    """One `serve.py` subprocess.  It inherits the generator's CPU
    affinity, and an environment without `REPRO_*` overrides so that the
    configuration is the shipped default."""

    def __init__(self, data_dir: Optional[Path] = None, span_file: Optional[Path] = None) -> None:
        argv = [sys.executable, str(SERVE)]
        if data_dir is not None:
            argv += ["--data-dir", str(data_dir)]
        if span_file is not None:
            argv += ["--probe", str(span_file)]
        self.span_file = span_file
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env)
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.kill()
            raise WireError(f"server did not start (exit code {self.proc.returncode})")
        self.port = int(line)

    def check_alive(self) -> None:
        if self.proc.poll() is not None:
            raise WireError(f"server exited with code {self.proc.returncode}")

    def peak_rss_mb(self) -> float:
        """`VmHWM` of the server process, in MiB."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise WireError("no VmHWM in /proc status")

    def dump_spans(self) -> Path:
        """Ask a probed server for its spans and wait for the file."""
        done = Path(str(self.span_file) + ".done")
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + SILENCE_LIMIT_S
        while not done.exists():
            self.check_alive()
            if time.monotonic() > deadline:
                raise WireError("server did not write its spans")
            time.sleep(0.01)
        return self.span_file

    def kill(self) -> None:
        """SIGKILL and reap; the server gets no chance to flush or close."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


class Conn:
    """A blocking RESP connection that counts what it sends and receives."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=SILENCE_LIMIT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.local_port = self.sock.getsockname()[1]
        self.parser = RespParser()
        self.graph_commands = 0  # GRAPH.* commands sent: the probe numbers them the same way
        self.received = 0  # bytes

    def send(self, *args: Any) -> None:
        if args[0].startswith("GRAPH."):
            self.graph_commands += 1
        try:
            self.sock.sendall(encode([str(a) for a in args]))
        except OSError as exc:
            raise WireError(f"connection lost while sending: {exc}") from exc

    def poll(self) -> Any:
        """Read what has arrived; one decoded reply or NEED_MORE."""
        try:
            data = self.sock.recv(1 << 20)
        except OSError as exc:
            raise WireError(f"connection lost while receiving: {exc}") from exc
        if not data:
            raise WireError("connection closed by server")
        self.received += len(data)
        self.parser.feed(data)
        return self.parser.parse_one()

    def call(self, *args: Any) -> Any:
        """One command, blocking; an error reply raises."""
        self.send(*args)
        while True:
            reply = self.poll()
            if reply is not NEED_MORE:
                if isinstance(reply, RespError):
                    raise WireError(f"{args[0]} failed: {reply}")
                return reply

    def query(self, key: str, text: str) -> list:
        return self.call("GRAPH.QUERY", key, text)

    @property
    def rid(self) -> str:
        """The probe's request id of the GRAPH.* command sent last."""
        return f"{self.local_port}:{self.graph_commands}"

    def close(self) -> None:
        self.sock.close()


class Op(NamedTuple):
    cls: str  # op class: hop, read, miss, write, agg, wide
    text: str  # the GRAPH.QUERY argument
    check: Callable[[list], bool]  # is this reply the expected one?


class Done(NamedTuple):
    cls: str
    sent: float  # perf_counter just before the request bytes were written
    done: float  # perf_counter when the reply was decoded
    ok: bool
    reply_bytes: int
    rid: str


class LoopResult(NamedTuple):
    ops: List[Done]
    started: float
    client_cpu_us: float  # generator time per op that was not spent waiting for the server


def drive(
    key: str,
    conns: Sequence[Conn],
    streams: Sequence[Iterator[Op]],
    server: Server,
    *,
    seconds: Optional[float] = None,
    count: Optional[int] = None,
) -> LoopResult:
    """Closed loop over all connections from this one thread: a connection
    sends its next op only once its previous reply is decoded.  Stops
    issuing after `seconds`, or after `count` ops per connection, and then
    waits for the replies still due."""
    selector = selectors.DefaultSelector()
    state = []
    for conn, stream in zip(conns, streams):
        slot = {"conn": conn, "stream": stream, "op": None, "sent": 0.0, "base": 0, "issued": 0}
        selector.register(conn.sock, selectors.EVENT_READ, slot)
        state.append(slot)
    ops: List[Done] = []
    clock = time.perf_counter
    waited = 0.0

    def issue(slot) -> None:
        op = slot["op"] = next(slot["stream"])
        slot["issued"] += 1
        slot["base"] = slot["conn"].received
        slot["sent"] = clock()
        slot["conn"].send("GRAPH.QUERY", key, op.text)

    started = clock()
    deadline = started + seconds if seconds is not None else None
    for slot in state:
        issue(slot)
    pending = len(state)
    try:
        while pending:
            before = clock()
            events = selector.select(timeout=SILENCE_LIMIT_S)
            waited += clock() - before
            if not events:
                server.check_alive()
                raise WireError(f"no reply within {SILENCE_LIMIT_S:.0f} s")
            for event, _ in events:
                slot = event.data
                conn = slot["conn"]
                reply = conn.poll()
                if reply is NEED_MORE:
                    continue
                now = clock()
                op = slot["op"]
                ok = not isinstance(reply, RespError) and op.check(reply)
                ops.append(Done(op.cls, slot["sent"], now, ok, conn.received - slot["base"], conn.rid))
                if (deadline is not None and now < deadline) or (count is not None and slot["issued"] < count):
                    issue(slot)
                else:
                    pending -= 1
    finally:
        selector.close()
    elapsed = clock() - started
    return LoopResult(ops, started, (elapsed - waited) / len(ops) * 1e6)
