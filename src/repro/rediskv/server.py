"""The Redis-like server: one I/O event loop plus the module pool.

Faithful to the paper's architecture:

* one ``selectors``-based event loop — the classic single-threaded
  Redis shape — accepts connections, parses RESP commands and executes
  plain key-value commands inline,
* ``GRAPH.*`` commands are handed to the module's :class:`ThreadPool`;
  one worker runs the whole query, computes the reply and wakes the
  loop through its self-pipe,
* replies are flushed strictly in per-connection request order, so a slow
  graph query never reorders a connection's replies (Redis semantics).

Run standalone::

    python -m repro.rediskv.server --port 6379 --threads 4
"""

from __future__ import annotations

import argparse
import selectors
import socket
import threading
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro._version import __version__
from repro.errors import ProtocolError
from repro.graph.config import GraphConfig
from repro.rediskv.durability import DurabilityManager
from repro.rediskv.graph_module import GraphModule
from repro.rediskv.keyspace import Keyspace
from repro.rediskv.resp import NEED_MORE, RespParser, SimpleString, encode
from repro.rediskv.threadpool import Job, ThreadPool

__all__ = ["RedisLikeServer", "main"]


class _PendingReply:
    """A reply slot keeping request order; filled inline or by a worker."""

    __slots__ = ("data", "ready")

    def __init__(self, data: Optional[bytes] = None) -> None:
        self.data = data or b""
        self.ready = data is not None


class _Connection:
    __slots__ = ("sock", "parser", "outbox", "write_buffer", "closing")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.parser = RespParser()
        self.outbox: Deque[_PendingReply] = deque()
        self.write_buffer = bytearray()
        self.closing = False


class _IOLoop:
    """The event loop: a selector, the listening socket, a wake pipe, and
    every connection.

    Everything here runs on the loop's own thread except :meth:`wake`,
    which pool workers call when a reply is ready.
    """

    def __init__(self, server: "RedisLikeServer", listen: socket.socket) -> None:
        self.server = server
        self.listen = listen
        self.selector = selectors.DefaultSelector()
        self.selector.register(listen, selectors.EVENT_READ, "accept")
        # self-pipe: pool workers wake the loop when a reply is ready
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self.selector.register(self._wake_r, selectors.EVENT_READ, "wake")
        self.conns: Dict[socket.socket, _Connection] = {}
        self.commands = 0

    def wake(self) -> None:
        try:
            self._wake_w.send(b"x")
        except OSError:  # pragma: no cover - woken after teardown
            pass

    # -- loop thread ---------------------------------------------------
    def run(self) -> None:
        while self.server._running:
            self.run_once(timeout=0.2)

    def run_once(self, timeout: float) -> None:
        events = self.selector.select(timeout=timeout)
        for key, mask in events:
            tag = key.data
            if tag == "accept":
                self._accept()
            elif tag == "wake":
                try:
                    self._wake_r.recv(4096)
                except BlockingIOError:  # pragma: no cover
                    pass
            elif isinstance(tag, _Connection):
                if mask & selectors.EVENT_READ:
                    self._read(tag)
        self._flush_ready()

    def _accept(self) -> None:
        try:
            sock, _ = self.listen.accept()
        except BlockingIOError:  # pragma: no cover
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _Connection(sock)
        self.conns[sock] = conn
        self.selector.register(sock, selectors.EVENT_READ, conn)

    def close_conn(self, conn: _Connection) -> None:
        try:
            self.selector.unregister(conn.sock)
        except (KeyError, ValueError):  # pragma: no cover
            pass
        self.conns.pop(conn.sock, None)
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover
            pass

    def _read(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(65536)
        except (BlockingIOError, InterruptedError):  # pragma: no cover
            return
        except ConnectionError:
            self.close_conn(conn)
            return
        if not data:
            self.close_conn(conn)
            return
        if conn.closing:  # a protocol error ended this connection
            return
        conn.parser.feed(data)
        while True:
            try:
                command = conn.parser.parse_one()
            except ProtocolError as exc:  # like Redis: answer, then close this connection only
                conn.outbox.append(_PendingReply(encode(Exception(f"Protocol error: {exc}"))))
                conn.closing = True
                return
            if command is NEED_MORE:
                break
            self._dispatch(conn, command)

    def _dispatch(self, conn: _Connection, command: Any) -> None:
        self.commands += 1
        if type(command) is not list or not command or not all(type(a) in (str, bytes, int) for a in command):
            conn.outbox.append(_PendingReply(encode(Exception("protocol error: expected an array of bulk strings"))))
            return
        name = str(command[0]).upper()
        args = [str(a) for a in command[1:]]
        server = self.server

        def reply(run) -> bytes:
            try:
                return encode(run(name, args))
            except Exception as exc:  # noqa: BLE001 - an error reply, never a dead loop or worker
                return encode(exc)

        if name.startswith("GRAPH."):
            # module command: compute the reply on one pool thread
            slot = _PendingReply()
            conn.outbox.append(slot)

            def done(job: Job, _slot=slot) -> None:
                _slot.data = job.result()
                _slot.ready = True
                self.wake()

            server.pool.submit(reply, server._graph_command, callback=done)
            return
        # plain commands execute inline on the I/O thread
        conn.outbox.append(_PendingReply(reply(server._plain_command)))

    def _flush_ready(self) -> None:
        for conn in list(self.conns.values()):
            while conn.outbox and conn.outbox[0].ready:
                conn.write_buffer.extend(conn.outbox.popleft().data)
            if conn.write_buffer:
                try:
                    sent = conn.sock.send(conn.write_buffer)
                    del conn.write_buffer[:sent]
                except (BlockingIOError, InterruptedError):  # pragma: no cover
                    pass
                except (ConnectionError, OSError):
                    self.close_conn(conn)
                    continue
            if conn.closing and not conn.outbox and not conn.write_buffer:
                self.close_conn(conn)

    def teardown(self) -> None:
        """Release loop resources (called after the loop thread exited)."""
        for conn in list(self.conns.values()):
            self.close_conn(conn)
        self.selector.close()
        self._wake_r.close()
        self._wake_w.close()
        self.listen.close()


class RedisLikeServer:
    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        config: Optional[GraphConfig] = None,
        data_dir: Optional[str] = None,
    ) -> None:
        self.config = (config or GraphConfig()).validate()
        self.keyspace = Keyspace()
        self.module = GraphModule(self.keyspace, self.config)
        # durability: recover (snapshots + write-log tail) BEFORE wiring
        # the module to the manager, so replay never re-logs itself
        self.durability: Optional[DurabilityManager] = None
        self.recovery_stats: Optional[Dict[str, int]] = None
        if data_dir is not None:
            self.durability = DurabilityManager(data_dir, self.config, self.keyspace)
            self.recovery_stats = self.durability.recover(self.module)
            self.module.durability = self.durability
        self.pool = ThreadPool(self.config.thread_count)
        listen = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listen.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listen.bind((host, port))
        listen.listen(128)
        listen.setblocking(False)
        self.host, self.port = listen.getsockname()
        self.loop = _IOLoop(self, listen)
        self._running = False
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "RedisLikeServer":
        """Run the event loop on a background thread (for tests/embedding)."""
        self._running = True
        self._thread = threading.Thread(target=self.serve_forever, name="redis-main", daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._running = True
        self.loop.run()
        self.pool.shutdown()
        if self.durability is not None:
            self.durability.close()  # flush + fsync the write log
        self.loop.teardown()

    def stop(self) -> None:
        self._running = False
        self.loop.wake()
        if self._thread is not None and self._thread is not threading.current_thread():
            self._thread.join(timeout=5)

    # ------------------------------------------------------------------
    # Command implementations
    # ------------------------------------------------------------------
    def _graph_command(self, name: str, args: List[str]):
        if name in ("GRAPH.QUERY", "GRAPH.RO_QUERY", "GRAPH.EXPLAIN", "GRAPH.PROFILE", "GRAPH.BULK"):
            if len(args) < 2:
                raise WrongArity(name)
            if name != "GRAPH.BULK":  # the module method is the command's lowercased name
                return getattr(self.module, name[6:].lower())(args[0], args[1])
            reply = self.module.bulk(args[0], args[1], args[2:])
            return SimpleString(reply) if reply == "OK" else reply
        if name in ("GRAPH.DELETE", "GRAPH.SAVE"):
            if len(args) != 1:
                raise WrongArity(name)
            return SimpleString(getattr(self.module, name[6:].lower())(args[0]))
        if name == "GRAPH.LIST":
            return self.module.list_graphs()
        if name == "GRAPH.CONFIG":
            if len(args) < 2:
                raise WrongArity(name)
            sub = args[0].upper()
            if sub == "GET":
                return self.module.config_get(args[1])
            if sub == "SET":
                if len(args) != 3:
                    raise WrongArity(name)
                return SimpleString(self.module.config_set(args[1], args[2]))
            raise Exception(f"unknown GRAPH.CONFIG subcommand '{args[0]}'")
        raise Exception(f"unknown command '{name}'")

    def _plain_command(self, name: str, args: List[str]):
        if name == "PING":
            return SimpleString(args[0]) if args else SimpleString("PONG")
        if name == "ECHO":
            if len(args) != 1:
                raise WrongArity(name)
            return args[0]
        if name == "SET":
            if len(args) != 2:
                raise WrongArity(name)
            self.keyspace.set_string(args[0], args[1])
            return SimpleString("OK")
        if name == "GET":
            if len(args) != 1:
                raise WrongArity(name)
            return self.keyspace.get_string(args[0])
        if name == "DEL":
            if not args:
                raise WrongArity(name)
            return self.keyspace.delete(*args)
        if name == "EXISTS":
            if not args:
                raise WrongArity(name)
            return self.keyspace.exists(*args)
        if name == "TYPE":
            if len(args) != 1:
                raise WrongArity(name)
            return SimpleString(self.keyspace.type_of(args[0]))
        if name == "KEYS":
            return self.keyspace.keys(args[0] if args else "*")
        if name == "FLUSHALL":
            self.keyspace.flush()
            return SimpleString("OK")
        if name == "INFO":
            return (
                f"# Server\r\nrepro_version:{__version__}\r\n"
                f"graph_thread_count:{self.pool.size}\r\n"
                f"commands_processed:{self.loop.commands}\r\n"
                f"keys:{len(self.keyspace)}\r\n"
            )
        if name == "COMMAND":
            return []
        if name == "SHUTDOWN":
            self._running = False
            self.loop.wake()
            return SimpleString("OK")
        raise Exception(f"unknown command '{name}'")


class WrongArity(Exception):
    def __init__(self, command: str) -> None:
        super().__init__(f"wrong number of arguments for '{command.lower()}' command")


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(description="repro Redis-like graph server")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=6379)
    parser.add_argument("--threads", type=int, default=None, help="graph module thread pool size")
    parser.add_argument(
        "--data-dir",
        default=None,
        help="durability directory (snapshots + write log); restarting against "
        "the same dir recovers every graph",
    )
    parser.add_argument(
        "--wal-fsync",
        choices=["always", "everysec", "no"],
        default=None,
        help="write-log fsync policy (default everysec)",
    )
    parser.add_argument(
        "--auto-snapshot-ops",
        type=int,
        default=None,
        help="snapshot a graph after this many logged mutations (0 disables)",
    )
    args = parser.parse_args(argv)
    config = GraphConfig()
    if args.threads is not None:
        config.thread_count = args.threads
    if args.wal_fsync is not None:
        config.wal_fsync = args.wal_fsync
    if args.auto_snapshot_ops is not None:
        config.auto_snapshot_ops = args.auto_snapshot_ops
    server = RedisLikeServer(args.host, args.port, config=config.validate(), data_dir=args.data_dir)
    if server.recovery_stats is not None:
        print(
            f"recovered {server.recovery_stats['snapshots']} snapshot(s), "
            f"replayed {server.recovery_stats['replayed']} log record(s) from {args.data_dir}"
        )
    print(
        f"repro server listening on {server.host}:{server.port} "
        f"(pool={server.pool.size})"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover
        server.stop()


if __name__ == "__main__":  # pragma: no cover
    main()
