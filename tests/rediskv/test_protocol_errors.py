"""A malformed request is answered with an error and costs at most its
own connection: the I/O loop keeps serving every other client."""

import socket

import pytest

from repro.graph.config import GraphConfig
from repro.rediskv.resp import NEED_MORE, RespError, RespParser
from repro.rediskv.server import RedisLikeServer

TIMEOUT_S = 5.0


@pytest.fixture
def server():
    srv = RedisLikeServer(port=0, config=GraphConfig(thread_count=1)).start()
    yield srv
    srv.stop()


PING = b"*1\r\n$4\r\nPING\r\n"


def connect(port: int) -> socket.socket:
    return socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S)


def request(sock: socket.socket, payload: bytes):
    """Send ``payload`` and read one reply."""
    sock.sendall(payload)
    parser = RespParser()
    reply = NEED_MORE
    while reply is NEED_MORE:
        data = sock.recv(65536)
        assert data, "connection closed without a reply"
        parser.feed(data)
        reply = parser.parse_one()
    return reply


def closed_by_peer(sock: socket.socket) -> bool:
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True


def assert_still_serving(port: int) -> None:
    with connect(port) as other:
        assert request(other, PING) == "PONG"


@pytest.mark.parametrize(
    "payload, message",
    [
        (b"$abc\r\n", "invalid bulk length"),
        (b"*1\r\n$-7\r\n", "negative bulk length"),
        (b"*x\r\n", "invalid array length"),
        (b"?what\r\n", "unknown RESP type byte"),
        (b"*1\r\n$2\r\nhiXX", "missing CRLF"),
    ],
    ids=["bulk-length", "negative-bulk", "array-length", "type-byte", "bulk-terminator"],
)
def test_malformed_request_closes_only_its_connection(server, payload, message):
    with connect(server.port) as sock:
        reply = request(sock, payload)
        assert isinstance(reply, RespError)
        assert str(reply).startswith("ERR Protocol error: ") and message in str(reply)
        assert closed_by_peer(sock)
    assert_still_serving(server.port)


@pytest.mark.parametrize(
    "payload",
    [
        b"*1\r\n" * 5000 + b"$4\r\nPING\r\n",  # 5 000 nested arrays
        b"*2\r\n$4\r\nECHO\r\n*1\r\n$1\r\nx\r\n",  # an array argument
        b"*2\r\n$4\r\nECHO\r\n$-1\r\n",  # a null argument
        b"+PING\r\n",  # not an array at all
    ],
    ids=["nested-5000", "array-argument", "null-argument", "simple-string"],
)
def test_request_that_is_not_a_flat_array_gets_an_error_reply(server, payload):
    with connect(server.port) as sock:
        reply = request(sock, payload)
        assert isinstance(reply, RespError) and "expected an array of bulk strings" in str(reply)
        assert request(sock, PING) == "PONG"  # the connection stays usable
    assert_still_serving(server.port)
