"""The reference reply encoder: a plain recursive walk over the runtime
values, one ``node.properties`` read per entity, one ``bytes`` concat per
RESP element.  Slow and simple on purpose; ``test_reply_encoding.py``
holds the server's column encoder to it byte for byte."""

from typing import Any

from repro.errors import ProtocolError
from repro.graph.entities import Edge, Node
from repro.graph.path import PathValue
from repro.rediskv.resp import RespError, SimpleString

CRLF = b"\r\n"


def encode(value: Any) -> bytes:
    if isinstance(value, SimpleString):
        return b"+" + str(value).encode() + CRLF
    if isinstance(value, (RespError,)):
        return b"-" + str(value).encode() + CRLF
    if isinstance(value, Exception):
        return b"-ERR " + str(value).encode().replace(b"\r\n", b" ") + CRLF
    if isinstance(value, bool):
        return b":" + (b"1" if value else b"0") + CRLF
    if isinstance(value, int):
        return b":" + str(value).encode() + CRLF
    if isinstance(value, float):
        data = repr(value).encode()
        return b"$" + str(len(data)).encode() + CRLF + data + CRLF
    if isinstance(value, str):
        data = value.encode()
        return b"$" + str(len(data)).encode() + CRLF + data + CRLF
    if isinstance(value, bytes):
        return b"$" + str(len(value)).encode() + CRLF + value + CRLF
    if value is None:
        return b"$-1" + CRLF
    if isinstance(value, (list, tuple)):
        out = b"*" + str(len(value)).encode() + CRLF
        for item in value:
            out += encode(item)
        return out
    raise ProtocolError(f"cannot encode {type(value).__name__} as RESP")


def encode_value(value: Any) -> Any:
    if isinstance(value, Node):
        return [
            "node",
            value.id,
            list(value.labels),
            [[k, encode_value(v)] for k, v in sorted(value.properties.items())],
        ]
    if isinstance(value, Edge):
        return [
            "relationship",
            value.id,
            value.type,
            value.src,
            value.dst,
            [[k, encode_value(v)] for k, v in sorted(value.properties.items())],
        ]
    if isinstance(value, PathValue):
        return [
            "path",
            [encode_value(n) for n in value.nodes],
            [encode_value(e) for e in value.edges],
        ]
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        return [[k, encode_value(v)] for k, v in sorted(value.items())]
    return value


def reply_head(result) -> bytes:
    """Header and rows of a ``GRAPH.QUERY`` reply to ``result``."""
    return encode([list(result.columns), [[encode_value(v) for v in row] for row in result.rows]])
