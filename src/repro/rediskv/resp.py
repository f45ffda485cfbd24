"""RESP2 (REdis Serialization Protocol) encoding and incremental decoding.

Covers the five RESP2 types: simple strings (``+``), errors (``-``),
integers (``:``), bulk strings (``$``, including the ``$-1`` null) and
arrays (``*``, including nested and ``*-1`` null arrays).  Doubles are
transported as bulk strings, matching Redis 6 behaviour.  Nothing recurses.
"""

from __future__ import annotations

from typing import Any, List

from repro.errors import ProtocolError

__all__ = ["SimpleString", "RespError", "Encoded", "encode", "RespParser", "NEED_MORE"]

CRLF = b"\r\n"


class SimpleString(str):
    """Marks a string to be encoded as ``+value`` instead of a bulk string."""


class RespError(Exception):
    """An error reply (``-PREFIX message``); also decodable."""


class Encoded(bytes):
    """One value already in RESP form; :func:`encode` emits it verbatim."""


# a subclass encodes as the first of these it is an instance of
_KINDS = (SimpleString, RespError, Exception, bool, int, float, str, bytes, list, tuple)
_EXACT = frozenset(_KINDS) | {Encoded, type(None)}


def encode(value: Any) -> bytes:
    """Encode a Python value as RESP2 bytes."""
    parts: List[bytes] = []
    append = parts.append
    stack = [iter((value,))]  # the arrays being written, innermost last
    while stack:
        for value in stack[-1]:
            kind = type(value)
            if kind not in _EXACT:
                kind = next((k for k in _KINDS if isinstance(value, k)), None)
                if kind is None:
                    raise ProtocolError(f"cannot encode {type(value).__name__} as RESP")
            if kind is str or kind is float or kind is bytes:
                data = value if kind is bytes else (repr(value) if kind is float else value).encode()
                append(b"$%d\r\n%s\r\n" % (len(data), data))
            elif kind is list or kind is tuple:
                append(b"*%d\r\n" % len(value))
                stack.append(iter(value))
                break
            elif kind is Encoded:
                append(value)
            elif kind is int or kind is bool:  # RESP2 has no boolean: 1/0 by convention
                append(b":%d\r\n" % value)
            elif value is None:
                append(b"$-1\r\n")
            elif kind is SimpleString:
                append(b"+%s\r\n" % value.encode())
            elif kind is RespError:
                append(b"-%s\r\n" % str(value).encode())
            else:  # any other exception is a generic error reply
                append(b"-ERR %s\r\n" % str(value).encode().replace(CRLF, b" "))
        else:
            stack.pop()
    return b"".join(parts)


NEED_MORE = object()  # sentinel: the buffer does not yet hold a full value
_HEADS = {36: "bulk length", 42: "array length", 58: "integer reply"}


class RespParser:
    """Incremental RESP2 parser.

    Feed raw socket bytes with :meth:`feed`; :meth:`parse_one` returns a
    decoded value or :data:`NEED_MORE`.  Bulk strings decode to ``str``
    (graph traffic is textual), errors decode to :class:`RespError`
    instances (not raised).  A value split across feeds resumes where
    the last call stopped; after a :class:`ProtocolError` the parser is spent.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self._pos = 0  # read offset: everything before it is decoded
        self._open: List[tuple] = []  # unfinished arrays, outermost first: (items, length)

    def feed(self, data: bytes) -> None:
        if self._pos:
            del self._buf[: self._pos]
            self._pos = 0
        self._buf.extend(data)

    def parse_one(self) -> Any:
        buf, pos, stack = self._buf, self._pos, self._open
        items, need = stack.pop() if stack else (None, 0)  # the innermost open array
        find, size = buf.find, len(buf)
        while pos < size:
            eol = find(CRLF, pos + 1)
            if eol < 0:
                break
            kind = buf[pos]
            if kind == 36 or kind == 42 or kind == 58:  # $ bulk string, * array, : integer
                try:
                    n = int(buf[pos + 1 : eol])
                except ValueError:
                    raise ProtocolError(f"invalid {_HEADS[kind]}: {bytes(buf[pos + 1 : eol])!r}") from None
                if kind == 58:
                    value = n
                elif n < 0:
                    if n != -1:
                        raise ProtocolError(f"negative {_HEADS[kind]}: {n}")
                    value = None
                elif kind == 42:
                    if n:
                        if items is not None:
                            stack.append((items, need))
                        items, need, pos = [], n, eol + 2
                        continue
                    value = []
                else:
                    stop = eol + 2 + n
                    if size < stop + 2:
                        break
                    if not buf.startswith(CRLF, stop):
                        raise ProtocolError("bulk string missing CRLF terminator")
                    try:
                        value = buf[eol + 2 : stop].decode()
                    except UnicodeDecodeError:
                        value = bytes(buf[eol + 2 : stop])
                    eol = stop
            elif kind == 43:  # + simple string
                value = SimpleString(buf[pos + 1 : eol].decode())
            elif kind == 45:  # - error
                value = RespError(buf[pos + 1 : eol].decode())
            else:
                raise ProtocolError(f"unknown RESP type byte: {bytes(buf[pos : pos + 1])!r}")
            pos = eol + 2
            while items is not None:  # hand the value to the innermost open array
                items.append(value)
                if len(items) < need:
                    break
                value = items
                items, need = stack.pop() if stack else (None, 0)
            else:
                self._pos = pos
                return value
        if items is not None:
            stack.append((items, need))
        self._pos = pos
        return NEED_MORE

    def parse_all(self) -> List[Any]:
        out = []
        while True:
            value = self.parse_one()
            if value is NEED_MORE:
                return out
            out.append(value)
