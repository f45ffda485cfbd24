"""RESP2 protocol encoding/decoding tests, including round-trip fuzzing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.rediskv.resp import NEED_MORE, RespError, RespParser, SimpleString, encode


def decode_one(data: bytes):
    parser = RespParser()
    parser.feed(data)
    return parser.parse_one()


class TestEncode:
    def test_simple_string(self):
        assert encode(SimpleString("OK")) == b"+OK\r\n"

    def test_bulk_string(self):
        assert encode("hi") == b"$2\r\nhi\r\n"

    def test_empty_bulk(self):
        assert encode("") == b"$0\r\n\r\n"

    def test_integer(self):
        assert encode(42) == b":42\r\n"
        assert encode(-1) == b":-1\r\n"

    def test_bool_as_int(self):
        assert encode(True) == b":1\r\n"

    def test_null(self):
        assert encode(None) == b"$-1\r\n"

    def test_float_as_bulk(self):
        assert encode(2.5) == b"$3\r\n2.5\r\n"

    def test_array(self):
        assert encode(["a", 1]) == b"*2\r\n$1\r\na\r\n:1\r\n"

    def test_nested_array(self):
        assert encode([["x"]]) == b"*1\r\n*1\r\n$1\r\nx\r\n"

    def test_error(self):
        assert encode(ValueError("boom")) == b"-ERR boom\r\n"

    def test_unencodable(self):
        with pytest.raises(ProtocolError):
            encode(object())


class TestDecode:
    def test_simple(self):
        assert decode_one(b"+PONG\r\n") == "PONG"

    def test_error_not_raised(self):
        err = decode_one(b"-ERR nope\r\n")
        assert isinstance(err, RespError) and "nope" in str(err)

    def test_integer(self):
        assert decode_one(b":7\r\n") == 7

    def test_bulk(self):
        assert decode_one(b"$5\r\nhello\r\n") == "hello"

    def test_null_bulk(self):
        assert decode_one(b"$-1\r\n") is None

    def test_null_array(self):
        assert decode_one(b"*-1\r\n") is None

    def test_array(self):
        assert decode_one(b"*2\r\n:1\r\n$1\r\nx\r\n") == [1, "x"]

    def test_incremental_feeding(self):
        parser = RespParser()
        payload = encode(["hello", 42, None])
        for i in range(len(payload)):
            assert parser.parse_one() is NEED_MORE or True
            parser.feed(payload[i : i + 1])
        assert parser.parse_one() == ["hello", 42, None]

    def test_pipelined_commands(self):
        parser = RespParser()
        parser.feed(encode(["PING"]) + encode(["GET", "k"]))
        assert parser.parse_all() == [["PING"], ["GET", "k"]]

    def test_pipelined_commands_fed_in_pieces(self):
        commands = [["SET", f"k{i}", "v" * i] for i in range(50)] + [["PING"]]
        payload = b"".join(encode(c) for c in commands)
        parser = RespParser()
        out = []
        for i in range(0, len(payload), 37):
            parser.feed(payload[i : i + 37])
            out.extend(parser.parse_all())
        assert out == commands and parser.parse_one() is NEED_MORE

    def test_deep_nesting_needs_no_recursion(self):
        depth = 10_000
        payload = b"*1\r\n" * depth + b":1\r\n"
        value = decode_one(payload)
        for _ in range(depth):  # walk down: == on it would recurse
            assert type(value) is list and len(value) == 1
            value = value[0]
        assert value == 1
        nested = 1
        for _ in range(depth):
            nested = [nested]
        assert encode(nested) == payload

    def test_large_reply_in_small_chunks_matches_one_shot(self):
        rows = [["node", i, ["Person"], [["age", i % 90], ["city", f"city{i % 64}"], ["score", i * 1.5]]] for i in range(3000)]
        payload = encode([["p"], [[row] for row in rows], ["Cached execution: 0"]])
        assert len(payload) >= 200_000
        parser = RespParser()
        chunked = NEED_MORE
        for i in range(0, len(payload), 1024):
            assert chunked is NEED_MORE
            parser.feed(payload[i : i + 1024])
            chunked = parser.parse_one()
        assert chunked == decode_one(payload)
        assert chunked[1][2999][0][3][2] == ["score", "4498.5"]

    def test_bad_type_byte(self):
        with pytest.raises(ProtocolError):
            decode_one(b"?x\r\n")

    def test_bad_integer(self):
        with pytest.raises(ProtocolError):
            decode_one(b":abc\r\n")

    def test_bulk_missing_terminator(self):
        with pytest.raises(ProtocolError):
            decode_one(b"$2\r\nhiXX")


resp_values = st.recursive(
    st.one_of(
        st.none(),
        st.integers(min_value=-(2**40), max_value=2**40),
        st.text(alphabet=st.characters(blacklist_characters="\r\n", codec="utf-8"), max_size=20),
    ),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=12,
)


class TestRoundTrip:
    @given(resp_values)
    def test_encode_decode_roundtrip(self, value):
        assert decode_one(encode(value)) == value

    @given(st.lists(resp_values, min_size=1, max_size=5), st.integers(1, 7))
    def test_arbitrary_chunking(self, values, chunk):
        payload = b"".join(encode(v) for v in values)
        parser = RespParser()
        out = []
        for i in range(0, len(payload), chunk):
            parser.feed(payload[i : i + chunk])
            out.extend(parser.parse_all())
        assert out == values
