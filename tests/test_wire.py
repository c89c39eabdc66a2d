"""Codec bit-exactness, strict decoding, frame integrity."""

import math
import socket
import struct
import sys
import time

import pytest
from hypothesis import given, strategies as st

from tuplespaces import (
    ANY,
    INT,
    ConnectionLost,
    MalformedFrame,
    PayloadTooLarge,
    Tuple,
    float_array,
    int_array,
    lit,
    make_tuple,
    template,
    wildcard,
)
from tuplespaces import wire
from tuplespaces.rng import SplitMix64
from tuplespaces.tuples import value_of

from util import random_template, random_tuple


def test_minimal_tuple_layout():
    # <Int64 0>: arity u32 LE, tag 0x01, eight zero payload bytes
    assert wire.encode_tuple(make_tuple(0)) == bytes([1, 0, 0, 0, 1] + [0] * 8)
    assert wire.decode_tuple(bytes([1, 0, 0, 0, 1] + [0] * 8)) == make_tuple(0)


def test_known_layouts():
    enc = wire.encode_tuple(make_tuple("ab"))
    assert enc == b"\x01\x00\x00\x00" + b"\x03" + b"\x02\x00\x00\x00" + b"ab"
    enc = wire.encode_tuple(make_tuple(1.0))
    assert enc == b"\x01\x00\x00\x00" + b"\x02" + struct.pack("<d", 1.0)
    enc = wire.encode_tuple(make_tuple(int_array([1])))
    assert enc == b"\x01\x00\x00\x00" + b"\x05" + b"\x01\x00\x00\x00" + struct.pack("<q", 1)


def _nan(payload: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000000 | payload))[0]


_INTS = [-(2**63), -1, 0, 1, -123456789, 2**63 - 1]
_FLOATS = [-0.0, 0.0, _nan(1), _nan(2), -math.inf, 1.5]


def _array_field(tag: int, fmt: str, xs) -> bytes:
    return b"\x01\x00\x00\x00" + bytes([tag]) + struct.pack("<I", len(xs)) + struct.pack(fmt, *xs)


def test_array_layouts_match_struct_pack():
    for tup, want in ((make_tuple(int_array(_INTS)), _array_field(5, "<6q", _INTS)),
                      (make_tuple(float_array(_FLOATS)), _array_field(6, "<6d", _FLOATS))):
        assert wire.encode_tuple(tup) == want
        got = wire.decode_tuple(want)
        assert got == tup
        assert got.fields[0].data.tobytes() == tup.fields[0].data.tobytes()
    assert wire.decode_tuple(_array_field(6, "<1d", [_nan(1)])) != make_tuple(float_array([_nan(2)]))


def test_truncated_array_payload_is_malformed():
    good = wire.encode_tuple(make_tuple(int_array([1, 2, 3]), float_array([0.5, -0.0])))
    for cut in range(len(good)):
        with pytest.raises(MalformedFrame):
            wire.decode_tuple(good[:cut])
    # A declared element count far beyond the bytes present.
    with pytest.raises(MalformedFrame):
        wire.decode_tuple(b"\x01\x00\x00\x00\x05\xff\xff\xff\xff" + b"\x00" * 16)


def test_big_endian_host_swaps_array_elements(monkeypatch):
    tup = make_tuple(int_array(_INTS), float_array(_FLOATS))
    monkeypatch.setattr(wire, "_BIG_ENDIAN", True)
    enc = wire.encode_tuple(tup)
    # On a little-endian host the swapped buffer reads as big-endian elements.
    want = (b"\x02\x00\x00\x00"
            + b"\x05" + struct.pack("<I", 6) + struct.pack(">6q", *_INTS)
            + b"\x06" + struct.pack("<I", 6) + struct.pack(">6d", *_FLOATS))
    if sys.byteorder == "little":
        assert enc == want
    got = wire.decode_tuple(enc)
    assert got == tup
    assert tup.fields[0].data.tolist() == _INTS


def test_template_wildcard_tags():
    enc = wire.encode_template(template(ANY))
    assert enc == b"\x01\x00\x00\x00\x10"
    enc = wire.encode_template(template(wildcard(INT)))
    assert enc == b"\x01\x00\x00\x00\x11"
    enc = wire.encode_template(template(lit("x"), ANY))
    assert enc == b"\x02\x00\x00\x00" + b"\x03\x01\x00\x00\x00x" + b"\x10"


def test_figure_tuple_roundtrip():
    t = make_tuple("goofy", 4, 10.4)
    assert wire.decode_tuple(wire.encode_tuple(t)) == t


def test_roundtrip_random_sample():
    rng = SplitMix64(11)
    for _ in range(2000):
        t = random_tuple(rng)
        assert wire.decode_tuple(wire.encode_tuple(t)) == t
        tpl = random_template(rng)
        assert wire.decode_template(wire.encode_template(tpl)) == tpl


_scalars = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.text(max_size=6),
    st.binary(max_size=6),
)
_values = st.one_of(
    _scalars.map(value_of),
    st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1), max_size=4).map(int_array),
    st.lists(st.floats(allow_nan=True, width=64), max_size=4).map(float_array),
)


@given(st.lists(_values, min_size=1, max_size=4).map(Tuple))
def test_roundtrip_property(t):
    assert wire.decode_tuple(wire.encode_tuple(t)) == t


def test_malformed_unknown_tag():
    with pytest.raises(MalformedFrame):
        wire.decode_tuple(b"\x01\x00\x00\x00\x07" + b"\x00" * 8)
    with pytest.raises(MalformedFrame):
        wire.decode_template(b"\x01\x00\x00\x00\x42")


def test_malformed_truncation_and_trailing():
    good = wire.encode_tuple(make_tuple("goofy", 4, 10.4))
    for cut in range(len(good)):
        with pytest.raises(MalformedFrame):
            wire.decode_tuple(good[:cut])
    with pytest.raises(MalformedFrame):
        wire.decode_tuple(good + b"\x00")


def test_malformed_bad_utf8():
    bad = b"\x01\x00\x00\x00" + b"\x03" + b"\x02\x00\x00\x00" + b"\xff\xfe"
    with pytest.raises(MalformedFrame):
        wire.decode_tuple(bad)


def test_malformed_length_overrun():
    # declared string length exceeds the available bytes
    bad = b"\x01\x00\x00\x00" + b"\x03" + b"\xff\x00\x00\x00" + b"xy"
    with pytest.raises(MalformedFrame):
        wire.decode_tuple(bad)


def test_malformed_zero_arity():
    with pytest.raises(MalformedFrame):
        wire.decode_tuple(b"\x00\x00\x00\x00")


def test_frame_roundtrip_and_fuzz():
    body = wire.encode_tuple(make_tuple("f", 1))
    frame = wire.build_frame(wire.MSG_OUT, 77, body)
    msg_type, rid, got = wire.parse_frame(frame)
    assert (msg_type, rid, got) == (wire.MSG_OUT, 77, body)
    for cut in range(len(frame)):
        with pytest.raises(MalformedFrame):
            wire.parse_frame(frame[:cut])
    with pytest.raises(MalformedFrame):
        wire.parse_frame(frame + b"\x00")


def test_frame_length_bounds():
    with pytest.raises(MalformedFrame):
        wire.parse_frame(struct.pack("<I", 3) + b"\x00" * 3)
    with pytest.raises(MalformedFrame):
        wire.parse_frame(struct.pack("<I", wire.MAX_FRAME + 1) + b"\x00" * 16)
    with pytest.raises(PayloadTooLarge):
        wire.build_frame(wire.MSG_OUT, 1, b"\x00" * wire.MAX_FRAME)


def test_pop_frame_splits_a_stream_fed_in_pieces():
    frames = [wire.build_frame(wire.MSG_REPLY_TUPLE, 5, wire.encode_tuple(make_tuple("p", 1))),
              wire.build_frame(wire.MSG_REPLY_NONE, 6),
              wire.build_frame(wire.MSG_COUNT_REPLY, 2**64 - 1, wire.pack_count_reply(3))]
    stream = b"".join(frames)
    for piece in (1, 7, len(stream)):
        buf = bytearray()
        got = []
        for at in range(0, len(stream), piece):
            buf += stream[at:at + piece]
            while (frame := wire.pop_frame(buf)) is not None:
                got.append(frame)
        assert got == [wire.parse_frame(f) for f in frames]
        assert buf == bytearray()
    assert wire.frame_size(stream[:3]) == 0
    assert wire.frame_size(stream[:4]) == len(frames[0])
    for length in (3, wire.MAX_FRAME + 1):
        with pytest.raises(MalformedFrame):
            wire.pop_frame(bytearray(struct.pack("<I", length)))


@pytest.mark.parametrize("size", [10, 3 * wire.RECV_SIZE])
def test_read_frame_returns_none_at_its_deadline_and_keeps_partial_bytes(size):
    frame = wire.build_frame(wire.MSG_OUT, 9, wire.encode_tuple(make_tuple("r", b"\x05" * size)))
    for cut in (2, 8, len(frame) // 2, len(frame) - 1):
        a, b = socket.socketpair()
        try:
            reader = wire.FrameReader(a)
            b.sendall(frame[:cut])
            t0 = time.monotonic()
            reader.deadline = t0 + 0.03
            assert wire.read_frame(reader) is None
            assert time.monotonic() - t0 >= 0.03
            assert wire.read_frame(reader) is None  # past its deadline: no wait at all
            b.sendall(frame[cut:])
            reader.deadline = time.monotonic() + 10
            assert wire.read_frame(reader) == wire.parse_frame(frame)
            b.close()
            with pytest.raises(ConnectionLost):
                wire.read_frame(reader)
        finally:
            a.close()
            b.close()


def test_body_helpers_roundtrip():
    assert wire.unpack_hello(wire.pack_hello("worker3")) == (wire.PROTOCOL_VERSION, "worker3")
    assert wire.unpack_err(wire.pack_err(3, "late")) == (3, "late")
    tpl = template("a", ANY)
    ms, got = wire.unpack_blocking(wire.pack_blocking(wire.INFINITE_MS, tpl))
    assert ms == wire.INFINITE_MS and got == tpl
    ms, got = wire.unpack_blocking(wire.pack_blocking(0, tpl))
    assert ms == 0 and got == tpl
    assert wire.unpack_count_reply(wire.pack_count_reply(12345)) == 12345
