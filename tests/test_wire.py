"""Codec bit-exactness, strict decoding, frame integrity."""

import hashlib
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
from tuplespaces.tuples import ALL_TAGS

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
        assert got.data[0].tobytes() == tup.data[0].tobytes()
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
    assert tup.data[0].tolist() == _INTS



# -- the wire format, pinned ----------------------------------------------------

def _float_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


_PINNED_TEXT = ((0x20, 0x7E), (0xA1, 0x2FF), (0x4E00, 0x4EFF), (0x1F300, 0x1F3FF))


def _pinned_text(rng: SplitMix64) -> str:
    chars = []
    for _ in range(rng.below(9)):
        lo, hi = _PINNED_TEXT[rng.below(len(_PINNED_TEXT))]
        chars.append(chr(lo + rng.below(hi - lo + 1)))
    return "".join(chars)


def _pinned_value(rng: SplitMix64):
    k = rng.below(8)
    if k == 0:
        return rng.next_i64()
    if k == 1:
        return _float_bits(rng.next_u64())
    if k == 2:
        return _pinned_text(rng)
    if k == 3:
        return bytes(rng.below(256) for _ in range(rng.below(9)))
    if k == 4:
        return int_array(rng.next_i64() for _ in range(rng.below(6)))
    if k == 5:
        return float_array(_float_bits(rng.next_u64()) for _ in range(rng.below(6)))
    # The edges: int64 bounds, both zeros, NaN payloads of either sign,
    # empty str, bytes and arrays, and a string beyond the BMP.
    return (-(2**63), 2**63 - 1, 0.0, -0.0, _float_bits(0x7FF8000000000001),
            _float_bits(0xFFF0000000000002), _float_bits(0x7FF8000000000000), "", b"",
            int_array([]), float_array([]), "\u00e9\u2603\U0001F30D")[rng.below(12)]


def _pinned_pattern(rng: SplitMix64):
    k = rng.below(4)
    if k == 0:
        return ANY
    if k == 1:
        return wildcard(ALL_TAGS[rng.below(len(ALL_TAGS))])
    return lit(_pinned_value(rng))


def _pinned_corpus():
    """Tuples, templates and blocking bodies drawn from one SplitMix64 seed,
    led by a tuple of all six tags and a template of ANY and every type
    wildcard."""
    rng = SplitMix64(20261019)
    tuples = [make_tuple(1, 0.5, "s", b"b", int_array([1]), float_array([0.5]))]
    templates = [template(ANY, *(wildcard(tag) for tag in ALL_TAGS))]
    tuples += [make_tuple(*(_pinned_value(rng) for _ in range(1 + rng.below(5))))
               for _ in range(300)]
    templates += [template(*(_pinned_pattern(rng) for _ in range(1 + rng.below(5))))
                  for _ in range(300)]
    timeouts = (0, 1, 250, wire.INFINITE_MS)
    blocking = [(timeouts[i % 4] if i % 5 else rng.next_u64(),
                 templates[rng.below(len(templates))]) for i in range(100)]
    return tuples, templates, blocking


# SHA-256 of the corpus's encodings, computed before tuples and templates
# were stored flat; any change to the wire format changes it.
_PINNED_DIGEST = "360b2202e8efa72dd03afdf8bfe8b08cc2bc848f5b6a45ca5a6bd038fdb730c4"


def test_pinned_corpus_encodes_to_the_pinned_digest_and_decodes_back():
    tuples, templates, blocking = _pinned_corpus()
    # The corpus holds every edge, in tuples and in template literals.
    for fields in ([t.data for t in tuples], [t.data for t in templates]):
        held = {(type(x), x.tobytes() if hasattr(x, "tobytes") else x)
                for data in fields for x in data if type(x) is not float}
        held |= {struct.pack("<d", x) for data in fields for x in data if type(x) is float}
        for edge in (-(2**63), 2**63 - 1, "", b"", "\u00e9\u2603\U0001F30D"):
            assert (type(edge), edge) in held
        assert {struct.pack("<Q", bits) for bits in (0, 1 << 63, 0x7FF8000000000001,
                                                    0xFFF0000000000002)} <= held
        assert {(t, b"") for t in (type(int_array([])), type(float_array([])))} <= held
    digest = hashlib.sha256()
    for tup in tuples:
        enc = wire.encode_tuple(tup)
        digest.update(enc)
        assert wire.decode_tuple(enc) == tup
    for tpl in templates:
        enc = wire.encode_template(tpl)
        digest.update(enc)
        assert wire.decode_template(enc) == tpl
    for timeout_ms, tpl in blocking:
        enc = wire.pack_blocking(timeout_ms, tpl)
        digest.update(enc)
        assert wire.unpack_blocking(enc) == (timeout_ms, tpl)
    assert digest.hexdigest() == _PINNED_DIGEST

def test_a_tuple_decoded_from_bytes_encodes_to_those_bytes():
    tuples, _, _ = _pinned_corpus()
    for tup in tuples:
        enc = wire.encode_tuple(tup)
        decoded = wire.decode_tuple(enc)
        assert decoded.body is enc
        assert wire.encode_tuple(decoded) is enc
        fresh = Tuple(decoded.data)
        assert fresh == decoded and fresh.body is None
        assert wire.encode_tuple(fresh) == enc


def test_a_tuple_decoded_from_a_memoryview_keeps_nothing():
    enc = wire.encode_tuple(make_tuple("piece", int_array(range(1000))))
    for body in (memoryview(enc), memoryview(bytearray(enc))):
        decoded = wire.decode_tuple(body)
        assert decoded.body is None
        assert wire.encode_tuple(decoded) == enc


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
    _scalars,
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


# One field of every tag, and a template with a literal and both wildcards;
# each encoding is built field by field so that its tag offsets are known.
_EVERY_TAG = (-5, 2.5, "é", b"\x00\xff", int_array([1, -2]), float_array([0.5]))
_PATTERN = (lit("k"), wildcard(INT), ANY)
_VALUE_TAGS = frozenset(range(1, 7))
_PATTERN_TAGS = _VALUE_TAGS | frozenset(range(0x10, 0x17))


def _tag_offsets(parts: list, start: int) -> list:
    """Where each field's tag byte sits, the arity word starting at `start`."""
    offsets, at = [], start + 4
    for part in parts:
        offsets.append(at)
        at += len(part)
    return offsets


def _strict_cases():
    fields = [wire.encode_tuple(make_tuple(x))[4:] for x in _EVERY_TAG]
    patterns = [wire.encode_template(template(f))[4:] for f in _PATTERN]
    tup, tpl = make_tuple(*_EVERY_TAG), template(*_PATTERN)
    return [
        (wire.decode_tuple, wire.encode_tuple(tup), tup, _tag_offsets(fields, 0), _VALUE_TAGS),
        (wire.decode_template, wire.encode_template(tpl), tpl,
         _tag_offsets(patterns, 0), _PATTERN_TAGS),
        (wire.unpack_blocking, wire.pack_blocking(250, tpl), (250, tpl),
         _tag_offsets(patterns, 8), _PATTERN_TAGS),
    ]


@pytest.mark.parametrize("case", range(3), ids=["tuple", "template", "blocking"])
@pytest.mark.parametrize("as_view", [False, True], ids=["bytes", "memoryview"])
def test_every_prefix_extension_and_bad_tag_is_malformed(case, as_view):
    decode, enc, want, tag_offsets, valid_tags = _strict_cases()[case]

    def body(data: bytes):
        # A view of a bytearray is what read_frame returns for a large body.
        return memoryview(bytearray(data)) if as_view else data

    assert decode(enc) == want
    assert decode(body(enc)) == want
    for cut in range(len(enc)):
        with pytest.raises(MalformedFrame):
            decode(body(enc[:cut]))
    for extra in range(256):
        with pytest.raises(MalformedFrame):
            decode(body(enc + bytes([extra])))
    for at in tag_offsets:
        assert enc[at] in valid_tags
        for tag in range(256):
            if tag not in valid_tags:
                with pytest.raises(MalformedFrame):
                    decode(body(enc[:at] + bytes([tag]) + enc[at + 1:]))


_STREAM_FRAMES = [
    wire.build_frame(wire.MSG_REPLY_TUPLE, 5, wire.encode_tuple(make_tuple("p", 1, 2.5))),
    wire.build_frame(wire.MSG_REPLY_NONE, 6),
    wire.build_frame(wire.MSG_COUNT_REPLY, 7, wire.pack_count_reply(3)),
]


@pytest.mark.parametrize("sends", [
    [_STREAM_FRAMES[0]],
    [_STREAM_FRAMES[0] + _STREAM_FRAMES[1]],
    [_STREAM_FRAMES[2] + _STREAM_FRAMES[0][:9], _STREAM_FRAMES[0][9:]],
], ids=["one-frame", "two-frames", "frame-and-half"])
def test_whole_chunks_read_as_the_same_frames_as_single_bytes(sends):
    """A frame returned straight from its chunk equals one built up byte by byte."""

    def frames_read(pieces: list) -> list:
        a, b = socket.socketpair()
        try:
            reader = wire.FrameReader(a)
            got = []
            for piece in pieces:
                b.sendall(piece)
                # Read all the piece completes before sending the next, so
                # that each piece reaches the reader in a recv of its own.
                reader.deadline = time.monotonic() + 0.002
                while (frame := wire.read_frame(reader)) is not None:
                    got.append(frame[:2] + (bytes(frame[2]),))
            assert not reader._buf
            return got
        finally:
            a.close()
            b.close()

    stream = b"".join(sends)
    buf, want = bytearray(stream), []
    while (frame := wire.pop_frame(buf)) is not None:
        want.append(frame)
    assert frames_read(sends) == want
    assert frames_read([stream[i:i + 1] for i in range(len(stream))]) == want
