"""Binary wire protocol: tuple/template codec and length-prefixed frames.

Everything is little-endian and bit-exact.  A frame is

    u32 length | u8 msg_type | u64 request_id | body

where length covers msg_type + request_id + body (9 + len(body)).  Tuples
are encoded as u32 arity then tagged fields; templates reuse the value tags
for literals and use 0x10 for the any-wildcard and 0x10+tag for a type
wildcard.  An array field is u32 n then its n little-endian 8-byte elements,
copied to and from the value's ``array`` buffer in one step (byteswapped on
a big-endian host).  Decoding is strict: unknown tags, truncation, oversized
declared lengths, trailing bytes and invalid UTF-8 all raise MalformedFrame
rather than ever mis-decoding.

`read_frame` is the one way to read frames off a socket, for the server's
connection threads and the client's readers alike.  It reads through a
`FrameReader`, which keeps the bytes received so far and a deadline: the call
returns None once the deadline passes, keeping any partial frame for the next
call.  `frame_size` holds the only check of a frame's length prefix.
"""

from __future__ import annotations

import math
import select
import socket
import struct
import sys
import time
from array import array

from .errors import ConnectionLost, MalformedFrame, PayloadTooLarge
from .tuples import (
    ALL_TAGS,
    ANY_WILDCARD,
    BYTES,
    FLOAT,
    FLOAT_ARRAY,
    INT,
    INT_ARRAY,
    LITERAL,
    STR,
    TYPE_WILDCARD,
    PatternField,
    Template,
    Tuple,
    Value,
    _new_template,
    _new_tuple,
)

PROTOCOL_VERSION = 1
MAX_FRAME = 64 * 1024 * 1024  # caller error beyond this
HEADER_LEN = 9  # msg_type + request_id
_HEAD_END = 4 + HEADER_LEN  # where a frame's body starts
# Bytes asked of one recv call.  Small calls keep memory low (64 KiB raised
# matmul's peak RSS by about 0.4 MB).  A frame whose missing part is larger is
# received in place: each recv_into call asks for all that is missing, into
# one buffer of the body's size, so the body is never copied on the way in.
RECV_SIZE = 8 * 1024
# The longest wait poll() accepts, about 24.8 days; a timeout read off the
# wire may be longer.
_POLL_MAX_MS = 2**31 - 1

# Message types.
MSG_OUT = 1
MSG_RDP = 2
MSG_INP = 3
MSG_RD = 4
MSG_IN = 5
MSG_REPLY_TUPLE = 6
MSG_REPLY_NONE = 7
MSG_REPLY_ERR = 8
MSG_HELLO = 9
MSG_CANCEL = 10
MSG_COUNT = 11
MSG_COUNT_REPLY = 12

# REPLY_ERR codes.
ERR_MALFORMED = 1
ERR_UNSUPPORTED = 2
ERR_TIMEOUT = 3
ERR_SHUTTING_DOWN = 4

INFINITE_MS = (1 << 64) - 1  # u64 sentinel: block forever

_WILDCARD_BASE = 0x10

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_FRAME_HEAD = struct.Struct("<IBQ")

# Array buffers are native order; the wire is little-endian.
_BIG_ENDIAN = sys.byteorder == "big"


class _Reader:
    """Cursor over a frame body; every read is bounds-checked.

    The body is bytes, or a memoryview of a large body that read_frame
    received in place; reads then return views, so each field's bytes are
    copied once, into the value decoded from them.
    """

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes | memoryview):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes | memoryview:
        if n < 0 or self.pos + n > len(self.data):
            raise MalformedFrame("truncated: declared length exceeds available bytes")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return _U16.unpack(self.take(2))[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self.take(8))[0]

    def done(self) -> None:
        if self.pos != len(self.data):
            raise MalformedFrame(f"{len(self.data) - self.pos} trailing bytes")


def _encode_payload(buf: bytearray, v: Value) -> None:
    tag = v.tag
    if tag == INT:
        buf += _I64.pack(v.data)
    elif tag == FLOAT:
        buf += _F64.pack(v.data)
    elif tag == STR:
        raw = v.data.encode("utf-8")
        buf += _U32.pack(len(raw))
        buf += raw
    elif tag == BYTES:
        buf += _U32.pack(len(v.data))
        buf += v.data
    elif tag == INT_ARRAY or tag == FLOAT_ARRAY:
        data = v.data
        buf += _U32.pack(len(data))
        if _BIG_ENDIAN:
            data = array(data.typecode, data)
            data.byteswap()
        buf += data
    else:  # pragma: no cover - construction prevents this
        raise MalformedFrame(f"unknown value tag {tag}")


def _decode_payload(r: _Reader, tag: int) -> Value:
    if tag == INT:
        return Value(INT, _I64.unpack(r.take(8))[0])
    if tag == FLOAT:
        return Value(FLOAT, _F64.unpack(r.take(8))[0])
    if tag == STR:
        raw = r.take(r.u32())
        try:
            return Value(STR, str(raw, "utf-8"))
        except UnicodeDecodeError as e:
            raise MalformedFrame(f"invalid UTF-8 in string field: {e}") from None
    if tag == BYTES:
        return Value(BYTES, bytes(r.take(r.u32())))
    if tag == INT_ARRAY or tag == FLOAT_ARRAY:
        data = array("q" if tag == INT_ARRAY else "d")
        data.frombytes(r.take(8 * r.u32()))
        if _BIG_ENDIAN:
            data.byteswap()
        return Value(tag, data)
    raise MalformedFrame(f"unknown value tag {tag}")


def encode_tuple(tup: Tuple) -> bytes:
    buf = bytearray(_U32.pack(tup.arity))
    for v in tup.fields:
        buf.append(v.tag)
        _encode_payload(buf, v)
    return bytes(buf)


def _decode_tuple_at(r: _Reader) -> Tuple:
    arity = r.u32()
    if arity < 1:
        raise MalformedFrame("tuple arity must be >= 1")
    fields = []
    for _ in range(arity):
        fields.append(_decode_payload(r, r.u8()))
    return _new_tuple(tuple(fields))


def decode_tuple(data: bytes) -> Tuple:
    r = _Reader(data)
    tup = _decode_tuple_at(r)
    r.done()
    return tup


def encode_template(tpl: Template) -> bytes:
    buf = bytearray(_U32.pack(tpl.arity))
    for f in tpl.fields:
        if f.kind == LITERAL:
            buf.append(f.value.tag)
            _encode_payload(buf, f.value)
        elif f.kind == ANY_WILDCARD:
            buf.append(_WILDCARD_BASE)
        else:
            buf.append(_WILDCARD_BASE + f.tag)
    return bytes(buf)


def _decode_template_at(r: _Reader) -> Template:
    arity = r.u32()
    if arity < 1:
        raise MalformedFrame("template arity must be >= 1")
    fields = []
    for _ in range(arity):
        tag = r.u8()
        if tag == _WILDCARD_BASE:
            fields.append(PatternField(ANY_WILDCARD))
        elif _WILDCARD_BASE < tag <= _WILDCARD_BASE + max(ALL_TAGS):
            fields.append(PatternField(TYPE_WILDCARD, tag=tag - _WILDCARD_BASE))
        else:
            fields.append(PatternField(LITERAL, value=_decode_payload(r, tag)))
    return _new_template(tuple(fields))


def decode_template(data: bytes) -> Template:
    r = _Reader(data)
    tpl = _decode_template_at(r)
    r.done()
    return tpl


# -- frames ----------------------------------------------------------------

def build_frame(msg_type: int, request_id: int, body: bytes = b"") -> bytes:
    length = HEADER_LEN + len(body)
    if length > MAX_FRAME:
        raise PayloadTooLarge(f"frame of {length} bytes exceeds {MAX_FRAME}")
    return _FRAME_HEAD.pack(length, msg_type, request_id) + body


def parse_frame(data: bytes) -> tuple[int, int, bytes]:
    """Parse one complete frame from bytes (strict, full consumption)."""
    buf = bytearray(data)
    frame = pop_frame(buf)
    if frame is None:
        raise MalformedFrame("truncated frame: fewer bytes than its length prefix declares")
    if buf:
        raise MalformedFrame(f"{len(buf)} trailing bytes after the frame")
    return frame


def frame_size(buf) -> int:
    """Size of the frame at the front of a receive buffer, prefix included.

    0 until the four length bytes are in; a length no frame may have raises
    MalformedFrame as soon as they are.
    """
    if len(buf) < 4:
        return 0
    (length,) = _U32.unpack_from(buf)
    if length < HEADER_LEN or length > MAX_FRAME:
        raise MalformedFrame(f"bad frame length {length}")
    return 4 + length


def pop_frame(buf: bytearray) -> tuple[int, int, bytes] | None:
    """Remove one frame from the front of a receive buffer and return it.

    None while the buffer holds no complete frame (see frame_size).
    """
    end = frame_size(buf)
    if not end or len(buf) < end:
        return None
    msg_type = buf[4]
    (request_id,) = _U64.unpack_from(buf, 5)
    with memoryview(buf) as view:
        body = bytes(view[_HEAD_END:end])
    del buf[:end]
    return msg_type, request_id, body


class FrameReader:
    """One socket's receive side: the bytes received but not yet returned as
    frames, and how long read_frame may wait for the next frame.

    `deadline` is a time.monotonic() value, or None to wait for as long as
    the connection lasts.  Only the thread calling read_frame may set it.
    """

    __slots__ = ("sock", "deadline", "_buf", "_large", "_filled", "_poll")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.deadline: float | None = None
        self._buf = bytearray()
        # (msg_type, request_id, body) of a frame whose body is being
        # received in place, and how many body bytes are in so far.
        self._large: tuple[int, int, memoryview] | None = None
        self._filled = 0
        self._poll = select.poll()
        self._poll.register(sock, select.POLLIN)


def read_frame(reader: FrameReader) -> tuple[int, int, bytes] | None:
    """Next frame off the reader's socket; None when its deadline passes first.

    Bytes already received stay with the reader, so a frame cut off by the
    deadline is completed by a later call.  A frame's body is returned as
    bytes, or as a memoryview of the buffer it was received into.  Raises
    ConnectionLost when the peer closes the connection, MalformedFrame on a
    length prefix no frame may have, and OSError when the socket fails.
    """
    buf = reader._buf
    while True:
        large = reader._large
        if large is None:
            frame = pop_frame(buf)
            if frame is not None:
                return frame
            missing = frame_size(buf) - len(buf)
            if missing > RECV_SIZE and len(buf) >= _HEAD_END:
                # Receive the rest straight into one buffer of the body's size.
                (request_id,) = _U64.unpack_from(buf, 5)
                reader._filled = len(buf) - _HEAD_END
                body = memoryview(bytearray(reader._filled + missing))
                body[:reader._filled] = buf[_HEAD_END:]
                reader._large = large = (buf[4], request_id, body)
                buf.clear()
        elif reader._filled == len(large[2]):
            reader._large = None
            return large
        if reader.deadline is not None:
            remaining = reader.deadline - time.monotonic()
            if remaining <= 0:
                return None
            if not reader._poll.poll(min(math.ceil(remaining * 1000.0), _POLL_MAX_MS)):
                continue
        if large is None:
            chunk = reader.sock.recv(RECV_SIZE)
            buf += chunk
            got = len(chunk)
        else:
            got = reader.sock.recv_into(large[2][reader._filled:])
            reader._filled += got
        if not got:
            raise ConnectionLost("connection closed by the peer")


# -- body helpers ------------------------------------------------------------

def pack_hello(name: str, version: int = PROTOCOL_VERSION) -> bytes:
    raw = name.encode("utf-8")
    return _U16.pack(version) + _U32.pack(len(raw)) + raw


def unpack_hello(body: bytes) -> tuple[int, str]:
    r = _Reader(body)
    version = r.u16()
    raw = r.take(r.u32())
    r.done()
    try:
        return version, str(raw, "utf-8")
    except UnicodeDecodeError as e:
        raise MalformedFrame(f"invalid UTF-8 in hello name: {e}") from None


def pack_err(code: int, message: str) -> bytes:
    raw = message.encode("utf-8")
    return _U16.pack(code) + _U32.pack(len(raw)) + raw


def unpack_err(body: bytes) -> tuple[int, str]:
    r = _Reader(body)
    code = r.u16()
    raw = r.take(r.u32())
    r.done()
    return code, str(raw, "utf-8", "replace")


def pack_blocking(timeout_ms: int, tpl: Template) -> bytes:
    return _U64.pack(timeout_ms) + encode_template(tpl)


def unpack_blocking(body: bytes) -> tuple[int, Template]:
    r = _Reader(body)
    timeout_ms = r.u64()
    tpl = _decode_template_at(r)
    r.done()
    return timeout_ms, tpl


def pack_count_reply(n: int) -> bytes:
    return _U64.pack(n)


def unpack_count_reply(body: bytes) -> int:
    r = _Reader(body)
    n = r.u64()
    r.done()
    return n
