"""Binary wire protocol: tuple/template codec and length-prefixed frames.

Everything is little-endian and bit-exact.  A frame is

    u32 length | u8 msg_type | u64 request_id | body

where length covers msg_type + request_id + body (9 + len(body)).  Tuples
are encoded as u32 arity then tagged fields; templates reuse the value tags
for literals and use 0x10 for the any-wildcard and 0x10+tag for a type
wildcard.  These field codes are exactly a tuple's ``tags`` and a template's
``codes`` (see tuples.py), so one loop encodes either, joining its parts in
one copy, and one decoder loop builds the ``codes`` and ``data`` tuples
straight from the bytes, with no object per field.  An array field is u32 n
then its n little-endian 8-byte elements, copied to and from the ``array``
buffer in one step (byteswapped on a big-endian host).  Decoding is strict:
unknown tags, truncation, oversized declared lengths, trailing bytes and
invalid UTF-8 all raise MalformedFrame rather than ever mis-decoding.  The
decoders read at offsets with `Struct.unpack_from`, straight from the body,
be it bytes or a memoryview; there is no cursor object, and `_whole` checks
that a body is used to its last byte.  A tuple decoded from a whole `bytes`
body keeps it, and `encode_tuple` returns it: a tuple that arrived by OUT is
sent back to each probe that hits it without being encoded again.  A
memoryview body (a frame received in place) is not kept.  The encoding is
canonical, so the kept body equals what encoding would build.  A template
keeps its encoding too, from the first `encode_template` on, so a client
probing with one template again and again encodes it once.

`read_frame` is the one way to read frames off a socket, for the server's
connection threads and the client's readers alike.  It reads through a
`FrameReader`, which keeps the bytes received so far and a deadline: the call
returns None once the deadline passes, keeping any partial frame for the next
call.  When nothing is buffered and one recv returns exactly one whole frame,
the usual case for a request or a reply, the frame is returned straight from
that chunk.  `frame_size` holds the only check of a frame's length prefix.
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
    BYTES,
    FLOAT,
    FLOAT_ARRAY,
    INT,
    INT_ARRAY,
    STR,
    WILDCARD_CODES,
    Template,
    Tuple,
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

_NO_WILDCARDS = frozenset()

_U16_U32 = struct.Struct("<HI")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_FRAME_HEAD = struct.Struct("<IBQ")

_u32_pack = _U32.pack
# A field's code with its fixed-size payload, or with the u32 length that
# leads a str, bytes or array payload.
_int_field = struct.Struct("<Bq").pack
_float_field = struct.Struct("<Bd").pack
_sized_head = struct.Struct("<BI").pack
_WILDCARD_BYTES = {code: bytes((code,)) for code in WILDCARD_CODES}
_u32_from = _U32.unpack_from
_i64_from = _I64.unpack_from
_f64_from = _F64.unpack_from

# Array buffers are native order; the wire is little-endian.
_BIG_ENDIAN = sys.byteorder == "big"


def _encode(codes: tuple, data: tuple) -> bytes:
    """The u32 arity, then each field's code and payload, joined in one copy.
    A wildcard code has no payload."""
    parts = [_u32_pack(len(codes))]
    add = parts.append
    for code, x in zip(codes, data):
        if code == STR:
            x = x.encode("utf-8")
            add(_sized_head(code, len(x)))
            add(x)
        elif code == INT:
            add(_int_field(code, x))
        elif code == FLOAT:
            add(_float_field(code, x))
        elif code == BYTES:
            add(_sized_head(code, len(x)))
            add(x)
        elif code == INT_ARRAY or code == FLOAT_ARRAY:
            add(_sized_head(code, len(x)))
            if _BIG_ENDIAN:
                x = array(x.typecode, x)
                x.byteswap()
            add(x)
        else:
            add(_WILDCARD_BYTES[code])
    return b"".join(parts)


def encode_tuple(tup: Tuple) -> bytes:
    """The tuple's encoding: the body it was decoded from, when it kept one."""
    body = tup.body
    if body is not None:
        return body
    return _encode(tup.tags, tup.data)


def encode_template(tpl: Template) -> bytes:
    """The template's encoding, built on the first call and kept as its
    ``body``: later calls return the same bytes."""
    body = tpl.body
    if body is None:
        body = tpl.body = _encode(tpl.codes, tpl.data)
    return body


_TRUNCATED = "truncated: declared length exceeds available bytes"
_new_object = object.__new__


def _fields_at(buf, pos: int, wildcards: frozenset) -> tuple[tuple, tuple, int]:
    """The (codes, data) of the u32 arity and the fields starting at buf[pos],
    and where they end.  A code in ``wildcards`` has no payload; any other
    code that is not a value tag is malformed.

    A fixed-size read past the end raises struct.error or IndexError, which
    _whole turns into MalformedFrame; a declared length is checked here.
    """
    (arity,) = _u32_from(buf, pos)
    if arity < 1:
        raise MalformedFrame("arity must be >= 1")
    pos += 4
    codes = []
    data = []
    for _ in range(arity):
        code = buf[pos]
        pos += 1
        if code == STR or code == BYTES:
            (n,) = _u32_from(buf, pos)
            pos += 4
            end = pos + n
            if end > len(buf):
                raise MalformedFrame(_TRUNCATED)
            if code == STR:
                try:
                    x = str(buf[pos:end], "utf-8")
                except UnicodeDecodeError as e:
                    raise MalformedFrame(f"invalid UTF-8 in string field: {e}") from None
            else:
                x = bytes(buf[pos:end])
            pos = end
        elif code == INT:
            x = _i64_from(buf, pos)[0]
            pos += 8
        elif code == FLOAT:
            x = _f64_from(buf, pos)[0]
            pos += 8
        elif code == INT_ARRAY or code == FLOAT_ARRAY:
            (n,) = _u32_from(buf, pos)
            pos += 4
            end = pos + 8 * n
            if end > len(buf):
                raise MalformedFrame(_TRUNCATED)
            x = array("q" if code == INT_ARRAY else "d")
            x.frombytes(buf[pos:end])
            if _BIG_ENDIAN:
                x.byteswap()
            pos = end
        elif code in wildcards:
            x = None
        else:
            raise MalformedFrame(f"unknown field code {code}")
        codes.append(code)
        data.append(x)
    return tuple(codes), tuple(data), pos


def _tuple_at(buf, pos: int) -> tuple[Tuple, int]:
    # Built without Tuple.__init__: _fields_at has checked every field.
    tup = _new_object(Tuple)
    tup.tags, tup.data, end = _fields_at(buf, pos, _NO_WILDCARDS)
    return tup, end


def decode_tuple(data: bytes | memoryview) -> Tuple:
    """The tuple encoded in ``data``, which keeps ``data`` as its ``body``
    when it is ``bytes``: encode_tuple then returns it as it is.  A
    memoryview (a frame received in place) is not kept."""
    tup = _whole(_tuple_at, data)
    tup.body = data if type(data) is bytes else None
    return tup


def _template_at(buf, pos: int) -> tuple[Template, int]:
    tpl = _new_object(Template)
    tpl.codes, tpl.data, end = _fields_at(buf, pos, WILDCARD_CODES)
    tpl.body = None
    return tpl, end


def decode_template(data: bytes | memoryview) -> Template:
    return _whole(_template_at, data)


def _whole(decode, body: bytes | memoryview):
    """decode(body, 0) -> (result, end), strictly: the result must use every
    byte of the body, and a read past its end raises MalformedFrame."""
    try:
        result, end = decode(body, 0)
    except (IndexError, struct.error):
        raise MalformedFrame(_TRUNCATED) from None
    if end != len(body):
        raise MalformedFrame(f"{len(body) - end} trailing bytes")
    return result


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
        if large is not None:
            if reader._filled == len(large[2]):
                reader._large = None
                return large
        elif buf:
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
        if reader.deadline is not None:
            remaining = reader.deadline - time.monotonic()
            if remaining <= 0:
                return None
            if not reader._poll.poll(min(math.ceil(remaining * 1000.0), _POLL_MAX_MS)):
                continue
        if large is None:
            chunk = reader.sock.recv(RECV_SIZE)
            if not chunk:
                raise ConnectionLost("connection closed by the peer")
            if not buf and frame_size(chunk) == len(chunk):
                # Exactly one whole frame, the usual request or reply.
                return chunk[4], _U64.unpack_from(chunk, 5)[0], chunk[_HEAD_END:]
            buf += chunk
        else:
            got = reader.sock.recv_into(large[2][reader._filled:])
            if not got:
                raise ConnectionLost("connection closed by the peer")
            reader._filled += got


# -- body helpers ------------------------------------------------------------

def pack_hello(name: str, version: int = PROTOCOL_VERSION) -> bytes:
    raw = name.encode("utf-8")
    return _U16_U32.pack(version, len(raw)) + raw


def _code_and_text_at(body, pos: int) -> tuple[tuple[int, bytes | memoryview], int]:
    """A u16 code and a u32-length-prefixed text: HELLO and REPLY_ERR bodies."""
    code, n = _U16_U32.unpack_from(body, pos)
    end = pos + 6 + n
    if end > len(body):
        raise MalformedFrame(_TRUNCATED)
    return (code, body[pos + 6:end]), end


def unpack_hello(body: bytes | memoryview) -> tuple[int, str]:
    version, raw = _whole(_code_and_text_at, body)
    try:
        return version, str(raw, "utf-8")
    except UnicodeDecodeError as e:
        raise MalformedFrame(f"invalid UTF-8 in hello name: {e}") from None


def pack_err(code: int, message: str) -> bytes:
    raw = message.encode("utf-8")
    return _U16_U32.pack(code, len(raw)) + raw


def unpack_err(body: bytes | memoryview) -> tuple[int, str]:
    code, raw = _whole(_code_and_text_at, body)
    return code, str(raw, "utf-8", "replace")


def _u64_at(body, pos: int) -> tuple[int, int]:
    return _U64.unpack_from(body, pos)[0], pos + 8


def pack_blocking(timeout_ms: int, tpl: Template) -> bytes:
    return _U64.pack(timeout_ms) + encode_template(tpl)


def _blocking_at(body, pos: int) -> tuple[tuple[int, Template], int]:
    timeout_ms, pos = _u64_at(body, pos)
    tpl, end = _template_at(body, pos)
    return (timeout_ms, tpl), end


def unpack_blocking(body: bytes | memoryview) -> tuple[int, Template]:
    return _whole(_blocking_at, body)


def pack_count_reply(n: int) -> bytes:
    return _U64.pack(n)


def unpack_count_reply(body: bytes | memoryview) -> int:
    return _whole(_u64_at, body)
