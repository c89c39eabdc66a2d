"""Shared test helpers: random generators, mini-topologies, a scan oracle."""

from __future__ import annotations

import socket
import struct
import threading
from contextlib import contextmanager

from tuplespaces import (
    ANY,
    AddressInUse,
    LocalSpace,
    NodeAddress,
    RemoteSpace,
    SpaceServer,
    Template,
    Tuple,
    lit,
    match,
    wildcard,
    wire,
)
from tuplespaces.rng import SplitMix64
from tuplespaces.tuples import ALL_TAGS, float_array, int_array


# -- random tuples / templates over the full value universe ---------------------

def random_float_bits(rng: SplitMix64) -> float:
    """Any 64-bit pattern, NaNs and infinities included."""
    return struct.unpack("<d", struct.pack("<Q", rng.next_u64()))[0]


_CODEPOINT_RANGES = ((0x20, 0x7E), (0xA1, 0x2FF), (0x4E00, 0x4EFF), (0x1F300, 0x1F3FF))


def random_text(rng: SplitMix64, max_len: int = 10) -> str:
    n = rng.below(max_len + 1)
    chars = []
    for _ in range(n):
        lo, hi = _CODEPOINT_RANGES[rng.below(len(_CODEPOINT_RANGES))]
        chars.append(chr(lo + rng.below(hi - lo + 1)))
    return "".join(chars)


def random_value(rng: SplitMix64, max_elems: int = 8):
    """A field value of any of the six tags, as make_tuple and lit take it."""
    k = rng.below(6)
    if k == 0:
        return rng.next_i64()
    if k == 1:
        return random_float_bits(rng)
    if k == 2:
        return random_text(rng)
    if k == 3:
        return bytes(rng.below(256) for _ in range(rng.below(max_elems + 1)))
    if k == 4:
        return int_array(rng.next_i64() for _ in range(rng.below(max_elems + 1)))
    return float_array(random_float_bits(rng) for _ in range(rng.below(max_elems + 1)))


def random_tuple(rng: SplitMix64, max_arity: int = 4) -> Tuple:
    arity = 1 + rng.below(max_arity)
    return Tuple([random_value(rng) for _ in range(arity)])


def random_template(rng: SplitMix64, max_arity: int = 4) -> Template:
    arity = 1 + rng.below(max_arity)
    fields = []
    for _ in range(arity):
        k = rng.below(3)
        if k == 0:
            fields.append(lit(random_value(rng)))
        elif k == 1:
            fields.append(wildcard(ALL_TAGS[rng.below(len(ALL_TAGS))]))
        else:
            fields.append(ANY)
    return Template(fields)


def template_from_tuple(rng: SplitMix64, tup: Tuple) -> Template:
    """A template derived from a tuple (matches it by construction)."""
    fields = []
    for tag, x in zip(tup.tags, tup.data):
        k = rng.below(3)
        if k == 0:
            fields.append(lit(x))
        elif k == 1:
            fields.append(wildcard(tag))
        else:
            fields.append(ANY)
    return Template(fields)


# -- scan oracle for the store ----------------------------------------------------

class ShadowSpace:
    """Brute-force flat-list model of LocalSpace's probe semantics."""

    def __init__(self):
        self.items: list[tuple[int, Tuple]] = []
        self.stamp = 0

    def out(self, tup: Tuple) -> None:
        self.stamp += 1
        self.items.append((self.stamp, tup))

    def rdp(self, tpl: Template):
        for _, tup in self.items:
            if match(tpl, tup):
                return tup
        return None

    def inp(self, tpl: Template):
        for i, (_, tup) in enumerate(self.items):
            if match(tpl, tup):
                self.items.pop(i)
                return tup
        return None

    def count(self, tpl: Template) -> int:
        return sum(1 for _, tup in self.items if match(tpl, tup))

    def snapshot(self) -> list[Tuple]:
        return [t for _, t in self.items]


# -- mini network topologies -------------------------------------------------------

@contextmanager
def served_space(name: str = "srv"):
    space = LocalSpace(name)
    server = SpaceServer(space, port=0, name=name).start()
    try:
        yield space, server
    finally:
        server.stop()


@contextmanager
def connected(server: SpaceServer, name: str = "cli"):
    remote = RemoteSpace.connect(NodeAddress("127.0.0.1", server.port, server.name), name)
    try:
        yield remote
    finally:
        remote.close()


@contextmanager
def raw_listener(script=None, port: int = 0):
    """A hand-driven server on 127.0.0.1:port (0 picks a free one).

    The server thread accepts one connection, answers its HELLO and then runs
    `script(conn, reader)` on the accepted socket and its FrameReader, if
    given, and returns.  Yields the bound port, the server thread and the
    list holding the accepted socket; everything is closed on exit.
    """
    listener = socket.socket()
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", port))
    listener.listen(1)
    accepted = []

    def serve():
        try:
            conn, _ = listener.accept()
        except OSError:
            return  # closed before anybody connected
        accepted.append(conn)
        reader = wire.FrameReader(conn)
        wire.read_frame(reader)
        conn.sendall(wire.build_frame(wire.MSG_HELLO, 0, wire.pack_hello("raw")))
        if script is not None:
            script(conn, reader)

    th = threading.Thread(target=serve, daemon=True)
    th.start()
    try:
        yield listener.getsockname()[1], th, accepted
    finally:
        if not accepted:
            listener.shutdown(socket.SHUT_RDWR)  # wakes an accept() that never got a peer
        listener.close()
        th.join(5)
        for conn in accepted:
            conn.close()


@contextmanager
def raw_peer(script=None):
    """A RemoteSpace connected to a raw_listener; yields the client, the
    server thread and the list holding the accepted socket."""
    with raw_listener(script) as (port, th, accepted):
        cl = RemoteSpace.connect(NodeAddress("127.0.0.1", port, "raw"))
        try:
            yield cl, th, accepted
        finally:
            cl.close()


def find_free_base_port(count: int, start: int = 20011, end: int = 60000) -> int:
    """A base such that base..base+count-1 are all currently bindable."""
    for base in range(start, end, max(count, 7)):
        ok = True
        socks = []
        try:
            for off in range(count):
                s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                try:
                    s.bind(("127.0.0.1", base + off))
                except OSError:
                    ok = False
                    s.close()
                    break
                socks.append(s)
        finally:
            for s in socks:
                s.close()
        if ok:
            return base
    raise AddressInUse(f"no free port range of {count} found")
