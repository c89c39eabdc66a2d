"""Shared test helpers: random generators, mini-topologies, a scan oracle."""

from __future__ import annotations

from contextlib import contextmanager

from tuplespaces import (
    ANY,
    LocalSpace,
    NodeAddress,
    RemoteSpace,
    SpaceServer,
    Template,
    Tuple,
    lit,
    match,
    wildcard,
)
from tuplespaces.rng import SplitMix64
from tuplespaces.tuples import ALL_TAGS, float_array, int_array
import struct


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
