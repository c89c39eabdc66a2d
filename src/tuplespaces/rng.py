"""Deterministic 64-bit PRNG (splitmix64) for reproducible benchmark inputs.

The algorithm is fixed repo-wide so that identical seeds produce identical
inputs on any implementation: state advances by the golden-gamma constant
0x9E3779B97F4A7C15 and the output is the standard two-round mix.  Derived
draws are defined on top of the raw stream:

    below(n)     = next_u64() % n
    next_i64()   = next_u64() reinterpreted as two's complement
    next_float() = (next_u64() >> 11) * 2**-53      (in [0, 1))
    i64_array(n) = n next_i64() draws packed in an array('q')
"""

from __future__ import annotations

import sys
from array import array

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_LANES = 4096  # draws per block in i64_array (64 KiB big ints)
_LANE_LOW = b"\xff" * 8 + bytes(8)  # one lane's low-half mask, little-endian
_BIG_ENDIAN = sys.byteorder == "big"  # array('q') reads native order


class SplitMix64:
    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def next_i64(self) -> int:
        u = self.next_u64()
        return u - (1 << 64) if u >= (1 << 63) else u

    def i64_array(self, n: int) -> array:
        """The next n next_i64() draws as an array('q'), state advanced alike.

        The draws are computed a block at a time on one big int: draw k of a
        block sits in bits [128k, 128k + 64), and the upper 64 bits of each
        128-bit lane absorb a product's overflow and a shift's spill from the
        next lane until the mask clears them.  So each step of the mix runs
        once per block, in C, instead of once per draw.
        """
        out = array("q")
        block = min(n, _LANES)
        if not block:
            return out
        low = int.from_bytes(_LANE_LOW * block, "little")  # 2**64 - 1 per lane
        ones = low // _MASK  # 1 per lane
        steps = int.from_bytes(b"".join((k * _GAMMA).to_bytes(16, "little")
                                        for k in range(1, block + 1)), "little")
        state = self._state
        for _ in range(0, n, block):
            z = (steps + ones * state) & low
            z = ((z ^ (z >> 30)) & low) * _MIX1 & low
            z = ((z ^ (z >> 27)) & low) * _MIX2 & low
            z = (z ^ (z >> 31)) & low
            words = array("q", z.to_bytes(16 * block, "little"))
            if _BIG_ENDIAN:
                words.byteswap()
            out += words[0::2]
            state = (state + block * _GAMMA) & _MASK
        del out[n:]
        self._state = (self._state + n * _GAMMA) & _MASK
        return out

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n

    def next_float(self) -> float:
        return (self.next_u64() >> 11) * (2.0 ** -53)
