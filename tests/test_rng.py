"""splitmix64 against the published reference stream."""

import pytest

from tuplespaces import rng as rng_mod
from tuplespaces.bench.reference import digest_ints, sort_input
from tuplespaces.rng import SplitMix64


def test_reference_vector_seed_1234567():
    r = SplitMix64(1234567)
    assert [r.next_u64() for _ in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_reference_vector_seed_zero():
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF


def test_determinism_and_independence():
    a = SplitMix64(99)
    b = SplitMix64(99)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_signed_reinterpretation():
    r = SplitMix64(5)
    for _ in range(100):
        v = r.next_i64()
        assert -(1 << 63) <= v < (1 << 63)


def test_below_and_float_ranges():
    r = SplitMix64(8)
    for _ in range(200):
        assert 0 <= r.below(7) < 7
        f = r.next_float()
        assert 0.0 <= f < 1.0
    with pytest.raises(ValueError):
        r.below(0)


def test_seed_masked_to_64_bits():
    assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
@pytest.mark.parametrize("n", [0, 1, 1000, 2 * rng_mod._LANES + 1])
def test_i64_array_is_n_next_i64_draws(seed, n):
    packed = SplitMix64(seed)
    one_by_one = SplitMix64(seed)
    got = packed.i64_array(n)
    assert got.typecode == "q"
    assert got.tolist() == [one_by_one.next_i64() for _ in range(n)]
    assert packed.next_u64() == one_by_one.next_u64()


def test_i64_array_swaps_bytes_for_the_other_byte_order(monkeypatch):
    want = SplitMix64(3).i64_array(10)
    monkeypatch.setattr(rng_mod, "_BIG_ENDIAN", not rng_mod._BIG_ENDIAN)
    got = SplitMix64(3).i64_array(10)
    got.byteswap()
    assert got == want


def test_sort_input_unchanged():
    # sha256 of the little-endian int64 stream the sort benchmark feeds in.
    assert digest_ints(sort_input(SplitMix64(1), 400000)) == (
        "bf9975887f0adcec7fff486e5caeb426bbe7020f3da5147d24d700593a4aa0d2")
