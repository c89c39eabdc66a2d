"""Input generators, correctness oracles and digests for the four cases.

Generators are shared by the distributed run and its oracle so both sides see
identical inputs; oracles are straight single-threaded implementations (full
Jacobi sweep, triple-loop multiply, builtin sort, hashlib MD5) against which
the distributed results are compared bit for bit.
"""

from __future__ import annotations

import hashlib
import struct
from array import array
from functools import lru_cache

from ..rng import SplitMix64


def md5_hex(text: str) -> str:
    return hashlib.md5(text.encode("ascii")).hexdigest()


def partition_ranges(n: int, parts: int) -> list[tuple[int, int]]:
    """Contiguous [lo, hi) ranges with sizes differing by at most one."""
    base, extra = divmod(n, parts)
    ranges = []
    lo = 0
    for k in range(parts):
        width = base + (1 if k < extra else 0)
        ranges.append((lo, lo + width))
        lo += width
    return ranges


# -- password ------------------------------------------------------------------

def draw_task_indices(rng: SplitMix64, n: int, count: int) -> list[int]:
    """Seeded uniform draws with replacement from 0..n-1."""
    return [rng.below(n) for _ in range(count)]


def digest_pairs(pairs) -> str:
    blob = "\n".join(f"{h},{p}" for h, p in sorted(pairs)).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# -- sort ---------------------------------------------------------------------

def sort_input(rng: SplitMix64, n: int) -> array:
    return rng.i64_array(n)


def digest_ints(xs) -> str:
    return hashlib.sha256(struct.pack(f"<{len(xs)}q", *xs)).hexdigest()


# -- ocean ---------------------------------------------------------------------

def ocean_initial(n: int) -> list[list[float]]:
    """n x n grid, row-major: top row 1.0, everything else 0.0."""
    grid = [[0.0] * n for _ in range(n)]
    grid[0] = [1.0] * n
    return grid


@lru_cache(maxsize=8)
def ocean_reference(n: int, iters: int) -> tuple:
    """Full-grid Jacobi sweep; the initial state is fixed, so this caches.

    Interior update is 0.25*(up + down + left + right) over the previous
    iteration only; boundary cells stay at their initial values.
    """
    u = ocean_initial(n)
    for _ in range(iters):
        nu = [row[:] for row in u]
        for i in range(1, n - 1):
            up = u[i - 1]
            row = u[i]
            down = u[i + 1]
            out = nu[i]
            for j in range(1, n - 1):
                out[j] = 0.25 * (up[j] + down[j] + row[j - 1] + row[j + 1])
        u = nu
    return tuple(tuple(row) for row in u)


def digest_grid(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(struct.pack(f"<{len(row)}d", *row))
    return h.hexdigest()


# -- matmul ---------------------------------------------------------------------

def matmul_inputs(rng: SplitMix64, n: int) -> tuple[list[list[float]], list[list[float]]]:
    """Uniform [0,1) matrices of order n; A is drawn fully before B, row-major."""
    a = [[rng.next_float() for _ in range(n)] for _ in range(n)]
    b = [[rng.next_float() for _ in range(n)] for _ in range(n)]
    return a, b


def matmul_reference(a, b) -> list[list[float]]:
    """Row-oriented triple loop accumulating in ascending j, the same order
    the workers use, so the comparison is bit-exact."""
    n = len(a)
    c = [[0.0] * n for _ in range(n)]
    for i in range(n):
        ci = c[i]
        ai = a[i]
        for j in range(n):
            aij = ai[j]
            bj = b[j]
            for m in range(n):
                ci[m] = ci[m] + aij * bj[m]
    return c
