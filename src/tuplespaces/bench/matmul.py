"""Matrix multiplication: row tasks with per-step lookups of B rows.

A's rows go round-robin to the workers; B's rows go round-robin (uniform) or
all to worker 0 (b_on_one).  For each owned row i a worker walks j upward,
locating row j of B through the configured strategy every time (no caching:
the repeated lookups are the point of the case study) and accumulating
c += a_ij * b_j in that fixed order, which keeps the result bit-comparable
to the triple-loop reference.  A worker builds its n B-row templates once and
reuses them, so each is encoded once; every lookup still runs the search.

B rows are distributed before A rows and a worker starts computing only when
all its A rows have arrived, so every lookup happens against fully placed
data; lookup traces are then reproducible for a fixed seed.
"""

from __future__ import annotations

from array import array

from ..rng import SplitMix64
from ..tuples import ANY, FLOAT_ARRAY, INT, float_array, make_tuple, template, wildcard
from .config import A_ROW_NAME, B_ROW_NAME, C_ROW_NAME, CaseResult
from .reference import digest_grid, matmul_inputs, matmul_reference
from .roles import (
    RoleHandles,
    master_barriers,
    master_stop_timer,
    worker_loaded,
    worker_read_key,
    worker_ready,
)


def run_master(h: RoleHandles) -> CaseResult:
    n = h.cfg.size
    w = h.cfg.workers
    master_barriers(h)
    a, b = matmul_inputs(SplitMix64(h.rep_seed), n)
    for j in range(n):
        target = 0 if h.cfg.distribution == "b_on_one" else j % w
        h.out_remote(h.worker_remotes[target], make_tuple(B_ROW_NAME, j, float_array(b[j])))
    for i in range(n):
        h.out_remote(h.worker_remotes[i % w], make_tuple(A_ROW_NAME, i, float_array(a[i])))

    c_tpl = template(C_ROW_NAME, wildcard(INT), wildcard(FLOAT_ARRAY))
    rows: dict[int, array] = {}
    for _ in range(n):
        tup = h.take_local(c_tpl)
        rows[tup.data[1]] = tup.data[2]
    master_stop_timer(h)

    final = [list(rows[i]) for i in range(n)]
    digest = digest_grid(final)
    expected_digest = digest_grid(matmul_reference(a, b))
    return CaseResult(
        correct=digest == expected_digest,
        digest=digest,
        detail={"order": n, "distribution": h.cfg.distribution},
    )


def run_worker(h: RoleHandles) -> None:
    worker_ready(h)
    worker_loaded(h)
    worker_read_key(h)
    n = h.cfg.size
    w = h.cfg.workers
    owned = list(range(h.worker_id, n, w))
    a_tpl = template(A_ROW_NAME, wildcard(INT), wildcard(FLOAT_ARRAY))
    a_rows: dict[int, array] = {}
    for _ in owned:
        tup = h.take_local(a_tpl)
        a_rows[tup.data[1]] = tup.data[2]

    b_tpls = [template(B_ROW_NAME, j, ANY) for j in range(n)]
    for i in sorted(a_rows):
        a_row = a_rows[i]
        c_row = [0.0] * n
        for j in range(n):
            got = h.search(b_tpls[j], destructive=False)
            b_row = got.tuple.data[2]
            a_ij = a_row[j]
            for m in range(n):
                c_row[m] = c_row[m] + a_ij * b_row[m]
        h.out_remote(h.master, make_tuple(C_ROW_NAME, i, float_array(c_row)))
