"""Ocean model: Jacobi stencil over vertical panels with border exchange.

The grid is split into contiguous vertical panels, one per worker.  Per
iteration every worker publishes its two edge columns locally, looks up each
neighbour's facing edge with the configured strategy (the searches are what
the visited-node metric measures: nothing tells a worker where its neighbour
lives), then applies the five-point Jacobi update.  Because the update reads
only the previous iteration, the assembled grid is bit-identical to a
single-threaded sweep regardless of scheduling.
"""

from __future__ import annotations

from array import array

from ..tuples import ANY, FLOAT_ARRAY, INT, float_array, make_tuple, template, wildcard
from .config import (
    BORDER_NAME,
    CaseResult,
    PANEL_NAME,
    RESULT_PANEL_NAME,
    SIDE_LEFT,
    SIDE_RIGHT,
)
from .reference import digest_grid, ocean_initial, ocean_reference, partition_ranges
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
    iters = h.cfg.ocean_iters
    master_barriers(h)
    grid = ocean_initial(n)
    panels = partition_ranges(n, w)
    for k, (lo, hi) in enumerate(panels):
        flat = [grid[i][j] for j in range(lo, hi) for i in range(n)]
        h.out_remote(h.worker_remotes[k],
                     make_tuple(PANEL_NAME, k, n, hi - lo, float_array(flat)))

    result_tpl = template(RESULT_PANEL_NAME, wildcard(INT), wildcard(FLOAT_ARRAY))
    collected: dict[int, array] = {}
    for _ in range(w):
        tup = h.take_local(result_tpl)
        collected[tup.data[1]] = tup.data[2]
    master_stop_timer(h)

    final = [[0.0] * n for _ in range(n)]
    for k, (lo, hi) in enumerate(panels):
        flat = collected[k]
        for c in range(hi - lo):
            col = flat[c * n:(c + 1) * n]
            for i in range(n):
                final[i][lo + c] = col[i]
    digest = digest_grid(final)
    expected_digest = digest_grid(ocean_reference(n, iters))
    return CaseResult(
        correct=digest == expected_digest,
        digest=digest,
        detail={"grid": n, "iterations": iters, "panels": w},
    )


def _panel_step(cols, left_ghost, right_ghost, start, n):
    """One Jacobi update of a panel given its two ghost columns.

    Operand order (up + down + left + right) matches the reference sweep
    exactly; boundary rows and the two global boundary columns stay fixed.
    """
    width = len(cols)
    new_cols = []
    for c in range(width):
        j = start + c
        col = cols[c]
        if j == 0 or j == n - 1:
            new_cols.append(col[:])
            continue
        left = cols[c - 1] if c > 0 else left_ghost
        right = cols[c + 1] if c < width - 1 else right_ghost
        nc = col[:]
        for i in range(1, n - 1):
            nc[i] = 0.25 * (col[i - 1] + col[i + 1] + left[i] + right[i])
        new_cols.append(nc)
    return new_cols


def run_worker(h: RoleHandles) -> None:
    worker_ready(h)
    worker_loaded(h)
    worker_read_key(h)
    k = h.worker_id
    w = h.cfg.workers
    panel_tpl = template(PANEL_NAME, k, wildcard(INT), wildcard(INT), wildcard(FLOAT_ARRAY))
    tup = h.take_local(panel_tpl)
    _, _, n, width, flat = tup.data
    cols = [list(flat[c * n:(c + 1) * n]) for c in range(width)]
    start = partition_ranges(n, w)[k][0]

    for t in range(1, h.cfg.ocean_iters + 1):
        h.out_local(make_tuple(BORDER_NAME, k, t, SIDE_LEFT, float_array(cols[0])))
        h.out_local(make_tuple(BORDER_NAME, k, t, SIDE_RIGHT, float_array(cols[-1])))
        left_ghost = None
        right_ghost = None
        if k > 0:
            got = h.search(template(BORDER_NAME, k - 1, t, SIDE_RIGHT, ANY),
                           destructive=False)
            left_ghost = got.tuple.data[4]
        if k < w - 1:
            got = h.search(template(BORDER_NAME, k + 1, t, SIDE_LEFT, ANY),
                           destructive=False)
            right_ghost = got.tuple.data[4]
        cols = _panel_step(cols, left_ghost, right_ghost, start, n)

    flat_out = [x for col in cols for x in col]
    h.out_remote(h.master, make_tuple(RESULT_PANEL_NAME, k, float_array(flat_out)))
