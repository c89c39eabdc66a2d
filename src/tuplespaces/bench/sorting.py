"""Distributed sort: split-until-threshold workers, end merge at the master.

The master seeds one worker with the unsorted array; every worker then
repeatedly acquires an unsorted tuple destructively (own space first, then
the others, via the configured strategy).  Oversized pieces are split at the
midpoint with the first half stored locally for anyone to steal; pieces at or
below the threshold are sorted and shipped to the master as
(sorted, run_id, idx, count, array) pieces: one piece, idx 0 of count 1,
unless the run would not fit a frame.  Completion is signalled in-band: one
empty unsorted array per worker acts as the poison pill (a worker stops at
its first pill, so pills cannot starve anyone), alongside the sort_complete
notice.

Arrays stay packed ``array('q')`` buffers from generation to the wire:
workers split a taken array by slicing and sort each piece with ``sorted``.
The master takes the pieces with one blocking take each, extends one list
with every run as it completes (chunked runs once reassembled) and sorts
that list once: Timsort detects each ascending run and merges them in C,
giving the same result as a k-way merge of the runs.
"""

from __future__ import annotations

from itertools import islice
from operator import le
from typing import Sequence

from ..rng import SplitMix64
from ..tuples import INT, INT_ARRAY, int_array, make_tuple, template, wildcard
from .config import (
    CaseResult,
    SORT_COMPLETE_NAME,
    SORTED_NAME,
    UNSORTED_NAME,
)
from .reference import digest_ints, sort_input
from .roles import (
    RoleHandles,
    master_barriers,
    master_stop_timer,
    worker_loaded,
    worker_read_key,
    worker_ready,
)

CHUNK_ELEMENTS = 4 * 1024 * 1024  # stay well under the 64 MiB frame cap


def split_for_transport(data: Sequence[int], cap: int | None = None) -> list[Sequence[int]]:
    """Halve (first half first) until every piece fits one frame."""
    cap = CHUNK_ELEMENTS if cap is None else cap
    if len(data) <= cap:
        return [data]
    mid = (len(data) + 1) // 2
    return split_for_transport(data[:mid], cap) + split_for_transport(data[mid:], cap)


def send_sorted_run(h: RoleHandles, run: Sequence[int], cap: int | None = None) -> None:
    cap = CHUNK_ELEMENTS if cap is None else cap
    pieces = [run[i:i + cap] for i in range(0, len(run), cap)] if len(run) > cap else [run]
    run_id = h.alloc_run_id()
    for idx, piece in enumerate(pieces):
        h.out_remote(h.master, make_tuple(SORTED_NAME, run_id, idx, len(pieces),
                                          int_array(piece)))


def run_master(h: RoleHandles) -> CaseResult:
    n = h.cfg.size
    master_barriers(h)
    data = sort_input(SplitMix64(h.rep_seed), n)
    for piece in split_for_transport(data):
        h.out_remote(h.worker_remotes[0], make_tuple(UNSORTED_NAME, int_array(piece)))

    sorted_tpl = template(SORTED_NAME, wildcard(INT), wildcard(INT), wildcard(INT),
                          wildcard(INT_ARRAY))
    merged: list[int] = []
    runs: list[Sequence[int]] = []  # kept to check, off the clock, that each ascends
    partial: dict[int, dict[int, Sequence[int]]] = {}  # run_id -> idx -> piece
    while len(merged) < n:
        _, run_id, idx, count, run = h.take_local(sorted_tpl).data
        if count > 1:
            parts = partial.setdefault(run_id, {})
            parts[idx] = run
            if len(parts) < count:
                continue
            del partial[run_id]
            run = [x for i in range(count) for x in parts[i]]
        merged.extend(run)
        runs.append(run)

    merged.sort()
    for k in range(h.cfg.workers):
        h.out_remote(h.worker_remotes[k], make_tuple(SORT_COMPLETE_NAME))
        h.out_remote(h.worker_remotes[k], make_tuple(UNSORTED_NAME, int_array([])))
    master_stop_timer(h)

    expected = sorted(data)
    total = len(merged)
    conserved = total == n
    # The sort above would hide a worker that ships an unsorted run.
    ascending = all(all(map(le, run, islice(run, 1, None))) for run in runs)
    return CaseResult(
        correct=merged == expected and conserved and ascending,
        digest=digest_ints(merged),
        detail={"runs": len(runs), "elements": total, "conserved": conserved},
    )


def run_worker(h: RoleHandles) -> None:
    worker_ready(h)
    worker_loaded(h)
    worker_read_key(h)
    threshold = h.cfg.sort_threshold
    unsorted_tpl = template(UNSORTED_NAME, wildcard(INT_ARRAY))
    while True:
        outcome = h.search(unsorted_tpl, destructive=True)
        work = outcome.tuple.data[1]
        if not work:
            return  # poison pill
        while len(work) > threshold:
            mid = (len(work) + 1) // 2
            h.out_local(make_tuple(UNSORTED_NAME, int_array(work[:mid])))
            work = work[mid:]
        send_sorted_run(h, sorted(work))
