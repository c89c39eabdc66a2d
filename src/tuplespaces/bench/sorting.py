"""Distributed sort: split-until-threshold workers, end merge at the master.

The master seeds one worker with the unsorted array; every worker then
repeatedly acquires an unsorted tuple destructively (own space first, then
the others, via the configured strategy).  Oversized pieces are split at the
midpoint with the first half stored locally for anyone to steal; pieces at or
below the threshold are sorted and shipped to the master as (sorted, array)
tuples.  A sorted run too long for one frame ships as several consecutive
pieces, each a run in its own right: the master never reassembles them.
Completion is signalled in-band: one empty unsorted array per worker acts as
the poison pill, and a worker stops at its first pill, so pills cannot
starve anyone.

Arrays stay packed ``array('q')`` buffers from generation to the wire:
workers split a taken array by slicing and sort each piece with ``sorted``.
The master takes the pieces with one blocking take each, extends one list
with every piece as it arrives and sorts that list once: Timsort detects
each ascending piece and merges them in C, giving the same result as a k-way
merge of the pieces.
"""

from __future__ import annotations

from itertools import islice
from operator import le
from typing import Sequence

from ..rng import SplitMix64
from ..tuples import INT_ARRAY, int_array, make_tuple, template, wildcard
from .config import CaseResult, SORTED_NAME, UNSORTED_NAME
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
    """Consecutive slices of at most cap (default CHUNK_ELEMENTS) elements,
    so that each fits one frame; data itself when it already does."""
    cap = CHUNK_ELEMENTS if cap is None else cap
    if len(data) <= cap:
        return [data]
    return [data[i:i + cap] for i in range(0, len(data), cap)]


def send_sorted_run(h: RoleHandles, run: Sequence[int], cap: int | None = None) -> None:
    for piece in split_for_transport(run, cap):
        h.out_remote(h.master, make_tuple(SORTED_NAME, int_array(piece)))


def run_master(h: RoleHandles) -> CaseResult:
    n = h.cfg.size
    master_barriers(h)
    data = sort_input(SplitMix64(h.rep_seed), n)
    for piece in split_for_transport(data):
        h.out_remote(h.worker_remotes[0], make_tuple(UNSORTED_NAME, int_array(piece)))

    sorted_tpl = template(SORTED_NAME, wildcard(INT_ARRAY))
    merged: list[int] = []
    runs: list[Sequence[int]] = []  # kept to check, off the clock, that each ascends
    while len(merged) < n:
        piece = h.take_local(sorted_tpl).data[1]
        merged.extend(piece)
        runs.append(piece)

    merged.sort()
    for k in range(h.cfg.workers):
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
