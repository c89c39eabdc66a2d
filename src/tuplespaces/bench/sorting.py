"""Distributed sort: split-until-threshold workers, end merge at the master.

The master seeds one worker with the unsorted array; every worker then
repeatedly acquires an unsorted tuple destructively (own space first, then
the others, via the configured strategy).  Oversized pieces are split at the
midpoint with the first half stored locally for anyone to steal; pieces at or
below the threshold are sorted and shipped to the master, chunked when they
would not fit a frame.  Completion is signalled in-band: one empty unsorted
array per worker acts as the poison pill (a worker stops at its first pill,
so pills cannot starve anyone), alongside the sort_complete notice.

Arrays stay packed ``array('q')`` buffers from generation to the wire:
workers split a taken array by slicing and sort each piece with ``sorted``.
The master extends one list with every run as it arrives (chunked runs once
reassembled) and sorts that list once: Timsort detects each ascending run and
merges them in C, giving the same result as a k-way merge of the runs.
"""

from __future__ import annotations

import time
from itertools import islice
from operator import le
from typing import Sequence

from ..rng import SplitMix64
from ..tuples import INT, INT_ARRAY, int_array, make_tuple, template, wildcard
from .config import (
    CaseResult,
    SORT_COMPLETE_NAME,
    SORTED_NAME,
    SORTED_PART_NAME,
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
    if len(run) <= cap:
        h.out_remote(h.master, make_tuple(SORTED_NAME, int_array(run)))
        return
    pieces = [run[i:i + cap] for i in range(0, len(run), cap)]
    run_id = h.alloc_run_id()
    for idx, piece in enumerate(pieces):
        h.out_remote(h.master, make_tuple(SORTED_PART_NAME, run_id, idx, len(pieces),
                                          int_array(piece)))


def run_master(h: RoleHandles) -> CaseResult:
    n = h.cfg.size
    master_barriers(h)
    data = sort_input(SplitMix64(h.rep_seed), n)
    for piece in split_for_transport(data):
        h.out_remote(h.worker_remotes[0], make_tuple(UNSORTED_NAME, int_array(piece)))

    sorted_tpl = template(SORTED_NAME, wildcard(INT_ARRAY))
    part_tpl = template(SORTED_PART_NAME, wildcard(INT), wildcard(INT), wildcard(INT),
                        wildcard(INT_ARRAY))
    merged: list[int] = []
    runs: list[Sequence[int]] = []  # kept to check, off the clock, that each ascends
    partial: dict[int, dict] = {}
    while len(merged) < n:
        got = h.probe_local_take(sorted_tpl)
        if got is not None:
            run = got.fields[1].data
            merged.extend(run)
            runs.append(run)
            continue
        got = h.probe_local_take(part_tpl)
        if got is not None:
            run_id = got.fields[1].data
            entry = partial.setdefault(run_id, {"parts": {}, "count": got.fields[3].data})
            entry["parts"][got.fields[2].data] = got.fields[4].data
            if len(entry["parts"]) == entry["count"]:
                run = [x for idx in range(entry["count"]) for x in entry["parts"][idx]]
                merged.extend(run)
                runs.append(run)
                del partial[run_id]
            continue
        h.remaining()  # raises DeadlineExceeded when the budget is gone
        time.sleep(h.cfg.poll_interval)

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
        work = outcome.tuple.fields[1].data
        if not work:
            return  # poison pill
        while len(work) > threshold:
            mid = (len(work) + 1) // 2
            h.out_local(make_tuple(UNSORTED_NAME, int_array(work[:mid])))
            work = work[mid:]
        send_sorted_run(h, sorted(work))
