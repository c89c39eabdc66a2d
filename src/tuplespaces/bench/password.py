"""Password search: find plaintexts for hashed values in a distributed table.

The table of (hash, password) pairs is partitioned contiguously across the
workers' local spaces.  The master issues 100 hash tasks; workers take tasks
from the master's space, resolve each hash with the configured distributed
search (non-destructively, the table survives duplicate draws) and write the
found password back.  A task tuple with status "complete" is the per-worker
poison pill.
"""

from __future__ import annotations

from ..tuples import ANY, make_tuple, template
from ..rng import SplitMix64
from .config import (
    CaseResult,
    FOUND_NAME,
    HASHSET_NAME,
    PASSWORD_TASK_COUNT,
    STATUS_DONE,
    TASK_NAME,
    TASK_PENDING,
)
from .reference import digest_pairs, draw_task_indices, md5_hex, partition_ranges
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
    master_barriers(h)
    rng = SplitMix64(h.rep_seed)
    task_hashes = [md5_hex(str(i)) for i in draw_task_indices(rng, n, PASSWORD_TASK_COUNT)]
    for hash_value in task_hashes:
        h.out_local(make_tuple(TASK_NAME, hash_value, TASK_PENDING))

    found_tpl = template(FOUND_NAME, ANY, ANY)
    results = []
    for _ in range(PASSWORD_TASK_COUNT):
        tup = h.take_local(found_tpl)
        results.append((tup.data[1], tup.data[2]))

    for _ in range(h.cfg.workers):
        h.out_local(make_tuple(TASK_NAME, "", STATUS_DONE))
    master_stop_timer(h)

    hashes_ok = all(md5_hex(password) == hash_value for hash_value, password in results)
    multiset_ok = sorted(hash_value for hash_value, _ in results) == sorted(task_hashes)
    return CaseResult(
        correct=hashes_ok and multiset_ok,
        digest=digest_pairs(results),
        detail={
            "tasks": PASSWORD_TASK_COUNT,
            "hashes_verified": hashes_ok,
            "multiset_match": multiset_ok,
        },
    )


def run_worker(h: RoleHandles) -> None:
    worker_ready(h)
    lo, hi = partition_ranges(h.cfg.size, h.cfg.workers)[h.worker_id]
    for i in range(lo, hi):
        password = str(i)
        h.out_local(make_tuple(HASHSET_NAME, md5_hex(password), password))
    worker_loaded(h)
    worker_read_key(h)

    task_tpl = template(TASK_NAME, ANY, ANY)
    while True:
        task = h.take_remote(h.master, task_tpl)
        if task.data[2] == STATUS_DONE:
            return
        hash_value = task.data[1]
        outcome = h.search(template(HASHSET_NAME, hash_value, ANY), destructive=False)
        found = outcome.tuple
        h.out_remote(h.master, make_tuple(FOUND_NAME, found.data[1], found.data[2]))
