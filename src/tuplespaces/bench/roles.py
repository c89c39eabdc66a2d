"""Shared role machinery: handles, barriers, instrumented tuple operations.

Every role (master or worker) owns one local space served over TCP and talks
to every other role only through tuple-space operations; there is no shared
memory between roles, which is the integrity constraint of the experiment.

The handshake is the same for every case: each worker writes a READY tuple to
the master, loads whatever data the case gives it, then writes a LOADED
tuple.  The master consumes all READY tuples, then all LOADED tuples, and
only then starts the total-runtime timer and publishes the run key, so worker
start-up and loading stay out of the measured time.  The master's own input
generation (sort's SplitMix64 array, matmul's A and B, password's task
hashes) happens after that point and is measured.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .. import profiler
from ..client import NodeAddress, RemoteSpace
from ..errors import DeadlineExceeded, SpaceTimeout
from ..labels import READ_LOCAL, READ_REMOTE, TOTAL_RUNTIME, WRITE_LOCAL, WRITE_REMOTE
from ..search import (
    PeerDirectory,
    SearchOutcome,
    SuccessStats,
    search_notify,
    search_sequential,
    search_success_factor,
)
from ..store import LocalSpace
from ..tuples import ANY, Template, Tuple, make_tuple, template
from .config import (
    BenchConfig,
    LOADED_STATUS,
    MASTER_KEY,
    READY_STATUS,
    SEARCH_GROUP,
    WORKER_FIELD,
)


@dataclass
class RoleHandles:
    cfg: BenchConfig
    role_name: str
    rep_index: int
    rep_seed: int
    run_key: str
    addresses: list[NodeAddress]
    local: LocalSpace
    deadline_at: float  # monotonic timestamp
    worker_id: int | None = None  # None for the master
    master: RemoteSpace | None = None
    worker_remotes: dict[int, RemoteSpace] = field(default_factory=dict)
    directory: PeerDirectory | None = None
    stats: SuccessStats | None = None
    _run_seq: int = 0
    runtime_t0: int = 0  # master: perf_counter_ns() when TotalRuntime starts

    def remaining(self) -> float:
        left = self.deadline_at - time.monotonic()
        if left <= 0:
            raise self._deadline_exceeded()
        return left

    def _deadline_exceeded(self) -> DeadlineExceeded:
        return DeadlineExceeded(f"{self.role_name}: repetition deadline exceeded")

    def _wait(self, op, tpl: Template) -> Tuple:
        """op(tpl, timeout=...) capped by the rep deadline.  A deadline that
        passes during the wait raises DeadlineExceeded, as one that passed
        before the call does."""
        try:
            return op(tpl, timeout=self.remaining())
        except SpaceTimeout:
            raise self._deadline_exceeded() from None

    def alloc_run_id(self) -> int:
        self._run_seq += 1
        return ((self.worker_id or 0) << 32) | self._run_seq

    def close_remotes(self) -> None:
        if self.master is not None:
            self.master.close()
        for remote in self.worker_remotes.values():
            remote.close()

    # -- instrumented operations ------------------------------------------
    #
    # Each times its operation as t0 = perf_counter_ns(), the call, then
    # add_interval(label, perf_counter_ns() - t0): an operation that raises
    # records nothing.

    def out_local(self, tup: Tuple) -> None:
        t0 = time.perf_counter_ns()
        self.local.out(tup)
        profiler.add_interval(WRITE_LOCAL, time.perf_counter_ns() - t0)

    def out_remote(self, remote: RemoteSpace, tup: Tuple) -> None:
        t0 = time.perf_counter_ns()
        remote.out(tup)
        profiler.add_interval(WRITE_REMOTE, time.perf_counter_ns() - t0)

    def take_local(self, tpl: Template) -> Tuple:
        """Blocking take from the own space, capped by the rep deadline."""
        t0 = time.perf_counter_ns()
        got = self._wait(self.local.in_, tpl)
        profiler.add_interval(READ_LOCAL, time.perf_counter_ns() - t0)
        return got

    def take_remote(self, remote: RemoteSpace, tpl: Template) -> Tuple:
        t0 = time.perf_counter_ns()
        got = self._wait(remote.in_, tpl)
        profiler.add_interval(READ_REMOTE, time.perf_counter_ns() - t0)
        return got

    def rd_remote(self, remote: RemoteSpace, tpl: Template) -> Tuple:
        t0 = time.perf_counter_ns()
        got = self._wait(remote.rd, tpl)
        profiler.add_interval(READ_REMOTE, time.perf_counter_ns() - t0)
        return got

    # -- strategy dispatch ---------------------------------------------------

    def search(self, tpl: Template, destructive: bool) -> SearchOutcome:
        cfg = self.cfg
        if cfg.strategy == "sequential":
            return search_sequential(self.directory, tpl, destructive,
                                     poll_interval=cfg.poll_interval,
                                     deadline=self.remaining())
        if cfg.strategy == "success_factor":
            return search_success_factor(self.directory, self.stats, tpl, destructive,
                                         poll_interval=cfg.poll_interval,
                                         deadline=self.remaining())
        if destructive:
            raise ValueError("notify strategy cannot perform destructive lookups")
        return search_notify(self.directory, tpl, deadline=self.remaining())


# -- handshake protocol ----------------------------------------------------------

def _ready_tuple() -> Tuple:
    return make_tuple(SEARCH_GROUP, WORKER_FIELD, READY_STATUS)


def _loaded_tuple() -> Tuple:
    return make_tuple(SEARCH_GROUP, WORKER_FIELD, LOADED_STATUS)


def worker_ready(h: RoleHandles) -> None:
    h.out_remote(h.master, _ready_tuple())


def worker_loaded(h: RoleHandles) -> None:
    h.out_remote(h.master, _loaded_tuple())


def worker_read_key(h: RoleHandles) -> str:
    """Blocking read of the run key from the master's space."""
    got = h.rd_remote(h.master, template(SEARCH_GROUP, MASTER_KEY, ANY))
    return got.data[2]


def master_barriers(h: RoleHandles) -> None:
    """Consume w READY then w LOADED tuples, start the timer, spread the key."""
    ready = template(SEARCH_GROUP, WORKER_FIELD, READY_STATUS)
    loaded = template(SEARCH_GROUP, WORKER_FIELD, LOADED_STATUS)
    for _ in range(h.cfg.workers):
        h.take_local(ready)
    for _ in range(h.cfg.workers):
        h.take_local(loaded)
    h.runtime_t0 = time.perf_counter_ns()
    h.out_local(make_tuple(SEARCH_GROUP, MASTER_KEY, h.run_key))


def master_stop_timer(h: RoleHandles) -> None:
    profiler.add_interval(TOTAL_RUNTIME, time.perf_counter_ns() - h.runtime_t0)
