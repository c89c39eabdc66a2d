"""Distributed tuple lookup across the local space and a set of peers.

Three strategies:

* sequential  -- polling rounds in fixed directory order (local space first),
  sleeping between rounds, until a probe hits;
* success_factor -- as sequential, but peers are probed in descending success
  factor.  Each peer's factor is an exponential moving average in [0, 1]:
  a hit moves it toward 1 (s += alpha*(1-s)), a miss toward 0 (s *= 1-alpha),
  updated per probe.  Ties break on ascending peer index, so a fresh
  directory degenerates to the sequential order;
* notify -- register a blocking read at the local space and every peer at
  once, take the first reply and cancel the rest (non-destructive only).

Visited-node accounting: ``visited_nodes`` counts every probe of the whole
search, while ``visited_nodes_first_round`` counts only round one.  The
dumped ``nodeVisited`` counter uses the first-round rule, which is what the
number-of-visited-nodes comparisons rely on.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from . import profiler
from .errors import ConnectionLost, DeadlineExceeded
from .labels import NODE_VISITED, READ_LOCAL, READ_REMOTE, SEARCH
from .store import LocalSpace
from .tuples import Template, Tuple

DEFAULT_POLL_INTERVAL = 0.001  # between polling rounds
DEFAULT_ALPHA = 0.25
INITIAL_FACTOR = 0.5


@dataclass
class PeerDirectory:
    """The searchable universe: own space plus remote peers in stable order."""

    local: LocalSpace
    peers: list = field(default_factory=list)

    def __post_init__(self):
        if any(p is self.local for p in self.peers):
            raise ValueError("peer directory must not contain the local space")


class SuccessStats:
    """Per-peer success factors; owned by one worker, updates serialized."""

    def __init__(self, alpha: float = DEFAULT_ALPHA):
        if not (0.0 < alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")
        self.alpha = alpha
        self._lock = threading.Lock()
        self._factors: dict[int, float] = {}

    def factor(self, peer: int) -> float:
        with self._lock:
            return self._factors.get(peer, INITIAL_FACTOR)

    def update(self, peer: int, hit: bool) -> float:
        with self._lock:
            s = self._factors.get(peer, INITIAL_FACTOR)
            s = s + self.alpha * (1.0 - s) if hit else (1.0 - self.alpha) * s
            self._factors[peer] = s
            return s

    def order(self, n_peers: int) -> list[int]:
        """Peer indices by descending factor, ties by ascending index."""
        with self._lock:
            factors = [self._factors.get(i, INITIAL_FACTOR) for i in range(n_peers)]
        return sorted(range(n_peers), key=lambda i: (-factors[i], i))

    def reset(self) -> None:
        """Back to the initial 0.5 everywhere (between benchmark repetitions)."""
        with self._lock:
            self._factors.clear()


@dataclass(frozen=True)
class SearchOutcome:
    tuple: Tuple
    visited_nodes: int
    visited_nodes_first_round: int
    elapsed: float
    rounds: int


def _probe(space, tpl: Template, destructive: bool, label: str):
    t0 = time.perf_counter_ns()
    got = space.inp(tpl) if destructive else space.rdp(tpl)
    profiler.add_interval(label, time.perf_counter_ns() - t0)
    return got


def _poll_search(directory: PeerDirectory, tpl: Template, destructive: bool,
                 poll_interval: float, deadline: float | None,
                 stats: SuccessStats | None = None) -> SearchOutcome:
    """Polling rounds; peers in directory order, or by descending factor with `stats`."""
    n_peers = len(directory.peers)
    start = time.perf_counter_ns()
    visited = 0
    first_round = 0
    rounds = 0
    while True:
        rounds += 1
        counting = rounds == 1
        visited += 1
        if counting:
            first_round += 1
            profiler.inc_counter(NODE_VISITED)
        got = _probe(directory.local, tpl, destructive, READ_LOCAL)
        if got is None:
            for idx in range(n_peers) if stats is None else stats.order(n_peers):
                visited += 1
                if counting:
                    first_round += 1
                    profiler.inc_counter(NODE_VISITED)
                got = _probe(directory.peers[idx], tpl, destructive, READ_REMOTE)
                hit = got is not None
                if stats is not None:
                    stats.update(idx, hit)
                if hit:
                    break
        if got is not None:
            elapsed_ns = time.perf_counter_ns() - start
            profiler.add_interval(SEARCH, elapsed_ns)
            return SearchOutcome(got, visited, first_round, elapsed_ns / 1e9, rounds)
        if deadline is None:
            time.sleep(poll_interval)
        else:
            remaining = deadline - (time.perf_counter_ns() - start) / 1e9
            if remaining <= 0:
                raise DeadlineExceeded(
                    f"no match within {deadline}s after {rounds} rounds")
            time.sleep(min(poll_interval, remaining))


def search_sequential(directory: PeerDirectory, tpl: Template, destructive: bool = False,
                      poll_interval: float = DEFAULT_POLL_INTERVAL,
                      deadline: float | None = None) -> SearchOutcome:
    """Polling search in fixed order: local space, then peers by index."""
    return _poll_search(directory, tpl, destructive, poll_interval, deadline)


def search_success_factor(directory: PeerDirectory, stats: SuccessStats, tpl: Template,
                          destructive: bool = False,
                          poll_interval: float = DEFAULT_POLL_INTERVAL,
                          deadline: float | None = None) -> SearchOutcome:
    """Polling search probing peers with greater success factor first."""
    return _poll_search(directory, tpl, destructive, poll_interval, deadline, stats)


def search_notify(directory: PeerDirectory, tpl: Template,
                  deadline: float | None = None) -> SearchOutcome:
    """Broadcast blocking reads everywhere at once; first reply wins.

    Non-destructive by construction: a broadcast take would need a
    distributed return protocol, which this middleware does not define.
    """
    start = time.perf_counter_ns()
    done = threading.Event()
    state = {"winner": None, "kind": None, "lost": 0}
    lock = threading.Lock()
    n_legs = 1 + len(directory.peers)

    def settle(kind: str, tup) -> None:
        with lock:
            if state["winner"] is None:
                state["winner"] = tup
                state["kind"] = kind
                done.set()

    def on_local(w) -> None:
        if w.satisfied:
            settle("local", w.result)

    def on_remote(pending) -> None:
        if pending.kind == "tuple":
            settle("remote", pending.payload)
        elif pending.kind == "lost":
            with lock:
                state["lost"] += 1
                if state["lost"] >= n_legs:
                    done.set()

    profiler.inc_counter(NODE_VISITED, n_legs)
    local_waiter = directory.local.register_waiter(tpl, destructive=False,
                                                   on_complete=on_local)
    remote_legs = []
    try:
        for peer in directory.peers:
            try:
                remote_legs.append((peer, peer.rd_async(tpl, timeout=None, on_done=on_remote)))
            except ConnectionLost:
                with lock:
                    state["lost"] += 1
        done.wait(deadline)
    finally:
        directory.local.cancel_waiter(local_waiter)
        for peer, pending in remote_legs:
            peer.cancel(pending)
    with lock:
        winner = state["winner"]
        kind = state["kind"]
    elapsed_ns = time.perf_counter_ns() - start
    if winner is None:
        if state["lost"] >= n_legs:
            raise ConnectionLost("every leg of the broadcast read failed")
        raise DeadlineExceeded(f"no reply within {deadline}s from {n_legs} spaces")
    profiler.add_interval(READ_LOCAL if kind == "local" else READ_REMOTE, elapsed_ns)
    profiler.add_interval(SEARCH, time.perf_counter_ns() - start)
    return SearchOutcome(winner, n_legs, n_legs, elapsed_ns / 1e9, 1)
