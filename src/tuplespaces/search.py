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
from typing import NamedTuple

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
    """Per-peer success factors of one worker.

    Only the worker that owns it reads and updates it, so it takes no lock.
    Factors live in a list indexed by peer, grown on first use.
    """

    def __init__(self, alpha: float = DEFAULT_ALPHA):
        if not (0.0 < alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")
        self.alpha = alpha
        self._factors: list[float] = []

    def factor(self, peer: int) -> float:
        factors = self._factors
        return factors[peer] if peer < len(factors) else INITIAL_FACTOR

    def update(self, peer: int, hit: bool) -> float:
        factors = self._factors
        if peer >= len(factors):
            factors.extend([INITIAL_FACTOR] * (peer + 1 - len(factors)))
        s = factors[peer]
        s = s + self.alpha * (1.0 - s) if hit else (1.0 - self.alpha) * s
        factors[peer] = s
        return s

    def order(self, n_peers: int) -> list[int]:
        """Peer indices by descending factor, ties by ascending index (the
        sort is stable, also in reverse)."""
        factors = self._factors
        if len(factors) < n_peers:
            factors.extend([INITIAL_FACTOR] * (n_peers - len(factors)))
        return sorted(range(n_peers), key=factors.__getitem__, reverse=True)

    def reset(self) -> None:
        """Back to the initial 0.5 everywhere (between benchmark repetitions)."""
        self._factors.clear()


class SearchOutcome(NamedTuple):
    tuple: Tuple
    visited_nodes: int
    visited_nodes_first_round: int
    elapsed: float
    rounds: int


def _poll_search(directory: PeerDirectory, tpl: Template, destructive: bool,
                 poll_interval: float, deadline: float | None,
                 stats: SuccessStats | None = None) -> SearchOutcome:
    """Polling rounds; peers in directory order, or by descending factor with `stats`.

    Each probe is timed as its read label.  The first round's visits go to
    the counter in one step when the round ends or a probe in it raises.
    """
    peers = directory.peers
    n_peers = len(peers)
    probe_local = directory.local.inp if destructive else directory.local.rdp
    clock = time.perf_counter_ns
    add_interval = profiler.add_interval
    start = clock()
    visited = 0
    first_round = 0
    rounds = 0
    try:
        while True:
            rounds += 1
            visited += 1
            t0 = clock()
            got = probe_local(tpl)
            add_interval(READ_LOCAL, clock() - t0)
            if got is None:
                for idx in range(n_peers) if stats is None else stats.order(n_peers):
                    visited += 1
                    t0 = clock()
                    peer = peers[idx]
                    got = peer.inp(tpl) if destructive else peer.rdp(tpl)
                    add_interval(READ_REMOTE, clock() - t0)
                    if stats is not None:
                        stats.update(idx, got is not None)
                    if got is not None:
                        break
            if rounds == 1:
                first_round = visited
            if got is not None:
                elapsed_ns = clock() - start
                add_interval(SEARCH, elapsed_ns)
                return SearchOutcome(got, visited, first_round, elapsed_ns / 1e9, rounds)
            if deadline is None:
                time.sleep(poll_interval)
            else:
                remaining = deadline - (clock() - start) / 1e9
                if remaining <= 0:
                    raise DeadlineExceeded(
                        f"no match within {deadline}s after {rounds} rounds")
                time.sleep(min(poll_interval, remaining))
    finally:
        profiler.inc_counter(NODE_VISITED, first_round or visited)


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
