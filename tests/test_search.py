"""Search strategies: probe order, visited accounting, factor dynamics, notify."""

import threading
import time

import pytest
from hypothesis import given, strategies as st

from tuplespaces import (
    ANY,
    ConnectionLost,
    DeadlineExceeded,
    LocalSpace,
    PeerDirectory,
    SuccessStats,
    make_tuple,
    search_notify,
    search_sequential,
    search_success_factor,
    template,
)
from tuplespaces import profiler
from tuplespaces.labels import NODE_VISITED, READ_LOCAL

from util import connected, served_space


class ScriptedSpace:
    """A space whose probes miss until a prescribed global probe number."""

    def __init__(self, counter, hit_at=None, result=None):
        self.counter = counter  # shared list of one int
        self.hit_at = hit_at
        self.result = result

    def _probe(self):
        self.counter[0] += 1
        if self.hit_at is not None and self.counter[0] >= self.hit_at:
            return self.result
        return None

    def rdp(self, tpl):
        return self._probe()

    def inp(self, tpl):
        return self._probe()


def _directory(n_peers, hit_peer=None, hit_tuple=None):
    local = LocalSpace("self")
    peers = [LocalSpace(f"peer{i}") for i in range(n_peers)]
    if hit_peer is not None:
        peers[hit_peer].out(hit_tuple)
    return PeerDirectory(local, peers)


def test_local_hit_counts_one():
    d = _directory(3)
    d.local.out(make_tuple("x", 1))
    out = search_sequential(d, template("x", ANY))
    assert out.visited_nodes == 1
    assert out.visited_nodes_first_round == 1
    assert out.rounds == 1
    assert out.tuple == make_tuple("x", 1)


def test_peer_index_two_of_four():
    d = _directory(4, hit_peer=2, hit_tuple=make_tuple("y", 9))
    out = search_sequential(d, template("y", ANY))
    assert out.visited_nodes == 4  # local + peers 0, 1, 2
    assert out.rounds == 1


def test_found_in_round_three_counts():
    """Written to peer 0 during round 3: visited == 2*(1+P) + 2, and the
    first-round counter saw only 1+P probes."""
    n_peers = 3
    counter = [0]
    per_round = 1 + n_peers
    hit_at = 2 * per_round + 2  # local miss of round 3, then peer 0 hits
    local = ScriptedSpace(counter)
    peers = [ScriptedSpace(counter, hit_at=hit_at, result=make_tuple("late"))] + [
        ScriptedSpace(counter) for _ in range(n_peers - 1)
    ]
    d = PeerDirectory(local, peers)
    before = profiler.counter_total(NODE_VISITED)
    out = search_sequential(d, template("late"), poll_interval=0.0001)
    assert out.rounds == 3
    assert out.visited_nodes == 2 * per_round + 2
    assert out.visited_nodes_first_round == per_round
    assert profiler.counter_total(NODE_VISITED) - before == per_round


def test_destructive_search_takes():
    d = _directory(2, hit_peer=1, hit_tuple=make_tuple("take", 1))
    out = search_sequential(d, template("take", ANY), destructive=True)
    assert out.tuple == make_tuple("take", 1)
    assert d.peers[1].size() == 0


def test_deadline_exceeded():
    d = _directory(2)
    t0 = time.perf_counter()
    with pytest.raises(DeadlineExceeded):
        search_sequential(d, template("never"), poll_interval=0.001, deadline=0.05)
    assert time.perf_counter() - t0 < 2.0


class _Unreachable:
    def rdp(self, tpl):
        raise ConnectionLost("peer gone")


def test_failed_probe_records_no_read_and_no_lookup(tmp_path):
    d = PeerDirectory(LocalSpace("self"), [_Unreachable()])
    profiler.reset()
    with pytest.raises(ConnectionLost):
        search_sequential(d, template("x"))
    path = tmp_path / "d.csv"
    profiler.dump(path)
    records = [(r.label, r.kind, r.value if r.kind == profiler.KIND_COUNTER else None)
               for r in profiler.parse_dump(path)]
    assert records == [(READ_LOCAL, profiler.KIND_INTERVAL, None),
                       (NODE_VISITED, profiler.KIND_COUNTER, 2)]


def test_factor_update_rule():
    stats = SuccessStats(alpha=0.25)
    assert stats.update(0, False) == pytest.approx(0.375, abs=1e-15)
    stats2 = SuccessStats(alpha=0.25)
    assert stats2.update(0, True) == pytest.approx(0.625, abs=1e-15)


def test_hit_peer_probed_first_next_time():
    stats = SuccessStats()
    stats.update(2, True)   # 0.625
    stats.update(0, False)  # 0.375
    stats.update(1, False)
    stats.update(3, False)
    assert stats.order(4)[0] == 2


def test_tie_break_is_directory_order():
    stats = SuccessStats()
    assert stats.order(5) == [0, 1, 2, 3, 4]


def test_decay_reset():
    stats = SuccessStats()
    stats.update(0, True)
    stats.update(1, False)
    stats.reset()
    assert stats.factor(0) == 0.5 and stats.factor(1) == 0.5
    stats.reset()  # idempotent
    assert stats.order(3) == [0, 1, 2]


@given(st.floats(min_value=0.01, max_value=0.99),
       st.lists(st.booleans(), min_size=1, max_size=50))
def test_factor_stays_in_unit_interval(alpha, outcomes):
    stats = SuccessStats(alpha=alpha)
    for hit in outcomes:
        s = stats.update(0, hit)
        assert 0.0 <= s <= 1.0


def test_locality_exploitation():
    """Requests always resolving at one peer q: after the first search the
    success-factor strategy visits exactly 2 nodes; sequential pays 2+q."""
    q = 3
    d = _directory(5)
    for i in range(10):
        d.peers[q].out(make_tuple("loc", i))
    stats = SuccessStats()
    first = search_success_factor(d, stats, template("loc", ANY))
    assert first.visited_nodes == 1 + q + 1  # directory order on the fresh tie
    for _ in range(5):
        out = search_success_factor(d, stats, template("loc", ANY))
        assert out.visited_nodes == 2
    seq = search_sequential(d, template("loc", ANY))
    assert seq.visited_nodes == 2 + q


def test_destructive_exclusivity_end_to_end():
    d1 = _directory(1)
    shared = d1.peers[0]
    d2 = PeerDirectory(LocalSpace("other"), [shared])
    shared.out(make_tuple("prize"))
    results = []
    lock = threading.Lock()

    def racer(d):
        try:
            out = search_sequential(d, template("prize"), destructive=True,
                                    poll_interval=0.001, deadline=0.3)
            r = out.tuple
        except DeadlineExceeded:
            r = None
        with lock:
            results.append(r)

    threads = [threading.Thread(target=racer, args=(d,)) for d in (d1, d2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(5)
    assert sorted(r is not None for r in results) == [False, True]


# -- broadcast-notify ------------------------------------------------------------

def test_notify_finds_preexisting_remote():
    with served_space("p0") as (s0, srv0), served_space("p1") as (s1, srv1):
        with connected(srv0) as r0, connected(srv1) as r1:
            s1.out(make_tuple("n", 1))
            d = PeerDirectory(LocalSpace("me"), [r0, r1])
            out = search_notify(d, template("n", ANY), deadline=5)
            assert out.tuple == make_tuple("n", 1)
            assert out.visited_nodes == 3
            assert out.visited_nodes_first_round == 3
            assert out.rounds == 1
            # losing legs are cancelled; servers hold no stale waiters
            deadline = time.time() + 2
            while time.time() < deadline and s0.pending_waiter_count() > 0:
                time.sleep(0.01)
            assert s0.pending_waiter_count() == 0


def test_notify_local_leg_wins():
    with served_space("p0") as (_, srv0), connected(srv0) as r0:
        local = LocalSpace("me")
        d = PeerDirectory(local, [r0])
        got = []
        th = threading.Thread(target=lambda: got.append(search_notify(d, template("loc"),
                                                                      deadline=5)))
        th.start()
        time.sleep(0.05)
        local.out(make_tuple("loc"))
        th.join(5)
        assert got and got[0].tuple == make_tuple("loc")
        assert local.pending_waiter_count() == 0


def test_notify_zero_peers_degenerates_to_local_rd():
    local = LocalSpace("solo")
    local.out(make_tuple("only"))
    out = search_notify(PeerDirectory(local, []), template("only"), deadline=2)
    assert out.tuple == make_tuple("only")
    assert out.visited_nodes == 1


def test_notify_deadline():
    local = LocalSpace("empty")
    with pytest.raises(DeadlineExceeded):
        search_notify(PeerDirectory(local, []), template("never"), deadline=0.05)
    assert local.pending_waiter_count() == 0


def test_directory_rejects_self_in_peers():
    sp = LocalSpace()
    with pytest.raises(ValueError):
        PeerDirectory(sp, [sp])


@pytest.mark.parametrize("location", ["local", 0, 1, 2])
def test_completeness_polling_strategies(location):
    """A tuple that exists somewhere before the search starts is found by
    every polling strategy, wherever it lives."""
    target = make_tuple("somewhere", 1)
    d = _directory(3)
    (d.local if location == "local" else d.peers[location]).out(target)
    assert search_sequential(d, template("somewhere", ANY), deadline=5).tuple == target
    stats = SuccessStats()
    # bias the factors away from the true location first
    for i in range(3):
        stats.update(i, hit=(i != location))
    assert search_success_factor(d, stats, template("somewhere", ANY),
                                 deadline=5).tuple == target


@pytest.mark.parametrize("location", ["local", 0, 1])
def test_completeness_notify(location):
    target = make_tuple("bcast", 2)
    with served_space("p0") as (s0, srv0), served_space("p1") as (s1, srv1):
        with connected(srv0) as r0, connected(srv1) as r1:
            local = LocalSpace("me")
            spaces = {"local": local, 0: s0, 1: s1}
            spaces[location].out(target)
            out = search_notify(PeerDirectory(local, [r0, r1]),
                                template("bcast", ANY), deadline=5)
            assert out.tuple == target


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=6), st.booleans()), max_size=40),
       st.integers(min_value=0, max_value=8))
def test_order_is_descending_factor_then_ascending_index(updates, n_peers):
    stats = SuccessStats()
    for peer, hit in updates:
        stats.update(peer, hit)
    factors = [stats.factor(i) for i in range(n_peers)]
    assert stats.order(n_peers) == sorted(range(n_peers), key=lambda i: (-factors[i], i))


def test_search_outcome_keeps_its_field_names():
    d = _directory(1)
    d.local.out(make_tuple("named"))
    out = search_sequential(d, template("named"))
    assert out._fields == ("tuple", "visited_nodes", "visited_nodes_first_round",
                           "elapsed", "rounds")
    assert (out.visited_nodes, out.rounds) == (1, 1)


def test_only_the_first_round_is_counted_when_a_later_round_fails():
    """Round one misses everywhere; round two's peer probe raises."""
    counter = [0]

    class FailsInRoundTwo(ScriptedSpace):
        def rdp(self, tpl):
            if counter[0] >= 2:
                raise ConnectionLost("peer gone")
            return self._probe()

    d = PeerDirectory(ScriptedSpace(counter), [FailsInRoundTwo(counter)])
    before = profiler.counter_total(NODE_VISITED)
    with pytest.raises(ConnectionLost):
        search_sequential(d, template("x"), poll_interval=0.0001)
    assert counter[0] == 3
    assert profiler.counter_total(NODE_VISITED) - before == 2
    before = profiler.counter_total(NODE_VISITED)
    with pytest.raises(DeadlineExceeded):
        search_sequential(_directory(2), template("never"), poll_interval=0.001,
                          deadline=0.02)
    assert profiler.counter_total(NODE_VISITED) - before == 3
