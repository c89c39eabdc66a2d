"""LocalSpace semantics: FIFO, multiset, blocking, atomicity, index oracle."""

import struct
import sys
import threading
import time

import pytest

from tuplespaces import (
    ANY,
    INT,
    STR,
    LocalSpace,
    SpaceTimeout,
    Template,
    WaiterCancelled,
    float_array,
    lit,
    make_tuple,
    template,
    template_of,
    wildcard,
)
from tuplespaces import store as store_mod
from tuplespaces.rng import SplitMix64

from util import ShadowSpace, random_tuple, template_from_tuple


def test_out_then_probe_roundtrip():
    sp = LocalSpace()
    sp.out(make_tuple("hashSet", "h", "p"))
    got = sp.rdp(template("hashSet", "h", ANY))
    assert got == make_tuple("hashSet", "h", "p")
    assert sp.size() == 1  # rdp leaves the store unchanged


def test_multiset_semantics():
    sp = LocalSpace()
    t = make_tuple("dup", 1)
    sp.out(t)
    sp.out(t)
    assert sp.count(template_of(t)) == 2


def test_rdp_fifo_and_miss():
    sp = LocalSpace()
    assert sp.rdp(template("a", ANY)) is None
    sp.out(make_tuple("a", 1))
    sp.out(make_tuple("a", 2))
    assert sp.rdp(template("a", ANY)) == make_tuple("a", 1)
    assert sp.rdp(template("b", ANY)) is None


def test_inp_fifo_removal():
    sp = LocalSpace()
    t = make_tuple("x", 5)
    sp.out(t)
    assert sp.inp(template_of(t)) == t
    assert sp.inp(template_of(t)) is None

    sp.out(make_tuple("a", 1))
    sp.out(make_tuple("a", 2))
    assert sp.inp(template("a", ANY)) == make_tuple("a", 1)
    assert sp.snapshot() == [make_tuple("a", 2)]


def test_fifo_across_buckets():
    # Same arity, different head buckets; global stamp order must win.
    sp = LocalSpace()
    sp.out(make_tuple(7, "first"))     # bucket (2, None)
    sp.out(make_tuple("s", "second"))  # bucket (2, "s")
    assert sp.rdp(template(ANY, ANY)) == make_tuple(7, "first")
    sp.out(make_tuple(8, "third"))
    assert sp.inp(template(ANY, ANY)) == make_tuple(7, "first")
    assert sp.inp(template(ANY, ANY)) == make_tuple("s", "second")


def test_rd_immediate_and_later():
    sp = LocalSpace()
    t = make_tuple("t", 0)
    sp.out(t)
    assert sp.rd(template_of(t), timeout=None) == t
    assert sp.size() == 1

    got = []
    th = threading.Thread(target=lambda: got.append(sp.rd(template("later"), timeout=5)))
    th.start()
    time.sleep(0.05)
    sp.out(make_tuple("later"))
    th.join(2)
    assert got == [make_tuple("later")]


def test_rd_timeout():
    sp = LocalSpace()
    t0 = time.perf_counter()
    with pytest.raises(SpaceTimeout):
        sp.rd(template("never"), timeout=0.05)
    assert time.perf_counter() - t0 < 2.0


def test_in_blocking_take_and_timeout():
    sp = LocalSpace()
    t = make_tuple("gone")
    sp.out(t)
    assert sp.in_(template_of(t), timeout=None) == t
    assert sp.size() == 0
    with pytest.raises(SpaceTimeout):
        sp.in_(template_of(t), timeout=0.05)


def test_single_out_wakes_one_taker():
    sp = LocalSpace()
    tpl = template("job", ANY)
    results = []

    def taker():
        try:
            results.append(sp.in_(tpl, timeout=0.5))
        except SpaceTimeout:
            results.append(None)

    threads = [threading.Thread(target=taker) for _ in range(2)]
    for th in threads:
        th.start()
    time.sleep(0.05)
    sp.out(make_tuple("job", 1))
    for th in threads:
        th.join(3)
    wins = [r for r in results if r is not None]
    assert len(wins) == 1 and wins[0] == make_tuple("job", 1)
    assert sp.size() == 0


@pytest.mark.parametrize("rd_first", [True, False])
def test_out_satisfies_readers_then_one_taker(rd_first):
    """Both waiter registration orders: the reader sees the tuple, the taker
    consumes it, and the store ends up empty."""
    sp = LocalSpace()
    tpl = template("w", ANY)
    seen = {}

    def reader():
        seen["rd"] = sp.rd(tpl, timeout=5)

    def taker():
        seen["in"] = sp.in_(tpl, timeout=5)

    first, second = (reader, taker) if rd_first else (taker, reader)
    t1 = threading.Thread(target=first)
    t1.start()
    time.sleep(0.05)
    t2 = threading.Thread(target=second)
    t2.start()
    time.sleep(0.05)
    sp.out(make_tuple("w", 9))
    t1.join(3)
    t2.join(3)
    assert seen["rd"] == make_tuple("w", 9)
    assert seen["in"] == make_tuple("w", 9)
    assert sp.size() == 0
    assert sp.pending_waiter_count() == 0


def test_concurrent_inp_all_distinct():
    sp = LocalSpace()
    n = 16
    for i in range(n):
        sp.out(make_tuple("item", i))
    tpl = template("item", ANY)
    got = []
    lock = threading.Lock()

    def prober():
        r = sp.inp(tpl)
        with lock:
            got.append(r)

    threads = [threading.Thread(target=prober) for _ in range(n)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(3)
    assert all(r is not None for r in got)
    assert len({r.data[1] for r in got}) == n
    assert sp.size() == 0


def test_atomic_take_k_racers_m_extra():
    """K matching tuples, K+m blocking takers: exactly K succeed."""
    sp = LocalSpace()
    k, m = 24, 8
    tpl = template("race", ANY)
    outcomes = []
    lock = threading.Lock()

    def taker():
        try:
            r = sp.in_(tpl, timeout=1.0)
        except SpaceTimeout:
            r = None
        with lock:
            outcomes.append(r)

    threads = [threading.Thread(target=taker) for _ in range(k + m)]
    for th in threads:
        th.start()
    time.sleep(0.05)
    for i in range(k):
        sp.out(make_tuple("race", i))
    for th in threads:
        th.join(5)
    wins = [r for r in outcomes if r is not None]
    assert len(wins) == k
    assert len({r.data[1] for r in wins}) == k
    assert sp.size() == 0


def test_timeout_race_hammer_conserves_tuples():
    """Takers whose timeouts race the outs: a take whose cancel loses to a
    satisfying out still returns its tuple, so none is lost or doubled."""
    sp = LocalSpace()
    tpl = template("t", ANY)
    produced = 400
    consumed = []
    lock = threading.Lock()
    stop = threading.Event()

    def taker(seed):
        r = SplitMix64(seed)
        while not stop.is_set():
            try:
                got = sp.in_(tpl, timeout=r.below(3) / 1000.0)
            except SpaceTimeout:
                continue
            with lock:
                consumed.append(got.data[1])

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=taker, args=(seed,)) for seed in range(4)]
    try:
        for th in threads:
            th.start()
        r = SplitMix64(9)
        for i in range(produced):
            sp.out(make_tuple("t", i))
            if r.below(4) == 0:
                time.sleep(0.0005)
        deadline = time.monotonic() + 10
        while sp.size() and time.monotonic() < deadline:
            time.sleep(0.005)
    finally:
        stop.set()
        for th in threads:
            th.join(5)
        sys.setswitchinterval(switch)
    assert not any(th.is_alive() for th in threads)
    assert sorted(consumed) == list(range(produced))
    assert sp.pending_waiter_count() == 0


def test_no_lost_wakeup_hammer():
    sp = LocalSpace()
    tpl = template("ping", ANY)
    hits = []

    def waiter(i):
        hits.append(sp.in_(tpl, timeout=10))

    threads = [threading.Thread(target=waiter, args=(i,)) for i in range(32)]
    for th in threads:
        th.start()
    for i in range(32):
        sp.out(make_tuple("ping", i))
        if i % 7 == 0:
            time.sleep(0.001)
    for th in threads:
        th.join(10)
    assert len(hits) == 32
    assert sp.size() == 0
    assert sp.check_wakeup_completeness()


def test_waiter_cancel():
    sp = LocalSpace()
    w = sp.register_waiter(template("nope"), destructive=False)
    assert not w.satisfied
    assert sp.cancel_waiter(w) is True
    assert sp.cancel_waiter(w) is False
    assert sp.pending_waiter_count() == 0
    # cancel of an already-satisfied waiter reports too-late
    sp.out(make_tuple("yes"))
    w2 = sp.register_waiter(template("yes"), destructive=True)
    assert w2.satisfied
    assert sp.cancel_waiter(w2) is False
    assert sp.size() == 0  # the destructive registration consumed it


def _recording_waiter(sp, tpl, destructive):
    """Register with a callback that records (satisfied, result) each call."""
    calls = []
    w = sp.register_waiter(tpl, destructive,
                           lambda w: calls.append((w.satisfied, w.result)))
    return w, calls


@pytest.mark.parametrize("destructive", [False, True])
def test_callback_runs_once_with_final_state(destructive):
    sp = LocalSpace()
    # Satisfied at registration: the callback has run before register returns.
    sp.out(make_tuple("now", 1))
    w, calls = _recording_waiter(sp, template("now", ANY), destructive)
    assert calls == [(True, make_tuple("now", 1))]
    assert sp.cancel_waiter(w) is False
    sp.out(make_tuple("now", 2))
    assert len(calls) == 1

    # Satisfied by a later out.
    w, calls = _recording_waiter(sp, template("later", ANY), destructive)
    assert calls == []
    sp.out(make_tuple("later", 1))
    assert calls == [(True, make_tuple("later", 1))]
    assert sp.cancel_waiter(w) is False
    sp.out(make_tuple("later", 2))
    assert len(calls) == 1
    assert sp.rdp(template("later", ANY)) == make_tuple("later", 2 if destructive else 1)

    # Cancelled: a later match neither reaches it nor is consumed by it.
    w, calls = _recording_waiter(sp, template("never", ANY), destructive)
    assert sp.cancel_waiter(w) is True
    assert calls == [(False, None)]
    assert sp.cancel_waiter(w) is False
    sp.out(make_tuple("never", 1))
    assert len(calls) == 1
    assert sp.rdp(template("never", ANY)) == make_tuple("never", 1)
    assert sp.pending_waiter_count() == 0


def test_cancelled_blocking_call_raises():
    sp = LocalSpace()
    tpl = template("cancel-me")
    errs = []

    def blocked():
        try:
            sp.rd(tpl, timeout=None)
        except WaiterCancelled:
            errs.append("cancelled")

    th = threading.Thread(target=blocked)
    th.start()
    deadline = time.time() + 2
    while sp.pending_waiter_count() == 0 and time.time() < deadline:
        time.sleep(0.005)
    with sp._lock:
        [waiter] = sp._waiters.values()
    assert sp.cancel_waiter(waiter)
    th.join(2)
    assert errs == ["cancelled"]


def test_count_matches_scan_oracle():
    rng = SplitMix64(99)
    sp = LocalSpace()
    shadow = ShadowSpace()
    for _ in range(300):
        t = random_tuple(rng, max_arity=3)
        sp.out(t)
        shadow.out(t)
    for _ in range(200):
        tpl = template_from_tuple(rng, random_tuple(rng, max_arity=3))
        assert sp.count(tpl) == shadow.count(tpl)


def _script_universe(rng):
    """A small, collision-heavy universe of tuples."""
    heads = ["a", "b", 1, 2.5]
    tuples = []
    for h in heads:
        for x in range(3):
            tuples.append(make_tuple(h, x))
            tuples.append(make_tuple(h, x, "pad"))
    tuples.append(make_tuple(0))
    for h in heads:
        for x in range(2):
            for y in ("p", "q", 1):
                for z in (0, "0"):
                    tuples.append(make_tuple(h, x, y, z))
    return tuples


def test_index_transparency_scripts():
    """Randomized op scripts: indexed store == brute-force flat multiset."""
    rng = SplitMix64(7)
    universe = _script_universe(rng)
    templates = [template_from_tuple(rng, t) for t in universe for _ in range(2)]
    templates += [template(ANY, ANY), template("a", ANY), template(wildcard(INT), ANY)]
    # Several literals after the head, some of them with no posting list.
    templates += [template("a", 1, "p", ANY), template(ANY, ANY, "q", 0),
                  template("b", ANY, 1, "0"), template(wildcard(STR), 0, ANY, "0"),
                  template(1, 1, "q", "0"), template("a", 5, "p", ANY),
                  template(ANY, 0, "zz", ANY), template(ANY, ANY, ANY, b"0")]
    for script in range(60):
        sp = LocalSpace()
        shadow = ShadowSpace()
        for _ in range(120):
            op = rng.below(4)
            if op == 0:
                t = universe[rng.below(len(universe))]
                sp.out(t)
                shadow.out(t)
            elif op == 1:
                tpl = templates[rng.below(len(templates))]
                assert sp.rdp(tpl) == shadow.rdp(tpl)
            elif op == 2:
                tpl = templates[rng.below(len(templates))]
                assert sp.inp(tpl) == shadow.inp(tpl)
            else:
                tpl = templates[rng.below(len(templates))]
                assert sp.count(tpl) == shadow.count(tpl)
        assert sp.snapshot() == shadow.snapshot()


def _colliding_values():
    """Values that collide across tags or bit patterns, with fresh NaN objects
    on each call, so a lookup keyed on a raw float cannot succeed through
    object identity."""
    other_nan = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
    return [1, 1.0, -0.0, 0.0, float("nan"), other_nan, "1", b"1", [1], [1.0]]


def _collision_universe():
    """Tuples whose position-1 values collide across tags, plus arity 1."""
    heads = ["h", "k", 1, 2.5, b"h"]
    tuples = [make_tuple(h) for h in heads]
    for h in heads:
        for x in _colliding_values():
            tuples.append(make_tuple(h, x))
            tuples.append(make_tuple(h, x, "pad"))
    return tuples


def _collision_templates(rng, universe):
    """Each tuple's position-1 literal under a literal, wildcard and ANY head,
    plus random derivations."""
    templates = []
    for t in universe:
        rest = [ANY] * (t.arity - 2)
        for h in (lit(t.data[0]), wildcard(t.tags[0]), ANY):
            if t.arity == 1:
                templates.append(Template([h]))
            else:
                templates.append(Template([h, lit(t.data[1])] + rest))
        templates.append(template_from_tuple(rng, t))
    return templates


def test_field1_index_collisions_match_scan_oracle():
    """Position-1 values that collide across tags (1, 1.0, -0.0, NaN, "1",
    b"1", arrays) select exactly what a flat scan selects."""
    rng = SplitMix64(11)
    universe = _collision_universe()
    templates = _collision_templates(rng, _collision_universe())
    for script in range(60):
        sp = LocalSpace()
        shadow = ShadowSpace()
        for _ in range(150):
            op = rng.below(4)
            if op == 0:
                t = universe[rng.below(len(universe))]
                sp.out(t)
                shadow.out(t)
                continue
            tpl = templates[rng.below(len(templates))]
            if op == 1:
                assert sp.rdp(tpl) == shadow.rdp(tpl)
            elif op == 2:
                assert sp.inp(tpl) == shadow.inp(tpl)
            else:
                assert sp.count(tpl) == shadow.count(tpl)
        assert sp.snapshot() == shadow.snapshot()


def _positional_collision_universe():
    """Arity-3 and arity-4 tuples with the colliding values at positions 2-3."""
    tuples = []
    for h in ("h", 1):
        for a in (1, "1"):
            for b in _colliding_values():
                tuples.append(make_tuple(h, a, b))
                for c in _colliding_values():
                    tuples.append(make_tuple(h, a, b, c))
    return tuples


def _positional_collision_template(rng, base, values, absent):
    """A template shaped on ``base``: at each position after the head, the
    base's own value, ANY, a colliding value, or a value no tuple holds (so
    no posting list has it)."""
    fields = [(lit(base.data[0]), wildcard(base.tags[0]), ANY)[rng.below(3)]]
    for v in base.data[1:]:
        k = rng.below(5)
        if k <= 1:
            fields.append(lit(v))
        elif k == 2:
            fields.append(ANY)
        elif k == 3:
            fields.append(lit(values[rng.below(len(values))]))
        else:
            fields.append(lit(absent[rng.below(len(absent))]))
    return Template(fields)


def test_index_collisions_at_every_position_match_scan_oracle():
    """Colliding values (1, 1.0, -0.0, NaN, "1", b"1", arrays) at positions 2
    and 3, under templates with several literals, select exactly what a flat
    scan selects."""
    rng = SplitMix64(13)
    universe = _positional_collision_universe()
    values = _colliding_values()
    absent = [2, "2", b"2"]
    for script in range(40):
        sp = LocalSpace()
        shadow = ShadowSpace()
        for _ in range(150):
            op = rng.below(4)
            if op == 0:
                t = universe[rng.below(len(universe))]
                sp.out(t)
                shadow.out(t)
                continue
            stored = shadow.snapshot()
            base = stored[rng.below(len(stored))] if stored and rng.below(4) else \
                universe[rng.below(len(universe))]
            tpl = _positional_collision_template(rng, base, values, absent)
            if op == 1:
                assert sp.rdp(tpl) == shadow.rdp(tpl)
            elif op == 2:
                assert sp.inp(tpl) == shadow.inp(tpl)
            else:
                assert sp.count(tpl) == shadow.count(tpl)
        assert sp.snapshot() == shadow.snapshot()


def _indexed_positions(sp, key):
    return sorted(pos for pos, _ in sp._buckets[key].indexed)


def _row(i):
    # ("r", a, s, b, serial): the serial makes every tuple distinct, so a
    # FIFO slip shows as a different tuple.
    return make_tuple("r", i % 5, "s%d" % (i % 3), i % 7, i)


def _row_template(rng):
    return template("r",
                    rng.below(5) if rng.below(2) else ANY,
                    "s%d" % rng.below(4) if rng.below(2) else ANY,
                    rng.below(8) if rng.below(2) else ANY,
                    ANY)


def _probe_both(sp, shadow, kind, tpl):
    """One probe on the store and the oracle; a registered waiter is a take
    that parks (and is cancelled) when nothing matches."""
    if kind == "rdp":
        assert sp.rdp(tpl) == shadow.rdp(tpl)
    elif kind == "inp":
        assert sp.inp(tpl) == shadow.inp(tpl)
    elif kind == "count":
        assert sp.count(tpl) == shadow.count(tpl)
    else:
        w = sp.register_waiter(tpl, destructive=True)
        expected = shadow.inp(tpl)
        if expected is None:
            assert not w.satisfied
            assert sp.cancel_waiter(w)
        else:
            assert w.satisfied and w.result == expected


@pytest.mark.parametrize("first", ["rdp", "inp", "count", "register_waiter"])
def test_lazy_position_index_matches_scan_oracle(first):
    """A position first probed after many outs and takes, through each probe
    kind, answers as a flat scan does, and stays current afterwards."""
    rng = SplitMix64(17)
    sp = LocalSpace()
    shadow = ShadowSpace()
    for serial in range(400):
        sp.out(_row(serial))
        shadow.out(_row(serial))
        if serial % 4 == 3:
            _probe_both(sp, shadow, "inp", template("r", rng.below(5), ANY, ANY, ANY))
    assert _indexed_positions(sp, (5, "r")) == [1]

    for tpl in (template("r", ANY, "s1", ANY, ANY), template("r", ANY, ANY, 3, ANY),
                template("r", 2, "s0", 6, ANY), template("r", ANY, "s9", 1, ANY),
                template("r", ANY, ANY, ANY, 399)):
        _probe_both(sp, shadow, first, tpl)
    assert _indexed_positions(sp, (5, "r")) == [1, 2, 3, 4]

    if first == "register_waiter":
        # A taker parked on literals at positions 2 and 3 (no row holds b = 7)
        # takes the out that matches it, before any probe sees that tuple.
        w = sp.register_waiter(template("r", ANY, "s2", 7, ANY), destructive=True)
        assert not w.satisfied
        serial += 1
        sp.out(make_tuple("r", 0, "s2", 7, serial))
        assert w.satisfied and w.result == make_tuple("r", 0, "s2", 7, serial)

    kinds = ("rdp", "inp", "count", "register_waiter")
    for _ in range(600):
        if rng.below(3) == 0:
            serial += 1
            sp.out(_row(serial))
            shadow.out(_row(serial))
        else:
            _probe_both(sp, shadow, kinds[rng.below(4)], _row_template(rng))
    assert sp.snapshot() == shadow.snapshot()
    assert sp.pending_waiter_count() == 0


def test_emptied_bucket_is_recreated_with_position1_index_only():
    """Postings learned by a bucket go with it when it empties; the new
    bucket learns them again and still answers as a flat scan does."""
    rng = SplitMix64(19)
    sp = LocalSpace()
    shadow = ShadowSpace()
    for i in range(50):
        sp.out(_row(i))
        shadow.out(_row(i))
    _probe_both(sp, shadow, "rdp", template("r", ANY, "s2", ANY, ANY))
    assert _indexed_positions(sp, (5, "r")) == [1, 2]
    while shadow.snapshot():
        _probe_both(sp, shadow, "inp", template("r", ANY, ANY, ANY, ANY))
    assert sp.size() == 0 and (5, "r") not in sp._buckets

    for i in range(50, 120):
        sp.out(_row(i))
        shadow.out(_row(i))
    assert _indexed_positions(sp, (5, "r")) == [1]
    for _ in range(300):
        _probe_both(sp, shadow, ("rdp", "inp", "count")[rng.below(3)], _row_template(rng))
    assert _indexed_positions(sp, (5, "r")) == [1, 2, 3]
    assert sp.snapshot() == shadow.snapshot()


def _counting_match(monkeypatch):
    """Count store.match calls the way the tracer does: patch the module
    global the store looks up."""
    calls = [0]
    original = store_mod.match

    def counted(tpl, tup):
        calls[0] += 1
        return original(tpl, tup)

    monkeypatch.setattr(store_mod, "match", counted)
    return calls


@pytest.mark.parametrize("iters", [20, 200])
def test_border_probe_walks_at_most_two_candidates(monkeypatch, iters):
    """Ocean's border probe (border, k, t, side, ANY) on one worker's store:
    borders of every step and both sides stay stored, yet each probe checks
    at most the two borders of its step."""
    calls = _counting_match(monkeypatch)
    sp = LocalSpace()
    k = 3
    for t in range(1, iters + 1):
        probes = [template("border", k, t, side, ANY) for side in ("left", "right")]
        for tpl in probes:  # a neighbour early: nothing for this step yet
            before = calls[0]
            assert sp.rdp(tpl) is None
            assert calls[0] - before <= 2
        for side in ("left", "right"):
            sp.out(make_tuple("border", k, t, side, float_array([0.5] * 4)))
        for tpl in probes:
            before = calls[0]
            assert sp.rdp(tpl) is not None
            assert calls[0] - before <= 2
    assert sp.size() == 2 * iters


def test_field1_probe_checks_exactly_one_candidate(monkeypatch):
    """Password's table probe (hashSet, h, ANY) checks only the entry for h."""
    sp = LocalSpace()
    for i in range(2000):
        sp.out(make_tuple("hashSet", "h%d" % i, str(i)))
    calls = _counting_match(monkeypatch)
    for i in range(0, 2000, 97):
        before = calls[0]
        assert sp.rdp(template("hashSet", "h%d" % i, ANY)) == make_tuple("hashSet", "h%d" % i, str(i))
        assert calls[0] - before == 1


@pytest.mark.parametrize("literal_first", [True, False])
def test_out_wakes_oldest_taker_literal_and_wildcard_head(literal_first):
    """Of a literal-head and a wildcard-head taker, the older one takes the
    tuple and every matching reader is woken."""
    sp = LocalSpace()
    literal_tpl = template("job", ANY)
    wild_tpl = template(wildcard(STR), ANY)
    takers = {}
    for tpl in ((literal_tpl, wild_tpl) if literal_first else (wild_tpl, literal_tpl)):
        takers[tpl] = sp.register_waiter(tpl, destructive=True)
    readers = [sp.register_waiter(literal_tpl, destructive=False),
               sp.register_waiter(wild_tpl, destructive=False),
               sp.register_waiter(template(ANY, 1), destructive=False)]
    older, younger = (takers[literal_tpl], takers[wild_tpl]) if literal_first \
        else (takers[wild_tpl], takers[literal_tpl])

    sp.out(make_tuple("job", 1))
    assert older.satisfied and older.result == make_tuple("job", 1)
    assert not younger.satisfied
    assert all(r.satisfied and r.result == make_tuple("job", 1) for r in readers)
    assert sp.size() == 0
    assert sp.pending_waiter_count() == 1
    assert sp.check_wakeup_completeness()

    sp.out(make_tuple("job", 2))
    assert younger.satisfied and younger.result == make_tuple("job", 2)
    assert sp.pending_waiter_count() == 0 and sp.size() == 0


def test_conservation_serial():
    """count == matching outs - successful matching takes, serially."""
    rng = SplitMix64(21)
    sp = LocalSpace()
    tpl = template("c", ANY)
    outs = takes = 0
    for _ in range(500):
        if rng.below(2):
            sp.out(make_tuple("c", rng.below(5)))
            outs += 1
        else:
            if sp.inp(tpl) is not None:
                takes += 1
    assert sp.count(tpl) == outs - takes


def test_probe_wait_free_wrt_blocked_waiters():
    """Probes and count proceed while blocking waiters are parked."""
    sp = LocalSpace()

    def parked():
        try:
            sp.rd(template("block"), 0.4)
        except SpaceTimeout:
            pass

    blocker = threading.Thread(target=parked)
    blocker.start()
    time.sleep(0.05)
    sp.out(make_tuple("other", 1))
    t0 = time.perf_counter()
    assert sp.rdp(template("other", ANY)) is not None
    assert sp.count(template("other", ANY)) == 1
    assert time.perf_counter() - t0 < 0.2
    blocker.join(2)
