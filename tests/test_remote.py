"""Server + client: semantics parity with LocalSpace, concurrency, cancel."""

import gc
import socket
import sys
import threading
import time
import weakref

import pytest

from tuplespaces import (
    ANY,
    AddressInUse,
    ConnectionLost,
    DeadlineExceeded,
    LocalSpace,
    NodeAddress,
    PayloadTooLarge,
    PeerDirectory,
    RemoteOpError,
    RemoteSpace,
    SpaceServer,
    SpaceTimeout,
    Unreachable,
    VersionMismatch,
    make_tuple,
    search_notify,
    template,
)
from tuplespaces import client as client_mod
from tuplespaces import wire
from tuplespaces.rng import SplitMix64

from util import connected, random_tuple, raw_peer, served_space, template_from_tuple


def test_out_then_probe_echo():
    with served_space() as (_, srv), connected(srv) as cl:
        cl.out(make_tuple("k", 7))
        assert cl.rdp(template("k", ANY)) == make_tuple("k", 7)
        assert cl.count(template("k", ANY)) == 1
        assert cl.inp(template("k", ANY)) == make_tuple("k", 7)
        assert cl.rdp(template("k", ANY)) is None


def test_remote_out_visible_locally():
    with served_space() as (space, srv), connected(srv) as cl:
        cl.out(make_tuple("shared", 1))
        assert space.rdp(template("shared", ANY)) == make_tuple("shared", 1)


def test_rd_zero_timeout_probe_degeneration():
    with served_space() as (_, srv), connected(srv) as cl:
        with pytest.raises(SpaceTimeout):
            cl.rd(template("missing"), timeout=0)
        with pytest.raises(SpaceTimeout):
            cl.in_(template("missing"), timeout=0)


def test_rd_finite_timeout_server_side():
    with served_space() as (_, srv), connected(srv) as cl:
        t0 = time.perf_counter()
        with pytest.raises(SpaceTimeout):
            cl.rd(template("missing"), timeout=0.08)
        assert 0.05 < time.perf_counter() - t0 < 3.0


def test_blocking_rd_satisfied_by_later_out():
    with served_space() as (space, srv), connected(srv) as cl:
        got = []
        th = threading.Thread(target=lambda: got.append(cl.rd(template("later", ANY))))
        th.start()
        time.sleep(0.05)
        space.out(make_tuple("later", 5))
        th.join(3)
        assert got == [make_tuple("later", 5)]


def test_two_blocked_takers_one_out():
    with served_space() as (space, srv), connected(srv, "a") as ca, connected(srv, "b") as cb:
        results = []
        lock = threading.Lock()

        def taker(cl):
            try:
                r = cl.in_(template("one", ANY), timeout=0.6)
            except SpaceTimeout:
                r = None
            with lock:
                results.append(r)

        threads = [threading.Thread(target=taker, args=(c,)) for c in (ca, cb)]
        for t in threads:
            t.start()
        time.sleep(0.05)
        space.out(make_tuple("one", 1))
        for t in threads:
            t.join(3)
        wins = [r for r in results if r is not None]
        assert len(wins) == 1
        assert space.size() == 0


def test_request_isolation_on_one_connection():
    """An OUT sent after a blocking IN on the same connection completes the IN."""
    with served_space() as (_, srv), connected(srv) as cl:
        pending = cl.rd_async(template("self", ANY), timeout=None)
        time.sleep(0.02)
        cl.out(make_tuple("self", 42))
        assert pending.wait(3)
        assert pending.kind == "tuple"
        assert pending.payload == make_tuple("self", 42)


def test_cancel_elicits_reply_none():
    with served_space() as (_, srv), connected(srv) as cl:
        pending = cl.rd_async(template("never"), timeout=None)
        time.sleep(0.02)
        cl.cancel(pending)
        assert pending.wait(3)
        assert pending.kind == "none"


def test_cancel_after_satisfaction_is_noop():
    with served_space() as (space, srv), connected(srv) as cl:
        space.out(make_tuple("fast"))
        pending = cl.rd_async(template("fast"), timeout=None)
        assert pending.wait(3)
        cl.cancel(pending)  # best effort; no duplicate completion
        time.sleep(0.05)
        assert pending.kind == "tuple"


def test_three_node_blocking_take():
    with served_space() as (_, srv):
        with connected(srv, "consumer") as consumer, connected(srv, "producer") as producer:
            got = []
            th = threading.Thread(
                target=lambda: got.append(consumer.in_(template("relay", ANY))))
            th.start()
            time.sleep(0.05)
            producer.out(make_tuple("relay", 3))
            th.join(3)
            assert got == [make_tuple("relay", 3)]


def test_remote_count_after_k_outs():
    with served_space() as (_, srv), connected(srv) as cl:
        for i in range(5):
            cl.out(make_tuple("cnt", i))
        assert cl.count(template("cnt", ANY)) == 5


def test_connect_unreachable_after_retries():
    holder = socket.socket()
    holder.bind(("127.0.0.1", 0))  # bound but never listening: refuses connects
    port = holder.getsockname()[1]
    try:
        t0 = time.perf_counter()
        with pytest.raises(Unreachable):
            RemoteSpace.connect(NodeAddress("127.0.0.1", port, "gone"), attempts=3,
                                retry_delay=0.05)
        assert time.perf_counter() - t0 >= 0.09  # at least two retry delays
    finally:
        holder.close()


def test_connect_gives_up_on_a_mute_peer(monkeypatch):
    """A peer that takes the connection but never answers HELLO makes
    connect raise Unreachable once CONNECT_TIMEOUT passes."""
    monkeypatch.setattr(client_mod, "CONNECT_TIMEOUT", 0.2)
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)  # the kernel completes the connect; nobody accepts it
    outcome = {}

    def connect():
        try:
            RemoteSpace.connect(NodeAddress("127.0.0.1", listener.getsockname()[1], "mute"))
        except Exception as e:
            outcome["error"] = e

    th = threading.Thread(target=connect, daemon=True)
    try:
        th.start()
        th.join(5)
        assert not th.is_alive(), "connect still waiting for the HELLO reply"
        assert isinstance(outcome.get("error"), Unreachable)
    finally:
        listener.close()


def test_address_in_use():
    with served_space() as (_, srv):
        with pytest.raises(AddressInUse):
            SpaceServer(LocalSpace(), port=srv.port).start()


def test_stop_ends_accept_thread_and_releases_space():
    before = set(threading.enumerate())
    space = LocalSpace("leak")
    server = SpaceServer(space, port=0, name="leak-check").start()
    assert any(th.name == "accept-leak-check" for th in threading.enumerate())
    server.stop()
    assert not any(th.name == "accept-leak-check" for th in threading.enumerate())
    assert set(threading.enumerate()) <= before
    released = weakref.ref(space)
    del space, server
    gc.collect()
    assert released() is None


def test_version_mismatch_rejected_by_server():
    with served_space() as (_, srv):
        sock = socket.create_connection(("127.0.0.1", srv.port))
        try:
            sock.sendall(wire.build_frame(wire.MSG_HELLO, 0, wire.pack_hello("old", version=9)))
            frame = wire.read_frame(wire.FrameReader(sock))
            assert frame is not None
            msg_type, _, body = frame
            assert msg_type == wire.MSG_REPLY_ERR
            code, msg = wire.unpack_err(body)
            assert code == wire.ERR_UNSUPPORTED and "version" in msg
        finally:
            sock.close()


def test_version_mismatch_detected_by_client():
    """A fake server answering HELLO with the wrong version is rejected."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]

    def fake_server():
        conn, _ = listener.accept()
        wire.read_frame(wire.FrameReader(conn))
        conn.sendall(wire.build_frame(wire.MSG_HELLO, 0, wire.pack_hello("fake", version=2)))
        conn.close()

    th = threading.Thread(target=fake_server, daemon=True)
    th.start()
    try:
        with pytest.raises(VersionMismatch):
            RemoteSpace.connect(NodeAddress("127.0.0.1", port, "fake"))
    finally:
        listener.close()


def test_malformed_request_gets_error_reply():
    with served_space() as (_, srv):
        sock = socket.create_connection(("127.0.0.1", srv.port))
        try:
            sock.sendall(wire.build_frame(wire.MSG_HELLO, 0, wire.pack_hello("raw")))
            f = wire.FrameReader(sock)
            assert wire.read_frame(f)[0] == wire.MSG_HELLO
            sock.sendall(wire.build_frame(wire.MSG_OUT, 1, b"\x01\x00\x00\x00\x99"))
            msg_type, rid, body = wire.read_frame(f)
            assert msg_type == wire.MSG_REPLY_ERR and rid == 1
            assert wire.unpack_err(body)[0] == wire.ERR_MALFORMED
            # the connection survives malformed bodies
            sock.sendall(wire.build_frame(wire.MSG_RDP, 2,
                                          wire.encode_template(template(ANY))))
            assert wire.read_frame(f)[0] == wire.MSG_REPLY_NONE
        finally:
            sock.close()


def test_a_tuple_sent_by_out_is_read_back_as_the_bytes_sent(monkeypatch):
    """The server stores the decoded OUT body with the tuple and replies to
    a probe with it, encoding nothing."""
    body = wire.encode_tuple(make_tuple("kept", 7, float("nan"), "\u00e9", b"\x00",
                                        [0.5, -0.0]))
    with served_space() as (space, srv):
        sock = socket.create_connection(("127.0.0.1", srv.port))
        try:
            sock.sendall(wire.build_frame(wire.MSG_HELLO, 0, wire.pack_hello("raw")))
            f = wire.FrameReader(sock)
            assert wire.read_frame(f)[0] == wire.MSG_HELLO
            sock.sendall(wire.build_frame(wire.MSG_OUT, 1, body))
            assert wire.read_frame(f)[:2] == (wire.MSG_REPLY_NONE, 1)
            probe = wire.encode_template(template("kept", ANY, ANY, ANY, ANY, ANY))
            encoded = []
            encode = wire._encode
            monkeypatch.setattr(wire, "_encode", lambda *a: encoded.append(a) or encode(*a))
            for request_id in (2, 3):
                sock.sendall(wire.build_frame(wire.MSG_RDP, request_id, probe))
                assert wire.read_frame(f) == (wire.MSG_REPLY_TUPLE, request_id, body)
            assert encoded == []
        finally:
            sock.close()
        assert space.rdp(template("kept", ANY, ANY, ANY, ANY, ANY)).body == body


def test_a_large_tuple_received_in_place_keeps_no_body():
    large = make_tuple("big", b"\x5a" * (4 * wire.RECV_SIZE))
    with served_space() as (space, srv), connected(srv) as cl:
        cl.out(large)
        stored = space.rdp(template("big", ANY))
        assert stored == large and stored.body is None
        assert cl.rdp(template("big", ANY)) == large


def test_unsupported_message_type():
    with served_space() as (_, srv):
        sock = socket.create_connection(("127.0.0.1", srv.port))
        try:
            sock.sendall(wire.build_frame(wire.MSG_HELLO, 0, wire.pack_hello("raw")))
            f = wire.FrameReader(sock)
            wire.read_frame(f)
            sock.sendall(wire.build_frame(42, 1))
            msg_type, _, body = wire.read_frame(f)
            assert msg_type == wire.MSG_REPLY_ERR
            assert wire.unpack_err(body)[0] == wire.ERR_UNSUPPORTED
        finally:
            sock.close()


def test_connection_lost_fails_pending():
    space = LocalSpace()
    srv = SpaceServer(space, port=0, name="dying").start()
    cl = RemoteSpace.connect(NodeAddress("127.0.0.1", srv.port, "dying"))
    errs = []

    def blocked():
        try:
            cl.in_(template("never"))
        except (ConnectionLost, RemoteOpError) as e:
            errs.append(e)

    th = threading.Thread(target=blocked)
    th.start()
    time.sleep(0.1)
    srv.stop()
    th.join(3)
    cl.close()
    assert len(errs) == 1


def test_blocking_race_hammer_conserves_tuples():
    """Takers with tiny timeouts race producers and cancels; every tuple is
    consumed at most once and every request completes exactly once."""
    rng = SplitMix64(777)
    with served_space("hammer") as (space, srv):
        clients = [RemoteSpace.connect(NodeAddress("127.0.0.1", srv.port, "hammer"), f"c{i}")
                   for i in range(4)]
        produced = 120
        tpl = template("h", ANY)
        consumed = []
        lock = threading.Lock()
        stop = threading.Event()

        def taker(cl, seed):
            r = SplitMix64(seed)
            while not stop.is_set():
                try:
                    got = cl.in_(tpl, timeout=r.below(20) / 1000.0)
                    with lock:
                        consumed.append(got.data[1])
                except SpaceTimeout:
                    pass
                except ConnectionLost:
                    return

        def canceller(cl, seed):
            r = SplitMix64(seed)
            while not stop.is_set():
                pending = cl.rd_async(tpl, timeout=None)
                time.sleep(r.below(4) / 1000.0)
                cl.cancel(pending)
                pending.wait(5)  # exactly one completion: tuple or none

        threads = [threading.Thread(target=taker, args=(clients[i], 100 + i))
                   for i in range(3)]
        threads.append(threading.Thread(target=canceller, args=(clients[3], 999)))
        for th in threads:
            th.start()
        r = SplitMix64(55)
        for i in range(produced):
            space.out(make_tuple("h", i))
            if r.below(3) == 0:
                time.sleep(0.001)
        deadline = time.time() + 10
        while time.time() < deadline:
            with lock:
                done = len(consumed)
            if done + space.count(tpl) >= produced and space.pending_waiter_count() <= 4:
                if done + space.count(tpl) == produced:
                    break
            time.sleep(0.01)
        stop.set()
        for th in threads:
            th.join(10)
        for cl in clients:
            cl.close()
        remaining = space.count(tpl)
        assert len(consumed) == len(set(consumed))  # no double delivery
        assert len(consumed) + remaining == produced  # nothing lost
        assert space.check_wakeup_completeness()


def test_script_equivalence_small():
    """Random op scripts behave identically locally and via loopback."""
    rng = SplitMix64(4242)
    with served_space() as (_, srv), connected(srv) as remote:
        local = LocalSpace()
        pool = [random_tuple(rng, max_arity=3) for _ in range(12)]
        for _ in range(400):
            op = rng.below(5)
            if op == 0:
                t = pool[rng.below(len(pool))]
                local.out(t)
                remote.out(t)
            else:
                tpl = template_from_tuple(rng, pool[rng.below(len(pool))])
                if op == 1:
                    assert local.rdp(tpl) == remote.rdp(tpl)
                elif op == 2:
                    assert local.inp(tpl) == remote.inp(tpl)
                elif op == 3:
                    assert local.count(tpl) == remote.count(tpl)
                else:
                    a = b = "timeout"
                    try:
                        a = local.rd(tpl, timeout=0)
                    except SpaceTimeout:
                        pass
                    try:
                        b = remote.rd(tpl, timeout=0)
                    except SpaceTimeout:
                        pass
                    assert a == b


def test_cancel_after_reply_sends_nothing(monkeypatch):
    cancels = []
    original = SpaceServer._cancel

    def recording(self, conn, request_id):
        cancels.append(request_id)
        original(self, conn, request_id)

    monkeypatch.setattr(SpaceServer, "_cancel", recording)
    with served_space() as (space, srv), connected(srv) as cl:
        space.out(make_tuple("won"))
        won = cl.rd_async(template("won"), timeout=None)
        assert won.wait(3) and won.kind == "tuple"
        cl.cancel(won)
        cl.rdp(template("won"))  # frames are served in order: a CANCEL would be in
        assert cancels == []
        parked = cl.rd_async(template("never"), timeout=None)
        cl.cancel(parked)
        assert parked.wait(3) and parked.kind == "none"
        assert cancels == [parked.request_id]


def test_threads_sharing_a_handle_each_get_their_own_reply():
    """Callers on one handle take turns reading; a frame never reaches the wrong caller."""
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with served_space() as (space, srv), connected(srv) as cl:
            parked = []
            parker = threading.Thread(target=lambda: parked.append(cl.rd(template("late", ANY))))
            parker.start()
            errors = []
            done_calls = []

            def worker(i):
                try:
                    for n in range(60):
                        tup = make_tuple("own", i, n)
                        mine = template("own", i, n)
                        cl.out(tup)
                        assert cl.rdp(mine) == tup
                        assert cl.count(template("own", i, ANY)) == 1
                        assert cl.inp(mine) == tup
                        assert cl.rdp(mine) is None
                        if n % 10 == 0:
                            leg = cl.rd_async(template("never", i, n), timeout=None,
                                              on_done=done_calls.append)
                            cl.cancel(leg)
                            assert leg.wait(5) and leg.kind == "none"
                except BaseException as e:  # reported below, outside the thread
                    errors.append(e)
                    raise

            workers = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
            for th in workers:
                th.start()
            for th in workers:
                th.join(30)
            assert not any(th.is_alive() for th in workers)
            assert errors == []
            assert len(done_calls) == 6 * 6 and len(set(map(id, done_calls))) == 6 * 6
            space.out(make_tuple("late", 1))
            parker.join(5)
            assert not parker.is_alive()
            assert parked == [make_tuple("late", 1)]
            assert space.size() == 1
    finally:
        sys.setswitchinterval(switch)


class _FailingSends:
    """A client socket whose sendall blocks until released, then raises
    OSError; everything else goes to the real socket."""

    def __init__(self, sock):
        self._sock = sock
        self.entered = threading.Event()
        self.release = threading.Event()

    def sendall(self, data):
        self.entered.set()
        assert self.release.wait(5)
        raise OSError("send failed on purpose")

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_a_failed_send_gives_the_reading_role_back():
    """The caller whose send fails holds the reading role: it gets
    ConnectionLost, and the thread waiting on the same handle takes the role
    and gets its reply."""
    with served_space() as (space, srv), connected(srv) as cl:
        leg = cl.rd_async(template("waited"), timeout=None)
        real = cl._sock
        failing = cl._sock = _FailingSends(real)
        errors = []

        def caller():
            try:
                cl.rdp(template("x"))
            except ConnectionLost as e:
                errors.append(e)

        sender = threading.Thread(target=caller)
        sender.start()
        try:
            assert failing.entered.wait(5)  # the caller holds the role and sends
            waited = []
            waiter = threading.Thread(target=lambda: waited.append(leg.wait(10)))
            waiter.start()
            deadline = time.monotonic() + 5
            while cl._followers != 1 and time.monotonic() < deadline:
                time.sleep(0.001)
            assert cl._followers == 1
        finally:
            failing.release.set()
            sender.join(5)
            cl._sock = real
        assert not sender.is_alive() and len(errors) == 1
        space.out(make_tuple("waited"))
        waiter.join(5)
        assert not waiter.is_alive()
        assert waited == [True] and leg.kind == "tuple"
        assert cl.rdp(template("waited")) == make_tuple("waited")


def test_an_oversized_request_leaves_the_handle_usable(monkeypatch):
    with served_space() as (_, srv), connected(srv) as cl:
        monkeypatch.setattr(wire, "MAX_FRAME", 64)
        with pytest.raises(PayloadTooLarge):
            cl.out(make_tuple(b"\x00" * 64))
        monkeypatch.undo()
        assert cl.rdp(template("x")) is None
        assert not cl._reading and not cl._pending


def test_follower_reads_on_after_the_leader_steps_down():
    """The reader's own reply arrives first; the caller still waiting takes over."""
    with served_space() as (space, srv), connected(srv) as cl:
        first = cl.rd_async(template("first"), timeout=None)
        waited = []
        leader = threading.Thread(target=lambda: waited.append(first.wait(5)))
        leader.start()
        time.sleep(0.05)  # the leader now blocks reading the socket
        got = []
        follower = threading.Thread(target=lambda: got.append(cl.rd(template("second"), timeout=5)))
        follower.start()
        time.sleep(0.05)
        space.out(make_tuple("first"))
        leader.join(5)
        assert waited == [True] and first.kind == "tuple"
        space.out(make_tuple("second"))
        follower.join(5)
        assert not follower.is_alive()
        assert got == [make_tuple("second")]
        # A leader whose timed wait runs out hands over too.
        never = cl.rd_async(template("never"), timeout=None)
        leader = threading.Thread(target=lambda: waited.append(never.wait(0.2)))
        leader.start()
        time.sleep(0.05)
        follower = threading.Thread(target=lambda: got.append(cl.rd(template("third"), timeout=5)))
        follower.start()
        leader.join(5)
        assert waited == [True, False]
        time.sleep(0.05)
        space.out(make_tuple("third"))
        follower.join(5)
        assert not follower.is_alive()
        assert got == [make_tuple("second"), make_tuple("third")]


def test_close_fails_every_outstanding_request_while_one_reads():
    with served_space() as (_, srv):
        cl = RemoteSpace.connect(NodeAddress("127.0.0.1", srv.port, srv.name))
        errors = []
        callbacks = []

        def blocked(tpl):
            try:
                cl.in_(tpl)
            except ConnectionLost as e:
                errors.append(e)

        callers = [threading.Thread(target=blocked, args=(template("never", i),))
                   for i in range(3)]
        for th in callers:
            th.start()
        legs = [cl.rd_async(template("nor", i), timeout=None, on_done=callbacks.append)
                for i in range(2)]
        time.sleep(0.1)
        t0 = time.perf_counter()
        cl.close()
        for th in callers:
            th.join(1)
        assert time.perf_counter() - t0 < 1.0
        assert not any(th.is_alive() for th in callers)
        assert len(errors) == 3
        assert all(leg.kind == "lost" for leg in legs)
        assert sorted(map(id, callbacks)) == sorted(map(id, legs))
        with pytest.raises(ConnectionLost):
            cl.rdp(template("never", 0))


def test_wait_times_out_on_a_silent_server():
    """A server that answers HELLO and then never replies cannot hold a timed wait."""
    with raw_peer() as (cl, _, _):
        pending = cl.rd_async(template("x"), timeout=None)
        t0 = time.perf_counter()
        assert pending.wait(0.2) is False  # while it is the thread reading
        assert time.perf_counter() - t0 < 1.0
        reader_errors = []

        def untimed():
            try:
                cl.rdp(template("y"))
            except ConnectionLost as e:
                reader_errors.append(e)

        reader = threading.Thread(target=untimed)
        reader.start()
        time.sleep(0.05)
        t0 = time.perf_counter()
        assert pending.wait(0.2) is False  # while another thread reads
        assert time.perf_counter() - t0 < 1.0
        assert pending.kind is None
        cl.close()
        reader.join(1)
        assert not reader.is_alive() and len(reader_errors) == 1
        assert pending.wait(0) and pending.kind == "lost"


def _big_reply():
    """A tuple larger than one receive and the reply to request 1 that carries it."""
    tup = make_tuple("big", b"\x07" * (4 * wire.RECV_SIZE))
    return tup, wire.build_frame(wire.MSG_REPLY_TUPLE, 1, wire.encode_tuple(tup))


def test_wait_times_out_while_a_large_reply_is_partly_in():
    tup, reply = _big_reply()

    def half(conn, reader):
        wire.read_frame(reader)  # the RD
        conn.sendall(reply[:len(reply) // 2])

    with raw_peer(half) as (cl, th, accepted):
        pending = cl.rd_async(template("big", ANY), timeout=None)
        th.join(5)
        assert not th.is_alive()
        t0 = time.monotonic()
        assert pending.wait(0.1) is False
        assert 0.1 <= time.monotonic() - t0 < 1.0
        accepted[0].sendall(reply[len(reply) // 2:])
        assert pending.wait(5) and pending.kind == "tuple" and pending.payload == tup


# -- a notify search reads its own legs ---------------------------------------------

def _two_replies_in_one_segment(conn, reader):
    """Answer the first two requests with one sendall: NONE, then ("leg",)."""
    first = wire.read_frame(reader)[1]
    leg = wire.read_frame(reader)[1]
    conn.sendall(wire.build_frame(wire.MSG_REPLY_NONE, first)
                 + wire.build_frame(wire.MSG_REPLY_TUPLE, leg,
                                    wire.encode_tuple(make_tuple("leg"))))


def test_search_takes_a_reply_that_came_in_behind_another():
    """Both replies arrive in one segment, the search's second: poll reports
    the socket once, so the search must deliver both from that one read."""
    with raw_peer(_two_replies_in_one_segment) as (cl, _, _):
        done = []
        other = cl.rd_async(template("other"), timeout=None, on_done=done.append)
        t0 = time.monotonic()
        out = search_notify(PeerDirectory(LocalSpace("me"), [cl]), template("leg"), deadline=5)
        assert time.monotonic() - t0 < 1.0
        assert out.tuple == make_tuple("leg")
        assert other.kind == "none" and done == [other]  # on_done ran on the searching thread


def test_search_takes_a_reply_that_a_reader_before_it_left_received():
    """A synchronous caller reads both replies in one segment, takes its own
    and steps down; the search, which takes the role next, finds its reply
    already received, where poll cannot see it."""
    with raw_peer(_two_replies_in_one_segment) as (cl, _, _):
        got = []
        caller = threading.Thread(target=lambda: got.append(cl.rdp(template("first"))))
        caller.start()
        time.sleep(0.05)  # the caller now holds the reading role
        t0 = time.monotonic()
        out = search_notify(PeerDirectory(LocalSpace("me"), [cl]), template("leg"), deadline=5)
        assert time.monotonic() - t0 < 1.0
        assert out.tuple == make_tuple("leg")
        caller.join(5)
        assert got == [None]


@pytest.mark.parametrize("size", ["small", "large"])
def test_search_ends_at_its_deadline_while_a_reply_is_half_in(size):
    if size == "large":
        _, reply = _big_reply()
    else:
        reply = wire.build_frame(wire.MSG_REPLY_TUPLE, 1, wire.encode_tuple(make_tuple("leg")))

    def half(conn, reader):
        wire.read_frame(reader)  # the RD
        conn.sendall(reply[:len(reply) // 2])

    with raw_peer(half) as (cl, _, _):
        t0 = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            search_notify(PeerDirectory(LocalSpace("me"), [cl]), template(ANY, ANY),
                          deadline=0.2)
        assert 0.2 <= time.monotonic() - t0 < 1.2
        assert not cl._reading


def test_search_shares_its_handle_with_synchronous_callers():
    """The handle is read by another caller when the search starts; the
    search takes the reading role once that caller steps down, and callers
    that come during the search follow it and get their replies."""
    with served_space() as (space, srv), connected(srv) as cl:
        got = []
        caller = threading.Thread(target=lambda: got.append(cl.rd(template("first"), timeout=5)))
        caller.start()
        time.sleep(0.05)  # the caller now holds the reading role
        found = []
        searcher = threading.Thread(target=lambda: found.append(search_notify(
            PeerDirectory(LocalSpace("me"), [cl]), template("leg"), deadline=5)))
        searcher.start()
        time.sleep(0.05)
        space.out(make_tuple("first"))
        caller.join(5)
        assert got == [make_tuple("first")]
        time.sleep(0.05)
        assert cl._reading  # the search holds the role now
        for i in range(20):
            cl.out(make_tuple("sync", i))
            assert cl.rdp(template("sync", i)) == make_tuple("sync", i)
        space.out(make_tuple("leg"))
        searcher.join(5)
        assert not searcher.is_alive()
        assert found[0].tuple == make_tuple("leg")
        assert cl.count(template("sync", ANY)) == 20


def test_synchronous_use_starts_no_thread():
    before = set(threading.enumerate())
    with served_space() as (space, srv), connected(srv) as cl:
        cl.out(make_tuple("s", 1))
        assert cl.rdp(template("s", ANY)) == make_tuple("s", 1)
        assert cl.count(template("s", ANY)) == 1
        assert cl.rd(template("s", ANY), timeout=1) == make_tuple("s", 1)
        with pytest.raises(SpaceTimeout):
            cl.in_(template("missing"), timeout=0.02)
        pending = cl.rd_async(template("never"), timeout=None)
        cl.cancel(pending)
        assert pending.wait(3) and pending.kind == "none"
        assert cl.inp(template("s", ANY)) == make_tuple("s", 1)
        started = set(threading.enumerate()) - before
        assert {th.name for th in started} == {f"accept-{srv.name}", f"conn-{srv.name}"}


def test_timeouts_expire_on_the_connection_thread():
    """Parked timed requests start no thread: the connection's own thread expires them."""
    before = set(threading.enumerate())
    with served_space() as (space, srv), connected(srv) as cl:
        parked = [cl.rd_async(template("later", i), timeout=30 + i) for i in range(5)]
        expired = []

        def timed_take():
            t0 = time.monotonic()
            try:
                cl.in_(template("missing"), timeout=0.05)
            except SpaceTimeout:
                expired.append(time.monotonic() - t0)

        taker = threading.Thread(target=timed_take, daemon=True)
        taker.start()
        taker.join(5)
        assert not taker.is_alive() and len(expired) == 1 and 0.05 <= expired[0] < 1.0
        started = set(threading.enumerate()) - before
        assert {th.name for th in started} == {f"accept-{srv.name}", f"conn-{srv.name}"}
        assert len(started) == 2
        space.out(make_tuple("later", 3))
        assert parked[3].wait(5) and parked[3].kind == "tuple"
        assert parked[3].payload == make_tuple("later", 3)
        assert all(p.kind is None for i, p in enumerate(parked) if i != 3)
        for p in parked:
            cl.cancel(p)


def test_frames_split_in_pieces_get_the_same_replies():
    large = make_tuple("big", b"\xab" * (5 * wire.RECV_SIZE))
    requests = [
        wire.build_frame(wire.MSG_HELLO, 0, wire.pack_hello("raw")),
        wire.build_frame(wire.MSG_OUT, 1, wire.encode_tuple(make_tuple("k", 1))),
        wire.build_frame(wire.MSG_RDP, 2, wire.encode_template(template("k", ANY))),
        wire.build_frame(wire.MSG_OUT, 3, wire.encode_tuple(large)),
        wire.build_frame(wire.MSG_RDP, 4, wire.encode_template(template("big", ANY))),
    ]

    def replies(split: bool) -> list:
        with served_space() as (_, srv):
            sock = socket.create_connection(("127.0.0.1", srv.port))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            reader = wire.FrameReader(sock)
            reader.deadline = time.monotonic() + 30
            got = []
            try:
                for frame in requests:
                    piece = len(frame)
                    if split:
                        piece = 4096 if len(frame) > wire.RECV_SIZE else 1
                    for at in range(0, len(frame), piece):
                        sock.sendall(frame[at:at + piece])
                        time.sleep(0.0005)
                    got.append(wire.read_frame(reader))
            finally:
                sock.close()
            return got

    whole = replies(split=False)
    assert [f[:2] for f in whole] == [(wire.MSG_HELLO, 0), (wire.MSG_REPLY_NONE, 1),
                                      (wire.MSG_REPLY_TUPLE, 2), (wire.MSG_REPLY_NONE, 3),
                                      (wire.MSG_REPLY_TUPLE, 4)]
    assert wire.decode_tuple(whole[4][2]) == large
    assert replies(split=True) == whole


@pytest.mark.parametrize("size", [8, 3 * wire.RECV_SIZE])
def test_timed_rd_expires_while_the_next_frame_is_half_sent(size):
    with served_space() as (space, srv):
        sock = socket.create_connection(("127.0.0.1", srv.port))
        try:
            sock.sendall(wire.build_frame(wire.MSG_HELLO, 0, wire.pack_hello("raw")))
            reader = wire.FrameReader(sock)
            reader.deadline = time.monotonic() + 10
            assert wire.read_frame(reader)[0] == wire.MSG_HELLO
            # One parked past poll()'s longest wait, one that expires.
            sock.sendall(wire.build_frame(wire.MSG_RD, 1, wire.pack_blocking(
                2**40, template("far", ANY))))
            t0 = time.monotonic()
            sock.sendall(wire.build_frame(wire.MSG_RD, 2, wire.pack_blocking(
                100, template("soon"))))
            out = wire.build_frame(wire.MSG_OUT, 3, wire.encode_tuple(
                make_tuple("far", b"\x01" * size)))
            sock.sendall(out[:len(out) // 2])
            msg_type, rid, body = wire.read_frame(reader)
            assert 0.1 <= time.monotonic() - t0 < 1.0
            assert (msg_type, rid) == (wire.MSG_REPLY_ERR, 2)
            assert wire.unpack_err(body)[0] == wire.ERR_TIMEOUT
            sock.sendall(out[len(out) // 2:])
            got = {}
            for _ in range(2):
                msg_type, rid, body = wire.read_frame(reader)
                got[rid] = (msg_type, bytes(body))
            far = wire.encode_tuple(make_tuple("far", b"\x01" * size))
            assert got == {1: (wire.MSG_REPLY_TUPLE, far), 3: (wire.MSG_REPLY_NONE, b"")}
            assert space.count(template(ANY, ANY)) == 1
        finally:
            sock.close()


def test_followers_are_counted_and_each_gets_its_own_reply():
    """Followers are woken only while counted; every wait, timed or not, uncounts itself."""
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with served_space() as (space, srv), connected(srv) as cl:
            errors = []
            stop = threading.Event()

            def run(body):
                def target():
                    try:
                        body()
                    except BaseException as e:  # reported below, outside the thread
                        errors.append(e)
                        raise
                return threading.Thread(target=target)

            parked = []
            parker = run(lambda: parked.append(cl.rd(template("late", ANY))))

            def time_out_again_and_again():
                leg = cl.rd_async(template("never"), timeout=None)
                timeouts = 0
                while not stop.is_set():
                    assert not leg.wait(0.01)
                    timeouts += 1
                cl.cancel(leg)
                assert leg.wait(10) and leg.kind == "none" and timeouts > 0

            def probe(i):
                tup = make_tuple("own", i)
                cl.out(tup)
                for _ in range(300):
                    assert cl.rdp(template("own", i)) == tup

            waiter = run(time_out_again_and_again)
            probers = [run(lambda i=i: probe(i)) for i in range(2)]
            for th in [parker, waiter, *probers]:
                th.start()
            for th in probers:
                th.join(10)
            stop.set()
            waiter.join(10)
            space.out(make_tuple("late", 1))
            parker.join(10)
            assert not any(th.is_alive() for th in [parker, waiter, *probers])
            assert errors == []
            assert parked == [make_tuple("late", 1)]
            with cl._lock:
                assert cl._followers == 0
    finally:
        sys.setswitchinterval(switch)


def test_reader_deadline_is_dropped_once_no_timed_request_is_parked():
    with served_space() as (space, srv), connected(srv) as cl:
        leg = cl.rd_async(template("soon"), timeout=30)
        assert cl.rdp(template("other")) is None  # served after the rd parked
        (conn,) = srv._conns
        assert conn.reader.deadline is not None
        cl.out(make_tuple("soon"))
        assert leg.wait(5) and leg.kind == "tuple"
        assert cl.rdp(template("other")) is None
        assert conn.reader.deadline is None
        t0 = time.monotonic()
        with pytest.raises(SpaceTimeout):
            cl.rd(template("missing"), timeout=0.05)
        assert 0.05 <= time.monotonic() - t0 < 1.0
