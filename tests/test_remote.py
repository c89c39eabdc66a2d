"""Server + client: semantics parity with LocalSpace, concurrency, cancel."""

import gc
import socket
import threading
import time
import weakref

import pytest

from tuplespaces import (
    ANY,
    AddressInUse,
    ConnectionLost,
    LocalSpace,
    NodeAddress,
    RemoteOpError,
    RemoteSpace,
    SpaceServer,
    SpaceTimeout,
    Unreachable,
    VersionMismatch,
    make_tuple,
    template,
)
from tuplespaces import wire
from tuplespaces.rng import SplitMix64

from util import connected, random_tuple, served_space, template_from_tuple


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
            frame = wire.read_frame(sock.makefile("rb"))
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
        wire.read_frame(conn.makefile("rb"))
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
            f = sock.makefile("rb")
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


def test_unsupported_message_type():
    with served_space() as (_, srv):
        sock = socket.create_connection(("127.0.0.1", srv.port))
        try:
            sock.sendall(wire.build_frame(wire.MSG_HELLO, 0, wire.pack_hello("raw")))
            f = sock.makefile("rb")
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
                        consumed.append(got.fields[1].data)
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
