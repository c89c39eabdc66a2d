"""Client handle for a remote tuple space.

One multiplexed connection per (client, server) pair: every request carries a
strictly increasing request id and replies are correlated by it, so blocking
reads and fast probes coexist on the same socket without queueing behind each
other.  The handle is safe for concurrent use from multiple threads.

Replies are read by the callers themselves (Leader/Followers, Schmidt et al.,
PLoP 2000).  At most one thread reads the socket at a time, the leader.  It
completes whichever pending request each frame belongs to and, once its own
reply is in, steps down so that one of the threads still waiting (the
followers) takes over.  A caller alone on its handle therefore reads its own
reply, with no hand-off to another thread.  The six synchronous operations
take one path (`_call`): the caller registers its request and, when nobody
reads, takes the reading role in the same lock acquisition, then sends and
reads.  A caller whose send fails gives the role back and wakes the
followers before it raises ConnectionLost.  The leader reads with
wire.read_frame, through the handle's one FrameReader, whose deadline it sets
to its own so that a timed wait ends on time even while a reply is only partly
in.  `rd_async` legs with an `on_done` callback have no caller to read for
them: the first such leg starts one reader thread per handle, which takes the
reading role only while callback legs are outstanding and no caller holds it.

Operation semantics mirror LocalSpace exactly; see store.py.
"""

from __future__ import annotations

import math
import socket
import threading
import time
from dataclasses import dataclass

from . import wire
from .errors import (
    ConnectionLost,
    MalformedFrame,
    RemoteOpError,
    SpaceTimeout,
    Unreachable,
    VersionMismatch,
)
from .tuples import Template, Tuple


@dataclass(frozen=True)
class NodeAddress:
    host: str
    port: int
    name: str = ""

    def __str__(self):
        label = f" ({self.name})" if self.name else ""
        return f"{self.host}:{self.port}{label}"


CONNECT_ATTEMPTS = 5
CONNECT_RETRY_DELAY = 0.2


class PendingReply:
    """An in-flight request; completed exactly once by whichever thread reads its reply."""

    __slots__ = ("request_id", "kind", "payload", "on_done", "_space")

    def __init__(self, space: "RemoteSpace", request_id: int, on_done=None):
        self.request_id = request_id
        self.kind = None  # 'tuple' | 'none' | 'err' | 'count' | 'lost'
        self.payload = None
        self.on_done = on_done
        self._space = space

    def wait(self, timeout: float | None = None) -> bool:
        """True once the reply is in; False when `timeout` seconds pass first.

        The waiting thread may read the connection meanwhile, completing
        other requests' replies as they arrive.
        """
        return self._space._await(self, timeout)


def _run_callbacks(pending: list[PendingReply]) -> None:
    for p in pending:
        if p.on_done is not None:
            p.on_done(p)


def _timeout_to_ms(timeout: float | None) -> int:
    if timeout is None:
        return wire.INFINITE_MS
    if timeout <= 0:
        return 0
    return int(math.ceil(timeout * 1000.0))


class RemoteSpace:
    """A connected remote tuple space exposing the unified operation set."""

    def __init__(self, sock: socket.socket, address: NodeAddress, client_name: str):
        self.address = address
        self.client_name = client_name
        self._sock = sock
        self._reader = wire.FrameReader(sock)  # used only by the thread reading
        self._send_lock = threading.Lock()
        # _lock guards everything below.  _turn wakes followers when a reply
        # lands or the reading role frees up, and only while _followers (the
        # callers parked on it) is above zero; _legs_due wakes the callback
        # reader only when it may have to read, not on every reply.
        self._lock = threading.Lock()
        self._turn = threading.Condition(self._lock)
        self._followers = 0
        self._legs_due = threading.Condition(self._lock)
        self._pending: dict[int, PendingReply] = {}
        self._next_id = 1
        self._reading = False
        self._callback_legs = 0
        self._callback_reader: threading.Thread | None = None
        self._lost: ConnectionLost | None = None
        self._closed = False

    # -- connection -------------------------------------------------------

    @classmethod
    def connect(cls, address: NodeAddress, client_name: str = "client",
                attempts: int = CONNECT_ATTEMPTS,
                retry_delay: float = CONNECT_RETRY_DELAY) -> "RemoteSpace":
        last_err = None
        for attempt in range(attempts):
            if attempt:
                time.sleep(retry_delay)
            try:
                sock = socket.create_connection((address.host, address.port), timeout=10.0)
                break
            except OSError as e:
                last_err = e
        else:
            raise Unreachable(f"cannot reach {address} after {attempts} attempts: {last_err}")
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        space = cls(sock, address, client_name)
        try:
            space._handshake()
        except BaseException:
            space.close()
            raise
        return space

    def _handshake(self) -> None:
        self._sock.sendall(wire.build_frame(wire.MSG_HELLO, 0, wire.pack_hello(self.client_name)))
        msg_type, _, body = wire.read_frame(self._reader)
        if msg_type == wire.MSG_REPLY_ERR:
            code, msg = wire.unpack_err(body)
            raise VersionMismatch(f"server rejected handshake: {msg}")
        if msg_type != wire.MSG_HELLO:
            raise MalformedFrame(f"expected HELLO reply, got message type {msg_type}")
        version, _server_name = wire.unpack_hello(body)
        if version != wire.PROTOCOL_VERSION:
            raise VersionMismatch(f"server speaks version {version}, want {wire.PROTOCOL_VERSION}")

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._lost = ConnectionLost(f"connection to {self.address} is closed")
            failed = self._settle_all(self._lost)
            # A thread reading the socket closes it when it steps down, so its
            # descriptor is never closed (and reused) under a blocked recv.
            release = not self._reading
            reader = self._callback_reader
            self._legs_due.notify()
        try:
            self._sock.shutdown(socket.SHUT_RDWR)  # wakes a reader blocked in recv
        except OSError:
            pass
        if release:
            self._sock.close()
        _run_callbacks(failed)
        if reader is not None and reader is not threading.current_thread():
            reader.join()

    # -- reading: leader/followers ------------------------------------------

    def _await(self, pending: PendingReply, timeout: float | None) -> bool:
        """Wait for `pending`'s reply, reading the socket whenever nobody else is."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while pending.kind is None and self._reading:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._followers += 1
                try:
                    self._turn.wait(remaining)
                finally:
                    self._followers -= 1
            if pending.kind is not None:
                return True
            self._reading = True
        return self._lead(pending, deadline)

    def _serve_callbacks(self) -> None:
        """Callback reader: reads while callback legs are outstanding and no caller does."""
        while True:
            with self._lock:
                while not self._closed and (self._reading or not self._callback_legs):
                    self._legs_due.wait()
                if self._closed:
                    return
                self._reading = True
            self._lead(None, None)

    def _lead(self, pending: PendingReply | None, deadline: float | None) -> bool:
        """Hold the reading role until `pending`'s reply is in, or, for the
        callback reader (None), until no callback leg is outstanding.  False
        when the deadline passes first."""
        reader = self._reader
        reader.deadline = deadline
        try:
            while pending.kind is None if pending is not None else self._callback_legs:
                frame = wire.read_frame(reader)
                if frame is None:
                    return False
                self._deliver(*frame)
            return True
        except (OSError, ValueError, MalformedFrame, ConnectionLost):
            with self._lock:
                if self._lost is None:
                    self._lost = ConnectionLost(f"connection to {self.address} lost")
                failed = self._settle_all(self._lost)
            _run_callbacks(failed)
            return True
        finally:
            with self._lock:
                release = self._step_down()
            if release:
                self._sock.close()

    def _step_down(self) -> bool:
        """Give up the reading role and wake whoever may take it; the caller
        holds _lock.  True when the caller is to close the socket, which
        close() left open while this thread held the role."""
        self._reading = False
        if self._followers:
            self._turn.notify_all()
        if self._callback_legs:
            self._legs_due.notify()
        return self._closed

    def _deliver(self, msg_type: int, request_id: int, body: bytes) -> None:
        if msg_type == wire.MSG_REPLY_TUPLE:
            kind, payload = "tuple", wire.decode_tuple(body)
        elif msg_type == wire.MSG_REPLY_NONE:
            kind, payload = "none", None
        elif msg_type == wire.MSG_REPLY_ERR:
            kind, payload = "err", wire.unpack_err(body)
        elif msg_type == wire.MSG_COUNT_REPLY:
            kind, payload = "count", wire.unpack_count_reply(body)
        else:
            kind, payload = "err", (wire.ERR_MALFORMED, f"unexpected reply type {msg_type}")
        with self._lock:
            pending = self._pending.pop(request_id, None)
            if pending is None:
                return  # its request already failed (send error or lost connection)
            self._settle(pending, kind, payload)
            if self._followers:
                self._turn.notify_all()
        if pending.on_done is not None:
            pending.on_done(pending)

    def _settle(self, pending: PendingReply, kind: str, payload) -> None:
        """Record a reply; the caller holds _lock, wakes the waiters and runs on_done."""
        pending.kind = kind
        pending.payload = payload
        if pending.on_done is not None:
            self._callback_legs -= 1

    def _settle_all(self, exc: ConnectionLost) -> list[PendingReply]:
        """Fail every pending request; the caller holds _lock and runs their callbacks."""
        failed = list(self._pending.values())
        self._pending.clear()
        for p in failed:
            self._settle(p, "lost", exc)
        self._turn.notify_all()
        return failed

    # -- requests -----------------------------------------------------------

    def _request(self, msg_type: int, body: bytes, on_done=None,
                 lead: bool = False) -> tuple[PendingReply, bool]:
        """Register a request and send it; returns it and whether the caller
        now holds the reading role.

        With `lead`, the caller takes the reading role in the same lock
        acquisition that registers the request, when nobody holds it, and
        then sends while holding it: replies to other requests wait in the
        socket until the send is done.  If building or sending the frame
        fails, the request is withdrawn, the role given back and any
        followers woken; a failed send raises ConnectionLost.
        """
        with self._lock:
            if self._lost is not None:
                raise ConnectionLost(*self._lost.args)
            request_id = self._next_id
            self._next_id = request_id + 1
            pending = PendingReply(self, request_id, on_done)
            self._pending[request_id] = pending
            leading = lead and not self._reading
            if leading:
                self._reading = True
            if on_done is not None:
                self._callback_legs += 1
                if self._callback_reader is None:
                    self._callback_reader = threading.Thread(
                        target=self._serve_callbacks,
                        name=f"reader-{self.address.host}:{self.address.port}", daemon=True)
                    self._callback_reader.start()
                else:
                    self._legs_due.notify()
        try:
            frame = wire.build_frame(msg_type, request_id, body)
            with self._send_lock:
                self._sock.sendall(frame)
        except BaseException as e:
            with self._lock:
                if self._pending.pop(request_id, None) is not None and on_done is not None:
                    self._callback_legs -= 1
                release = leading and self._step_down()
            if release:
                self._sock.close()
            if isinstance(e, OSError):
                raise ConnectionLost(f"send to {self.address} failed: {e}") from None
            raise
        return pending, leading

    def _call(self, msg_type: int, body: bytes):
        """The one path of the synchronous operations: send the request, read
        until its reply is in (following while another thread reads), and
        return the reply's tuple, None or count, or raise its error."""
        pending, leading = self._request(msg_type, body, lead=True)
        if leading:
            self._lead(pending, None)
        else:
            self._await(pending, None)
        kind = pending.kind
        if kind == "tuple" or kind == "count":
            return pending.payload
        if kind == "none":
            return None
        if kind == "lost":
            raise pending.payload
        code, msg = pending.payload
        if code == wire.ERR_TIMEOUT:
            raise SpaceTimeout(msg)
        if code == wire.ERR_SHUTTING_DOWN:
            raise ConnectionLost(f"server shutting down: {msg}")
        raise RemoteOpError(code, msg)

    # -- operations (contracts identical to LocalSpace) --------------------

    def out(self, tup: Tuple) -> None:
        self._call(wire.MSG_OUT, wire.encode_tuple(tup))

    def rdp(self, tpl: Template) -> Tuple | None:
        return self._call(wire.MSG_RDP, wire.encode_template(tpl))

    def inp(self, tpl: Template) -> Tuple | None:
        return self._call(wire.MSG_INP, wire.encode_template(tpl))

    def count(self, tpl: Template) -> int:
        return self._call(wire.MSG_COUNT, wire.encode_template(tpl))

    def rd(self, tpl: Template, timeout: float | None = None) -> Tuple:
        got = self._call(wire.MSG_RD, wire.pack_blocking(_timeout_to_ms(timeout), tpl))
        if got is None:
            raise SpaceTimeout(f"no match within {timeout!r}s on {self.address}")
        return got

    def in_(self, tpl: Template, timeout: float | None = None) -> Tuple:
        got = self._call(wire.MSG_IN, wire.pack_blocking(_timeout_to_ms(timeout), tpl))
        if got is None:
            raise SpaceTimeout(f"no match within {timeout!r}s on {self.address}")
        return got

    # -- async variants (broadcast-notify search) ---------------------------

    def rd_async(self, tpl: Template, timeout: float | None = None, on_done=None) -> PendingReply:
        """Issue a blocking RD without waiting; pair with cancel().

        `on_done(pending)` runs exactly once, on whichever thread reads the
        reply, so it must be quick and must not raise.
        """
        return self._request(wire.MSG_RD, wire.pack_blocking(_timeout_to_ms(timeout), tpl),
                             on_done)[0]

    def cancel(self, pending: PendingReply) -> None:
        """Best-effort deregistration of a blocking request on the server.

        Sends nothing once the reply is in: there is nothing left to cancel.
        """
        if pending.kind is not None:
            return
        try:
            with self._send_lock:
                self._sock.sendall(wire.build_frame(wire.MSG_CANCEL, pending.request_id))
        except OSError:
            pass
