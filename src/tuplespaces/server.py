"""Tuple-space server: serves a LocalSpace over the wire protocol.

Each accepted connection gets one thread that reads frames (wire.read_frame)
and dispatches operations; besides those the server runs only its acceptor.
Fast operations (out / probes / count) are answered inline; a blocking RD/IN
request enters the connection's table of pending requests and then registers
a waiter whose callback replies from whichever thread satisfies it, so a
parked request never occupies the connection and never delays later frames
on it.  The callback runs once for every outcome and is what removes the
request from the table.

A timed request that parks keeps its deadline in the table, and the
connection thread expires it: its reader's deadline is the earliest one
pending, so read_frame returns None when that passes, even with a frame half
received.  With nothing pending the reader has no deadline, and reading costs
no poll call.  The timeout, CANCEL and shutdown each cancel the waiter and send
their own reply only when that cancel wins the race against satisfaction, so
every request gets exactly one reply.
"""

from __future__ import annotations

import socket
import threading
import time

from . import wire
from .errors import AddressInUse, ConnectionLost, MalformedFrame
from .store import LocalSpace, Waiter


class _Connection:
    __slots__ = ("sock", "reader", "write_lock", "waiters", "wlock")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.reader = wire.FrameReader(sock)
        self.write_lock = threading.Lock()
        # request id -> [waiter, deadline, timeout_ms]; the waiter is None
        # until registered, the deadline (time.monotonic()) None when untimed
        self.waiters: dict[int, list] = {}
        self.wlock = threading.Lock()

    def send(self, frame: bytes) -> bool:
        try:
            with self.write_lock:
                self.sock.sendall(frame)
            return True
        except OSError:
            return False

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class SpaceServer:
    """Accepts connections and exposes one LocalSpace at one address."""

    def __init__(self, space: LocalSpace, host: str = "127.0.0.1", port: int = 0,
                 name: str = "server"):
        self.space = space
        self.host = host
        self.name = name
        self._listener: socket.socket | None = None
        self._acceptor: threading.Thread | None = None
        self._conns: list[_Connection] = []
        self._conns_lock = threading.Lock()
        self._stopping = False
        self.port = port

    def start(self) -> "SpaceServer":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((self.host, self.port))
        except OSError as e:
            listener.close()
            raise AddressInUse(f"cannot bind {self.host}:{self.port}: {e}") from None
        listener.listen(128)
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._acceptor = threading.Thread(target=self._accept_loop, name=f"accept-{self.name}",
                                          daemon=True)
        self._acceptor.start()
        return self

    def stop(self) -> None:
        self._stopping = True
        if self._listener is not None:
            # close() alone does not wake a thread blocked in accept() on
            # Linux; shutdown() does, and the joined thread then releases the
            # server and its space.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        if self._acceptor is not None and self._acceptor is not threading.current_thread():
            self._acceptor.join()
        with self._conns_lock:
            conns = list(self._conns)
            self._conns.clear()
        for conn in conns:
            self._abort_waiters(conn)
            conn.close()

    def _abort_waiters(self, conn: _Connection) -> None:
        # An entry whose waiter is still being registered (stop() racing the
        # connection thread) stays for the connection thread's own final call.
        with conn.wlock:
            entries = [(rid, e[0]) for rid, e in conn.waiters.items() if e[0] is not None]
        for request_id, waiter in entries:
            if self.space.cancel_waiter(waiter):
                conn.send(wire.build_frame(
                    wire.MSG_REPLY_ERR, request_id,
                    wire.pack_err(wire.ERR_SHUTTING_DOWN, "server shutting down")))

    # -- accept / read loops ------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(sock)
            with self._conns_lock:
                self._conns.append(conn)
            threading.Thread(target=self._serve_conn, args=(conn,),
                             name=f"conn-{self.name}", daemon=True).start()

    def _serve_conn(self, conn: _Connection) -> None:
        try:
            if not self._hello(conn):
                return
            while True:
                if not conn.waiters:
                    # Nothing left to expire.  Only this thread adds entries.
                    conn.reader.deadline = None
                frame = wire.read_frame(conn.reader)
                if frame is None:
                    self._expire(conn)
                else:
                    self._dispatch(conn, *frame)
        except (OSError, ValueError, MalformedFrame, ConnectionLost):
            return  # stream no longer trustworthy; drop the connection
        finally:
            self._abort_waiters(conn)
            conn.close()
            with self._conns_lock:
                if conn in self._conns:
                    self._conns.remove(conn)

    def _hello(self, conn: _Connection) -> bool:
        msg_type, request_id, body = wire.read_frame(conn.reader)
        if msg_type != wire.MSG_HELLO:
            conn.send(wire.build_frame(wire.MSG_REPLY_ERR, request_id,
                                       wire.pack_err(wire.ERR_UNSUPPORTED, "expected HELLO")))
            return False
        version, _peer_name = wire.unpack_hello(body)
        if version != wire.PROTOCOL_VERSION:
            conn.send(wire.build_frame(
                wire.MSG_REPLY_ERR, request_id,
                wire.pack_err(wire.ERR_UNSUPPORTED, f"unsupported protocol version {version}")))
            return False
        return conn.send(wire.build_frame(wire.MSG_HELLO, request_id, wire.pack_hello(self.name)))

    # -- dispatch -----------------------------------------------------------

    def _dispatch(self, conn: _Connection, msg_type: int, request_id: int, body: bytes) -> None:
        try:
            if msg_type == wire.MSG_OUT:
                self.space.out(wire.decode_tuple(body))
                conn.send(wire.build_frame(wire.MSG_REPLY_NONE, request_id))
            elif msg_type == wire.MSG_RDP:
                self._reply_probe(conn, request_id, self.space.rdp(wire.decode_template(body)))
            elif msg_type == wire.MSG_INP:
                self._reply_probe(conn, request_id, self.space.inp(wire.decode_template(body)))
            elif msg_type == wire.MSG_COUNT:
                n = self.space.count(wire.decode_template(body))
                conn.send(wire.build_frame(wire.MSG_COUNT_REPLY, request_id, wire.pack_count_reply(n)))
            elif msg_type in (wire.MSG_RD, wire.MSG_IN):
                self._blocking(conn, msg_type, request_id, body)
            elif msg_type == wire.MSG_CANCEL:
                self._cancel(conn, request_id)
            else:
                conn.send(wire.build_frame(wire.MSG_REPLY_ERR, request_id,
                                           wire.pack_err(wire.ERR_UNSUPPORTED,
                                                         f"unsupported message type {msg_type}")))
        except MalformedFrame as e:
            conn.send(wire.build_frame(wire.MSG_REPLY_ERR, request_id,
                                       wire.pack_err(wire.ERR_MALFORMED, str(e))))

    def _reply_probe(self, conn: _Connection, request_id: int, tup) -> None:
        if tup is None:
            conn.send(wire.build_frame(wire.MSG_REPLY_NONE, request_id))
        else:
            conn.send(wire.build_frame(wire.MSG_REPLY_TUPLE, request_id, wire.encode_tuple(tup)))

    def _blocking(self, conn: _Connection, msg_type: int, request_id: int, body: bytes) -> None:
        timeout_ms, tpl = wire.unpack_blocking(body)
        destructive = msg_type == wire.MSG_IN
        if timeout_ms == 0:
            # Degenerates to the non-blocking probe.
            probe = self.space.inp if destructive else self.space.rdp
            self._reply_probe(conn, request_id, probe(tpl))
            return

        deadline = None
        if timeout_ms != wire.INFINITE_MS:
            deadline = time.monotonic() + timeout_ms / 1000.0
        entry = [None, deadline, timeout_ms]

        def on_complete(w: Waiter) -> None:
            with conn.wlock:
                conn.waiters.pop(request_id, None)
            if w.satisfied:  # the cancelling path sends its own reply
                conn.send(wire.build_frame(wire.MSG_REPLY_TUPLE, request_id,
                                           wire.encode_tuple(w.result)))

        with conn.wlock:
            conn.waiters[request_id] = entry
        waiter = entry[0] = self.space.register_waiter(tpl, destructive, on_complete)
        reader = conn.reader
        if deadline is not None and not waiter.satisfied and (
                reader.deadline is None or deadline < reader.deadline):
            reader.deadline = deadline

    def _expire(self, conn: _Connection) -> None:
        """Time out the requests whose deadline has passed; runs on the connection
        thread when read_frame returns None at its reader's deadline."""
        now = time.monotonic()
        with conn.wlock:
            due = [(rid, e) for rid, e in conn.waiters.items()
                   if e[1] is not None and e[1] <= now]
            conn.reader.deadline = min((e[1] for e in conn.waiters.values()
                                        if e[1] is not None and e[1] > now), default=None)
        for request_id, (waiter, _, timeout_ms) in due:
            if self.space.cancel_waiter(waiter):
                conn.send(wire.build_frame(
                    wire.MSG_REPLY_ERR, request_id,
                    wire.pack_err(wire.ERR_TIMEOUT, f"no match within {timeout_ms} ms")))

    def _cancel(self, conn: _Connection, request_id: int) -> None:
        with conn.wlock:
            entry = conn.waiters.get(request_id)
        # No entry: already completed or unknown, so no extra reply.  A lost
        # cancel means satisfaction is in flight and its callback replies.
        if entry is not None and self.space.cancel_waiter(entry[0]):
            conn.send(wire.build_frame(wire.MSG_REPLY_NONE, request_id))
