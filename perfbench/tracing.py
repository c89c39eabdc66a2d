"""Out-of-band tracing: wrap the package's public functions from outside.

Functions are wrapped at the name through which callers look them up:
`LocalSpace` and `RemoteSpace` methods on their classes, `wire.*` as module
attributes, `search_*` as bound in `bench.roles`, `match` as bound in
`store`, and `SpaceServer.start`/`stop`.  Each wrapped call records a span
(name, thread, start, end, id, parent, trace id, ok, match calls, note);
nesting uses a thread-local stack and every span under one root shares the
root's trace id, so the probes of one lookup carry the lookup's id.

`match` runs ~900k times per password rep, so it is counted per thread, not
spanned.  `wire.read_frame` is hooked rather than spanned, since it blocks on
the socket: on a server connection thread (`conn-*`), the time from one
frame's arrival to the next `read_frame` call is that frame's service span
(decode, store, encode, send), and the store and wire spans of the frame nest
under it.

Thread classes: `.server` is a `conn-*` thread; `.role` is every other
thread, i.e. the role threads and their client reader threads.  Live
threads are counted on entry to each client request, never by a sampling
thread.

Spans stay in memory and are written to a CSV file when the session ends.
`uninstall()` puts every original function back.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import threading
import time

from tuplespaces import client, server, store, wire
from tuplespaces.bench import roles

STORE_METHODS = ("out", "rdp", "inp", "count", "rd", "in_", "register_waiter", "cancel_waiter")
CLIENT_METHODS = ("out", "rdp", "inp", "count", "rd", "in_", "rd_async", "cancel")
WIRE_ENCODE = ("encode_tuple", "encode_template", "pack_blocking", "build_frame")
WIRE_DECODE = ("decode_tuple", "decode_template", "unpack_blocking")
SEARCH_FUNCS = ("search_sequential", "search_success_factor", "search_notify")

PROBES = frozenset({"store.rdp", "store.inp", "store.register_waiter"})
CLIENT_NONBLOCKING = frozenset({"client.out", "client.rdp", "client.inp", "client.count"})
CLIENT_BLOCKING = frozenset({"client.rd", "client.in_"})
CLIENT_REQUESTS = CLIENT_NONBLOCKING | CLIENT_BLOCKING | {"client.rd_async"}
ENCODE_SPANS = frozenset(f"wire.{f}" for f in WIRE_ENCODE)
DECODE_SPANS = frozenset(f"wire.{f}" for f in WIRE_DECODE)
ENCODE_BYTES = frozenset({"wire.encode_tuple", "wire.encode_template"})
NONBLOCKING_MSGS = frozenset({wire.MSG_OUT, wire.MSG_RDP, wire.MSG_INP, wire.MSG_COUNT})
FRAME = "server.frame"

# Span tuple layout.
NAME, THREAD, START, END, SID, PARENT, TRACE, OK, MATCHES, NOTE = range(10)
SPAN_HEADER = ("name", "thread", "start_ns", "end_ns", "span_id", "parent_id",
               "trace_id", "ok", "matches", "note")


class _ThreadState:
    __slots__ = ("name", "server", "stack", "matches", "frame", "threads_max")

    def __init__(self, name: str):
        self.name = name
        self.server = name.startswith("conn-")
        self.stack: list[tuple[int, int]] = []  # (span id, trace id)
        self.matches = 0
        self.frame = None  # open server.frame: (span id, start, parent, trace, msg type)
        self.threads_max = 0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.async_waits: list[tuple[int, int, str]] = []  # (start, end, reply kind)
        self.spaces: dict[int, object] = {}  # LocalSpaces touched in the current rep, by id
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- per-thread state ------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._tls, "st", None)
        if st is None:
            st = _ThreadState(threading.current_thread().name)
            self._tls.st = st
            with self._states_lock:
                self._states.append(st)
        return st

    def match_total(self) -> int:
        with self._states_lock:
            return sum(st.matches for st in self._states)

    def start_rep(self) -> None:
        """Rep boundary: previous rep's role and connection threads are done."""
        with self._states_lock:
            for st in self._states:
                st.threads_max = 0
        self.spaces = {}

    def threads_max(self) -> int:
        with self._states_lock:
            return max((st.threads_max for st in self._states), default=0)

    # -- wrapping -----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, _current(owner, attr)))
        setattr(owner, attr, replacement)

    def _span_wrapper(self, name: str, fn, note=None, on_enter=None):
        spans = self.spans
        ids = self._ids
        state = self._state
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            st = state()
            stack = st.stack
            sid = next(ids)
            if stack:
                parent, trace = stack[-1]
            else:
                parent, trace = 0, sid
            if on_enter is not None:
                on_enter(st)
            stack.append((sid, trace))
            m0 = st.matches
            ok = False
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                extra = note(args, result) if (note is not None and ok) else None
                spans.append((name, st.name, t0, t1, sid, parent, trace, ok,
                              st.matches - m0, extra))

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._install_match()
        self._install_store()
        self._install_wire()
        self._install_client()
        for meth in ("start", "stop"):
            self._patch(server.SpaceServer, meth,
                        self._span_wrapper(f"server.{meth}", getattr(server.SpaceServer, meth)))
        for fn in SEARCH_FUNCS:
            self._patch(roles, fn, self._span_wrapper(
                f"search.{fn}", getattr(roles, fn),
                note=lambda a, r: (r.visited_nodes, r.rounds)))

    def uninstall(self) -> bool:
        """Put every original back; True when each one is in place again."""
        restored = True
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            restored = restored and _current(owner, attr) is original
        return restored

    def _install_match(self) -> None:
        original = store.match
        state = self._state

        def counted_match(tpl, tup):
            state().matches += 1
            return original(tpl, tup)

        self._patch(store, "match", counted_match)

    def _install_store(self) -> None:
        tracer = self

        # Probe notes: (hit, waiters pending on the space after a parked register).
        def note_hit(args, result):
            return (result is not None, 0)

        def note_register(args, result):
            if result.satisfied:
                return (True, 0)
            return (False, args[0].pending_waiter_count())

        def note_out(args, result):
            tracer.spaces.setdefault(id(args[0]), args[0])
            return None

        notes = {"rdp": note_hit, "inp": note_hit, "register_waiter": note_register,
                 "cancel_waiter": lambda a, r: bool(r), "out": note_out}
        for meth in STORE_METHODS:
            self._patch(store.LocalSpace, meth, self._span_wrapper(
                f"store.{meth}", getattr(store.LocalSpace, meth), note=notes.get(meth)))

    def _install_wire(self) -> None:
        for fn in WIRE_ENCODE:
            note = (lambda a, r: len(r)) if f"wire.{fn}" in ENCODE_BYTES else None
            self._patch(wire, fn, self._span_wrapper(f"wire.{fn}", getattr(wire, fn), note=note))
        for fn in WIRE_DECODE:
            self._patch(wire, fn, self._span_wrapper(f"wire.{fn}", getattr(wire, fn),
                                                     note=lambda a, r: len(a[0])))
        self._patch(wire, "read_frame", self._frame_hook(wire.read_frame))

    def _frame_hook(self, read_frame):
        spans = self.spans
        ids = self._ids
        state = self._state
        clock = time.perf_counter_ns

        def traced_read_frame(stream):
            st = state()
            if not st.server:
                return read_frame(stream)
            if st.frame is not None:
                sid, t0, parent, trace, msg_type = st.frame
                st.frame = None
                st.stack.pop()
                spans.append((FRAME, st.name, t0, clock(), sid, parent, trace, True, 0, msg_type))
            frame = read_frame(stream)
            if frame is not None:
                sid = next(ids)
                parent, trace = st.stack[-1] if st.stack else (0, sid)
                st.frame = (sid, clock(), parent, trace, frame[0])
                st.stack.append((sid, trace))
            return frame

        return traced_read_frame

    def _install_client(self) -> None:
        def count_threads(st):
            n = threading.active_count()
            if n > st.threads_max:
                st.threads_max = n

        for meth in CLIENT_METHODS:
            fn = getattr(client.RemoteSpace, meth)
            if meth == "rd_async":
                fn = self._async_completion(fn)
            enter = count_threads if meth != "cancel" else None
            self._patch(client.RemoteSpace, meth,
                        self._span_wrapper(f"client.{meth}", fn, on_enter=enter))
        connect = client.RemoteSpace.__dict__["connect"].__func__
        self._patch(client.RemoteSpace, "connect",
                    classmethod(self._span_wrapper("client.connect", connect)))

    def _async_completion(self, rd_async):
        """rd_async returns at once; its reply arrives on the reader thread."""
        waits = self.async_waits
        clock = time.perf_counter_ns

        def rd_async_timed(self_, tpl, timeout=None, on_done=None):
            t0 = clock()

            def done(pending):
                waits.append((t0, clock(), pending.kind))
                if on_done is not None:
                    on_done(pending)

            return rd_async(self_, tpl, timeout=timeout, on_done=done)

        return rd_async_timed

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(SPAN_HEADER)
            writer.writerows(self.spans)


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


# -- per-layer metrics ------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def _split(spans, names) -> dict[str, float]:
    """Summed seconds of the outermost spans in `names`, by thread class."""
    out = {"": 0.0, ".role": 0.0, ".server": 0.0}
    inner = {s[SID] for s in spans if s[NAME] in names}
    for s in spans:
        if s[NAME] in names and s[PARENT] not in inner:
            d = (s[END] - s[START]) / 1e9
            out[""] += d
            out[".server" if s[THREAD].startswith("conn-") else ".role"] += d
    return out


def rep_layer_counts(spans, async_waits) -> tuple[dict[str, float], dict[str, list[float]]]:
    """Per-rep sums and counts, plus the raw samples behind percentile metrics."""
    by_name: dict[str, list[tuple]] = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)

    def named(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def dur(s):
        return (s[END] - s[START]) / 1e9

    m: dict[str, float] = {}
    samples: dict[str, list[float]] = {}

    probes = named(*PROBES)
    m["store.probe_calls"] = len(probes)
    m["store.matches_per_probe"] = _ratio(sum(s[MATCHES] for s in probes), len(probes))
    hits = sum(1 for s in probes if s[OK] and s[NOTE][0])
    m["store.probe_hit_ratio"] = _ratio(hits, len(probes))
    for suffix, v in _split(spans, PROBES).items():
        m["store.probe_busy_s" + suffix] = v
    samples["store.probe_us"] = [dur(s) * 1e6 for s in probes]

    outs = named("store.out")
    m["store.out_calls"] = len(outs)
    for suffix, v in _split(spans, {"store.out"}).items():
        m["store.out_busy_s" + suffix] = v
    samples["store.out_us"] = [dur(s) * 1e6 for s in outs]

    registers = named("store.register_waiter")
    parked = [s for s in registers if s[OK] and not s[NOTE][0]]
    m["store.waiters_registered"] = len(registers)
    m["store.waiters_parked"] = len(parked)
    m["store.waiters_cancelled"] = sum(1 for s in named("store.cancel_waiter") if s[NOTE])
    m["store.waiters_pending_max"] = max((s[NOTE][1] for s in parked), default=0)

    m["wire.encode_calls"] = len(named(*ENCODE_BYTES))
    m["wire.decode_calls"] = len(named(*DECODE_SPANS))
    for suffix, v in _split(spans, ENCODE_SPANS).items():
        m["wire.encode_busy_s" + suffix] = v
    for suffix, v in _split(spans, DECODE_SPANS).items():
        m["wire.decode_busy_s" + suffix] = v
    m["wire.bytes_encoded"] = sum(s[NOTE] for s in named(*ENCODE_BYTES) if s[NOTE] is not None)
    m["wire.bytes_decoded"] = sum(s[NOTE] for s in named(*DECODE_SPANS) if s[NOTE] is not None)

    requests = named(*CLIENT_REQUESTS)
    nonblocking = named(*CLIENT_NONBLOCKING)
    m["client.requests"] = len(requests)
    m["client.failures"] = sum(1 for s in spans if s[NAME].startswith("client.") and not s[OK])
    connects = named("client.connect")
    m["client.connects"] = len(connects)
    m["client.connect_busy_s"] = sum(dur(s) for s in connects)
    samples["client.rtt_us"] = [dur(s) * 1e6 for s in nonblocking]
    samples["client.blocking_ms"] = (
        [dur(s) * 1e3 for s in named(*CLIENT_BLOCKING) if s[OK]]
        + [(t1 - t0) / 1e6 for t0, t1, kind in async_waits if kind == "tuple"])

    frames = named(FRAME)
    m["server.service_busy_s"] = sum(dur(s) for s in frames)
    served = sum(dur(s) for s in frames if s[NOTE] in NONBLOCKING_MSGS)
    rtt = sum(dur(s) for s in nonblocking)
    m["server.wait_share"] = 1.0 - served / rtt if rtt > 0 else 0.0

    lookups = [s for s in spans if s[NAME].startswith("search.") and s[OK]]
    lookup_ids = {s[SID] for s in lookups}
    child_time: dict[int, float] = {}
    for s in spans:
        if s[PARENT] in lookup_ids:
            child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) + dur(s)
    m["search.lookups"] = len(lookups)
    m["search.visited_per_lookup"] = _ratio(sum(s[NOTE][0] for s in lookups), len(lookups))
    m["search.rounds_per_lookup"] = _ratio(sum(s[NOTE][1] for s in lookups), len(lookups))
    m["search.self_s"] = sum(dur(s) - child_time.get(s[SID], 0.0) for s in lookups)
    samples["search.lookup_ms"] = [dur(s) * 1e3 for s in lookups]
    return m, samples


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def pooled_percentiles(samples: dict[str, list[float]]) -> dict[str, float]:
    """Percentile metrics over the samples of every traced rep."""
    return {
        "store.probe_p50_us": percentile(samples.get("store.probe_us", []), 0.50),
        "store.probe_p99_us": percentile(samples.get("store.probe_us", []), 0.99),
        "store.out_p50_us": percentile(samples.get("store.out_us", []), 0.50),
        "client.rtt_p50_us": percentile(samples.get("client.rtt_us", []), 0.50),
        "client.rtt_p99_us": percentile(samples.get("client.rtt_us", []), 0.99),
        "client.blocking_p50_ms": percentile(samples.get("client.blocking_ms", []), 0.50),
        "search.lookup_p50_ms": percentile(samples.get("search.lookup_ms", []), 0.50),
        "search.lookup_p99_ms": percentile(samples.get("search.lookup_ms", []), 0.99),
    }
