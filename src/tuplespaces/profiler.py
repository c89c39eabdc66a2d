"""Manual profiler: labeled interval timers, per-thread counters, CSV dumps.

Usage mirrors the classic begin(label) / end(label) bracketing inserted
around the code of interest; distinct labels may overlap and each label
nests LIFO per thread.  Counters accumulate per thread and materialize as
records when dumped.  Every process writes its own dump file; aggregation
reads any number of dump files and reduces each label to count / mean /
sample standard deviation / min / max.

Timing uses the monotonic nanosecond clock; wall-clock time never enters
the numbers.  The begin/end pair costs far less than a microsecond-scale
measured section, which is the budget the measurements need.
"""

from __future__ import annotations

import csv
import math
import os
import threading
import time
from dataclasses import dataclass

from .errors import ParseError

KIND_INTERVAL = "interval"
KIND_COUNTER = "counter"

DUMP_HEADER = ("label", "kind", "value", "process", "thread", "seq")
STATS_HEADER = ("label", "n", "mean", "stddev", "min", "max")
STATS_COMMENT = "# stddev is the sample standard deviation (n-1 denominator)"


@dataclass(frozen=True)
class MetricRecord:
    label: str
    kind: str
    value: int  # nanoseconds for intervals, count for counters
    process: str
    thread: str
    seq: int


@dataclass(frozen=True)
class MetricStats:
    label: str
    n: int
    mean: float
    stddev: float
    min: float
    max: float


class _ThreadState:
    __slots__ = ("lock", "name", "records", "counters", "stacks", "seq", "gen")

    def __init__(self, name: str, gen: int):
        self.lock = threading.Lock()
        self.name = name
        self.records: list[MetricRecord] = []
        self.counters: dict[str, int] = {}
        self.stacks: dict[str, list[int]] = {}
        self.seq = 0
        self.gen = gen


class Collector:
    """Per-process metric collector; all methods are thread-safe.

    Per-thread state lives in a threading.local (thread idents get reused, so
    keying by ident would conflate a dead thread with its successor) and is
    additionally registered on the collector so dumps see records of threads
    that have already exited.  reset() bumps a generation counter, which
    invalidates any state still referenced by live threads.
    """

    def __init__(self, process: str | None = None):
        self.process = process or f"pid{os.getpid()}"
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._states: list[_ThreadState] = []
        self._gen = 0
        self.diagnostics: list[str] = []

    def set_process(self, name: str) -> None:
        self.process = name

    def _state(self) -> _ThreadState:
        st = getattr(self._tls, "state", None)
        if st is None or st.gen != self._gen:
            st = _ThreadState(threading.current_thread().name, self._gen)
            self._tls.state = st
            with self._lock:
                if st.gen == self._gen:
                    self._states.append(st)
        return st

    # -- recording ----------------------------------------------------------

    def begin(self, label: str) -> None:
        st = self._state()
        with st.lock:
            st.stacks.setdefault(label, []).append(time.perf_counter_ns())

    def end(self, label: str) -> None:
        t1 = time.perf_counter_ns()
        st = self._state()
        with st.lock:
            stack = st.stacks.get(label)
            if not stack:
                self.diagnostics.append(
                    f"unmatched end({label!r}) on thread {threading.current_thread().name}")
                return
            t0 = stack.pop()
            st.name = threading.current_thread().name
            st.records.append(MetricRecord(label, KIND_INTERVAL, t1 - t0,
                                           self.process, st.name, st.seq))
            st.seq += 1

    def discard(self, label: str) -> None:
        """Drop the innermost pending begin(label) without emitting a record."""
        st = self._state()
        with st.lock:
            stack = st.stacks.get(label)
            if stack:
                stack.pop()

    def add_interval(self, label: str, value_ns: int) -> None:
        """Record an interval measured by the caller (used by async paths)."""
        st = self._state()
        with st.lock:
            st.name = threading.current_thread().name
            st.records.append(MetricRecord(label, KIND_INTERVAL, value_ns,
                                           self.process, st.name, st.seq))
            st.seq += 1

    def inc_counter(self, label: str, n: int = 1) -> None:
        st = self._state()
        with st.lock:
            st.name = threading.current_thread().name
            st.counters[label] = st.counters.get(label, 0) + n

    # -- inspection ----------------------------------------------------------

    def counter_total(self, label: str) -> int:
        with self._lock:
            states = list(self._states)
        total = 0
        for st in states:
            with st.lock:
                total += st.counters.get(label, 0)
        return total

    def reset(self) -> None:
        with self._lock:
            self._gen += 1
            self._states.clear()
            self.diagnostics.clear()

    # -- dump ----------------------------------------------------------------

    def dump(self, path) -> None:
        """Write all buffered records as CSV and clear the buffers.

        Counters flush as one counter record per (thread, label).  Records
        emitted after the dump starts land in the next dump.
        """
        with self._lock:
            states = list(self._states)
        rows: list[MetricRecord] = []
        for st in states:
            with st.lock:
                rows.extend(st.records)
                st.records = []
                for label in sorted(st.counters):
                    rows.append(MetricRecord(label, KIND_COUNTER, st.counters[label],
                                             self.process, st.name, st.seq))
                    st.seq += 1
                st.counters = {}
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(DUMP_HEADER)
            for r in rows:
                writer.writerow((r.label, r.kind, r.value, r.process, r.thread, r.seq))


# -- aggregation --------------------------------------------------------------

def parse_dump(path) -> list[MetricRecord]:
    records = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != DUMP_HEADER:
            raise ParseError(path, 1, f"bad dump header: {header}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 6:
                raise ParseError(path, line_no, f"expected 6 fields, got {len(row)}")
            label, kind, value, process, thread, seq = row
            if kind not in (KIND_INTERVAL, KIND_COUNTER):
                raise ParseError(path, line_no, f"unknown record kind {kind!r}")
            try:
                records.append(MetricRecord(label, kind, int(value), process, thread, int(seq)))
            except ValueError as e:
                raise ParseError(path, line_no, f"bad numeric field: {e}") from None
    return records


def stats_of(label: str, values: list[float]) -> MetricStats:
    n = len(values)
    if n < 1:
        raise ValueError(f"no values for label {label!r}")
    mean = math.fsum(values) / n
    if n == 1:
        stddev = 0.0
    else:
        stddev = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1))
    return MetricStats(label, n, mean, stddev, min(values), max(values))


def aggregate(paths) -> dict[str, MetricStats]:
    """Reduce dump files to per-label statistics (order-independent)."""
    values: dict[str, list[float]] = {}
    for path in paths:
        for r in parse_dump(path):
            values.setdefault(r.label, []).append(float(r.value))
    return {label: stats_of(label, vs) for label, vs in sorted(values.items())}


def write_stats(path, stats: dict[str, MetricStats], group: dict | None = None) -> None:
    """Write the aggregate CSV; optional group columns prefix each row."""
    group = group or {}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(STATS_COMMENT + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(tuple(group.keys()) + STATS_HEADER)
        for label in sorted(stats):
            s = stats[label]
            writer.writerow(tuple(group.values()) +
                            (s.label, s.n, repr(s.mean), repr(s.stddev),
                             repr(s.min), repr(s.max)))


# -- module-level default collector (paper-style static logger) ---------------

_default = Collector()


def set_process(name: str) -> None:
    _default.set_process(name)


def begin(label: str) -> None:
    _default.begin(label)


def end(label: str) -> None:
    _default.end(label)


def discard(label: str) -> None:
    _default.discard(label)


def add_interval(label: str, value_ns: int) -> None:
    _default.add_interval(label, value_ns)


def inc_counter(label: str, n: int = 1) -> None:
    _default.inc_counter(label, n)


def counter_total(label: str) -> int:
    return _default.counter_total(label)


def reset() -> None:
    _default.reset()


def dump(path) -> None:
    _default.dump(path)
