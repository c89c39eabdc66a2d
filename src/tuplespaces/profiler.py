"""Manual profiler: labeled interval timers, per-thread counters, CSV dumps.

Every section is timed the same way, in three steps:
``t0 = time.perf_counter_ns()``, the operation, then
``add_interval(label, time.perf_counter_ns() - t0)``.  An operation that
raises records nothing, and a caller may record only some outcomes (a probe
only when it hits).  A span that opens and closes in different functions
keeps its ``t0`` where both can reach it (the master's total-runtime timer
keeps it on its role handles).  Counters accumulate per thread and
materialize as records when dumped.  The buffers grow without bound
between dumps: every interval recorded stays in memory until the next
dump (one per rep in the benchmark).  Every process writes its own dump
file; aggregation reads any number of dump files and reduces each label to
count / mean / sample standard deviation / min / max.

Timing uses the monotonic nanosecond clock; wall-clock time never enters
the numbers.  Recording is not free next to the sections it times: on a
2-vCPU host (Python 3.11, best of 7 over 20k calls) a ``t0`` +
``add_interval`` section costs 0.8-1.0 µs, and a ``LocalSpace.out``
1.4-1.5 µs.  Under host load both about double.
"""

from __future__ import annotations

import csv
import math
import os
import threading
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ParseError

KIND_INTERVAL = "interval"
KIND_COUNTER = "counter"

DUMP_HEADER = ("label", "kind", "value", "process", "thread", "seq")
STATS_HEADER = ("label", "n", "mean", "stddev", "min", "max")
STATS_COMMENT = "# stddev is the sample standard deviation (n-1 denominator)"


class MetricRecord(NamedTuple):
    """One dump row as parse_dump returns it.

    A named tuple, so the rows parse_dump builds reuse the memory of the
    dumped interval rows (plain tuples of the same size) instead of growing
    the heap.
    """

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
    """One thread's buffers.  ``lock`` guards what dump() swaps out (records,
    counters, seq)."""

    __slots__ = ("lock", "thread", "records", "counters", "seq", "gen")

    def __init__(self, thread: threading.Thread, gen: int):
        self.lock = threading.Lock()
        self.thread = thread
        self.records: list[tuple] = []  # dump rows, in DUMP_HEADER order
        self.counters: dict[str, int] = {}
        self.seq = 0
        self.gen = gen


class Collector:
    """Per-process metric collector; all methods are thread-safe.

    Per-thread state lives in a threading.local (thread idents get reused, so
    keying by ident would conflate a dead thread with its successor) and is
    additionally registered on the collector so dumps see records of threads
    that have already exited.  reset() bumps a generation counter, which
    invalidates any state still referenced by live threads.

    An interval is buffered as its dump row, a plain tuple; MetricRecord
    objects exist only on the parsing side.
    """

    def __init__(self, process: str | None = None):
        self.process = process or f"pid{os.getpid()}"
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._states: list[_ThreadState] = []
        self._gen = 0

    def set_process(self, name: str) -> None:
        self.process = name

    def _state(self) -> _ThreadState:
        st = getattr(self._tls, "state", None)
        if st is None or st.gen != self._gen:
            st = _ThreadState(threading.current_thread(), self._gen)
            self._tls.state = st
            with self._lock:
                if st.gen == self._gen:
                    self._states.append(st)
        return st

    # -- recording ----------------------------------------------------------

    def add_interval(self, label: str, value_ns: int) -> None:
        """Record an interval the caller measured with time.perf_counter_ns()."""
        st = self._state()
        with st.lock:
            st.records.append((label, KIND_INTERVAL, value_ns, self.process,
                               st.thread.name, st.seq))
            st.seq += 1

    def inc_counter(self, label: str, n: int = 1) -> None:
        st = self._state()
        with st.lock:
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

    # -- dump ----------------------------------------------------------------

    def dump(self, path) -> None:
        """Write all buffered records as CSV and clear the buffers.

        Counters flush as one counter record per (thread, label).  Records
        emitted after the dump starts land in the next dump.
        """
        with self._lock:
            states = list(self._states)
        rows: list[tuple] = []
        for st in states:
            with st.lock:
                rows.extend(st.records)
                st.records = []
                name = st.thread.name
                for label in sorted(st.counters):
                    rows.append((label, KIND_COUNTER, st.counters[label],
                                 self.process, name, st.seq))
                    st.seq += 1
                st.counters = {}
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(DUMP_HEADER)
            writer.writerows(rows)


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


def write_stats(path, stats, group: dict | None = None) -> None:
    """Write the aggregate CSV; optional group columns prefix each row.

    ``stats`` is either one group's ``{label: MetricStats}``, prefixed by the
    values of ``group``, or a list of ``(group, stats)`` pairs written in
    order under one header whose group columns are the first group's keys.
    """
    groups = [(group or {}, stats)] if isinstance(stats, dict) else stats
    columns = tuple(groups[0][0]) if groups else ()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(STATS_COMMENT + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns + STATS_HEADER)
        for group_values, group_stats in groups:
            prefix = tuple(group_values.values())
            for label in sorted(group_stats):
                s = group_stats[label]
                writer.writerow(prefix + (s.label, s.n, repr(s.mean), repr(s.stddev),
                                          repr(s.min), repr(s.max)))


# -- module-level default collector (paper-style static logger) ---------------
#
# The module functions are the default collector's bound methods, so a call
# from a hot path costs one Python frame, not two.

_default = Collector()

set_process = _default.set_process
add_interval = _default.add_interval
inc_counter = _default.inc_counter
counter_total = _default.counter_total
reset = _default.reset
dump = _default.dump
