"""Manual profiler: labeled interval timers, per-thread counters, CSV dumps.

Every section is timed the same way, in three steps:
``t0 = time.perf_counter_ns()``, the operation, then
``add_interval(label, time.perf_counter_ns() - t0)``.  An operation that
raises records nothing, and a caller may record only some outcomes (a probe
only when it hits).  A span that opens and closes in different functions
keeps its ``t0`` where both can reach it (the master's total-runtime timer
keeps it on its role handles).  Counters accumulate per thread and
materialize as records when dumped.  An interval is buffered as its label
and value only; the dump adds the process, the thread and the row's
``seq``, and writes the rows in bounded batches.  The buffers grow without
bound between dumps: every interval recorded stays in memory until the
next dump (one per rep in the benchmark).  Every process writes its own
dump file; aggregation reads any number of dump files and reduces each
label to count / mean / sample standard deviation / min / max.

Timing uses the monotonic nanosecond clock; wall-clock time never enters
the numbers.  Recording is not free next to the sections it times: on one
CPU of a 2-vCPU host (Python 3.11, best of 7 over 20k calls) a ``t0`` +
``add_interval`` section costs 0.26 µs, and a ``LocalSpace.out`` of a
distinct 3-string tuple (a password table entry) into one bucket 0.73-0.75
µs.  Under host load both about double.  Dumping 20.7k interval rows takes
about 5.5 ms.
"""

from __future__ import annotations

import csv
import io
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
# Rows joined into one write: a bounded string, not the whole dump.
_ROWS_PER_WRITE = 256


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
    """One thread's buffers.  ``lock`` guards what dump() takes out (the
    records drained, counters, seq)."""

    __slots__ = ("lock", "thread", "records", "counters", "seq", "gen")

    def __init__(self, thread: threading.Thread, gen: int):
        self.lock = threading.Lock()
        self.thread = thread
        self.records: list[tuple[str, int]] = []  # (label, value_ns) per interval
        self.counters: dict[str, int] = {}
        self.seq = 0  # of the next row dumped
        self.gen = gen


class _CsvFields(dict):
    """Text -> the text as one field of a row that csv.writer writes, quoted
    where it has to be; csv works each one out once."""

    def __missing__(self, text: str) -> str:
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerow((text, ""))
        field = self[text] = out.getvalue()[:-2]  # less the "," and the "\n"
        return field


class Collector:
    """Per-process metric collector; all methods are thread-safe.

    Per-thread state lives in a threading.local (thread idents get reused, so
    keying by ident would conflate a dead thread with its successor) and is
    additionally registered on the collector so dumps see records of threads
    that have already exited.  reset() bumps a generation counter, which
    invalidates any state still referenced by live threads.

    An interval is buffered as ``(label, value_ns)`` and nothing more: the
    process, the thread name and the ``seq`` of its row are the same for
    every record of a thread, so dump() works them out.  ``add_interval``
    takes no lock: it appends to a list that dump() never replaces, only
    drains from the front (``list.append`` and a slice deletion are each
    atomic under the GIL), so a record appended during a dump stays for the
    next one.  MetricRecord objects exist only on the parsing side.
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
        self._state().records.append((label, value_ns))

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

        Each thread's rows are its intervals, in recording order, then one
        counter row per label it counted, sorted by label; ``seq`` numbers a
        thread's rows across dumps.  The thread's name is read at dump time.
        Records emitted after the dump starts land in the next dump.  The
        bytes are those csv.writer(lineterminator="\n") writes for the same
        rows, written _ROWS_PER_WRITE rows at a time, never joined into one
        string.
        """
        with self._lock:
            states = list(self._states)
        taken = []
        for st in states:
            with st.lock:
                records = st.records
                n = len(records)
                intervals = records[:n]
                del records[:n]
                counters = st.counters
                st.counters = {}
                seq = st.seq
                st.seq = seq + n + len(counters)
            taken.append((st.thread.name, intervals, counters, seq))
        fields = _CsvFields()
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(DUMP_HEADER) + "\n")
            interval = f",{KIND_INTERVAL},"
            counter = f",{KIND_COUNTER},"
            for thread, intervals, counters, seq in taken:
                tail = f",{fields[self.process]},{fields[thread]},"
                for lo in range(0, len(intervals), _ROWS_PER_WRITE):
                    batch = intervals[lo:lo + _ROWS_PER_WRITE]
                    fh.write("".join([f"{fields[label]}{interval}{value}{tail}{i}\n"
                                      for i, (label, value) in enumerate(batch, seq + lo)]))
                seq += len(intervals)
                fh.write("".join([f"{fields[label]}{counter}{counters[label]}{tail}{i}\n"
                                  for i, label in enumerate(sorted(counters), seq)]))


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
