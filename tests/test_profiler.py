"""Profiler: intervals, counters, dumps, aggregation math."""

import csv
import io
import os
import random
import statistics
import sys
import threading
import time

import pytest

from tuplespaces import ParseError, profiler
from tuplespaces.profiler import (
    Collector,
    DUMP_HEADER,
    KIND_COUNTER,
    KIND_INTERVAL,
    aggregate,
    parse_dump,
    stats_of,
    write_stats,
)


def test_begin_end_single_interval(tmp_path):
    c = Collector("p")
    t0 = time.perf_counter_ns()
    c.add_interval("x", time.perf_counter_ns() - t0)
    path = tmp_path / "d.csv"
    c.dump(path)
    records = parse_dump(path)
    assert len(records) == 1
    r = records[0]
    assert r.label == "x" and r.kind == KIND_INTERVAL and r.value >= 0


def test_clean_dump_writes_no_diagnostics(tmp_path):
    c = Collector("p")
    c.add_interval("a", 1)
    c.dump(tmp_path / "d.csv")
    assert os.listdir(tmp_path) == ["d.csv"]


def test_counter_flush(tmp_path):
    c = Collector("p")
    for _ in range(3):
        c.inc_counter("nodeVisited")
    path = tmp_path / "d.csv"
    c.dump(path)
    records = parse_dump(path)
    assert len(records) == 1
    assert records[0].kind == KIND_COUNTER and records[0].value == 3
    # flushed: a second dump holds nothing
    c.dump(path)
    assert parse_dump(path) == []


def test_counter_zero_increments_no_record(tmp_path):
    c = Collector("p")
    c.add_interval("t", 1)
    path = tmp_path / "d.csv"
    c.dump(path)
    assert all(r.kind != KIND_COUNTER for r in parse_dump(path))


def test_counters_attributed_per_thread(tmp_path):
    c = Collector("p")

    def bump(n):
        for _ in range(n):
            c.inc_counter("visits")

    t1 = threading.Thread(target=bump, args=(4,), name="w1")
    t2 = threading.Thread(target=bump, args=(6,), name="w2")
    t1.start(); t2.start(); t1.join(); t2.join()
    path = tmp_path / "d.csv"
    c.dump(path)
    counter_records = [r for r in parse_dump(path) if r.kind == KIND_COUNTER]
    assert len(counter_records) == 2
    assert sorted(r.value for r in counter_records) == [4, 6]
    assert {r.thread for r in counter_records} == {"w1", "w2"}
    assert sum(r.value for r in counter_records) == 10


def test_sequential_threads_attributed_separately(tmp_path):
    """A thread started after another died (ident likely reused) must not
    inherit the dead thread's counters."""
    c = Collector("p")

    def bump(n):
        for _ in range(n):
            c.inc_counter("visits")

    t1 = threading.Thread(target=bump, args=(4,), name="w1")
    t1.start()
    t1.join()
    t2 = threading.Thread(target=bump, args=(6,), name="w2")
    t2.start()
    t2.join()
    path = tmp_path / "d.csv"
    c.dump(path)
    counters = {r.thread: r.value for r in parse_dump(path) if r.kind == KIND_COUNTER}
    assert counters == {"w1": 4, "w2": 6}


def test_dump_empty_header_only(tmp_path):
    c = Collector("p")
    path = tmp_path / "empty.csv"
    c.dump(path)
    text = path.read_text().splitlines()
    assert text == [",".join(DUMP_HEADER)]


def test_dump_one_record_two_lines_roundtrip(tmp_path):
    c = Collector("proc7")
    c.add_interval("m", 1)
    path = tmp_path / "one.csv"
    c.dump(path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    (r,) = parse_dump(path)
    assert r.process == "proc7" and r.seq == 0


def test_dump_roundtrip_multiset(tmp_path):
    c = Collector("p")
    for i in range(50):
        c.add_interval("a", i)
        c.inc_counter("k", 2)
    path = tmp_path / "r.csv"
    c.dump(path)
    records = parse_dump(path)
    intervals = [r for r in records if r.kind == KIND_INTERVAL]
    counters = [r for r in records if r.kind == KIND_COUNTER]
    assert len(intervals) == 50
    assert len(counters) == 1 and counters[0].value == 100


def test_seq_strictly_increasing_across_dumps(tmp_path):
    c = Collector("p")
    c.add_interval("a", 1)
    c.dump(tmp_path / "1.csv")
    c.add_interval("a", 1)
    c.dump(tmp_path / "2.csv")
    first = parse_dump(tmp_path / "1.csv")[0].seq
    second = parse_dump(tmp_path / "2.csv")[0].seq
    assert second > first


# Written by the MetricRecord-per-interval collector for the same intervals
# and counters.
GOLDEN_DUMP = (
    "label,kind,value,process,thread,seq\n"
    "b,interval,7,proc-a,t-one,0\n"
    "c,interval,42,proc-a,t-one,1\n"
    "a,interval,21,proc-a,t-one,2\n"
    "a,interval,7,proc-a,t-one,3\n"
    "j,counter,2,proc-a,t-one,4\n"
    "k,counter,5,proc-a,t-one,5\n"
    "c,interval,5,proc-a,t-two,0\n"
    "x,interval,7,proc-a,t-two,1\n"
    "k,counter,1,proc-a,t-two,2\n"
)


def test_dump_bytes_are_unchanged(tmp_path):
    c = Collector("proc-a")

    def first():
        c.add_interval("b", 7); c.add_interval("c", 42); c.add_interval("a", 21)
        c.inc_counter("k"); c.inc_counter("k", 4); c.inc_counter("j", 2)
        c.add_interval("a", 7)

    def second():
        c.add_interval("c", 5); c.inc_counter("k"); c.add_interval("x", 7)

    for body, name in ((first, "t-one"), (second, "t-two")):
        th = threading.Thread(target=body, name=name)
        th.start()
        th.join(5)
        assert not th.is_alive()
    path = tmp_path / "g.csv"
    c.dump(path)
    assert path.read_text() == GOLDEN_DUMP


_AWKWARD = ("plain", "a,b", 'say "hi"', "two\nlines", "cr\rhere", "", " padded ",
            '",\n', "\u00e9\u2603")


def _csv_bytes(rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(DUMP_HEADER)
    writer.writerows(rows)
    return out.getvalue()


@pytest.mark.parametrize("process", ["proc-a", *_AWKWARD[1:]])
def test_dump_writes_what_csv_writer_writes(tmp_path, process):
    """Process, thread and label text that needs quoting is quoted as csv
    quotes it; the rows are those of the records, in the documented order."""
    c = Collector()
    c.set_process(process)  # the constructor would replace an empty name
    expected = []
    for t, name in enumerate(_AWKWARD):
        def body(t=t):
            for i, label in enumerate(_AWKWARD):
                c.add_interval(label, 1000 * t + i)
            c.inc_counter(_AWKWARD[-1 - t], 3)
            c.inc_counter("k")

        th = threading.Thread(target=body)
        th.name = name  # the constructor would replace an empty name
        th.start()
        th.join(5)
        assert not th.is_alive()
        rows = [(label, KIND_INTERVAL, 1000 * t + i) for i, label in enumerate(_AWKWARD)]
        counters = {_AWKWARD[-1 - t]: 3, "k": 1}
        rows += [(label, KIND_COUNTER, counters[label]) for label in sorted(counters)]
        expected += [row + (process, name, seq) for seq, row in enumerate(rows)]
    path = tmp_path / "d.csv"
    c.dump(path)
    with open(path, newline="", encoding="utf-8") as fh:
        assert fh.read() == _csv_bytes(expected)


def test_seq_numbers_each_threads_rows_across_dumps_with_counters(tmp_path):
    c = Collector("p")
    rounds = threading.Event(), threading.Event()
    dumped = threading.Event(), threading.Event()

    def body():
        for go, done in zip(rounds, dumped):
            assert go.wait(5)
            for i in range(3):
                c.add_interval("a", i)
                c.inc_counter("n")
            c.inc_counter("m", 2)
            done.set()

    threads = [threading.Thread(target=body, name=f"t{k}") for k in range(2)]
    for th in threads:
        th.start()
    paths = []
    for k, go in enumerate(rounds):
        go.set()
        assert dumped[k].wait(5)
        time.sleep(0.01)  # both threads are done with this round
        paths.append(tmp_path / f"{k}.csv")
        c.dump(paths[-1])
    for th in threads:
        th.join(5)
    records = [r for p in paths for r in parse_dump(p)]
    for name in ("t0", "t1"):
        seqs = [r.seq for r in records if r.thread == name]
        assert seqs == list(range(10))  # 3 intervals and 2 counters per dump


def test_recording_builds_no_metric_record(tmp_path, monkeypatch):
    def forbidden(*args):
        raise AssertionError("MetricRecord built while recording")

    monkeypatch.setattr(profiler, "MetricRecord", forbidden)
    profiler.reset()
    profiler.add_interval("a", 1)
    profiler.add_interval("b", 5)
    profiler.inc_counter("k")
    path = tmp_path / "d.csv"
    profiler.dump(path)
    monkeypatch.undo()
    assert [(r.label, r.kind) for r in parse_dump(path)] == [
        ("a", KIND_INTERVAL), ("b", KIND_INTERVAL), ("k", KIND_COUNTER)]


def _write_dump(path, rows):
    with open(path, "w") as fh:
        fh.write(",".join(DUMP_HEADER) + "\n")
        for label, kind, value in rows:
            fh.write(f"{label},{kind},{value},p,t,0\n")


def test_aggregate_hand_computed(tmp_path):
    path = tmp_path / "v.csv"
    _write_dump(path, [("lab", "interval", v) for v in (1, 2, 3, 4)])
    stats = aggregate([path])["lab"]
    assert stats.n == 4
    assert stats.mean == pytest.approx(2.5, rel=1e-12)
    assert stats.stddev == pytest.approx(1.2909944487358056, abs=1e-9)
    assert (stats.min, stats.max) == (1.0, 4.0)


def test_aggregate_single_value_stddev_zero(tmp_path):
    path = tmp_path / "s.csv"
    _write_dump(path, [("one", "interval", 7)])
    stats = aggregate([path])["one"]
    assert stats.n == 1 and stats.mean == 7.0 and stats.stddev == 0.0


def test_aggregate_two_files_constant(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    _write_dump(p1, [("c", "interval", 5)])
    _write_dump(p2, [("c", "interval", 5)])
    stats = aggregate([p1, p2])["c"]
    assert stats.n == 2 and stats.mean == 5.0 and stats.stddev == 0.0


def test_aggregate_permutation_invariant(tmp_path):
    rng = random.Random(3)
    rows = [("m", "interval", rng.randrange(10**9)) for _ in range(200)]
    p1, p2 = tmp_path / "x.csv", tmp_path / "y.csv"
    _write_dump(p1, rows[:120])
    _write_dump(p2, rows[120:])
    a = aggregate([p1, p2])["m"]
    b = aggregate([p2, p1])["m"]
    shuffled = rows[:]
    rng.shuffle(shuffled)
    p3 = tmp_path / "z.csv"
    _write_dump(p3, shuffled)
    c = aggregate([p3])["m"]
    assert a == b == c


def test_aggregate_matches_statistics_module(tmp_path):
    rng = random.Random(11)
    values = [rng.randrange(1, 10**12) for _ in range(500)]
    path = tmp_path / "big.csv"
    _write_dump(path, [("z", "interval", v) for v in values])
    stats = aggregate([path])["z"]
    assert stats.mean == pytest.approx(statistics.mean(values), rel=1e-12)
    assert stats.stddev == pytest.approx(statistics.stdev(values), rel=1e-9)


def test_stats_of_rejects_empty():
    with pytest.raises(ValueError):
        stats_of("none", [])


def test_parse_error_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("wrong,header\n")
    with pytest.raises(ParseError) as exc:
        parse_dump(path)
    assert exc.value.line_no == 1


def test_parse_error_bad_row(tmp_path):
    path = tmp_path / "bad2.csv"
    path.write_text(",".join(DUMP_HEADER) + "\nlab,interval,notanumber,p,t,0\n")
    with pytest.raises(ParseError) as exc:
        parse_dump(path)
    assert exc.value.line_no == 2


def test_intervals_never_negative(tmp_path):
    c = Collector("p")
    for _ in range(200):
        t0 = time.perf_counter_ns()
        c.add_interval("fast", time.perf_counter_ns() - t0)
    path = tmp_path / "d.csv"
    c.dump(path)
    records = parse_dump(path)
    assert len(records) == 200
    assert all(r.value >= 0 for r in records)


def test_dump_concurrent_with_recording(tmp_path):
    """Records emitted after a dump starts land in that dump or the next one.

    The recorder writes a fixed batch per dump and is halfway through it when
    the dump starts; with a short switch interval the dump then runs while
    the batch is still being recorded.  The record count stays bounded
    whatever the host's load.
    """
    c = Collector("p")
    rounds, batch = 5, 4000
    go = [threading.Event() for _ in range(rounds)]
    halfway = [threading.Event() for _ in range(rounds)]

    def recorder():
        for start, half in zip(go, halfway):
            if not start.wait(10):
                return
            for i in range(batch):
                if i == batch // 2:
                    half.set()
                c.add_interval("busy", 1)
                c.inc_counter("n")

    th = threading.Thread(target=recorder, name="rec")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    th.start()
    paths = []
    try:
        for i in range(rounds):
            go[i].set()
            assert halfway[i].wait(10)
            p = tmp_path / f"d{i}.csv"
            c.dump(p)
            paths.append(p)
    finally:
        for start in go:
            start.set()
        th.join(10)
        sys.setswitchinterval(interval)
    assert not th.is_alive()
    final = tmp_path / "final.csv"
    c.dump(final)
    paths.append(final)
    records = [r for p in paths for r in parse_dump(p)]
    intervals = [r for r in records if r.kind == KIND_INTERVAL]
    counted = sum(r.value for r in records if r.kind == KIND_COUNTER)
    assert counted == len(intervals) == rounds * batch  # nothing lost, nothing duplicated
    seqs = [r.seq for r in records if r.thread == "rec"]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)


def test_write_stats_schema(tmp_path):
    path = tmp_path / "v.csv"
    _write_dump(path, [("lab", "interval", v) for v in (1, 2, 3, 4)])
    stats = aggregate([path])
    out = tmp_path / "stats.csv"
    write_stats(out, stats)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#") and "n-1" in lines[0]
    assert lines[1] == "label,n,mean,stddev,min,max"
    row = lines[2].split(",")
    assert row[0] == "lab" and int(row[1]) == 4
    assert float(row[2]) == 2.5
    assert float(row[3]) == pytest.approx(1.2909944487358056, abs=1e-9)
    write_stats(out, stats, group={"case": "c", "workers": 3})
    lines = out.read_text().splitlines()
    assert lines[1] == "case,workers,label,n,mean,stddev,min,max"
    assert lines[2].startswith("c,3,lab,4,2.5,")
