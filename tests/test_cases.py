"""Case protocols: worked examples, instrumentation, determinism, barriers."""

import os
import time
from collections import Counter

import pytest

from tuplespaces import (
    ConnectionLost,
    DeadlineExceeded,
    LocalSpace,
    make_tuple,
    profiler,
    template,
)
from tuplespaces.labels import (
    ALL_LABELS,
    NODE_VISITED,
    READ_LOCAL,
    READ_REMOTE,
    SEARCH,
    TOTAL_RUNTIME,
    WRITE_LOCAL,
    WRITE_REMOTE,
)
from tuplespaces.bench import matmul as matmul_mod
from tuplespaces.bench import password as password_mod
from tuplespaces.bench import sorting as sorting_mod
from tuplespaces.bench.config import BenchConfig
from tuplespaces.bench.reference import (
    digest_grid,
    digest_ints,
    matmul_reference,
    md5_hex,
    ocean_reference,
    partition_ranges,
)
from tuplespaces.bench.roles import RoleHandles
from tuplespaces.bench.runner import run_rep_threads
from tuplespaces.server import SpaceServer


def run_one(cfg, rep=0, key="test", tmp_path=None):
    dump = (tmp_path / f"{key}_rep{rep}.csv") if tmp_path else f"/tmp/{key}_rep{rep}.csv"
    return run_rep_threads(cfg, rep, key, dump)


# -- oracle sanity -----------------------------------------------------------------

def test_md5_reference_values():
    # frozen from an independent MD5 implementation before the build
    assert md5_hex("0") == "cfcd208495d565ef66e7dff9f98764da"
    assert md5_hex("1") == "c4ca4238a0b923820dcc509a6f75849b"
    assert md5_hex("7723567") == "dd157c03313e452ae4a7a5b72407b3a9"


def test_partition_ranges_contiguous_and_balanced():
    ranges = partition_ranges(10, 4)
    assert ranges == [(0, 3), (3, 6), (6, 8), (8, 10)]
    widths = [hi - lo for lo, hi in ranges]
    assert max(widths) - min(widths) <= 1
    assert partition_ranges(3, 3) == [(0, 1), (1, 2), (2, 3)]


def test_matmul_reference_known_product():
    c = matmul_reference([[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]])
    assert c == [[19.0, 22.0], [43.0, 50.0]]


def test_ocean_reference_one_step_by_hand():
    grid = ocean_reference(4, 1)
    # interior row 1 cells average one 1.0 neighbour (above), the rest zeros
    assert grid[1][1] == 0.25 and grid[1][2] == 0.25
    assert grid[2][1] == 0.0 and grid[2][2] == 0.0
    assert grid[0] == (1.0, 1.0, 1.0, 1.0)  # boundary held fixed
    assert grid[3] == (0.0, 0.0, 0.0, 0.0)


# -- password ------------------------------------------------------------------------

def test_password_single_worker(tmp_path):
    cfg = BenchConfig(case="password", workers=1, size=10, reps=1, seed=3, deadline=30)
    r = run_one(cfg, tmp_path=tmp_path)
    assert r.correct and r.error is None
    assert r.node_visited_total == 100  # one local probe per task at w=1


def test_password_duplicate_draws_still_conserve(tmp_path):
    # size 3 forces massively duplicated hash tasks
    cfg = BenchConfig(case="password", workers=2, size=3, reps=1, seed=1, deadline=30)
    r = run_one(cfg, tmp_path=tmp_path)
    assert r.correct
    assert r.detail["multiset_match"] and r.detail["hashes_verified"]


def test_password_digest_independent_of_layout(tmp_path):
    base = dict(case="password", size=500, reps=1, seed=11, deadline=30)
    r1 = run_one(BenchConfig(workers=1, **base), tmp_path=tmp_path, key="w1")
    r2 = run_one(BenchConfig(workers=3, **base), tmp_path=tmp_path, key="w3")
    assert r1.correct and r2.correct
    assert r1.digest == r2.digest


# -- sort ---------------------------------------------------------------------------

def test_sort_worked_example(tmp_path, monkeypatch):
    monkeypatch.setattr(sorting_mod, "sort_input", lambda rng, n: [5, 3, 8, 1, 7, 2, 6, 4])
    cfg = BenchConfig(case="sort", workers=1, size=8, sort_threshold=2, reps=1,
                      seed=0, deadline=30)
    r = run_one(cfg, tmp_path=tmp_path)
    assert r.correct
    assert r.digest == digest_ints([1, 2, 3, 4, 5, 6, 7, 8])
    assert r.detail["elements"] == 8


def test_sort_already_sorted_input(tmp_path, monkeypatch):
    data = list(range(16))
    monkeypatch.setattr(sorting_mod, "sort_input", lambda rng, n: list(data))
    cfg = BenchConfig(case="sort", workers=1, size=16, sort_threshold=4, reps=1,
                      seed=0, deadline=30)
    r = run_one(cfg, tmp_path=tmp_path)
    assert r.correct and r.digest == digest_ints(data)


def test_sort_chunked_runs_reassembled(tmp_path, monkeypatch):
    monkeypatch.setattr(sorting_mod, "CHUNK_ELEMENTS", 7)
    cfg = BenchConfig(case="sort", workers=2, size=120, sort_threshold=40, reps=1,
                      seed=5, deadline=30)
    r = run_one(cfg, tmp_path=tmp_path)
    assert r.correct
    assert r.detail["elements"] == 120


def test_sort_duplicates_and_int64_extremes(tmp_path, monkeypatch):
    lo, hi = -(2**63), 2**63 - 1
    data = [(i * 7) % 5 - 2 for i in range(90)] + [hi, lo] * 15
    monkeypatch.setattr(sorting_mod, "sort_input", lambda rng, n: list(data))
    cfg = BenchConfig(case="sort", workers=2, size=len(data), sort_threshold=16,
                      reps=1, seed=0, deadline=30)
    r = run_one(cfg, tmp_path=tmp_path)
    assert r.detail["runs"] >= 4
    assert r.correct and r.digest == digest_ints(sorted(data))


def test_sort_unsorted_run_fails_the_oracle(tmp_path, monkeypatch):
    send = sorting_mod.send_sorted_run
    monkeypatch.setattr(sorting_mod, "send_sorted_run",
                        lambda h, run, cap=None: send(h, run[::-1], cap))
    cfg = BenchConfig(case="sort", workers=1, size=64, sort_threshold=16, reps=1,
                      seed=3, deadline=30)
    r = run_one(cfg, tmp_path=tmp_path)
    assert r.detail["conserved"] and not r.correct


def test_sort_single_worker_visited_formula(tmp_path):
    # N=1000, T=100: ten leaves per the halving chain -> 10 + 1 pill searches
    cfg = BenchConfig(case="sort", workers=1, size=1000, sort_threshold=100,
                      reps=1, seed=9, deadline=30)
    r = run_one(cfg, tmp_path=tmp_path)
    assert r.correct
    assert r.node_visited_total == r.detail["runs"] + 1


def test_split_for_transport():
    assert sorting_mod.split_for_transport([1, 2, 3], 5) == [[1, 2, 3]]
    pieces = sorting_mod.split_for_transport(list(range(10)), 3)
    assert [x for p in pieces for x in p] == list(range(10))
    assert all(len(p) <= 3 for p in pieces)


def test_sort_digest_independent_of_layout(tmp_path):
    base = dict(case="sort", size=3000, sort_threshold=500, reps=1, seed=2, deadline=30)
    r1 = run_one(BenchConfig(workers=1, **base), tmp_path=tmp_path, key="s1")
    r2 = run_one(BenchConfig(workers=3, **base), tmp_path=tmp_path, key="s3")
    assert r1.correct and r2.correct and r1.digest == r2.digest


# -- ocean ---------------------------------------------------------------------------

def test_ocean_small_grid_bit_exact(tmp_path):
    cfg = BenchConfig(case="ocean", workers=2, size=4, ocean_iters=1, reps=1,
                      seed=0, deadline=30)
    r = run_one(cfg, tmp_path=tmp_path)
    assert r.correct
    assert r.digest == digest_grid(ocean_reference(4, 1))


def test_ocean_w2_visited_formula(tmp_path):
    iters = 6
    cfg = BenchConfig(case="ocean", workers=2, size=8, ocean_iters=iters, reps=1,
                      seed=0, deadline=30)
    r = run_one(cfg, tmp_path=tmp_path)
    assert r.correct
    # each worker: one border search per iteration, local miss + single peer
    assert r.node_visited_total == 2 * 2 * iters


def test_ocean_border_consistency(tmp_path, monkeypatch):
    """Every received border equals the neighbour's edge column of the
    previous-iteration reference state."""
    captured = []
    original = RoleHandles.search

    def spy(self, tpl, destructive):
        out = original(self, tpl, destructive)
        captured.append((tpl, out.tuple))
        return out

    monkeypatch.setattr(RoleHandles, "search", spy)
    n, w, iters = 6, 3, 3
    cfg = BenchConfig(case="ocean", workers=w, size=n, ocean_iters=iters, reps=1,
                      seed=0, deadline=30)
    r = run_one(cfg, tmp_path=tmp_path)
    assert r.correct
    panels = partition_ranges(n, w)
    checked = 0
    for tpl, tup in captured:
        if tup.data[0] != "border":
            continue
        neighbor = tup.data[1]
        t = tup.data[2]
        side = tup.data[3]
        col = list(tup.data[4])
        state = ocean_reference(n, t - 1)
        lo, hi = panels[neighbor]
        j = hi - 1 if side == "right" else lo
        assert col == [state[i][j] for i in range(n)]
        checked += 1
    assert checked == 2 * (w - 1) * iters


# -- matmul ---------------------------------------------------------------------------

def test_matmul_identity(tmp_path, monkeypatch):
    n = 4
    eye = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    b = [[float(i * n + j) for j in range(n)] for i in range(n)]
    monkeypatch.setattr(matmul_mod, "matmul_inputs", lambda rng, order: (eye, b))
    cfg = BenchConfig(case="matmul", workers=2, size=n, reps=1, seed=0, deadline=30)
    r = run_one(cfg, tmp_path=tmp_path)
    assert r.correct
    assert r.digest == digest_grid(b)


def test_matmul_known_product(tmp_path, monkeypatch):
    monkeypatch.setattr(matmul_mod, "matmul_inputs",
                        lambda rng, order: ([[1.0, 2.0], [3.0, 4.0]],
                                            [[5.0, 6.0], [7.0, 8.0]]))
    cfg = BenchConfig(case="matmul", workers=1, size=2, reps=1, seed=0, deadline=30)
    r = run_one(cfg, tmp_path=tmp_path)
    assert r.correct
    assert r.digest == digest_grid([[19.0, 22.0], [43.0, 50.0]])


def test_matmul_distribution_trend_small(tmp_path):
    base = dict(case="matmul", workers=3, size=9, strategy="success_factor",
                reps=1, seed=6, deadline=30)
    uni = run_one(BenchConfig(distribution="uniform", **base), tmp_path=tmp_path, key="u")
    b1 = run_one(BenchConfig(distribution="b_on_one", **base), tmp_path=tmp_path, key="b")
    assert uni.correct and b1.correct
    assert b1.node_visited_total < uni.node_visited_total


def test_matmul_digest_independent_of_layout(tmp_path):
    base = dict(case="matmul", size=8, reps=1, seed=4, deadline=30)
    r1 = run_one(BenchConfig(workers=1, **base), tmp_path=tmp_path, key="m1")
    r2 = run_one(BenchConfig(workers=4, **base), tmp_path=tmp_path, key="m4")
    assert r1.correct and r2.correct and r1.digest == r2.digest


# -- cross-case instrumentation ---------------------------------------------------------

CASE_CONFIGS = [
    BenchConfig(case="password", workers=2, size=60, reps=1, seed=1, deadline=30),
    BenchConfig(case="sort", workers=2, size=200, sort_threshold=50, reps=1, seed=1,
                deadline=30),
    BenchConfig(case="ocean", workers=2, size=6, ocean_iters=2, reps=1, seed=1,
                deadline=30),
    BenchConfig(case="matmul", workers=2, size=4, reps=1, seed=1, deadline=30),
]


@pytest.mark.parametrize("cfg", CASE_CONFIGS, ids=lambda c: c.case)
def test_normative_labels_exactly(cfg, tmp_path):
    r = run_one(cfg, tmp_path=tmp_path, key=f"labels_{cfg.case}")
    assert r.correct
    labels = {rec.label for rec in profiler.parse_dump(r.dump_paths[0])}
    assert labels == set(ALL_LABELS)


def test_matmul_record_counts_per_label(tmp_path):
    """A fixed b_on_one rep hits every lookup in round one, so each label's
    record count is fixed.  These counts were taken with the begin/end
    wrappers that the t0 + add_interval form replaced."""
    cfg = BenchConfig(case="matmul", workers=2, size=6, strategy="success_factor",
                      distribution="b_on_one", reps=1, seed=3, deadline=30)
    r = run_one(cfg, tmp_path=tmp_path, key="counts")
    assert r.correct
    counts = Counter((rec.label, rec.kind) for rec in profiler.parse_dump(r.dump_paths[0]))
    assert counts == {
        (TOTAL_RUNTIME, profiler.KIND_INTERVAL): 1,
        (WRITE_LOCAL, profiler.KIND_INTERVAL): 1,
        (WRITE_REMOTE, profiler.KIND_INTERVAL): 22,
        (READ_LOCAL, profiler.KIND_INTERVAL): 52,
        (READ_REMOTE, profiler.KIND_INTERVAL): 20,
        (SEARCH, profiler.KIND_INTERVAL): 36,
        (NODE_VISITED, profiler.KIND_COUNTER): 2,
    }
    assert not os.path.exists(r.dump_paths[0] + ".diag")  # a clean rep has no diagnostics


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs a thread affinity mask with more than one CPU")
def test_threads_rep_runs_on_one_cpu(tmp_path, monkeypatch):
    seen = {}
    run_master, run_worker, serve_conn = (matmul_mod.run_master, matmul_mod.run_worker,
                                          SpaceServer._serve_conn)

    def master(h):
        seen["master"] = os.sched_getaffinity(0)
        return run_master(h)

    def worker(h):
        seen[h.role_name] = os.sched_getaffinity(0)
        run_worker(h)

    def serve(self, conn):
        seen.setdefault("conn", os.sched_getaffinity(0))
        serve_conn(self, conn)

    monkeypatch.setattr(matmul_mod, "run_master", master)
    monkeypatch.setattr(matmul_mod, "run_worker", worker)
    monkeypatch.setattr(SpaceServer, "_serve_conn", serve)
    before = os.sched_getaffinity(0)
    cfg = BenchConfig(case="matmul", workers=2, size=4, reps=1, seed=1, deadline=30)
    r = run_one(cfg, tmp_path=tmp_path, key="pinned")
    assert r.correct
    assert set(seen) == {"master", "worker0", "worker1", "conn"}
    assert all(len(cpus) == 1 for cpus in seen.values())
    assert os.sched_getaffinity(0) == before

    def broken(h):
        raise RuntimeError("role down")

    monkeypatch.setattr(matmul_mod, "run_master", broken)
    monkeypatch.setattr(matmul_mod, "run_worker", broken)
    r = run_one(cfg, tmp_path=tmp_path, key="pinned_fail")
    assert not r.correct and "role down" in r.error
    assert os.sched_getaffinity(0) == before


class _Unreachable:
    def out(self, tup):
        raise ConnectionLost("peer gone")


def test_timed_operations_record_only_what_completed(tmp_path):
    h = RoleHandles(BenchConfig(case="password", workers=1, size=1), "worker0", 0, 0, "k",
                    [], LocalSpace("own"), deadline_at=time.monotonic() + 30)
    profiler.reset()
    with pytest.raises(ConnectionLost):
        h.out_remote(_Unreachable(), make_tuple("x"))
    h.deadline_at = time.monotonic() + 0.02
    with pytest.raises(DeadlineExceeded):  # a wait that times out records nothing
        h.take_local(template("x"))
    h.deadline_at = time.monotonic() + 30
    h.out_local(make_tuple("x"))
    assert h.take_local(template("x")) == make_tuple("x")
    h.deadline_at = time.monotonic() - 1
    with pytest.raises(DeadlineExceeded):
        h.take_local(template("x"))
    path = tmp_path / "d.csv"
    profiler.dump(path)
    assert [rec.label for rec in profiler.parse_dump(path)] == [WRITE_LOCAL, READ_LOCAL]


def test_timer_excludes_initialization(tmp_path, monkeypatch):
    original = password_mod.worker_loaded

    def slow_loaded(h):
        time.sleep(0.4)
        original(h)

    monkeypatch.setattr(password_mod, "worker_loaded", slow_loaded)
    cfg = BenchConfig(case="password", workers=1, size=20, reps=1, seed=0, deadline=30)
    r = run_one(cfg, tmp_path=tmp_path)
    assert r.correct
    assert r.elapsed >= 0.4
    records = [rec for rec in profiler.parse_dump(r.dump_paths[0])
               if rec.label == TOTAL_RUNTIME]
    assert len(records) == 1
    assert records[0].value < 0.3e9  # the 0.4 s load delay stayed outside the timer


def test_missing_worker_hits_deadline(tmp_path, monkeypatch):
    original = password_mod.run_worker

    def absent(h):
        if h.worker_id == 2:
            return  # never reports READY
        original(h)

    monkeypatch.setattr(password_mod, "run_worker", absent)
    cfg = BenchConfig(case="password", workers=3, size=30, reps=1, seed=0, deadline=2.0)
    r = run_one(cfg, tmp_path=tmp_path)
    assert not r.correct
    assert r.error is not None


def test_node_visited_counter_present(tmp_path):
    cfg = BenchConfig(case="password", workers=2, size=40, reps=1, seed=2, deadline=30)
    r = run_one(cfg, tmp_path=tmp_path)
    counters = [rec for rec in profiler.parse_dump(r.dump_paths[0])
                if rec.label == NODE_VISITED]
    assert counters and all(rec.kind == "counter" for rec in counters)
    assert sum(rec.value for rec in counters) == r.node_visited_total


def test_node_visited_total_matches_dump_matmul(tmp_path):
    # b_on_one fixes the count: worker 0 hits locally (1 visit per lookup),
    # the other worker misses locally and hits worker 0 (2 visits).
    cfg = BenchConfig(case="matmul", workers=2, size=8, reps=1, seed=3, deadline=30,
                      distribution="b_on_one")
    r = run_one(cfg, tmp_path=tmp_path)
    assert r.correct
    counters = [rec for rec in profiler.parse_dump(r.dump_paths[0])
                if rec.label == NODE_VISITED]
    assert sum(rec.value for rec in counters) == r.node_visited_total == 8 * (4 + 2 * 4)
