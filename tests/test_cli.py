"""CLI contract: flags, exit codes, manifests, aggregate/compare, topologies."""

import json
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

import tuplespaces
from tuplespaces import profiler
from tuplespaces.cli import EXIT_FAILURE, EXIT_INFRA, EXIT_OK, EXIT_USAGE, main
from tuplespaces.bench import password as password_mod
from tuplespaces.bench import runner
from tuplespaces.bench.config import (
    LOADED_STATUS,
    READY_STATUS,
    SEARCH_GROUP,
    WORKER_FIELD,
    BenchConfig,
    CaseResult,
)
from tuplespaces.bench.runner import (
    parse_hosts_file,
    parse_manifest,
    run_benchmark,
    write_manifest,
)
from tuplespaces.client import NodeAddress, RemoteSpace
from tuplespaces.labels import ALL_LABELS
from tuplespaces.tuples import make_tuple

from util import find_free_base_port, raw_listener


def run_cli(*argv):
    return main(list(argv))


def manifest_of(out_dir):
    names = [n for n in os.listdir(out_dir) if n.startswith("manifest_")]
    assert len(names) >= 1
    return parse_manifest(os.path.join(out_dir, sorted(names)[-1]))


def test_run_smoke_writes_dumps_and_manifest(tmp_path):
    out = tmp_path / "d"
    rc = run_cli("run", "--case", "password", "--workers", "1", "--size", "200",
                 "--reps", "2", "--seed", "7", "--out", str(out), "--deadline-s", "60")
    assert rc == EXIT_OK
    manifest = manifest_of(out)
    assert manifest["case"] == "password" and manifest["reps"] == "2"
    assert manifest["rep0.correct"] == "true" and manifest["rep1.correct"] == "true"
    dumps = [n for n in os.listdir(out) if n.endswith(".csv") and "_rep" in n]
    assert len(dumps) == 2


def test_missing_case_is_usage_error(capsys):
    assert run_cli("run", "--workers", "1", "--size", "10") == EXIT_USAGE
    assert "required" in capsys.readouterr().err


def test_ocean_single_worker_rejected(tmp_path, capsys):
    rc = run_cli("run", "--case", "ocean", "--workers", "1", "--size", "8",
                 "--out", str(tmp_path))
    assert rc == EXIT_USAGE
    assert "workers >= 2" in capsys.readouterr().err


def test_sort_notify_rejected(tmp_path):
    rc = run_cli("run", "--case", "sort", "--workers", "2", "--size", "100",
                 "--strategy", "notify", "--out", str(tmp_path))
    assert rc == EXIT_USAGE


def test_procs_requires_base_port(tmp_path):
    rc = run_cli("run", "--case", "password", "--workers", "1", "--size", "10",
                 "--mode", "procs", "--out", str(tmp_path))
    assert rc == EXIT_USAGE
    rc = run_cli("run", "--case", "password", "--workers", "2", "--size", "10",
                 "--mode", "procs", "--base-port", "65535", "--out", str(tmp_path))
    assert rc == EXIT_USAGE  # worker ports past 65535


def test_correctness_failure_exit_code(tmp_path, monkeypatch):
    # a worker that sends back a wrong password makes the oracle fail
    original = password_mod.run_worker
    from tuplespaces.tuples import make_tuple
    from tuplespaces.bench.config import FOUND_NAME, TASK_NAME, STATUS_DONE
    from tuplespaces.tuples import ANY, template

    def lying_worker(h):
        from tuplespaces.bench.roles import worker_loaded, worker_read_key, worker_ready
        worker_ready(h)
        worker_loaded(h)
        worker_read_key(h)
        task_tpl = template(TASK_NAME, ANY, ANY)
        while True:
            task = h.take_remote(h.master, task_tpl)
            if task.data[2] == STATUS_DONE:
                return
            h.out_remote(h.master, make_tuple(FOUND_NAME, task.data[1], "wrong"))

    monkeypatch.setattr(password_mod, "run_worker", lying_worker)
    rc = run_cli("run", "--case", "password", "--workers", "1", "--size", "50",
                 "--reps", "1", "--out", str(tmp_path), "--deadline-s", "30")
    assert rc == EXIT_FAILURE


def test_worker_crash_is_infrastructure_failure(tmp_path, monkeypatch):
    def crashing_worker(h):
        raise RuntimeError("injected crash")

    monkeypatch.setattr(password_mod, "run_worker", crashing_worker)
    rc = run_cli("run", "--case", "password", "--workers", "1", "--size", "50",
                 "--reps", "1", "--out", str(tmp_path), "--deadline-s", "3")
    assert rc == EXIT_INFRA


def test_aggregate_stats_match_profiler_oracle(tmp_path):
    out = tmp_path / "agg"
    rc = run_cli("run", "--case", "matmul", "--workers", "2", "--size", "6",
                 "--reps", "2", "--seed", "3", "--out", str(out), "--deadline-s", "60")
    assert rc == EXIT_OK
    assert run_cli("aggregate", str(out)) == EXIT_OK
    stats_path = out / "stats.csv"
    lines = stats_path.read_text().splitlines()
    assert lines[0].startswith("#")
    header = lines[1].split(",")
    assert header == ["case", "workers", "size", "strategy", "label", "n", "mean",
                      "stddev", "min", "max"]
    rows = [line.split(",") for line in lines[2:]]
    labels = {row[4] for row in rows}
    assert labels == set(ALL_LABELS)
    # oracle identity: the same dumps aggregated directly
    dumps = [out / n for n in os.listdir(out) if n.endswith(".csv") and "_rep" in n]
    direct = profiler.aggregate(dumps)
    by_label = {row[4]: row for row in rows}
    for label, stats in direct.items():
        row = by_label[label]
        assert int(row[5]) == stats.n
        assert float(row[6]) == pytest.approx(stats.mean, rel=1e-12)
        assert float(row[7]) == pytest.approx(stats.stddev, rel=1e-12)
    # byte for byte what the hand-joined writer that write_stats replaced wrote
    expected = (profiler.STATS_COMMENT + "\n"
                "case,workers,size,strategy,label,n,mean,stddev,min,max\n" +
                "".join(f"matmul,2,6,sequential,{s.label},{s.n},{s.mean!r},{s.stddev!r},"
                        f"{s.min!r},{s.max!r}\n" for _, s in sorted(direct.items())))
    assert stats_path.read_text() == expected


# Written by the hand-joined aggregate writer for _write_aggregate_fixture.
GOLDEN_STATS = (
    "# stddev is the sample standard deviation (n-1 denominator)\n"
    "case,workers,size,strategy,label,n,mean,stddev,min,max\n"
    "matmul,2,6,success_factor,Master::TotalRuntime,1,123456789.0,0.0,123456789.0,123456789.0\n"
    "matmul,2,6,success_factor,nodeVisited,2,27.0,0.0,27.0,27.0\n"
    "matmul,2,6,success_factor,read::local,3,1.6666666666666667,0.5773502691896257,1.0,2.0\n"
    "password,1,100,sequential,write::local,3,5.666666666666667,3.7859388972001824,3.0,10.0\n"
)


def _write_aggregate_fixture(directory):
    """Two run groups, hand-written manifests and dumps."""
    groups = [
        ("k1", "matmul", 2, 6, "success_factor",
         {"r0.csv": [("read::local", "interval", 1), ("read::local", "interval", 2),
                     ("nodeVisited", "counter", 27)],
          "r1.csv": [("read::local", "interval", 2), ("nodeVisited", "counter", 27),
                     ("Master::TotalRuntime", "interval", 123456789)]}),
        ("k2", "password", 1, 100, "sequential",
         {"p0.csv": [("write::local", "interval", 10), ("write::local", "interval", 3),
                     ("write::local", "interval", 4)]}),
    ]
    for key, case, workers, size, strategy, dumps in groups:
        for name, rows in dumps.items():
            with open(os.path.join(directory, name), "w") as fh:
                fh.write(",".join(profiler.DUMP_HEADER) + "\n")
                for label, kind, value in rows:
                    fh.write(f"{label},{kind},{value},p,t,0\n")
        with open(os.path.join(directory, f"manifest_{key}.txt"), "w") as fh:
            fh.write(f"run_key={key}\ncase={case}\nworkers={workers}\nsize={size}\n"
                     f"strategy={strategy}\nrep0.dumps={';'.join(dumps)}\n")


def test_aggregate_groups_golden(tmp_path):
    _write_aggregate_fixture(tmp_path)
    assert run_cli("aggregate", str(tmp_path)) == EXIT_OK
    assert (tmp_path / "stats.csv").read_text() == GOLDEN_STATS


def test_aggregate_empty_dir(tmp_path, capsys):
    rc = run_cli("aggregate", str(tmp_path))
    assert rc == EXIT_FAILURE
    assert "no dumps found" in capsys.readouterr().err


def test_compare_identical_dirs_ratio_one(tmp_path, capsys):
    out = tmp_path / "c"
    run_cli("run", "--case", "password", "--workers", "1", "--size", "100",
            "--reps", "1", "--out", str(out), "--deadline-s", "60")
    rc = run_cli("compare", str(out), str(out), "--metric", "nodeVisited")
    assert rc == EXIT_OK
    assert "ratio A/B: 1.0000" in capsys.readouterr().out


def test_compare_unknown_metric(tmp_path):
    out = tmp_path / "c2"
    run_cli("run", "--case", "password", "--workers", "1", "--size", "100",
            "--reps", "1", "--out", str(out), "--deadline-s", "60")
    assert run_cli("compare", str(out), str(out), "--metric", "bogus") == EXIT_FAILURE


def test_compare_trend_directions(tmp_path, capsys):
    """Deterministic matmul pair: uniform (A) visits more than b_on_one (B)."""
    a_dir = tmp_path / "uniform"
    b_dir = tmp_path / "onone"
    for d, dist in ((a_dir, "uniform"), (b_dir, "b_on_one")):
        rc = run_cli("run", "--case", "matmul", "--workers", "3", "--size", "9",
                     "--strategy", "success_factor", "--distribution", dist,
                     "--reps", "1", "--seed", "5", "--out", str(d), "--deadline-s", "60")
        assert rc == EXIT_OK
    rc = run_cli("compare", str(a_dir), str(b_dir), "--metric", "nodeVisited")
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    ratio = float(out.strip().rsplit(" ", 1)[-1])
    assert ratio > 1.0


def test_reproducibility_threads_mode(tmp_path):
    """Identical flags + seed => identical digests and visited totals."""
    flags = ["run", "--case", "matmul", "--workers", "3", "--size", "9",
             "--strategy", "success_factor", "--reps", "2", "--seed", "21",
             "--deadline-s", "60"]
    m = []
    for d in ("r1", "r2"):
        out = tmp_path / d
        assert run_cli(*flags, "--out", str(out)) == EXIT_OK
        m.append(manifest_of(out))
    for rep in range(2):
        assert m[0][f"rep{rep}.digest"] == m[1][f"rep{rep}.digest"]
        assert m[0][f"rep{rep}.node_visited"] == m[1][f"rep{rep}.node_visited"]


def test_procs_and_threads_same_digests(tmp_path):
    base = find_free_base_port(3)
    seed = 31
    rt = run_benchmark(BenchConfig(case="password", workers=2, size=300, reps=1,
                                   seed=seed, deadline=60), tmp_path / "t")
    rp = run_benchmark(BenchConfig(case="password", workers=2, size=300, reps=1,
                                   seed=seed, deadline=60, mode="procs",
                                   base_port=base), tmp_path / "p")
    t_res, p_res = rt[0][0], rp[0][0]
    assert t_res.correct and p_res.correct, (t_res.error, p_res.error)
    assert t_res.digest == p_res.digest


def test_procs_consecutive_reps_share_ports(tmp_path):
    """TIME_WAIT leftovers from one rep must not fail the next rep's preflight."""
    base = find_free_base_port(3)
    cfg = BenchConfig(case="password", workers=2, size=60, reps=3, seed=0,
                      deadline=40, mode="procs", base_port=base)
    results, _, _ = run_benchmark(cfg, tmp_path / "multi")
    assert [r.correct for r in results] == [True, True, True], \
        [r.error for r in results]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_no_fd_leak_across_reps(tmp_path):
    def fd_count():
        return len(os.listdir("/proc/self/fd"))

    cfg = BenchConfig(case="password", workers=3, size=40, reps=1, seed=0, deadline=30)
    run_benchmark(cfg, tmp_path / "warm")  # settle imports and thread machinery
    before = fd_count()
    for i in range(8):
        run_benchmark(BenchConfig(case="password", workers=3, size=40, reps=1,
                                  seed=i, deadline=30), tmp_path / "fd")
    assert fd_count() <= before + 4  # connections and listeners all released


def test_procs_port_collision_is_infra_failure(tmp_path):
    base = find_free_base_port(3)
    blocker = socket.socket()
    blocker.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    blocker.bind(("127.0.0.1", base + 1))  # worker0's port: preflight must fail
    blocker.listen(1)
    try:
        rc = run_cli("run", "--case", "password", "--workers", "2", "--size", "100",
                     "--reps", "1", "--mode", "procs", "--base-port", str(base),
                     "--out", str(tmp_path / "x"), "--deadline-s", "20")
        assert rc == EXIT_INFRA
    finally:
        blocker.close()


def test_hosts_mode_round_trip(tmp_path):
    """The CLI spawns the master; workers join via run-role from the config file."""
    workers = 2
    base = find_free_base_port(workers + 1)
    hosts_path = tmp_path / "hosts.txt"
    lines = [f"master 127.0.0.1:{base}"]
    lines += [f"worker{k} 127.0.0.1:{base + 1 + k}" for k in range(workers)]
    hosts_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "hosts_out"
    out.mkdir()

    def launch_workers():
        deadline = time.time() + 15
        config_path = None
        while time.time() < deadline and config_path is None:
            found = [n for n in os.listdir(out) if n.endswith("_roles.json")]
            if found:
                config_path = os.path.join(out, found[0])
            else:
                time.sleep(0.05)
        assert config_path is not None
        env = os.environ.copy()  # the children import the package this test imports
        src_root = os.path.dirname(os.path.dirname(os.path.abspath(tuplespaces.__file__)))
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        procs = [subprocess.Popen([sys.executable, "-m", "tuplespaces", "run-role",
                                   "--config", config_path, "--role", "worker",
                                   "--index", str(k)], env=env)
                 for k in range(workers)]
        for p in procs:
            p.wait(timeout=60)

    helper = threading.Thread(target=launch_workers)
    helper.start()
    rc = run_cli("run", "--case", "password", "--workers", str(workers), "--size", "200",
                 "--reps", "1", "--seed", "2", "--mode", "hosts",
                 "--hosts", str(hosts_path), "--out", str(out), "--deadline-s", "60")
    helper.join(90)
    assert rc == EXIT_OK
    manifest = manifest_of(out)
    assert manifest["rep0.correct"] == "true"
    assert manifest["mode"] == "hosts"


def test_hosts_mode_mute_worker_hits_deadline(tmp_path, monkeypatch):
    """A worker host that joins the barriers and then never replies fails the
    rep with exit 3 once deadline + JOIN_GRACE is up."""
    base = find_free_base_port(2)
    hosts_path = tmp_path / "hosts.txt"
    hosts_path.write_text(f"master 127.0.0.1:{base}\nworker0 127.0.0.1:{base + 1}\n")
    out = tmp_path / "mute_out"
    deadline, grace = 2.0, 1.0
    monkeypatch.setattr(runner, "JOIN_GRACE", grace)

    def read_forever(conn, reader):
        while conn.recv(65536):
            pass

    outcome = {}

    def run():
        # matmul's master first sends worker0 a B row: a remote out that never returns
        outcome["rc"] = run_cli("run", "--case", "matmul", "--workers", "1", "--size", "4",
                                "--reps", "1", "--mode", "hosts", "--hosts", str(hosts_path),
                                "--out", str(out), "--deadline-s", str(deadline))

    with raw_listener(read_forever, port=base + 1):
        started = time.monotonic()
        cli = threading.Thread(target=run, daemon=True)
        cli.start()
        master = RemoteSpace.connect(NodeAddress("127.0.0.1", base, "master"), "worker0",
                                     attempts=50)
        try:
            master.out(make_tuple(SEARCH_GROUP, WORKER_FIELD, READY_STATUS))
            master.out(make_tuple(SEARCH_GROUP, WORKER_FIELD, LOADED_STATUS))
            cli.join(deadline + grace + 15)
        finally:
            master.close()
    elapsed = time.monotonic() - started
    assert not cli.is_alive(), "hosts rep still running past deadline + grace"
    assert outcome["rc"] == EXIT_INFRA
    assert elapsed < deadline + grace + 5
    assert "deadline exceeded" in manifest_of(out)["rep0.error"]


def test_hosts_mode_master_port_taken_quotes_its_stderr(tmp_path):
    """A master that cannot bind fails the rep with the last line of its
    stderr, which stays whole in the role's .err file."""
    base = find_free_base_port(2)
    hosts_path = tmp_path / "hosts.txt"
    hosts_path.write_text(f"master 127.0.0.1:{base}\nworker0 127.0.0.1:{base + 1}\n")
    out = tmp_path / "taken_out"
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", base))
    blocker.listen(1)
    try:
        rc = run_cli("run", "--case", "password", "--workers", "1", "--size", "10",
                     "--reps", "1", "--mode", "hosts", "--hosts", str(hosts_path),
                     "--out", str(out), "--deadline-s", "20")
    finally:
        blocker.close()
    assert rc == EXIT_INFRA
    error = manifest_of(out)["rep0.error"]
    assert error.startswith("master wrote no result: role master failed: cannot bind"), error
    [err_file] = [n for n in os.listdir(out) if n.endswith("_rep0_master.err")]
    assert "Traceback (most recent call last):" in (out / err_file).read_text()


def test_procs_worker_failure_quotes_its_stderr(tmp_path, monkeypatch):
    base = find_free_base_port(2)
    monkeypatch.setattr(runner, "check_ports_free", lambda addresses: None)
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", base + 1))  # worker0 cannot bind
    blocker.listen(1)
    out = tmp_path / "worker_out"
    try:
        rc = run_cli("run", "--case", "password", "--workers", "1", "--size", "10",
                     "--reps", "1", "--mode", "procs", "--base-port", str(base),
                     "--out", str(out), "--deadline-s", "20")
    finally:
        blocker.close()
    assert rc == EXIT_INFRA
    error = manifest_of(out)["rep0.error"]
    assert error.startswith("worker0 exited with code 3: role worker0 failed: cannot bind"), error


def test_manifest_keeps_multiline_error(tmp_path):
    cfg = BenchConfig(case="password", workers=1, size=10, reps=1)
    error = "master wrote no result: Traceback (most recent call last):\n  x\\n\r\nOSError: taken"
    path = tmp_path / "m.txt"
    write_manifest(path, cfg, "k", [CaseResult(correct=False, error=error)], tmp_path)
    assert len(path.read_text().splitlines()) == 20  # 14 run lines + 6 for the rep
    assert parse_manifest(path)["rep0.error"] == error


def test_hosts_file_parsing(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("# comment\nmaster 10.0.0.1:7000\nworker0 10.0.0.2:7001\n")
    hosts = parse_hosts_file(path)
    assert [(h.name, h.host, h.port) for h in hosts] == [
        ("master", "10.0.0.1", 7000), ("worker0", "10.0.0.2", 7001)]
    for bad in ("bad-line-without-port", "master 127.0.0.1:70000", "master 127.0.0.1:0"):
        path.write_text(bad + "\n")
        with pytest.raises(ValueError):
            parse_hosts_file(path)


def test_hosts_count_mismatch_is_usage_error(tmp_path, capsys):
    hosts = tmp_path / "h.txt"
    hosts.write_text("master 127.0.0.1:7000\nworker0 127.0.0.1:7001\n")
    rc = run_cli("run", "--case", "password", "--workers", "3", "--size", "10",
                 "--mode", "hosts", "--hosts", str(hosts), "--out", str(tmp_path))
    assert rc == EXIT_USAGE
    assert "hosts file must list 4 roles" in capsys.readouterr().err


def test_run_role_bad_config(tmp_path):
    bad = tmp_path / "nope.json"
    assert run_cli("run-role", "--config", str(bad), "--role", "worker") == EXIT_USAGE
    for text in ("{not json", "{}"):
        bad.write_text(text)
        assert run_cli("run-role", "--config", str(bad), "--role", "worker") == EXIT_USAGE


def test_no_command_prints_usage(capsys):
    assert run_cli() == EXIT_USAGE
    assert "usage" in capsys.readouterr().err.lower()
