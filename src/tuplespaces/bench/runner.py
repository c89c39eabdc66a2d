"""Benchmark orchestration: topologies, repetitions, dumps and manifests.

Three topologies:

* threads -- every role is a thread of this process, each with its own local
  space served on a loopback port; cross-role traffic still flows through
  TCP, so the communication structure matches the multi-process layouts.
  A threads-mode rep runs on one CPU: the runner thread narrows its own
  affinity mask to the lowest CPU it may use before any server starts, every
  thread of the rep inherits that mask, and the old mask comes back when the
  rep ends, even when it fails.  The interpreter runs one thread at a time
  anyway; spread over several CPUs, each GIL hand-off of a round trip
  (requester to server thread and back) becomes a cross-CPU wake-up, which
  one CPU avoids at the price of a wider per-rep spread and round-trip tail.
  Procs and hosts roles are separate processes and keep the whole machine.
* procs   -- every role is a spawned local process (`run-role` entry point);
  roles find each other through pre-assigned ports.
* hosts   -- addresses come from a hosts file (master first); this process
  spawns only the master, and the workers are started elsewhere with
  `run-role`.  Both modes spawn and watch their roles in `run_rep_procs`.

Roles are known by position: role 0 is the master, role k + 1 is worker k.
Every topology runs role i through one function, `_connect_and_run`, which
connects it to every other role (the master first, then the workers by
index) and runs its part of the case.  Procs and hosts roles name their dump
files by position too (`role_file`), and so do the stderr files that
`run_rep_procs` gives the roles it spawns.

One repetition = fresh spaces, fresh connections, fresh profiler state.  The
rep seed is seed + rep_index, so repetitions have fresh inputs that remain
reproducible.  Every rep writes its dump file(s) and the whole run writes a
key=value manifest used by `aggregate` and `compare`.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import socket
import subprocess
import sys
import threading
import time

from .. import profiler
from ..client import NodeAddress, RemoteSpace
from ..errors import AddressInUse, TupleSpaceError
from ..labels import NODE_VISITED
from ..search import PeerDirectory, SuccessStats
from ..server import SpaceServer
from ..store import LocalSpace
from ..tuples import make_tuple, template
from .config import BenchConfig, CaseResult, SHUTDOWN_NAME
from .roles import RoleHandles
from . import matmul, ocean, password, sorting

CASE_MODULES = {
    "password": password,
    "sort": sorting,
    "ocean": ocean,
    "matmul": matmul,
}

JOIN_GRACE = 10.0  # seconds past the rep deadline before giving up on roles
PROC_CONNECT_ATTEMPTS = 25  # procs start unordered; 25 x 200 ms window

_run_numbers = itertools.count(1)


def new_run_key(seed: int) -> str:
    return f"{time.strftime('%Y%m%d%H%M%S')}-s{seed}-p{os.getpid()}-{next(_run_numbers)}"


def role_name(i: int) -> str:
    """Role i is the master for i == 0 and worker i - 1 otherwise."""
    return "master" if i == 0 else f"worker{i - 1}"


def role_file(out_dir, run_key: str, rep_index: int, i: int, ext: str) -> str:
    """Role i's file of this rep: its dump ("csv") or its stderr ("err")."""
    return os.path.join(out_dir, f"{run_key}_rep{rep_index}_{role_name(i)}.{ext}")



def role_names(workers: int) -> list[str]:
    return [role_name(i) for i in range(workers + 1)]


def check_ports_free(addresses: list[NodeAddress]) -> None:
    for addr in addresses:
        s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        # SO_REUSEADDR mirrors the servers' bind semantics, so TIME_WAIT
        # leftovers from the previous repetition do not trip the check.
        s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            s.bind((addr.host, addr.port))
        except OSError as e:
            raise AddressInUse(f"port {addr.port} for {addr.name} is taken: {e}") from None
        finally:
            s.close()


def planned_addresses(cfg: BenchConfig) -> list[NodeAddress]:
    """Addresses for procs/hosts topologies (threads mode assigns live ports)."""
    names = role_names(cfg.workers)
    if cfg.mode == "hosts":
        return [NodeAddress(h.host, h.port, names[i]) for i, h in enumerate(cfg.hosts)]
    return [NodeAddress("127.0.0.1", cfg.base_port + i, names[i]) for i in range(len(names))]


def node_visited_from_dumps(paths) -> int:
    total = 0
    for path in paths:
        for record in profiler.parse_dump(path):
            if record.kind == profiler.KIND_COUNTER and record.label == NODE_VISITED:
                total += record.value
    return total


# -- one role, any topology ------------------------------------------------------

def _handles(cfg: BenchConfig, i: int, rep_index: int, run_key: str, space: LocalSpace,
             deadline_at: float) -> RoleHandles:
    """Role i's handles, connected to nobody yet."""
    return RoleHandles(cfg, role_name(i), (cfg.seed + rep_index) & ((1 << 64) - 1), run_key,
                       space, deadline_at, worker_id=i - 1 if i else None)


def _connect_and_run(h: RoleHandles, i: int, addresses):
    """Connect role i to every other role, master first, then run its part of
    the case; returns what the master returns.  Each connection joins h as it
    opens, so the caller's h.close_remotes() also closes those of a role whose
    later connect failed."""
    for j, addr in enumerate(addresses):
        if j != i:
            remote = RemoteSpace.connect(addr, h.role_name, attempts=PROC_CONNECT_ATTEMPTS)
            if j == 0:
                h.master = remote
            else:
                h.worker_remotes[j - 1] = remote
    case = CASE_MODULES[h.cfg.case]  # run_master/run_worker read at call time: tests patch them
    if i == 0:
        return case.run_master(h)
    h.directory = PeerDirectory(h.local, list(h.worker_remotes.values()))
    h.stats = SuccessStats()
    return case.run_worker(h)


# -- threads topology -----------------------------------------------------------

def run_rep_threads(cfg: BenchConfig, rep_index: int, run_key: str, dump_path) -> CaseResult:
    if not hasattr(os, "sched_setaffinity"):
        return _run_rep_threads(cfg, rep_index, run_key, dump_path)
    # Every thread the rep starts inherits this mask (see the module docstring).
    saved_cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(saved_cpus)})
    try:
        return _run_rep_threads(cfg, rep_index, run_key, dump_path)
    finally:
        os.sched_setaffinity(0, saved_cpus)


def _run_rep_threads(cfg: BenchConfig, rep_index: int, run_key: str, dump_path) -> CaseResult:
    names = role_names(cfg.workers)
    started = time.monotonic()
    deadline_at = started + cfg.deadline
    profiler.reset()
    profiler.set_process("main")

    spaces = [LocalSpace(n) for n in names]
    servers = []
    try:
        for i, name in enumerate(names):
            port = cfg.base_port + i if cfg.base_port else 0
            servers.append(SpaceServer(spaces[i], "127.0.0.1", port, name).start())
    except AddressInUse:
        for srv in servers:
            srv.stop()
        raise
    addresses = [NodeAddress("127.0.0.1", srv.port, names[i]) for i, srv in enumerate(servers)]

    outcome: dict = {}
    failures: dict[str, BaseException] = {}

    def body(i: int):
        h = _handles(cfg, i, rep_index, run_key, spaces[i], deadline_at)
        try:
            outcome[i] = _connect_and_run(h, i, addresses)
        except BaseException as e:  # deliberate: any role failure fails the rep
            failures[names[i]] = e
        finally:
            h.close_remotes()

    threads = [threading.Thread(target=body, args=(i,), name=name, daemon=True)
               for i, name in enumerate(names)]
    for t in threads:
        t.start()
    stuck = False
    for t in threads:
        left = deadline_at + JOIN_GRACE - time.monotonic()
        t.join(max(left, 0.1))
        if t.is_alive():
            stuck = True
    for srv in servers:
        srv.stop()  # unblocks any role still parked on a remote op
    if stuck:
        for t in threads:
            t.join(2.0)

    # The counters are still in memory here: no need to parse the dump back.
    node_visited = profiler.counter_total(NODE_VISITED)
    profiler.dump(dump_path)
    elapsed = time.monotonic() - started

    result = outcome.get(0)
    if stuck:
        result = CaseResult(correct=False, error="repetition deadline exceeded (roles stuck)")
    elif failures:
        parts = "; ".join(f"{who}: {type(e).__name__}: {e}" for who, e in sorted(failures.items()))
        result = CaseResult(correct=False, error=f"role failure: {parts}")
    elif result is None:
        result = CaseResult(correct=False, error="master produced no result")
    result.elapsed = elapsed
    result.dump_paths = [str(dump_path)]
    result.node_visited_total = node_visited
    return result


# -- procs and hosts topologies ---------------------------------------------------

def run_role_inline(cfg: BenchConfig, i: int, addresses, rep_index: int, run_key: str,
                    out_dir):
    """Run role i to completion in this process and dump its records to
    role_file(); returns the master's result.

    Only the `run-role` subcommand calls this: the roles that run_rep_procs
    spawns and the hosts-mode workers started on their own hosts.
    """
    name = role_name(i)
    threading.current_thread().name = name
    profiler.reset()
    profiler.set_process(name)
    deadline_at = time.monotonic() + cfg.deadline

    space = LocalSpace(name)
    server = SpaceServer(space, addresses[i].host, addresses[i].port, name).start()
    h = _handles(cfg, i, rep_index, run_key, space, deadline_at)
    try:
        result = _connect_and_run(h, i, addresses)
        if i == 0:
            for remote in h.worker_remotes.values():
                try:
                    remote.out(make_tuple(SHUTDOWN_NAME))
                except TupleSpaceError:
                    pass  # a dead worker cannot be told to stop
        else:
            space.in_(template(SHUTDOWN_NAME), timeout=max(deadline_at - time.monotonic(), 0.1))
    finally:
        h.close_remotes()
        profiler.dump(role_file(out_dir, run_key, rep_index, i, "csv"))
        server.stop()
    return result


def run_rep_procs(cfg: BenchConfig, rep_index: int, run_key: str, out_dir) -> CaseResult:
    """One procs or hosts rep: spawn the roles this machine runs (all of
    them in procs mode, the master alone in hosts mode) and watch them."""
    addresses = planned_addresses(cfg)
    if cfg.mode == "procs":
        check_ports_free(addresses)  # a hosts file may name remote addresses
    started = time.monotonic()

    result_path = os.path.join(out_dir, f"{run_key}_rep{rep_index}_result.json")
    config_path = write_role_config(cfg, addresses, rep_index, run_key, out_dir, result_path)

    env = os.environ.copy()
    pkg_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")

    def spawn(i: int) -> subprocess.Popen:
        role, index = ("master", 0) if i == 0 else ("worker", i - 1)
        argv = [sys.executable, "-m", "tuplespaces", "run-role",
                "--config", config_path, "--role", role, "--index", str(index)]
        with open(role_file(out_dir, run_key, rep_index, i, "err"), "wb") as err:
            return subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)

    def last_stderr_line(i: int) -> str:
        with open(role_file(out_dir, run_key, rep_index, i, "err"), encoding="utf-8",
                  errors="replace") as fh:
            return fh.read().rstrip().rpartition("\n")[2]

    procs = [spawn(i) for i in range(len(addresses) if cfg.mode == "procs" else 1)]

    deadline_at = started + cfg.deadline + JOIN_GRACE
    error = None
    while procs[0].poll() is None:
        for i, p in enumerate(procs[1:], 1):
            rc = p.poll()
            if rc is not None and rc != 0:
                error = f"{role_name(i)} exited with code {rc}: {last_stderr_line(i)}"
                break
        if error or time.monotonic() > deadline_at:
            error = error or "repetition deadline exceeded"
            break
        time.sleep(0.05)

    if error:
        for p in procs:
            if p.poll() is None:
                p.terminate()
    for p in procs:
        try:
            p.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()

    dump_paths = [path for path in (role_file(out_dir, run_key, rep_index, i, "csv")
                                    for i in range(len(procs))) if os.path.exists(path)]
    result = CaseResult(correct=False, error=error)
    if error is None and os.path.exists(result_path):
        with open(result_path, encoding="utf-8") as fh:
            data = json.load(fh)
        result = CaseResult(correct=data["correct"], digest=data["digest"],
                            detail=data["detail"], error=data.get("error"))
    elif error is None:
        result = CaseResult(correct=False,
                            error=f"master wrote no result: {last_stderr_line(0)}")
    result.elapsed = time.monotonic() - started
    result.dump_paths = dump_paths
    result.node_visited_total = node_visited_from_dumps(dump_paths)
    return result


def write_role_config(cfg: BenchConfig, addresses, rep_index: int, run_key: str,
                      out_dir, result_path) -> str:
    """The JSON a `run-role` invocation needs to join this repetition."""
    path = os.path.join(out_dir, f"{run_key}_rep{rep_index}_roles.json")
    payload = {
        "config": dict(cfg.__dict__) | {"hosts": None},
        "addresses": [{"host": a.host, "port": a.port, "name": a.name} for a in addresses],
        "rep_index": rep_index,
        "run_key": run_key,
        "out_dir": str(out_dir),
        "result_path": result_path,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


# -- whole runs --------------------------------------------------------------------

def run_benchmark(cfg: BenchConfig, out_dir, run_key: str | None = None):
    """Run cfg.reps repetitions; returns (results, manifest_path, run_key)."""
    os.makedirs(out_dir, exist_ok=True)
    run_key = run_key or new_run_key(cfg.seed)
    results: list[CaseResult] = []
    for rep in range(cfg.reps):
        if cfg.mode == "threads":
            dump_path = os.path.join(out_dir, f"{run_key}_rep{rep}.csv")
            results.append(run_rep_threads(cfg, rep, run_key, dump_path))
        else:
            results.append(run_rep_procs(cfg, rep, run_key, out_dir))
    manifest_path = os.path.join(out_dir, f"manifest_{run_key}.txt")
    write_manifest(manifest_path, cfg, run_key, results, out_dir)
    return results, manifest_path, run_key


_MANIFEST_ESCAPES = str.maketrans({"\\": "\\\\", "\n": "\\n", "\r": "\\r"})
_MANIFEST_UNESCAPES = {"n": "\n", "r": "\r"}


def write_manifest(path, cfg: BenchConfig, run_key: str, results, out_dir) -> None:
    """One key=value line per field; backslash escapes keep a multi-line
    value (a role's traceback in a rep error) on its line."""
    fields = [
        ("run_key", run_key),
        ("case", cfg.case),
        ("workers", cfg.workers),
        ("size", cfg.size),
        ("strategy", cfg.strategy),
        ("distribution", cfg.distribution),
        ("reps", cfg.reps),
        ("seed", cfg.seed),
        ("threshold", cfg.sort_threshold),
        ("iters", cfg.ocean_iters),
        ("mode", cfg.mode),
        ("base_port", cfg.base_port),
        ("poll_interval_ms", f"{cfg.poll_interval * 1000:g}"),
        ("deadline_s", f"{cfg.deadline:g}"),
    ]
    for i, r in enumerate(results):
        rel = [os.path.relpath(p, out_dir) for p in r.dump_paths]
        fields.append((f"rep{i}.dumps", ";".join(rel)))
        fields.append((f"rep{i}.correct", "true" if r.correct else "false"))
        fields.append((f"rep{i}.digest", r.digest))
        fields.append((f"rep{i}.node_visited", r.node_visited_total))
        fields.append((f"rep{i}.elapsed_s", f"{r.elapsed:.3f}"))
        if r.error:
            fields.append((f"rep{i}.error", r.error))
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{key}={str(value).translate(_MANIFEST_ESCAPES)}\n"
                      for key, value in fields)


def parse_manifest(path) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and "=" in line:
                key, value = line.split("=", 1)
                out[key] = re.sub(r"\\(.)", lambda m: _MANIFEST_UNESCAPES.get(m[1], m[1]), value)
    return out


def parse_hosts_file(path) -> list[NodeAddress]:
    """Lines of `name host:port`, master first, one per role."""
    hosts = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            name, _, addr = line.partition(" ")
            host, _, port = addr.strip().rpartition(":")
            if not name or not host or not port.isdigit() or not 0 < int(port) <= 65535:
                raise ValueError(f"bad hosts line: {raw.rstrip()}")
            hosts.append(NodeAddress(host, int(port), name))
    return hosts
