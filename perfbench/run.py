"""Benchmark entry point: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  Every workload runs in fresh child processes (`session.py`):

* --trace 0: one untraced session of T seconds.  Prints the end-to-end
  metrics: medians over the reps of Master::TotalRuntime, set-up time (rep
  start, before the servers bind, to the start of TotalRuntime) and process
  CPU per rep, and the peak RSS of the session process over its first four
  reps.  The RSS is read after a fixed number of reps because every rep's
  spaces stay reachable from the accept threads `SpaceServer.stop()` leaves
  behind, so the peak of a timed session would grow with the rep count, i.e.
  with speed; `bench.rss_growth_mb_per_rep` reports that retention.  Four
  reps, not one, because sort's single-rep peak is bimodal (~103 or ~126
  MB, depending on which pieces coexist).
* --trace 1: an untraced session of T/2 seconds, then a traced one of T/2
  seconds.  Prints the per-layer metrics; `profiler.*` and `bench.idle_share`
  come from the untraced session, `bench.trace_overhead` compares the two.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` (reps) and `metrics`.  The lines before it list every
metric with its unit, plus `failed_rep_ratio`.  Each run also writes a run
record with the per-rep raw values to `.perfbench_out/`, so later runs can be
paired rep by rep.  Exit code: 0 when every rep passed its oracle, 1 when any
rep failed, 2 when the checkout or a session is unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SESSION = Path(__file__).resolve().parent / "session.py"
TIME_LIMIT_S = 170.0  # the whole run, sessions included

END_TO_END = {
    "total_runtime_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# Per-rep counts and sums (median over traced reps) and their units.
LAYER_UNITS = {
    "tuples.match_calls": "count",
    "store.matches_per_probe": "count",
    "store.probe_calls": "count",
    "store.probe_hit_ratio": "ratio",
    "store.probe_busy_s": "s",
    "store.probe_busy_s.role": "s",
    "store.probe_busy_s.server": "s",
    "store.out_calls": "count",
    "store.out_busy_s": "s",
    "store.out_busy_s.role": "s",
    "store.out_busy_s.server": "s",
    "store.waiters_registered": "count",
    "store.waiters_parked": "count",
    "store.waiters_cancelled": "count",
    "store.waiters_pending_max": "count",
    "store.tuples_end": "count",
    "wire.encode_calls": "count",
    "wire.decode_calls": "count",
    "wire.encode_busy_s": "s",
    "wire.encode_busy_s.role": "s",
    "wire.encode_busy_s.server": "s",
    "wire.decode_busy_s": "s",
    "wire.decode_busy_s.role": "s",
    "wire.decode_busy_s.server": "s",
    "wire.bytes_encoded": "bytes",
    "wire.bytes_decoded": "bytes",
    "client.requests": "count",
    "client.failures": "count",
    "client.connects": "count",
    "client.connect_busy_s": "s",
    "server.service_busy_s": "s",
    "server.wait_share": "ratio",
    "server.threads_peak": "count",
    "server.threads_leaked": "count",
    "search.lookups": "count",
    "search.visited_per_lookup": "count",
    "search.rounds_per_lookup": "count",
    "search.self_s": "s",
    "search.node_visited": "count",
}

# Pooled over every traced rep.
PERCENTILE_UNITS = {
    "store.probe_p50_us": "us",
    "store.probe_p99_us": "us",
    "store.out_p50_us": "us",
    "client.rtt_p50_us": "us",
    "client.rtt_p99_us": "us",
    "client.blocking_p50_ms": "ms",
    "search.lookup_p50_ms": "ms",
    "search.lookup_p99_ms": "ms",
}

# From the untraced session of a --trace 1 run.  bench.idle_share is
# 1 - CPU / wall per rep; it goes negative when threads overlap on both cores.
UNTRACED_UNITS = {
    "profiler.write_local_mean_us": "us",
    "profiler.read_local_mean_us": "us",
    "profiler.write_remote_mean_us": "us",
    "profiler.read_remote_mean_us": "us",
    "profiler.lookup_mean_us": "us",
    "bench.idle_share": "ratio",
    "bench.rss_growth_mb_per_rep": "MB",
    "bench.trace_overhead": "ratio",
}

PER_LAYER = LAYER_UNITS | PERCENTILE_UNITS | UNTRACED_UNITS


class SessionError(Exception):
    pass


def run_session(workload: str, seed: int, seconds: float, traced: bool, tiny: bool,
                deadline: float) -> dict:
    """Run session.py in a fresh process and return its result record."""
    out = OUT_DIR / f"{workload}-{'traced' if traced else 'untraced'}.json"
    if out.exists():
        out.unlink()
    argv = [sys.executable, str(SESSION), "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", "1" if traced else "0", "--out", str(out)]
    if tiny:
        argv.append("--tiny")
    try:
        # Session output goes to stderr: stdout's last line is the result.
        proc = subprocess.run(argv, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=sys.stderr,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise SessionError(f"{workload} session exceeded the time limit") from None
    if proc.returncode != 0 or not out.exists():
        raise SessionError(f"{workload} session exited with code {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def median_of(reps, key: str) -> float:
    values = [r[key] for r in reps if r["ok"]]
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(session: dict) -> dict[str, float]:
    return {
        "total_runtime_s": median_of(session["reps"], "total_runtime_s"),
        "setup_s": median_of(session["reps"], "setup_s"),
        "cpu_s": median_of(session["reps"], "cpu_s"),
        "peak_rss_mb": session["reps"][min(workloads.MIN_REPS, len(session["reps"])) - 1]["maxrss_mb"],
    }


def per_layer_metrics(untraced: dict, traced: dict) -> dict[str, float]:
    ok_traced = [r for r in traced["reps"] if r["ok"]]
    metrics = {name: (statistics.median(r["layers"][name] for r in ok_traced)
                      if ok_traced else 0.0)
               for name in LAYER_UNITS}
    metrics.update(traced["percentiles"])
    ok_untraced = [r for r in untraced["reps"] if r["ok"]]
    for name in UNTRACED_UNITS:
        if name.startswith("profiler."):
            metrics[name] = (statistics.median(r["labels_mean_us"][name] for r in ok_untraced)
                             if ok_untraced else 0.0)
    metrics["bench.idle_share"] = (
        statistics.median(1.0 - r["cpu_s"] / r["wall_s"] for r in ok_untraced)
        if ok_untraced else 0.0)
    reps = untraced["reps"]
    metrics["bench.rss_growth_mb_per_rep"] = (
        (reps[-1]["maxrss_mb"] - reps[0]["maxrss_mb"]) / (len(reps) - 1) if len(reps) > 1 else 0.0)
    base = median_of(reps, "total_runtime_s")
    metrics["bench.trace_overhead"] = (
        median_of(traced["reps"], "total_runtime_s") / base - 1.0 if base else 0.0)
    return metrics


def git_head() -> str:
    """HEAD of the checkout, or 'unknown' outside a git work tree of its own."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return "unknown"
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return head.stdout.strip() if head.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny input sizes (smoke test only)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "tuplespaces" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)
    load_before = os.getloadavg()[0]
    try:
        if args.trace:
            untraced = run_session(args.workload, args.seed, args.seconds / 2, False,
                                   args.tiny, deadline)
            traced = run_session(args.workload, args.seed, args.seconds / 2, True,
                                 args.tiny, deadline)
            sessions = [untraced, traced]
            metrics = per_layer_metrics(untraced, traced)
            units = PER_LAYER
            if not traced.get("restored"):
                raise SessionError("traced session did not restore every wrapped function")
        else:
            sessions = [run_session(args.workload, args.seed, args.seconds, False,
                                    args.tiny, deadline)]
            metrics = end_to_end_metrics(sessions[0])
            units = END_TO_END
    except SessionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    load_after = os.getloadavg()[0]

    reps = [r for s in sessions for r in s["reps"]]
    failed = [r for r in reps if not r["ok"]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_before": load_before,
        "loadavg_1m_after": load_after,
        "git_head": git_head(),
        "config": workloads.config_kwargs(args.workload, args.tiny),
        "metrics": metrics,
        "sessions": sessions,
    }
    suffix = "traced" if args.trace else "e2e"
    with open(OUT_DIR / f"record-{args.workload}-s{args.seed}-{suffix}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for f in failed:
        print(f"rep {f['rep']} FAILED: {f['error']}", file=sys.stderr)
    print("# " + " ".join(f"{k}={record[k]}" for k in (
        "workload", "seed", "trace", "python", "nproc", "loadavg_1m_before",
        "loadavg_1m_after", "git_head")))
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {units[name]}")
    print(f"{args.workload} failed_rep_ratio {len(failed) / len(reps):.6g} ratio")
    result = {
        "correct": not failed,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
