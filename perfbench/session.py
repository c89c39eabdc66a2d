"""One benchmark session in a fresh process: repetitions of one workload.

    python3 perfbench/session.py --workload NAME --seed N --seconds T
        --trace 0|1 --out RESULT.json [--tiny]

Runs repetitions through the package's own threads-mode runner
(`run_rep_threads`: fresh spaces, servers and connections per rep, rep seed
= seed + rep) until T seconds have passed and at least `workloads.MIN_REPS`
reps are done.  Every rep is checked against the case oracle and, where the
workload fixes it, against the exact first-round nodeVisited.  Thread counts
and the peak RSS are read only at rep boundaries: a sampling thread would
join the GIL handoffs being timed.

With --trace 1 the tracing wrappers are installed for the whole session and
removed before it ends; spans go to a CSV file next to RESULT.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import tuplespaces  # noqa: E402
from tuplespaces import profiler  # noqa: E402
from tuplespaces.bench import runner  # noqa: E402
from tuplespaces.bench.config import BenchConfig  # noqa: E402
from tuplespaces.labels import (  # noqa: E402
    NODE_VISITED,
    READ_LOCAL,
    READ_REMOTE,
    SEARCH,
    TOTAL_RUNTIME,
    WRITE_LOCAL,
    WRITE_REMOTE,
)

import workloads  # noqa: E402
from tracing import Tracer, pooled_percentiles, rep_layer_counts  # noqa: E402

REP_DEADLINE_S = 60.0  # a stuck rep fails well inside the benchmark's time limit

PROFILER_METRICS = {
    "profiler.write_local_mean_us": WRITE_LOCAL,
    "profiler.read_local_mean_us": READ_LOCAL,
    "profiler.write_remote_mean_us": WRITE_REMOTE,
    "profiler.read_remote_mean_us": READ_REMOTE,
    "profiler.lookup_mean_us": SEARCH,
}


def dump_summary(path) -> tuple[float | None, int, dict[str, float]]:
    """(TotalRuntime seconds, nodeVisited, per-label mean µs) of one rep's dump."""
    total_runtime = None
    node_visited = 0
    intervals: dict[str, list[int]] = {}
    for rec in profiler.parse_dump(path):
        if rec.kind == profiler.KIND_COUNTER:
            if rec.label == NODE_VISITED:
                node_visited += rec.value
        elif rec.label == TOTAL_RUNTIME:
            total_runtime = rec.value / 1e9
        else:
            intervals.setdefault(rec.label, []).append(rec.value)
    means = {name: (sum(intervals[label]) / len(intervals[label]) / 1e3 if intervals.get(label) else 0.0)
             for name, label in PROFILER_METRICS.items()}
    return total_runtime, node_visited, means


def run_session(name: str, seed: int, seconds: float, traced: bool, tiny: bool,
                out_path: Path) -> dict:
    kwargs = workloads.config_kwargs(name, tiny)
    cfg = BenchConfig(seed=seed, reps=1, deadline=REP_DEADLINE_S, **kwargs)
    errors = cfg.validation_errors()
    if errors:
        raise ValueError("; ".join(errors))
    expected_nv = workloads.expected_node_visited(kwargs)
    dump_path = out_path.with_suffix(".dump.csv")
    run_key = f"perfbench-{name}-s{seed}"

    # TotalRuntime begins inside master_barriers (its last step, publishing the
    # run key, is already timed), so its return marks the end of set-up.
    case_mod = runner.CASE_MODULES[cfg.case]
    barriers = case_mod.master_barriers
    marks: dict[str, float] = {}

    def marked_barriers(h):
        barriers(h)
        marks["timer_started"] = time.monotonic()

    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    restored = True
    case_mod.master_barriers = marked_barriers
    reps = []
    samples: dict[str, list[float]] = {}
    try:
        budget_end = time.monotonic() + seconds
        rep = 0
        while rep < workloads.MIN_REPS or time.monotonic() < budget_end:
            marks.clear()
            threads_before = threading.active_count()
            if tracer:
                tracer.start_rep()
                span_mark = len(tracer.spans)
                wait_mark = len(tracer.async_waits)
                matches_before = tracer.match_total()
            cpu0 = time.process_time()
            t0 = time.monotonic()
            result = runner.run_rep_threads(cfg, rep, run_key, dump_path)
            wall = time.monotonic() - t0
            cpu = time.process_time() - cpu0
            threads_after = threading.active_count()
            total_runtime, node_visited, label_means = dump_summary(dump_path)
            error = result.error
            if error is None and not result.correct:
                error = "oracle mismatch"
            if error is None and expected_nv is not None and node_visited != expected_nv:
                error = f"nodeVisited {node_visited} != expected {expected_nv}"
            if error is None and (total_runtime is None or "timer_started" not in marks):
                error = "no TotalRuntime interval in the dump"
            record = {
                "rep": rep,
                "rep_seed": (seed + rep) & ((1 << 64) - 1),
                "ok": error is None,
                "error": error,
                "digest": result.digest,
                "node_visited": node_visited,
                "total_runtime_s": total_runtime,
                "setup_s": marks["timer_started"] - t0 if "timer_started" in marks else None,
                "cpu_s": cpu,
                "wall_s": wall,
                "threads_leaked": threads_after - threads_before,
                "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "labels_mean_us": label_means,
            }
            if tracer:
                counts, rep_samples = rep_layer_counts(tracer.spans[span_mark:],
                                                       tracer.async_waits[wait_mark:])
                counts["tuples.match_calls"] = tracer.match_total() - matches_before
                counts["store.tuples_end"] = sum(s.size() for s in tracer.spaces.values())
                counts["server.threads_peak"] = max(tracer.threads_max() - threads_before, 0)
                counts["server.threads_leaked"] = record["threads_leaked"]
                counts["search.node_visited"] = node_visited
                record["layers"] = counts
                if error is None:
                    for key, values in rep_samples.items():
                        samples.setdefault(key, []).extend(values)
            reps.append(record)
            rep += 1
    finally:
        case_mod.master_barriers = barriers
        if tracer:
            restored = tracer.uninstall()
    out = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "tiny": tiny,
        "package": str(Path(tuplespaces.__file__).resolve().parent),
        "reps": reps,
    }
    if tracer:
        spans_path = out_path.with_suffix(".spans.csv")
        tracer.write_spans(spans_path)
        out["spans_file"] = str(spans_path.relative_to(ROOT))
        out["span_count"] = len(tracer.spans)
        out["restored"] = restored
        out["percentiles"] = pooled_percentiles(samples)
    if os.path.exists(dump_path):
        os.remove(dump_path)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    package = Path(tuplespaces.__file__).resolve()
    if SRC.resolve() not in package.parents:
        print(f"error: tuplespaces imported from {package}, not from {SRC}", file=sys.stderr)
        return 2
    out_path = Path(args.out)
    result = run_session(args.workload, args.seed, args.seconds, bool(args.trace),
                         args.tiny, out_path)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
