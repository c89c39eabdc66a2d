"""Command-line front end: run cases, aggregate dumps, compare runs.

Exit codes: 0 success, 1 correctness or parse failure, 2 usage error,
3 infrastructure failure (ports, spawn, deadline, dead roles).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from . import profiler
from .bench.config import (
    BenchConfig,
    CASES,
    DISTRIBUTIONS,
    MODES,
    PAPER_WORKER_COUNTS,
    STRATEGIES,
)
from .bench.runner import (
    parse_hosts_file,
    parse_manifest,
    role_name,
    run_benchmark,
    run_role_inline,
)
from .client import NodeAddress
from .errors import ParseError, TupleSpaceError

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_INFRA = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsbench",
        description="Master-worker benchmarks over the tuple-space middleware.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    run = sub.add_parser("run", help="run one benchmark configuration")
    run.add_argument("--case", required=True, choices=CASES)
    run.add_argument("--workers", required=True, type=int,
                     help=f"worker count (grid-shaped runs use {PAPER_WORKER_COUNTS})")
    run.add_argument("--size", required=True, type=int,
                     help="database entries / elements / grid side / matrix order")
    run.add_argument("--strategy", choices=STRATEGIES, default="sequential")
    run.add_argument("--distribution", choices=DISTRIBUTIONS, default="uniform",
                     help="matmul only: where the B rows live")
    run.add_argument("--reps", type=int, default=10)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--threshold", type=int, default=10000, help="sort split threshold")
    run.add_argument("--iters", type=int, default=20, help="ocean iterations")
    run.add_argument("--mode", choices=MODES, default="threads")
    run.add_argument("--base-port", type=int, default=0)
    run.add_argument("--hosts", help="hosts file (name host:port per role, master first)")
    run.add_argument("--out", default="bench_out", help="output directory for dumps")
    run.add_argument("--poll-interval-ms", type=float, default=1.0)
    run.add_argument("--deadline-s", type=float, default=300.0)

    role = sub.add_parser("run-role", help="run a single role (internal / multi-host)")
    role.add_argument("--config", required=True, help="role config JSON written by `run`")
    role.add_argument("--role", required=True, choices=("master", "worker"))
    role.add_argument("--index", type=int, default=0)

    agg = sub.add_parser("aggregate", help="aggregate dump files into stats.csv")
    agg.add_argument("directory")

    cmp_ = sub.add_parser("compare", help="compare one metric between two run directories")
    cmp_.add_argument("dir_a")
    cmp_.add_argument("dir_b")
    cmp_.add_argument("--metric", required=True)
    return parser


def cmd_run(args) -> int:
    hosts = None
    if args.hosts:
        try:
            hosts = parse_hosts_file(args.hosts)
        except (OSError, ValueError) as e:
            print(f"error: cannot read hosts file: {e}", file=sys.stderr)
            return EXIT_USAGE
    cfg = BenchConfig(
        case=args.case,
        workers=args.workers,
        size=args.size,
        strategy=args.strategy,
        distribution=args.distribution,
        reps=args.reps,
        seed=args.seed,
        sort_threshold=args.threshold,
        ocean_iters=args.iters,
        poll_interval=args.poll_interval_ms / 1000.0,
        deadline=args.deadline_s,
        mode=args.mode,
        base_port=args.base_port,
        hosts=hosts,
    )
    errors = cfg.validation_errors()
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE

    try:
        results, manifest_path, run_key = run_benchmark(cfg, args.out)
    except TupleSpaceError as e:
        print(f"infrastructure failure: {e}", file=sys.stderr)
        return EXIT_INFRA

    for i, r in enumerate(results):
        status = "ok" if r.correct else f"FAILED ({r.error or 'oracle mismatch'})"
        print(f"rep {i}: {status} elapsed={r.elapsed:.3f}s "
              f"nodeVisited={r.node_visited_total} digest={r.digest[:16]}")
    print(f"manifest: {manifest_path}")
    if any(r.error for r in results):
        return EXIT_INFRA
    if not all(r.correct for r in results):
        return EXIT_FAILURE
    return EXIT_OK


def cmd_run_role(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            payload = json.load(fh)
        cfg = BenchConfig(**payload["config"])
        addresses = [NodeAddress(a["host"], a["port"], a["name"]) for a in payload["addresses"]]
        rep_index, run_key, out_dir, result_path = (
            payload[k] for k in ("rep_index", "run_key", "out_dir", "result_path"))
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"error: bad role config: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_USAGE
    i = 0 if args.role == "master" else args.index + 1
    try:
        result = run_role_inline(cfg, i, addresses, rep_index, run_key, out_dir)
    except Exception as e:
        traceback.print_exc()
        print(f"role {role_name(i)} failed: {e}", file=sys.stderr)
        return EXIT_INFRA
    if i == 0:
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump({"correct": result.correct, "digest": result.digest,
                       "detail": result.detail, "error": result.error}, fh)
        return EXIT_OK if result.correct else EXIT_FAILURE
    return EXIT_OK


def _collect_groups(directory):
    """(case, workers, size, strategy) -> dump paths, from all manifests below dir."""
    groups: dict[tuple, list] = {}
    for root, _dirs, files in os.walk(directory):
        for fname in sorted(files):
            if not (fname.startswith("manifest_") and fname.endswith(".txt")):
                continue
            manifest = parse_manifest(os.path.join(root, fname))
            key = (manifest.get("case", "?"), manifest.get("workers", "?"),
                   manifest.get("size", "?"), manifest.get("strategy", "?"))
            paths = groups.setdefault(key, [])
            for mk, mv in manifest.items():
                if mk.endswith(".dumps") and mv:
                    for rel in mv.split(";"):
                        paths.append(os.path.join(root, rel))
    return groups


def cmd_aggregate(args) -> int:
    if not os.path.isdir(args.directory):
        print(f"error: {args.directory} is not a directory", file=sys.stderr)
        return EXIT_USAGE
    groups = _collect_groups(args.directory)
    groups = {k: v for k, v in groups.items() if v}
    if not groups:
        print("no dumps found", file=sys.stderr)
        return EXIT_FAILURE
    out_path = os.path.join(args.directory, "stats.csv")
    columns = ("case", "workers", "size", "strategy")
    try:
        profiler.write_stats(out_path, [(dict(zip(columns, key)), profiler.aggregate(groups[key]))
                                        for key in sorted(groups)])
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_FAILURE
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_compare(args) -> int:
    sides = []
    for directory in (args.dir_a, args.dir_b):
        groups = _collect_groups(directory)
        paths = [p for ps in groups.values() for p in ps]
        if not paths:
            print(f"no dumps found in {directory}", file=sys.stderr)
            return EXIT_FAILURE
        try:
            sides.append(profiler.aggregate(paths))
        except ParseError as e:
            print(f"parse error: {e}", file=sys.stderr)
            return EXIT_FAILURE
    stats_a, stats_b = sides
    if args.metric not in stats_a or args.metric not in stats_b:
        print(f"metric {args.metric!r} absent from one of the runs", file=sys.stderr)
        return EXIT_FAILURE
    a, b = stats_a[args.metric], stats_b[args.metric]
    ratio = a.mean / b.mean if b.mean else float("inf")
    print(f"metric: {args.metric}")
    print(f"{'':>10} {'mean':>18} {'stddev':>18} {'n':>8}")
    print(f"{'A':>10} {a.mean:>18.6f} {a.stddev:>18.6f} {a.n:>8}")
    print(f"{'B':>10} {b.mean:>18.6f} {b.stddev:>18.6f} {b.n:>8}")
    print(f"ratio A/B: {ratio:.4f}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    if args.command == "run":
        return cmd_run(args)
    if args.command == "run-role":
        return cmd_run_role(args)
    if args.command == "aggregate":
        return cmd_aggregate(args)
    if args.command == "compare":
        return cmd_compare(args)
    parser.print_usage(sys.stderr)
    return EXIT_USAGE


def entry() -> None:
    sys.exit(main())
