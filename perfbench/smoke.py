"""Smoke test of the benchmark: every workload at a tiny size, both modes.

    python3 perfbench/smoke.py

For each workload, runs `run.py --tiny` untraced and traced and checks that
the run passes, and that each metric BENCHMARK.json names is printed by name
with its unit, both on the human-readable lines and in the final JSON line.
Exit code 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
SMOKE_SECONDS = "1"


def check(workload: str, trace: int, expected: dict[str, str]) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
         "--seconds", SMOKE_SECONDS, "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: result not correct: {lines[-1][:200]}")
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] == workload:
            printed[parts[1]] = parts[3]
    if printed.get("failed_rep_ratio") != "ratio":
        problems.append(f"{where}: failed_rep_ratio not printed")
    if set(result["metrics"]) != set(expected):
        problems.append(f"{where}: JSON metrics differ from BENCHMARK.json: "
                        f"{sorted(set(result['metrics']) ^ set(expected))}")
    for name, unit in expected.items():
        if printed.get(name) != unit:
            problems.append(f"{where}: {name} printed as {printed.get(name)!r}, want unit {unit}")
        got = result["metrics"].get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: bad JSON entry for {name}: {got}")
    return problems


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = [w["name"] for w in bench["workloads"]]
    problems = []
    if declared != list(workloads.NAMES):
        problems.append(f"BENCHMARK.json workloads {declared} != {list(workloads.NAMES)}")
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in workloads.NAMES:
        for trace in (0, 1):
            found = check(workload, trace, expected[trace])
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
