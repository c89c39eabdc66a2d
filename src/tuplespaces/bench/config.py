"""Benchmark configuration, result record and the normative tuple schemas."""

from __future__ import annotations

from dataclasses import dataclass, field

CASES = ("password", "sort", "ocean", "matmul")
STRATEGIES = ("sequential", "success_factor", "notify")
DISTRIBUTIONS = ("uniform", "b_on_one")
MODES = ("threads", "procs", "hosts")

PAPER_WORKER_COUNTS = (1, 5, 10, 15)  # the paper-shaped grid; any w >= 1 runs

# Handshake / schema string constants.  Field order and spelling are part of
# the wire-visible protocol; do not edit casually.
SEARCH_GROUP = "search"
WORKER_FIELD = "worker"
READY_STATUS = "worker_ready"
LOADED_STATUS = "data_loaded"
MASTER_KEY = "master_key"
TASK_NAME = "search_task"
TASK_PENDING = "not_processed"
STATUS_DONE = "complete"
FOUND_NAME = "foundValue"
HASHSET_NAME = "hashSet"
UNSORTED_NAME = "unsorted"
SORTED_NAME = "sorted"
PANEL_NAME = "panel"
BORDER_NAME = "border"
RESULT_PANEL_NAME = "result_panel"
A_ROW_NAME = "A_row"
B_ROW_NAME = "B_row"
C_ROW_NAME = "C_row"
SIDE_LEFT = "left"
SIDE_RIGHT = "right"
SHUTDOWN_NAME = "__shutdown__"  # procs-mode teardown signal, outside the timed run

PASSWORD_TASK_COUNT = 100  # fixed number of hashes to search per run


@dataclass
class BenchConfig:
    case: str
    workers: int
    size: int
    strategy: str = "sequential"
    distribution: str = "uniform"
    reps: int = 10
    seed: int = 0
    sort_threshold: int = 10000
    ocean_iters: int = 20
    poll_interval: float = 0.001
    deadline: float = 300.0
    mode: str = "threads"
    base_port: int = 0
    hosts: list | None = None

    def validation_errors(self) -> list[str]:
        errs = []
        if self.case not in CASES:
            errs.append(f"unknown case {self.case!r} (choose from {', '.join(CASES)})")
            return errs
        if self.workers < 1:
            errs.append("workers must be >= 1")
        if self.size < 1:
            errs.append("size must be >= 1")
        if self.strategy not in STRATEGIES:
            errs.append(f"unknown strategy {self.strategy!r}")
        if self.distribution not in DISTRIBUTIONS:
            errs.append(f"unknown distribution {self.distribution!r}")
        if self.reps < 1:
            errs.append("reps must be >= 1")
        if self.poll_interval <= 0:
            errs.append("poll interval must be positive")
        if self.deadline <= 0:
            errs.append("deadline must be positive")
        if self.case == "ocean":
            if self.workers < 2:
                errs.append("ocean requires workers >= 2 (a single worker would never use the tuple space)")
            if self.workers > self.size:
                errs.append("ocean requires workers <= grid side")
            if self.ocean_iters < 1:
                errs.append("ocean iterations must be >= 1")
        if self.case == "matmul" and self.size < self.workers:
            errs.append("matmul requires matrix order >= workers")
        if self.case == "sort":
            if self.sort_threshold < 1:
                errs.append("sort threshold must be >= 1")
            if self.strategy == "notify":
                errs.append("sort acquires work destructively; the notify strategy is read-only")
        if self.mode not in MODES:
            errs.append(f"unknown mode {self.mode!r}")
        if self.mode == "procs" and self.base_port <= 0:
            errs.append("procs mode needs an explicit --base-port")
        elif self.mode == "procs" and self.base_port + self.workers > 65535:
            errs.append("procs mode needs --base-port + workers <= 65535")
        if self.mode == "hosts" and not self.hosts:
            errs.append("hosts mode needs a hosts file")
        if self.hosts is not None and len(self.hosts) != self.workers + 1:
            errs.append(f"hosts file must list {self.workers + 1} roles (master first)")
        return errs


@dataclass
class CaseResult:
    correct: bool
    digest: str = ""
    detail: dict = field(default_factory=dict)
    elapsed: float = 0.0
    node_visited_total: int = 0  # first-round counter summed over roles
    dump_paths: list = field(default_factory=list)
    error: str | None = None
