"""The four benchmark workloads: one master and two workers in threads mode.

Each workload is chosen so that one layer dominates its runtime and another
layer is bypassed, so a change to one layer has a workload that should move
and one that should not:

* password     -- store-bound: ~900k template matches per rep on 10k-entry
  buckets, only ~250 remote requests (store index yes, transport no);
* matmul       -- round-trip-bound: 2048 small remote probes per rep;
* sort         -- payload-bound: megabyte int arrays through the codec,
  destructive work stealing, ~44 store matches per rep (store index no);
* ocean-notify -- wake-up-bound: broadcast reads that park a waiter locally
  and at the peer, woken by the neighbour's out, losing leg cancelled.

`tiny` sizes exist only for the smoke test.
"""

from __future__ import annotations

WORKERS = 2
MIN_REPS = 4  # every session runs at least this many; peak_rss_mb is read after them

FULL = {
    "password": dict(case="password", size=20000, strategy="sequential"),
    "matmul": dict(case="matmul", size=64, strategy="success_factor",
                   distribution="b_on_one"),
    "sort": dict(case="sort", size=400000, sort_threshold=25000, strategy="sequential"),
    "ocean-notify": dict(case="ocean", size=64, ocean_iters=100, strategy="notify"),
}

TINY = {
    "password": dict(size=400),
    "matmul": dict(size=8),
    "sort": dict(size=4000, sort_threshold=500),
    "ocean-notify": dict(size=16, ocean_iters=5),
}

NAMES = tuple(FULL)


def config_kwargs(name: str, tiny: bool) -> dict:
    """Keyword arguments for BenchConfig (seed and reps excluded)."""
    kwargs = dict(FULL[name], workers=WORKERS)
    if tiny:
        kwargs.update(TINY[name])
    return kwargs


def expected_node_visited(kwargs: dict) -> int | None:
    """The exact first-round nodeVisited a correct rep must report, if fixed.

    matmul with every B row on worker 0: worker 0 hits locally (1 visit per
    lookup), every other worker misses locally and hits worker 0 first,
    because worker 0 is its lowest-index peer (2 visits).  ocean with notify
    visits all 1 + (w - 1) spaces per neighbour lookup.  The other two
    workloads depend on the drawn inputs and on scheduling.
    """
    n, w = kwargs["size"], kwargs["workers"]
    if kwargs["case"] == "matmul" and kwargs.get("distribution") == "b_on_one":
        rows_w0 = len(range(0, n, w))
        return n * (rows_w0 + 2 * (n - rows_w0))
    if kwargs["case"] == "ocean" and kwargs.get("strategy") == "notify":
        neighbour_lookups = 2 * (w - 1) * kwargs["ocean_iters"]
        return neighbour_lookups * w
    return None
