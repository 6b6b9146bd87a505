"""Morsel benchmark: serial vs parallel execution on one scheduler.

Times :class:`~repro.engine.executor.PlanExecutor` over the same
optimized plan two ways:

* **serial** — pipelines in schedule order, one full row-store pass per
  grouping (``parallelism=1``);
* **parallel** — ``parallelism=P``: the lowering puts the plan on
  dependency waves run by one thread pool.  Each wave's groupings that
  share an input batch over shared morsel scans (partial aggregate
  states merge bit-identical to the single pass), and every other
  pipeline, near-unique groupings included, runs as its own task
  beside the batch.  The payload records which schedule the cost model
  chose (``mode``: ``serial`` or ``morsel``).

Both must produce bit-identical result tables and equal deterministic
metrics totals; the parallel column must never lose to serial, and at
least one full-scale workload must clear 1.5x.  The two schedules
alternate within each repeat, and each reports its best time.

Writes ``BENCH_morsel.json`` at the repository root::

    python benchmarks/bench_morsel.py [--rows N] [--repeats K] [--smoke]

``--smoke`` runs one repeat at 40,000 rows for CI — enough rows for the
cost model to pick waves — and asserts the equivalence flags and that
waves ran, but skips the speedup floors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import Session  # noqa: E402
from repro.engine.table import Table  # noqa: E402
from repro.obs.clock import monotonic  # noqa: E402
from repro.workloads.customers import make_customers  # noqa: E402
from repro.workloads.queries import (  # noqa: E402
    combi_workload,
    single_column_queries,
)
from repro.workloads.tpch import make_lineitem  # noqa: E402

#: (table maker, query maker) per workload.  ``lineitem-singles`` is
#: the shared-scan showcase: sixteen incomparable single-column
#: groupings over one wide base relation, where serial pays sixteen
#: full scans and the morsel batch pays one per morsel.
WORKLOADS = {
    "lineitem-pairs": (
        make_lineitem,
        lambda table: combi_workload(list(table.column_names)[:5], 2),
    ),
    "lineitem-singles": (
        make_lineitem,
        lambda table: single_column_queries(list(table.column_names)),
    ),
    "customers-pairs": (
        make_customers,
        lambda table: combi_workload(list(table.column_names)[:5], 2),
    ),
}

#: Full-scale acceptance floors (skipped under --smoke).
MIN_SPEEDUP_EVERYWHERE = 1.0
MIN_SPEEDUP_BEST = 1.5


def tables_match(a: Table, b: Table) -> bool:
    if a.num_rows != b.num_rows or set(a.column_names) != set(b.column_names):
        return False
    return all(np.array_equal(a[c], b[c]) for c in a.column_names)


def bench_workload(
    name: str, rows: int, repeats: int, parallelism: int
) -> dict:
    maker, query_maker = WORKLOADS[name]
    table = maker(rows)
    session = Session.for_table(table, statistics="exact")
    queries = query_maker(table)
    plan = session.optimize(queries).plan

    best = {1: float("inf"), parallelism: float("inf")}
    runs = {}
    for _ in range(repeats):
        for workers in best:
            started = monotonic()
            runs[workers] = session.execute(plan, parallelism=workers)
            best[workers] = min(best[workers], monotonic() - started)
    serial, parallel = runs[1], runs[parallelism]
    results_match = set(serial.results) == set(parallel.results) and all(
        tables_match(serial.results[q], parallel.results[q])
        for q in serial.results
    )
    metrics_match = serial.metrics.as_dict(
        per_query=True
    ) == parallel.metrics.as_dict(per_query=True)
    return {
        "rows": rows,
        "queries": len(queries),
        "parallelism": parallelism,
        "serial_seconds": best[1],
        "parallel_seconds": best[parallelism],
        "speedup_parallel": best[1] / max(best[parallelism], 1e-12),
        "mode": parallel.metrics.mode,
        "results_match": results_match,
        "metrics_match": metrics_match,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=300_000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--parallelism", type=int, default=4)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced scale for CI; checks correctness flags only",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_morsel.json",
        help="output JSON path (default: BENCH_morsel.json at repo root)",
    )
    args = parser.parse_args(argv)
    if args.parallelism < 2:
        parser.error("--parallelism must be at least 2")
    rows = 40_000 if args.smoke else args.rows
    repeats = 1 if args.smoke else args.repeats

    payload = {
        "benchmark": "serial vs parallel morsel-driven execution",
        "smoke": args.smoke,
        "workloads": {},
    }
    for name in sorted(WORKLOADS):
        entry = bench_workload(name, rows, repeats, args.parallelism)
        payload["workloads"][name] = entry
        print(
            f"{name:18s} serial {entry['serial_seconds'] * 1e3:8.1f} ms  "
            f"parallel {entry['speedup_parallel']:.2f}x "
            f"(mode={entry['mode']})  "
            f"results_match={entry['results_match']} "
            f"metrics_match={entry['metrics_match']}"
        )
    speedups = [
        entry["speedup_parallel"]
        for entry in payload["workloads"].values()
    ]
    payload["min_speedup_parallel"] = min(speedups)
    payload["max_speedup_parallel"] = max(speedups)

    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")

    failures = []
    for name, entry in payload["workloads"].items():
        if not (entry["results_match"] and entry["metrics_match"]):
            failures.append(f"{name}: equivalence flags not all true")
        if entry["mode"] != "morsel":
            failures.append(
                f"{name}: ran {entry['mode']!r}, expected waves (morsel)"
            )
    if not args.smoke:
        if payload["min_speedup_parallel"] < MIN_SPEEDUP_EVERYWHERE:
            failures.append(
                f"parallel speedup {payload['min_speedup_parallel']:.2f}x "
                f"below the {MIN_SPEEDUP_EVERYWHERE:.1f}x floor"
            )
        if payload["max_speedup_parallel"] < MIN_SPEEDUP_BEST:
            failures.append(
                f"best parallel speedup "
                f"{payload['max_speedup_parallel']:.2f}x "
                f"below the {MIN_SPEEDUP_BEST:.1f}x floor"
            )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
