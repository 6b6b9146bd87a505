"""Dataflow-analyzer overhead benchmark.

For each built-in workload the optimizer's plan is lowered (serial and
parallel) and pushed through the abstract-interpretation analyzer with
full catalog + cardinality context — the same configuration the
executor's pre-run gate uses.  Recorded per plan in
``BENCH_analysis.json`` at the repository root:

* ``interpret_ms`` — building the per-operator abstract states alone;
* ``verify_ms`` — the full rule catalog (states + every PV rule);
* ``per_rule_ms`` — each rule id run in isolation (includes the state
  construction, which is shared in the real driver);
* ``overhead_fraction`` — full verification time over optimize time.

The analyzer is a gate on every execution, so it must stay cheap:
``--smoke`` (CI) asserts zero diagnostics on every lowering and
verification overhead under 5% of optimize time::

    python benchmarks/bench_analysis.py [--rows N] [--repeats K] [--smoke]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.dataflow import (  # noqa: E402
    AnalysisContext,
    DataflowAnalysis,
)
from repro.analysis.physrules import (  # noqa: E402
    PHYSICAL_RULES,
    verify_physical_plan,
)
from repro.api import Session  # noqa: E402
from repro.obs.clock import monotonic  # noqa: E402
from repro.workloads.customers import make_customers  # noqa: E402
from repro.workloads.queries import combi_workload  # noqa: E402
from repro.workloads.sales import make_sales  # noqa: E402
from repro.workloads.tpch import make_lineitem  # noqa: E402

WORKLOAD_BUILDERS = {
    "sales": make_sales,
    "lineitem": make_lineitem,
    "customers": make_customers,
}

#: Smoke gate: full verification must cost under this fraction of the
#: optimizer's planning time.
MAX_OVERHEAD_FRACTION = 0.05


def best_of(repeats: int, fn) -> tuple[float, object]:
    best = float("inf")
    value = None
    for _ in range(repeats):
        started = monotonic()
        value = fn()
        best = min(best, monotonic() - started)
    return best, value


def bench_plan(session, physical, repeats: int) -> dict[str, object]:
    context = AnalysisContext(
        catalog=session.catalog,
        base_table=session.base_table,
        estimator=session.estimator,
    )
    interpret_seconds, _ = best_of(
        repeats, lambda: DataflowAnalysis(physical, context)
    )
    verify_seconds, diagnostics = best_of(
        repeats, lambda: verify_physical_plan(physical, context=context)
    )
    per_rule_ms = {}
    for rule_id in PHYSICAL_RULES:
        seconds, _ = best_of(
            repeats,
            lambda rule=rule_id: verify_physical_plan(
                physical, rules=[rule], context=context
            ),
        )
        per_rule_ms[rule_id] = seconds * 1e3
    return {
        "operators": len(physical.operators),
        "interpret_ms": interpret_seconds * 1e3,
        "verify_ms": verify_seconds * 1e3,
        "per_rule_ms": per_rule_ms,
        "diagnostics": len(diagnostics),
    }


def bench_workload(name: str, rows: int, repeats: int) -> dict[str, object]:
    table = WORKLOAD_BUILDERS[name](rows)
    table.build_dictionaries()
    session = Session.for_table(table, statistics="exact")
    columns = list(table.column_names)[:5]
    queries = combi_workload(columns, 2)

    optimize_seconds, result = best_of(
        1, lambda: session.optimize(queries)
    )
    entry = {
        "rows": rows,
        "queries": len(queries),
        "optimize_seconds": optimize_seconds,
        "plans": {},
    }
    worst_fraction = 0.0
    clean = True
    for label, parallelism in (("serial", 1), ("parallel", 2)):
        physical = session.lower(result.plan, parallelism=parallelism)
        plan_entry = bench_plan(session, physical, repeats)
        fraction = (plan_entry["verify_ms"] / 1e3) / max(
            optimize_seconds, 1e-9
        )
        plan_entry["overhead_fraction"] = fraction
        entry["plans"][label] = plan_entry
        worst_fraction = max(worst_fraction, fraction)
        clean = clean and plan_entry["diagnostics"] == 0
    entry["worst_overhead_fraction"] = worst_fraction
    entry["analyzer_clean"] = clean
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=60_000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced scale for CI; gates diagnostics and overhead",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_analysis.json",
        help="output JSON path (default: BENCH_analysis.json at repo root)",
    )
    args = parser.parse_args(argv)
    rows = 5_000 if args.smoke else args.rows
    repeats = 2 if args.smoke else args.repeats

    workloads = {}
    failed = False
    for name in WORKLOAD_BUILDERS:
        entry = bench_workload(name, rows, repeats)
        workloads[name] = entry
        serial = entry["plans"]["serial"]
        status = "ok" if entry["analyzer_clean"] else "DIAGNOSTICS"
        print(
            f"{name:<10} rows={entry['rows']:>7} "
            f"ops={serial['operators']:>3} "
            f"interpret={serial['interpret_ms']:.2f}ms "
            f"verify={serial['verify_ms']:.2f}ms "
            f"overhead={entry['worst_overhead_fraction']:.2%} [{status}]"
        )
        failed = failed or not entry["analyzer_clean"]
        if entry["worst_overhead_fraction"] >= MAX_OVERHEAD_FRACTION:
            print(
                f"warning: {name} analyzer overhead "
                f"{entry['worst_overhead_fraction']:.2%} exceeds "
                f"{MAX_OVERHEAD_FRACTION:.0%} of optimize time"
            )
            failed = True

    payload = {
        "smoke": args.smoke,
        "max_overhead_fraction": MAX_OVERHEAD_FRACTION,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(f"wrote {args.out}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
