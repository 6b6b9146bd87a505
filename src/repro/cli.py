"""Command-line interface: profile a CSV file the way the paper's data
analyst would.

Subcommands::

    python -m repro.cli profile data.csv [--combi 2] [--statistics sampled]
    python -m repro.cli plan data.csv --queries "city;state;city,state"
    python -m repro.cli compare data.csv [--combi 2]
    python -m repro.cli explain data.csv [--analyze] [--history h.jsonl]
    python -m repro.cli trace --workload sales --out trace.jsonl
    python -m repro.cli flamegraph --workload sales --out profile.collapsed
    python -m repro.cli calibration history.jsonl [--relation R]
    python -m repro.cli adaptive --workload sales --runs 5 [--no-feedback]
    python -m repro.cli analyze-plan --workload sales [--states]
    python -m repro.cli cache --workload sales --runs 3 [--max-bytes N]
    python -m repro.cli lint-plan plan.json [--max-storage-bytes N]
    python -m repro.cli lint-code [paths ...]

``profile`` runs the single-column (or Combi) workload through GB-MQO
and prints a data-quality report; ``plan`` shows the chosen logical
plan, the SQL script, and optionally DOT; ``compare`` times GB-MQO
against the naive plan and the commercial-style GROUPING SETS strategy;
``explain`` prints the plan with per-node estimates (``--analyze`` runs
it and adds actuals plus q-error; ``--history`` appends the run to a
plan-history JSONL store); ``trace`` runs optimize + execute under the
span tracer and renders/exports the span tree (``--metrics`` adds the
counter/histogram snapshots, ``--prom-out`` writes the Prometheus
exposition); ``flamegraph`` converts a run's span tree — or an exported
trace JSONL — into collapsed-stack format plus a per-operator self-time
table; ``calibration`` rolls a plan-history store up into the q-error
calibration report and the cost-correction factors it implies
(``--min-runs``/``--clamp`` control the rollup knobs); ``adaptive``
runs a workload repeatedly under the Session feedback loop and shows
how the layered cost model drifts run over run (``--no-feedback``
re-runs the same loop with the loop disabled as an A/B escape hatch);
``analyze-plan`` optimizes, lowers, and runs the abstract-interpretation
dataflow analyzer (PV012+) over the physical plan with full catalog and
cardinality context; ``cache`` runs a workload repeatedly with the
semantic result cache enabled and reports hit/eviction accounting plus
the resident entries; ``lint-plan`` runs the static plan verifier over
a serialized plan; ``lint-code`` runs the custom AST lints over the
repro sources.

The observability subcommands accept ``--cache`` to enable the semantic
result cache for the run (repeated groupings are served from cached
results instead of rescanning the base relation).

The static-analysis subcommands share one exit-code contract: 0 clean,
1 findings, 2 usage/input error.  ``lint-plan`` exits 1 only on
error-severity findings; ``analyze-plan`` and ``lint-code`` exit 1 on
any finding.  All three accept ``--format json`` for machine-readable
output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.analysis.diagnostics import (
    Severity,
    format_report,
    report_as_dict,
)
from repro.analysis.linter import lint_paths
from repro.analysis.planview import PlanViewError
from repro.analysis.verifier import VerifyContext, verify_payload
from repro.api import Session
from repro.baselines.grouping_sets import CommercialGroupingSetsPlanner
from repro.core.visualize import plan_to_dot
from repro.costmodel.engine_model import (
    CALIBRATION_FACTOR_BAND,
    CALIBRATION_MIN_RUNS,
)
from repro.engine.csv_io import load_csv
from repro.engine.sqlgen import plan_to_sql
from repro.obs import (
    MetricsRegistry,
    PlanHistoryStore,
    Tracer,
    format_snapshot,
    read_jsonl,
    render_span_tree,
    render_self_time_table,
    self_time_table,
    spans_from_dicts,
    write_collapsed,
    write_jsonl,
)
from repro.workloads.customers import make_customers
from repro.workloads.queries import combi_workload, single_column_queries
from repro.workloads.sales import make_sales
from repro.workloads.tpch import make_lineitem

#: Built-in synthetic relations for the observability subcommands, so
#: ``repro trace``/``repro explain`` work without a CSV on hand.
WORKLOAD_BUILDERS = {
    "sales": make_sales,
    "lineitem": make_lineitem,
    "customers": make_customers,
}


def _build_session(args) -> tuple[Session, list[frozenset[str]]]:
    table = load_csv(args.csv, max_rows=args.max_rows)
    table.build_dictionaries()
    session = Session.for_table(table, statistics=args.statistics)
    columns = args.columns.split(",") if args.columns else list(table.column_names)
    if getattr(args, "queries", None):
        queries = [
            frozenset(part.split(",")) for part in args.queries.split(";")
        ]
    elif args.combi > 1:
        queries = combi_workload(columns, args.combi)
    else:
        queries = single_column_queries(columns)
    return session, queries


def cmd_profile(args) -> int:
    session, queries = _build_session(args)
    table = session.catalog.get(session.base_table)
    if args.combi > 1 or any(len(q) > 1 for q in queries):
        # Multi-column workloads: show the plan and distribution sizes.
        print(
            f"profiling {table.name}: {table.num_rows:,} rows, "
            f"{len(queries)} Group By queries"
        )
        result = session.optimize(queries)
        print("\nplan:")
        print(result.plan.render())
        execution = session.execute(result.plan)
        print(
            f"\nexecuted in {execution.wall_seconds:.3f}s "
            f"({execution.metrics.queries_executed} queries, "
            f"{execution.metrics.work / 1e6:.1f} MB moved)"
        )
        print("\ndistribution sizes:")
        for query in sorted(queries, key=lambda q: (len(q), sorted(q))):
            groups = execution.results[query].num_rows
            label = ",".join(sorted(query))
            ratio = groups / max(table.num_rows, 1)
            flag = "  <- (almost) a key" if ratio > 0.95 else ""
            print(f"  ({label}): {groups:,} distinct{flag}")
        return 0
    # Single-column profiling: the full data-quality report.
    from repro.profile import profile_table

    key_candidates = (
        [tuple(part.split(",")) for part in args.key.split(";")]
        if args.key
        else []
    )
    report = profile_table(
        table,
        columns=[sorted(q)[0] for q in queries],
        key_candidates=key_candidates,
        session=session,
    )
    print(report.render())
    return 0


def cmd_plan(args) -> int:
    session, queries = _build_session(args)
    result = session.optimize(queries)
    print(result.plan.render())
    print(
        f"\nestimated cost {result.cost:,.0f} "
        f"(naive {result.naive_cost:,.0f}, "
        f"{result.estimated_speedup:.2f}x), "
        f"{result.optimizer_calls} optimizer calls"
    )
    print("\n-- SQL script --")
    for statement in plan_to_sql(result.plan):
        print(statement)
    if args.explain:
        print("\n-- EXPLAIN --")
        print(session.explain(result.plan).render())
    if args.dot:
        print("\n-- DOT --")
        print(plan_to_dot(result.plan))
    return 0


def cmd_compare(args) -> int:
    session, queries = _build_session(args)
    result = session.optimize(queries)
    execution = session.execute(result.plan)
    naive = session.run_naive(queries)
    planner = CommercialGroupingSetsPlanner(
        session.catalog, session.base_table
    )
    started = time.perf_counter()
    outcome = planner.execute(queries)
    gs_seconds = time.perf_counter() - started
    print(f"naive:          {naive.wall_seconds:.3f}s")
    print(f"GROUPING SETS:  {gs_seconds:.3f}s ({outcome.strategy})")
    print(f"GB-MQO:         {execution.wall_seconds:.3f}s")
    print(
        f"speedup vs naive: {naive.wall_seconds / execution.wall_seconds:.2f}x "
        f"(work: {naive.metrics.work / execution.metrics.work:.2f}x)"
    )
    return 0


def _obs_session(
    args,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    feedback=False,
    cache=None,
) -> tuple[Session, list[frozenset[str]]]:
    """Session + workload for the observability subcommands.

    The source is either a CSV path (like the other subcommands) or one
    of the built-in synthetic relations via ``--workload``.  ``cache``
    None defers to the subcommand's ``--cache`` flag; a bool or
    :class:`~repro.cache.CacheConfig` overrides it.
    """
    if args.csv:
        table = load_csv(args.csv, max_rows=args.max_rows)
    else:
        table = WORKLOAD_BUILDERS[args.workload](args.rows)
    table.build_dictionaries()
    if cache is None:
        cache = getattr(args, "cache", False)
    session = Session.for_table(
        table,
        statistics=args.statistics,
        tracer=tracer,
        metrics=metrics,
        feedback=feedback,
        cache=cache,
    )
    columns = args.columns.split(",") if args.columns else list(table.column_names)
    if args.queries:
        queries = [
            frozenset(part.split(",")) for part in args.queries.split(";")
        ]
    elif args.combi > 1:
        queries = combi_workload(columns, args.combi)
    else:
        queries = single_column_queries(columns)
    return session, queries


def _require_source(args) -> bool:
    if args.csv or args.workload:
        return True
    print(
        "error: provide a CSV path or --workload "
        f"({'/'.join(sorted(WORKLOAD_BUILDERS))})",
        file=sys.stderr,
    )
    return False


def cmd_explain(args) -> int:
    if not _require_source(args):
        return 2
    session, queries = _obs_session(args)
    result = session.optimize(queries)
    print(result.plan.render())
    print(
        f"\nestimated cost {result.cost:,.0f} "
        f"(naive {result.naive_cost:,.0f}, "
        f"{result.estimated_speedup:.2f}x)"
    )
    if result.telemetry is not None:
        print(f"search: {result.telemetry.summary()}")
    if args.analyze:
        print("\n-- EXPLAIN ANALYZE --")
        analysis = session.explain_analyze(
            result.plan,
            parallelism=args.parallelism,
            history=args.history,
        )
        print(analysis.render())
        if args.history:
            print(f"appended run record to {args.history}")
    else:
        print("\n-- EXPLAIN --")
        print(session.explain(result.plan).render())
    if args.history:
        _print_calibration_corrections(session, args.history)
    print("\n-- PHYSICAL --")
    physical = session.lower(
        result.plan,
        parallelism=args.parallelism,
        memory_budget_bytes=args.memory_budget_bytes,
    )
    print(physical.render())
    return 0


def _print_calibration_corrections(session, history: str) -> None:
    """Active per-(operator, regime) cost corrections from run history.

    The ``--history`` store accumulates estimated-vs-actual records;
    rolled through :meth:`EngineCostModel.with_calibration` they become
    the multiplicative factors the next plan choice would be charged
    with — shown here so ``explain --history`` closes the loop.
    """
    from repro.costmodel.engine_model import EngineCostModel

    path = Path(history)
    if not path.exists():
        return
    report = PlanHistoryStore(path).calibration(
        relation=session.base_table
    )
    if report.runs == 0:
        return
    model = EngineCostModel(
        session.estimator,
        catalog=session.catalog,
        base_table=session.base_table,
    ).with_calibration(report)
    corrections = model.corrections
    print(f"\n-- CALIBRATION ({report.runs} runs) --")
    if not corrections:
        print("no per-(operator, regime) corrections active")
        return
    for (operator, regime), factor in sorted(corrections.items()):
        print(f"{operator} [{regime or '-'}]  cost x{factor:.2f}")


def cmd_trace(args) -> int:
    if not _require_source(args):
        return 2
    tracer = Tracer()
    registry = MetricsRegistry()
    session, queries = _obs_session(args, tracer=tracer, metrics=registry)
    source = args.csv or args.workload
    # One root span over the whole optimize + execute pipeline, so the
    # exported tree has a single top-level entry covering both phases.
    with tracer.span("trace", source=str(source), queries=len(queries)):
        result = session.optimize(queries)
        execution = session.execute(
            result.plan,
            parallelism=args.parallelism,
            memory_budget_bytes=args.memory_budget_bytes,
        )
    print(render_span_tree(tracer.spans))
    if result.telemetry is not None:
        print(f"\nsearch: {result.telemetry.summary()}")
    print(
        f"executed {execution.metrics.queries_executed} queries, "
        f"{execution.metrics.work / 1e6:.1f} MB moved"
    )
    if args.metrics:
        print("\n-- metrics snapshot --")
        print(format_snapshot(tracer.metrics_snapshot()))
        flat = registry.flat_snapshot()
        if flat:
            print("\n-- registry snapshot --")
            print(format_snapshot(dict(flat)))
    if args.prom_out:
        Path(args.prom_out).write_text(
            registry.to_prometheus(), encoding="utf-8"
        )
        print(f"\nwrote Prometheus exposition to {args.prom_out}")
    if args.out:
        lines = write_jsonl(tracer, args.out)
        print(f"\nwrote {lines} spans to {args.out}")
    return 0


def cmd_flamegraph(args) -> int:
    if args.from_jsonl:
        spans = spans_from_dicts(read_jsonl(args.from_jsonl))
    else:
        if not _require_source(args):
            return 2
        tracer = Tracer()
        session, queries = _obs_session(args, tracer=tracer)
        source = args.csv or args.workload
        with tracer.span("trace", source=str(source), queries=len(queries)):
            result = session.optimize(queries)
            session.execute(
                result.plan,
                parallelism=args.parallelism,
                memory_budget_bytes=args.memory_budget_bytes,
            )
        spans = tracer.spans
    if not spans:
        print("error: no spans to profile", file=sys.stderr)
        return 2
    print(render_self_time_table(self_time_table(spans), limit=args.limit))
    if args.out:
        lines = write_collapsed(spans, args.out)
        print(f"\nwrote {lines} collapsed stacks to {args.out}")
    return 0


def cmd_calibration(args) -> int:
    from repro.costmodel.engine_model import calibration_corrections

    path = Path(args.history)
    if not path.exists():
        print(f"error: no history file at {path}", file=sys.stderr)
        return 2
    store = PlanHistoryStore(path)
    report = store.calibration(relation=args.relation)
    if report.runs == 0:
        print(f"error: no matching records in {path}", file=sys.stderr)
        return 2
    try:
        corrections = calibration_corrections(
            report, min_runs=args.min_runs, clamp=tuple(args.clamp)
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        payload = report.as_dict()
        payload["corrections"] = {
            f"{operator}/{regime}": factor
            for (operator, regime), factor in sorted(corrections.items())
        }
        payload["min_runs"] = args.min_runs
        payload["clamp"] = list(args.clamp)
        print(json.dumps(payload, indent=2))
        return 0
    print(report.render())
    print(
        f"\ncorrections (min-runs {args.min_runs}, "
        f"clamp [{args.clamp[0]:g}, {args.clamp[1]:g}]):"
    )
    if not corrections:
        print("  none active")
    else:
        for (operator, regime), factor in sorted(corrections.items()):
            print(f"  {operator} [{regime or '-'}]  cost x{factor:.2f}")
    return 0


def _render_adaptive_state(state: dict[str, object]) -> str:
    """Human-readable form of ``Session.adaptive_state()``."""
    if not state.get("feedback"):
        return "feedback: disabled"
    lines = [
        f"feedback: enabled  "
        f"(recorded {state['executions_recorded']} executions, "
        f"refresh every {state['refresh_every']}, "
        f"history runs {state['history_runs']})",
    ]
    model = state.get("model")
    if not isinstance(model, dict):
        return "\n".join(lines)
    for layer in model.get("layers", []):
        factors = layer.get("factors") or {}
        factor_text = (
            "  ".join(f"{k} x{v:.2f}" for k, v in sorted(factors.items()))
            or "no factors"
        )
        lines.append(f"layer {layer['layer']}: {factor_text}")
        ratio = layer.get("observed_sort_hash_ratio")
        if ratio is not None:
            lines.append(f"  observed sort/hash op-time ratio {ratio:.2f}")
        mode_ratio = layer.get("observed_morsel_serial_ratio")
        if mode_ratio is not None:
            lines.append(
                f"  observed morsel/serial run-time ratio {mode_ratio:.2f}"
            )
    merged = model.get("merged", {})
    base = model.get("base", {})
    corrections = merged.get("corrections") or {}
    origins = merged.get("origins") or {}
    if corrections:
        lines.append("merged corrections:")
        for key, factor in sorted(corrections.items()):
            lines.append(
                f"  {key}  cost x{factor:.2f}  (by {origins.get(key, '?')})"
            )
    else:
        lines.append("merged corrections: none")
    floor = merged.get("morsel_min_rows")
    static_floor = base.get("morsel_min_rows")
    if floor is not None and static_floor is not None and floor != static_floor:
        lines.append(
            f"morsel row floor re-tuned: {static_floor:,.0f} -> {floor:,.0f}"
        )
    lines.append(f"layer refreshes: {model.get('refreshes', 0)}")
    return "\n".join(lines)


def cmd_adaptive(args) -> int:
    from repro.api import FeedbackConfig

    if not _require_source(args):
        return 2
    if args.runs < 1:
        print(f"error: --runs must be >= 1, got {args.runs}", file=sys.stderr)
        return 2
    feedback: bool | FeedbackConfig = False
    if not args.no_feedback:
        feedback = FeedbackConfig(history=args.history)
    session, queries = _obs_session(args, feedback=feedback)
    runs: list[dict[str, object]] = []
    first_render: str | None = None
    for index in range(args.runs):
        result = session.optimize(queries)
        execution = session.execute(
            result.plan, parallelism=args.parallelism
        )
        render = result.plan.render()
        if first_render is None:
            first_render = render
        runs.append(
            {
                "run": index + 1,
                "est_cost": result.cost,
                "wall_seconds": execution.wall_seconds,
                "plan_changed": render != first_render,
            }
        )
    state = session.adaptive_state()
    if args.format == "json":
        print(
            json.dumps(
                {"runs": runs, "adaptive_state": state}, indent=2
            )
        )
        return 0
    print(f"{'run':>3}  {'est cost':>14}  {'wall ms':>8}  plan")
    for record in runs:
        marker = "changed" if record["plan_changed"] else "as run 1"
        print(
            f"{record['run']:>3}  {record['est_cost']:>14,.0f}  "
            f"{record['wall_seconds'] * 1e3:>8.2f}  {marker}"
        )
    first_cost = float(runs[0]["est_cost"])  # type: ignore[arg-type]
    last_cost = float(runs[-1]["est_cost"])  # type: ignore[arg-type]
    if first_cost > 0:
        drift = (last_cost - first_cost) / first_cost
        print(f"\nest-cost drift run 1 -> {len(runs)}: {drift:+.1%}")
    print("\n-- adaptive state --")
    print(_render_adaptive_state(state))
    return 0


def cmd_sql(args) -> int:
    from repro.core.gs_planner import plan_grouping_sets
    from repro.engine.sqlparse import parse_sql

    table = load_csv(args.csv, max_rows=args.max_rows)
    table.build_dictionaries()
    session = Session.for_table(table, statistics=args.statistics)
    parsed = parse_sql(args.statement)
    if parsed.table != table.name:
        # The statement names the logical relation; bind it to the file.
        session.catalog.drop(table.name)
        session.catalog.add_table(table.rename(parsed.table))
        session.invalidate_coster()
    planned = plan_grouping_sets(
        parsed.to_expression(), session.catalog, session.estimator
    )
    print(f"strategy: {planned.strategy}")
    print("plan:")
    print(planned.optimization.plan.render())
    result = parsed.apply_having(planned.table)
    print(f"\n{result.num_rows:,} result rows; first {min(args.limit, result.num_rows)}:")
    header = "  ".join(result.column_names)
    print(header)
    print("-" * len(header))
    for row in result.to_rows()[: args.limit]:
        print("  ".join(str(v) for v in row))
    return 0


def _print_report(diagnostics, fmt: str) -> None:
    """Render a diagnostics list as text or JSON per ``--format``."""
    if fmt == "json":
        print(json.dumps(report_as_dict(diagnostics), indent=2))
    else:
        print(format_report(diagnostics))


def cmd_analyze_plan(args) -> int:
    if not _require_source(args):
        return 2
    from repro.analysis.dataflow import AnalysisContext, DataflowAnalysis
    from repro.analysis.physrules import verify_physical_plan

    session, queries = _obs_session(args)
    result = session.optimize(queries)
    physical = session.lower(
        result.plan,
        parallelism=args.parallelism,
        memory_budget_bytes=args.memory_budget_bytes,
    )
    context = AnalysisContext(
        catalog=session.catalog,
        base_table=session.base_table,
        estimator=session.estimator,
    )
    try:
        diagnostics = verify_physical_plan(
            physical, rules=_split_rules(args.rules), context=context
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.format == "text" and args.states:
        print("-- abstract states --")
        print(DataflowAnalysis(physical, context).render())
        print()
    _print_report(diagnostics, args.format)
    return 1 if diagnostics else 0


def cmd_cache(args) -> int:
    from repro.cache import CacheConfig

    if not _require_source(args):
        return 2
    if args.runs < 1:
        print(f"error: --runs must be >= 1, got {args.runs}", file=sys.stderr)
        return 2
    try:
        config = CacheConfig(
            **{
                key: value
                for key, value in (
                    ("max_bytes", args.max_bytes),
                    ("min_rows", args.min_rows),
                )
                if value is not None
            }
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    session, queries = _obs_session(args, cache=config)
    result = session.optimize(queries)
    runs: list[dict[str, object]] = []
    for index in range(args.runs):
        execution = session.execute(
            result.plan, parallelism=args.parallelism
        )
        runs.append(
            {
                "run": index + 1,
                "wall_seconds": execution.wall_seconds,
                "queries_executed": execution.metrics.queries_executed,
                "rows_scanned": execution.metrics.rows_scanned,
            }
        )
    stats = session.cache_stats()
    cache = session.result_cache
    assert cache is not None
    entries = [entry.as_dict() for entry in cache.entries()]
    if args.format == "json":
        print(
            json.dumps(
                {"runs": runs, "stats": stats, "entries": entries},
                indent=2,
            )
        )
        return 0
    print(f"{'run':>3}  {'wall ms':>8}  {'queries':>7}  {'rows scanned':>12}")
    for record in runs:
        print(
            f"{record['run']:>3}  "
            f"{float(record['wall_seconds']) * 1e3:>8.2f}  "  # type: ignore[arg-type]
            f"{record['queries_executed']:>7}  "
            f"{record['rows_scanned']:>12,}"
        )
    print(
        f"\ncache: {stats['entries']} entries, {stats['bytes']:,} / "
        f"{stats['max_bytes']:,} bytes ({stats['policy']} eviction)"
    )
    print(
        f"hits {stats['hits']}  derived hits {stats['derived_hits']}  "
        f"misses {stats['misses']}  evictions {stats['evictions']}  "
        f"rejected {stats['rejected']}"
    )
    if entries:
        print("\nresident entries (most recently used first):")
        for entry in entries:
            keys = ",".join(entry["keys"])  # type: ignore[arg-type]
            print(
                f"  {entry['fingerprint']}  ({keys})  "
                f"{entry['rows']:,} rows  {entry['bytes']:,}B  "
                f"hits {entry['hits']}  v{entry['version']}"
            )
    return 0


def _split_rules(spec: str | None) -> list[str] | None:
    if not spec:
        return None
    return [rule.strip() for rule in spec.split(",") if rule.strip()]


class _JsonStatsEstimator:
    """Cardinality source for lint-plan, fed from a stats JSON file.

    The file carries ``{"base_rows": N, "columns": {name: distinct}}``;
    multi-column sets are estimated under independence, capped at the
    base row count (the same shape the optimizer tests use).
    """

    def __init__(self, payload: dict[str, object]) -> None:
        self.base_rows = int(payload.get("base_rows", 1))
        self._singles = {
            str(k): float(v)
            for k, v in dict(payload.get("columns", {})).items()
        }

    def rows(self, columns: frozenset[str]) -> float:
        product = 1.0
        for column in columns:
            product *= self._singles.get(column, 1.0)
        return min(product, float(self.base_rows))

    def row_width(self, columns: frozenset[str]) -> float:
        return 8.0 * len(columns) + 8.0


def cmd_lint_plan(args) -> int:
    text = Path(args.plan).read_text(encoding="utf-8")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        print(f"error: {args.plan} is not valid JSON: {error}", file=sys.stderr)
        return 2
    estimator = None
    if args.stats:
        try:
            estimator = _JsonStatsEstimator(
                json.loads(Path(args.stats).read_text(encoding="utf-8"))
            )
        except json.JSONDecodeError as error:
            print(
                f"error: {args.stats} is not valid JSON: {error}",
                file=sys.stderr,
            )
            return 2
    context = VerifyContext(
        estimator=estimator,
        max_storage_bytes=args.max_storage_bytes,
        cube_max_columns=args.cube_max_columns,
    )
    try:
        diagnostics = verify_payload(
            payload, context, rules=_split_rules(args.rules)
        )
    except PlanViewError as error:
        print(f"error: malformed plan payload: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    _print_report(diagnostics, args.format)
    has_errors = any(d.severity is Severity.ERROR for d in diagnostics)
    return 1 if has_errors else 0


def cmd_lint_code(args) -> int:
    if args.paths:
        paths = args.paths
    else:
        # Default target: the installed repro package sources.
        paths = [Path(__file__).resolve().parent]
    try:
        diagnostics = lint_paths(paths, rules=_split_rules(args.rules))
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    _print_report(diagnostics, args.format)
    return 1 if diagnostics else 0


def _positive_int(text: str) -> int:
    """argparse type for --parallelism: reject values below 1 up front."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"parallelism must be >= 1, got {value}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GB-MQO (SIGMOD 2005) over CSV files",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("csv", help="input CSV file with a header row")
        p.add_argument(
            "--columns",
            help="comma-separated columns to profile (default: all)",
        )
        p.add_argument(
            "--combi",
            type=int,
            default=1,
            help="profile all column subsets up to this size (default 1)",
        )
        p.add_argument(
            "--statistics",
            choices=("exact", "sampled"),
            default="sampled",
        )
        p.add_argument(
            "--max-rows", type=int, default=None, help="row cap when loading"
        )

    profile = sub.add_parser("profile", help="data-quality profile")
    common(profile)
    profile.add_argument(
        "--key",
        help="key-check candidates, e.g. 'last,first,zip;last,zip'",
    )
    profile.set_defaults(fn=cmd_profile)

    plan = sub.add_parser("plan", help="show the optimized plan and SQL")
    common(plan)
    plan.add_argument(
        "--queries",
        help="explicit queries, e.g. 'city;state;city,state'",
    )
    plan.add_argument("--dot", action="store_true", help="also print DOT")
    plan.add_argument(
        "--explain",
        action="store_true",
        help="per-node estimates and edge costs",
    )
    plan.set_defaults(fn=cmd_plan)

    compare = sub.add_parser("compare", help="time GB-MQO vs baselines")
    common(compare)
    compare.set_defaults(fn=cmd_compare)

    def obs_common(p):
        p.add_argument(
            "csv", nargs="?", help="input CSV file (or use --workload)"
        )
        p.add_argument(
            "--workload",
            choices=sorted(WORKLOAD_BUILDERS),
            help="built-in synthetic relation instead of a CSV",
        )
        p.add_argument(
            "--rows",
            type=int,
            default=20_000,
            help="rows to generate for --workload (default 20000)",
        )
        p.add_argument(
            "--columns",
            help="comma-separated columns to group by (default: all)",
        )
        p.add_argument(
            "--combi",
            type=int,
            default=1,
            help="all column subsets up to this size (default 1)",
        )
        p.add_argument(
            "--queries",
            help="explicit queries, e.g. 'city;state;city,state'",
        )
        p.add_argument(
            "--statistics",
            choices=("exact", "sampled"),
            default="sampled",
        )
        p.add_argument(
            "--max-rows", type=int, default=None, help="row cap when loading"
        )
        p.add_argument(
            "--parallelism",
            type=_positive_int,
            default=1,
            help="worker threads for plan execution; with 2 or more the "
            "plan runs on morsel-driven waves when the engine cost model "
            "says the workload is large enough (default 1)",
        )
        p.add_argument(
            "--memory-budget-bytes",
            type=float,
            default=None,
            help="plan-wide transient-memory budget for the physical "
            "lowering (groupings over it sort or partition)",
        )
        p.add_argument(
            "--cache",
            action="store_true",
            help="enable the semantic result cache: repeated groupings "
            "are served from cached results (exactly or via lattice "
            "reaggregation) instead of rescanning the base relation",
        )

    def format_option(p):
        p.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            help="report format (default text)",
        )

    explain = sub.add_parser(
        "explain",
        help="per-node estimates; --analyze adds actuals and q-error",
    )
    obs_common(explain)
    explain.add_argument(
        "--analyze",
        action="store_true",
        help="execute the plan; report actual rows/bytes/time and q-error",
    )
    explain.add_argument(
        "--history",
        help="append the --analyze run record to this plan-history JSONL "
        "store (see the calibration subcommand)",
    )
    explain.set_defaults(fn=cmd_explain)

    trace = sub.add_parser(
        "trace",
        help="run optimize + execute under the span tracer",
    )
    obs_common(trace)
    trace.add_argument(
        "--out",
        "--output",
        dest="out",
        help="write the span tree to this JSONL file",
    )
    trace.add_argument(
        "--metrics",
        action="store_true",
        help="also print the flat counter/histogram snapshots (tracer "
        "and metrics registry)",
    )
    trace.add_argument(
        "--prom-out",
        help="write the metrics-registry Prometheus text exposition here",
    )
    trace.set_defaults(fn=cmd_trace)

    flame = sub.add_parser(
        "flamegraph",
        help="collapsed-stack profile and self-time table from a run "
        "or an exported trace",
        description="Run optimize + execute under the span tracer (or "
        "replay an exported trace via --from-jsonl) and fold the span "
        "tree into Brendan Gregg collapsed-stack format — consumable "
        "by flamegraph.pl and speedscope — plus a per-operator "
        "self-time table.",
    )
    obs_common(flame)
    flame.add_argument(
        "--from-jsonl",
        help="fold an exported trace JSONL (from `repro trace --out`) "
        "instead of running a workload",
    )
    flame.add_argument(
        "--out",
        "--output",
        dest="out",
        help="write the collapsed-stack profile to this file",
    )
    flame.add_argument(
        "--limit",
        type=int,
        default=20,
        help="self-time table rows to print (default 20)",
    )
    flame.set_defaults(fn=cmd_flamegraph)

    calibration = sub.add_parser(
        "calibration",
        help="q-error calibration report from a plan-history store",
        description="Roll a plan-history JSONL store (written by "
        "`repro explain --analyze --history`) up into the per-"
        "(operator, regime) q-error calibration report: count, "
        "geometric-mean/p50/p95/max q-error, and estimate-bias "
        "direction.",
    )
    calibration.add_argument(
        "history", help="plan-history JSONL file to roll up"
    )
    calibration.add_argument(
        "--relation", help="restrict to runs over this base relation"
    )
    calibration.add_argument(
        "--min-runs",
        type=int,
        default=CALIBRATION_MIN_RUNS,
        help="minimum observations per (operator, regime) group before "
        f"a correction factor is derived (default {CALIBRATION_MIN_RUNS})",
    )
    calibration.add_argument(
        "--clamp",
        type=float,
        nargs=2,
        metavar=("LOWER", "UPPER"),
        default=list(CALIBRATION_FACTOR_BAND),
        help="band every correction factor is clamped to (default "
        f"{CALIBRATION_FACTOR_BAND[0]:g} {CALIBRATION_FACTOR_BAND[1]:g})",
    )
    format_option(calibration)
    calibration.set_defaults(fn=cmd_calibration)

    adaptive = sub.add_parser(
        "adaptive",
        help="run a workload under the feedback loop and show model drift",
        description="Optimize + execute the workload --runs times inside "
        "one Session with the estimate->actual feedback loop enabled: "
        "each execution is recorded into the history store and the "
        "layered cost model refreshes its calibration/adaptive layers, "
        "so later runs may pick different plans.  Prints per-run "
        "estimated cost, wall time, and whether the plan drifted from "
        "run 1, then the final layer state.  --no-feedback runs the "
        "same loop with the feedback loop disabled (the static model).",
    )
    obs_common(adaptive)
    adaptive.add_argument(
        "--runs",
        type=int,
        default=5,
        help="optimize + execute iterations (default 5)",
    )
    adaptive.add_argument(
        "--no-feedback",
        action="store_true",
        help="disable the feedback loop (static cost model baseline)",
    )
    adaptive.add_argument(
        "--history",
        help="persist run records to this plan-history JSONL store "
        "(default: session-scoped in-memory store)",
    )
    format_option(adaptive)
    adaptive.set_defaults(fn=cmd_adaptive)

    sql = sub.add_parser(
        "sql", help="run a GROUPING SETS / CUBE / ROLLUP statement"
    )
    sql.add_argument("csv", help="input CSV file with a header row")
    sql.add_argument(
        "statement",
        help="e.g. \"SELECT a, COUNT(*) FROM data "
        "GROUP BY GROUPING SETS ((a), (b))\"",
    )
    sql.add_argument(
        "--statistics", choices=("exact", "sampled"), default="sampled"
    )
    sql.add_argument("--max-rows", type=int, default=None)
    sql.add_argument(
        "--limit", type=int, default=20, help="result rows to print"
    )
    sql.set_defaults(fn=cmd_sql)

    analyze = sub.add_parser(
        "analyze-plan",
        help="abstract-interpretation dataflow analysis of the lowered "
        "physical plan",
        description="Optimize the workload, lower the winning plan to "
        "physical operators, and run the dataflow analyzer (rules "
        "PV012+) with full catalog and cardinality context: column "
        "availability, grouping lattice, cardinality intervals, "
        "sortedness, and dictionary freshness.",
        epilog="exit status: 0 = no diagnostics, 1 = any diagnostic "
        "(errors or warnings), 2 = usage or input error",
    )
    obs_common(analyze)
    analyze.add_argument(
        "--rules", help="comma-separated rule ids to run (default: all)"
    )
    analyze.add_argument(
        "--states",
        action="store_true",
        help="also print the per-operator abstract states (text format)",
    )
    format_option(analyze)
    analyze.set_defaults(fn=cmd_analyze_plan)

    cache = sub.add_parser(
        "cache",
        help="run a workload under the semantic result cache and report "
        "hit/eviction accounting",
        description="Optimize the workload once, execute it --runs "
        "times inside one Session with the semantic result cache "
        "enabled, and report per-run wall time and scan volume plus "
        "the cache's hit/derived-hit/miss/eviction counters and the "
        "resident entries.  Run 1 is cold (populates the cache); later "
        "runs serve groupings from cached results, exactly or by "
        "lattice reaggregation.",
        epilog="exit status: 0 = success, 2 = usage or input error",
    )
    obs_common(cache)
    cache.add_argument(
        "--runs",
        type=int,
        default=2,
        help="execute iterations; run 1 is the cold run (default 2)",
    )
    cache.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="cache byte budget (default 64 MiB)",
    )
    cache.add_argument(
        "--min-rows",
        type=int,
        default=None,
        help="admit results only from inputs with at least this many "
        "rows (default 0)",
    )
    format_option(cache)
    cache.set_defaults(fn=cmd_cache)

    lint_plan = sub.add_parser(
        "lint-plan",
        help="statically verify a serialized logical plan (JSON)",
        epilog="exit status: 0 = no error-severity findings, 1 = at "
        "least one error finding (warnings alone exit 0), 2 = usage or "
        "input error",
    )
    lint_plan.add_argument(
        "plan", help="plan JSON file (repro.core.serialize format)"
    )
    lint_plan.add_argument(
        "--max-storage-bytes",
        type=float,
        default=None,
        help="enable the Section 4.4.2 storage-bound rule (PV011)",
    )
    lint_plan.add_argument(
        "--cube-max-columns",
        type=int,
        default=None,
        help="enable the CUBE width-cap rule (PV009)",
    )
    lint_plan.add_argument(
        "--stats",
        help="stats JSON ({'base_rows': N, 'columns': {name: distinct}}) "
        "enabling cardinality-dependent rules",
    )
    lint_plan.add_argument(
        "--rules", help="comma-separated rule ids to run (default: all)"
    )
    format_option(lint_plan)
    lint_plan.set_defaults(fn=cmd_lint_plan)

    lint_code = sub.add_parser(
        "lint-code",
        help="run the custom AST lints over the repro sources",
        epilog="exit status: 0 = no findings, 1 = any finding (errors "
        "or warnings), 2 = usage or input error",
    )
    lint_code.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    lint_code.add_argument(
        "--rules", help="comma-separated rule ids to run (default: all)"
    )
    format_option(lint_code)
    lint_code.set_defaults(fn=cmd_lint_code)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except Exception as error:  # engine/parse errors -> clean exit
        from repro.engine.sqlparse import SqlParseError
        from repro.engine.types import EngineError

        if isinstance(error, (EngineError, SqlParseError)):
            print(f"error: {error}", file=sys.stderr)
            return 2
        raise


if __name__ == "__main__":
    sys.exit(main())
