"""Shared-scan baseline: all queries aggregated in one pass over R.

The datacube literature's other sharing primitive (refs [2,8] of the
paper): instead of staging results through materialized intermediates,
keep one aggregation state per query and fill all of them during a
single scan of the base relation.

Its classic limitation — and the reason staging through temps can win —
is memory: the combined aggregation state of many queries may not fit.
That is modeled here with a *group budget*: queries are processed in
batches whose total estimated group count stays under the budget, one
full scan per batch.  With an unbounded budget this is the strongest
possible single-pass executor; with a tight one it degrades toward the
naive plan, which is exactly the trade-off the experiments probe.

Execution runs through the physical layer: the batches are lowered
(:func:`repro.physical.lowering.lower_shared_scan`) to one pipeline per
batch — a *charged* ``Scan`` feeding one cost-chosen grouping operator
per query — and interpreted by the same
:class:`~repro.engine.executor.PlanExecutor` that runs optimizer plans.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.engine.aggregation import AggregateSpec
from repro.engine.catalog import Catalog
from repro.engine.executor import PlanExecutor
from repro.engine.metrics import ExecutionMetrics
from repro.engine.table import Table
from repro.stats.cardinality import CardinalityEstimator


@dataclass
class SharedScanResult:
    """Outcome of a shared-scan execution."""

    results: dict[frozenset[str], Table] = field(default_factory=dict)
    metrics: ExecutionMetrics = field(default_factory=ExecutionMetrics)
    passes: int = 0
    batches: list[list[frozenset[str]]] = field(default_factory=list)
    wall_seconds: float = 0.0


def plan_batches(
    queries: list[frozenset[str]],
    estimator: CardinalityEstimator,
    group_budget: float,
) -> list[list[frozenset[str]]]:
    """Greedy first-fit batching under the aggregation-state budget.

    Queries are considered largest-state first; each batch's total
    estimated group count stays within ``group_budget``.  A query whose
    own state exceeds the budget gets a dedicated pass (it cannot be
    split).
    """
    ordered = sorted(
        set(queries), key=lambda q: (-estimator.rows(q), sorted(q))
    )
    batches: list[list[frozenset[str]]] = []
    loads: list[float] = []
    for query in ordered:
        size = estimator.rows(query)
        placed = False
        for i, load in enumerate(loads):
            if load + size <= group_budget:
                batches[i].append(query)
                loads[i] += size
                placed = True
                break
        if not placed:
            batches.append([query])
            loads.append(size)
    return batches


def shared_scan(
    catalog: Catalog,
    base_table: str,
    queries: list[frozenset[str]],
    estimator: CardinalityEstimator,
    group_budget: float = float("inf"),
    aggregates: list[AggregateSpec] | None = None,
) -> SharedScanResult:
    """Answer all queries with one scan per batch.

    Args:
        catalog: catalog holding the base relation.
        base_table: name of R.
        queries: the input query set.
        estimator: group-count source for batching (and the lowering's
            hash-vs-sort choice per aggregation state).
        group_budget: max total estimated groups held at once.
        aggregates: aggregate list (COUNT(*) by default).
    """
    from repro.analysis.physrules import check_physical_plan
    from repro.physical.lowering import lower_shared_scan

    result = SharedScanResult()
    started = time.perf_counter()
    result.batches = plan_batches(queries, estimator, group_budget)
    physical = lower_shared_scan(
        result.batches,
        catalog=catalog,
        base_table=base_table,
        aggregates=aggregates or [AggregateSpec.count_star()],
        estimator=estimator,
    )
    check_physical_plan(physical)
    executor = PlanExecutor(catalog, base_table, use_indexes=False)
    execution = executor.execute_physical(physical)
    result.results = execution.results
    result.metrics = execution.metrics
    result.passes = len(result.batches)
    result.wall_seconds = time.perf_counter() - started
    return result
