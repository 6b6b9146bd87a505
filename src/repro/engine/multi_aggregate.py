"""Executing plans for workloads with per-query aggregates (Section 7.2).

The base GB-MQO problem assumes COUNT(*) everywhere.  This module runs
a logical plan for queries that each carry their own aggregate list
(SUM, MIN, MAX, AVG, COUNT(col), ...) through the one plan executor:

* :func:`prepare_workload` tracks aggregates by canonical identity
  (func, column), so two queries requesting SUM(x) under different
  aliases share one materialized column, and decomposes AVG into
  SUM + COUNT — the standard rewrite that makes it distributive;
* the lowering (:func:`repro.physical.lowering.node_aggregates`) gives
  every node the *union* of the aggregates needed anywhere in its
  subtree (the Section 7.2 union strategy, which
  :func:`repro.core.extensions.choose_merge_strategy` justifies when
  scans dominate), and children reaggregate it distributively
  (COUNT -> SUM of partial counts, SUM -> SUM, MIN -> MIN, MAX -> MAX);
* :class:`~repro.engine.executor.PlanExecutor` runs the lowered plan
  like any other — verified, traced, cache-aware and parallel;
* each query's result is then captured: requested aliases are restored
  and AVG is recombined from its SUM and COUNT.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.extensions import AggregateQuery
from repro.core.plan import LogicalPlan, NodeKind
from repro.engine.aggregation import AggregateSpec
from repro.engine.catalog import Catalog
from repro.engine.executor import ExecutionResult, PlanExecutor
from repro.engine.table import Table
from repro.engine.types import EngineError, SchemaError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.physical.lowering import AggregateNeeds


class MultiAggregateError(EngineError):
    """The workload or plan cannot be executed with these aggregates."""


def canonical_alias(func: str, column: str | None) -> str:
    """The shared output column name for one aggregate identity."""
    if func == "count":
        return "cnt"
    return f"{func}_{column}"


def _canonical(spec: AggregateSpec) -> AggregateSpec:
    return AggregateSpec(spec.func, spec.column, canonical_alias(spec.func, spec.column))


@dataclass(frozen=True)
class _CaptureColumn:
    """How to produce one requested output column from canonical ones."""

    alias: str  # the user-requested name
    kind: str  # 'direct' or 'avg'
    source: str = ""  # canonical alias for 'direct'
    sum_alias: str = ""  # canonical SUM alias for 'avg'
    count_alias: str = ""  # canonical COUNT alias for 'avg'


@dataclass
class PreparedWorkload:
    """A multi-aggregate workload normalized for execution.

    Attributes:
        needs: query column set -> canonical aggregate specs it needs.
        captures: query column set -> output column recipes.
    """

    needs: dict[frozenset[str], dict[str, AggregateSpec]] = field(default_factory=dict)
    captures: dict[frozenset[str], list[_CaptureColumn]] = field(
        default_factory=dict
    )


def prepare_workload(queries: list[AggregateQuery]) -> PreparedWorkload:
    """Normalize aliases, decompose AVG, and index needs by column set."""
    prepared = PreparedWorkload()
    for query in queries:
        columns = frozenset(query.columns)
        needs = prepared.needs.setdefault(columns, {})
        captures = prepared.captures.setdefault(columns, [])
        for spec in query.aggregates:
            if spec.func == "avg":
                if spec.column is None:
                    raise MultiAggregateError("AVG requires a column")
                sum_spec = _canonical(AggregateSpec("sum", spec.column, "x"))
                cnt_spec = _canonical(AggregateSpec.count_star())
                needs[(sum_spec.func, sum_spec.column)] = sum_spec
                needs[(cnt_spec.func, cnt_spec.column)] = cnt_spec
                captures.append(
                    _CaptureColumn(
                        alias=spec.alias,
                        kind="avg",
                        sum_alias=sum_spec.alias,
                        count_alias=cnt_spec.alias,
                    )
                )
            else:
                canonical = _canonical(spec)
                needs[(canonical.func, canonical.column)] = canonical
                captures.append(
                    _CaptureColumn(
                        alias=spec.alias, kind="direct", source=canonical.alias
                    )
                )
    return prepared


def execute_multi_aggregate(
    catalog: Catalog,
    base_table: str,
    plan: LogicalPlan,
    queries: list[AggregateQuery],
    make_executor: Callable[[AggregateNeeds], PlanExecutor] | None = None,
) -> ExecutionResult:
    """Execute ``plan`` computing each query's own aggregates.

    Args:
        catalog: catalog holding the base relation.
        base_table: name of R.
        plan: a logical plan answering exactly the queries' column sets
            (obtain it from the optimizer over
            :func:`repro.core.extensions.queries_to_column_sets`).
        queries: the aggregate queries.
        make_executor: builds the :class:`PlanExecutor` for the
            workload's per-query canonical aggregates (a session passes
            one with its estimator, tracer, metrics and result cache);
            None runs a plain executor over ``catalog``.

    Returns:
        The plan execution, its results keyed by column set and each
        projected to the requested keys + aggregate aliases.
    """
    for subplan in plan.iter_subplans():
        if subplan.node.kind is not NodeKind.GROUP_BY:
            raise MultiAggregateError(
                "CUBE/ROLLUP nodes are not supported with per-query "
                "aggregates; plan with plain Group By nodes"
            )
    prepared = prepare_workload(queries)
    missing = set(prepared.needs) - plan.answered_queries()
    if missing:
        raise MultiAggregateError(
            f"plan does not answer {len(missing)} of the queries"
        )
    needs = {
        columns: tuple(specs.values())
        for columns, specs in prepared.needs.items()
    }
    if make_executor is None:
        make_executor = partial(PlanExecutor, catalog, base_table)
    execution = make_executor(needs).execute(plan)
    execution.results = {
        columns: _capture(columns, table, prepared)
        for columns, table in execution.results.items()
    }
    return execution


def _capture(
    columns: frozenset[str], table: Table, prepared: PreparedWorkload
) -> Table:
    """Project a node's result to the query's keys and requested aliases."""
    recipes = prepared.captures.get(columns, [])
    output: dict[str, np.ndarray] = {
        key: table[key] for key in sorted(columns)
    }
    for recipe in recipes:
        if recipe.alias in output:
            raise SchemaError(f"duplicate output column {recipe.alias!r}")
        if recipe.kind == "direct":
            output[recipe.alias] = table[recipe.source]
        else:
            counts = table[recipe.count_alias]
            output[recipe.alias] = table[recipe.sum_alias] / np.maximum(
                counts, 1
            )
    return Table.wrap("result_" + "_".join(sorted(columns)), output)
