"""Executing a GB-MQO plan against the engine (Section 5.2).

The executor is an *interpreter of physical plans*.  A logical plan is
first lowered (:func:`repro.physical.lowering.lower`) onto a
:class:`~repro.physical.plan.PhysicalPlan` — typed operators (``Scan``,
``IndexScan``, ``HashGroupBy``, ``SortGroupBy``, ``Reaggregate``,
``CubeExpand``, ``RollupExpand``, ``Materialize``, ``DropTemp``)
grouped into pipelines — verified against the physical invariant rules
(PV012+), and then interpreted.  The hash-vs-sort regime of every
grouping is chosen at lowering time from the cost model and column
statistics; per-operator memory estimates are threaded against an
optional plan-wide budget, falling back to the engine's partitioned
execution when a grouping's transient state would not fit.

Execution takes one of two schedules, fixed by the lowering:

* **serial** (``parallelism=1``, or a workload below the cost model's
  parallel floors): pipelines run in order — exactly the paper's
  client-side script of Group By / DROP statements.
* **waves** (``parallelism >= 2`` on a large enough workload): the
  lowered plan carries dependency waves, and one thread pool runs them
  morsel-driven.  Within a wave, every input table feeding at least two
  groupings that can run two-phase becomes one shared-scan batch: the
  input splits into row-range morsels, each morsel pays **one**
  row-store pass feeding every grouping in the batch, and each grouping
  computes decomposable partial states per morsel which merge into
  results bit-identical to the single-pass kernels
  (:mod:`repro.engine.morsel`).  Every other pipeline — including
  groupings too near-unique for two-phase execution — is its own task
  on the same pool, overlapping the batch.  Each pipeline aggregates
  into its own :class:`ExecutionMetrics`, folded back in schedule
  order, and batched groupings record the counters a serial run would
  (one full pass over their input), so results are bit-identical and
  metrics totals equal to serial execution's.

Either way, one plan-wide
:class:`~repro.engine.dictcache.DictionaryCache` is threaded through
every Group By, so each base-relation column is factorized at most once
per plan execution no matter how many operators touch it.

CUBE and ROLLUP nodes (Section 7.1) execute exactly the strategy their
cost model assumes: the full Group By is computed from the node's
parent, and every other covered grouping is computed from that result
by the expand operators.
"""

from __future__ import annotations

import uuid
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from repro.cache import ResultCache, aggregate_signature
from repro.core.plan import LogicalPlan
from repro.core.scheduling import Step
from repro.engine.aggregation import AggregateSpec, group_by, reaggregate_specs
from repro.engine.catalog import Catalog
from repro.engine.dictcache import DictionaryCache
from repro.engine.indexes import Index
from repro.engine.join import union_all
from repro.engine.metrics import ExecutionMetrics
from repro.engine.morsel import MorselGrouping, compute_morsel_groupings
from repro.engine.partitioned_cube import partition_by_values
from repro.engine.table import Table
from repro.engine.types import EngineError
from repro.obs.clock import monotonic
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.obs.tracer import NOOP_TRACER, Span, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.dataflow import AnalysisContext
    from repro.costmodel.engine_model import EngineCostModel
    from repro.physical.lowering import AggregateNeeds
    from repro.physical.plan import (
        CubeExpand,
        GroupingOperator,
        PhysicalPipeline,
        PhysicalPlan,
        PhysicalWave,
        RollupExpand,
    )
    from repro.stats.cardinality import CardinalityEstimator


class ExecutionError(EngineError):
    """The executor was given an inconsistent plan or schedule."""


class TempScope:
    """One plan execution's temporaries, under run-unique catalog names.

    Plans name temps deterministically
    (:func:`~repro.physical.lowering.temp_name_for`), so two
    runs of one plan on a shared catalog would collide on them.  The
    scope stores each temp as its plan name plus a per-run suffix,
    resolves plan names to those catalog names, and drops only its own
    temps.
    """

    def __init__(self, catalog: Catalog) -> None:
        self._catalog = catalog
        self._suffix = f"__run{uuid.uuid4().hex}"
        self._live: set[str] = set()

    def __contains__(self, name: str) -> bool:
        return name in self._live

    def get(self, name: str) -> Table:
        """The table a plan name denotes: this run's temp, else the catalog's."""
        return self._catalog.get(
            name + self._suffix if name in self._live else name
        )

    def materialize(self, table: Table) -> None:
        self._catalog.materialize_temp(table.rename(table.name + self._suffix))
        self._live.add(table.name)

    def drop(self, name: str) -> None:
        self._live.discard(name)
        self._catalog.drop_temp(name + self._suffix)

    def drop_all(self) -> None:
        for name in list(self._live):
            self.drop(name)


@dataclass
class ExecutionResult:
    """Results and accounting for one plan execution.

    Attributes:
        results: query column set -> result table (keys + aggregates).
        metrics: operator-level counters for the run.
        peak_temp_bytes: highest temporary storage held at once.
        wall_seconds: elapsed wall-clock time.
    """

    results: dict[frozenset[str], Table] = field(default_factory=dict)
    metrics: ExecutionMetrics = field(default_factory=ExecutionMetrics)
    peak_temp_bytes: int = 0
    wall_seconds: float = 0.0


class PlanExecutor:
    """Runs logical plans for COUNT(*), custom or per-query aggregates.

    Args:
        catalog: catalog holding the base relation (and its indexes).
        base_table: name of the base relation R.
        aggregates: aggregate list for every required query, or a
            mapping from each query column set to its own list (each
            node then computes the union its subtree needs); defaults
            to COUNT(*) AS cnt.  Must be distributive (see
            :func:`repro.engine.aggregation.reaggregate_specs`).  Only
            the lowering reads it: every grouping operator carries its
            own ``aggregates``.
        use_indexes: answer base-table Group Bys from a covering index
            when one exists and is narrower than the referenced columns.
        tracer: span tracer; when enabled, the run is wrapped in an
            ``execute.plan`` span with one ``execute.node`` child per
            pipeline carrying actual rows/bytes (grouped under
            ``execute.wave`` spans when the plan runs on waves) and one
            ``execute.<operator>`` grandchild per physical operator.
            Tracing is read-only: results and deterministic counters
            are identical with it on or off.
        parallelism: worker threads.  1 (the default) executes the
            lowered linear schedule serially; >= 2 lets the lowering
            put the plan on dependency waves run by a thread pool
            (when the cost model's parallel floors are cleared),
            producing bit-identical tables and equal metrics totals.
        dictionary_cache: a shared plan-wide dictionary cache.  By
            default each ``execute`` call builds a fresh one; serving
            workloads that re-execute plans over the same base relation
            can pass one in to keep encodes warm across runs.
        estimator: column statistics for the lowering's hash-vs-sort
            choice and per-operator estimates; None lowers structurally
            (hash-preferred groupings, zero estimates) — execution is
            bit-identical either way.
        memory_budget_bytes: plan-wide transient-memory budget; grouping
            operators whose estimate exceeds it are demoted to the sort
            regime and then to partitioned execution.  Requires an
            estimator to have any effect.
        metrics: a :class:`~repro.obs.metrics.MetricsRegistry`; when
            enabled, every run records aggregate counters and latency
            histograms (runs, per-operator seconds, grouping regimes,
            dictionary-cache hits/misses) labeled by relation, operator,
            and regime.  Defaults to the process-wide registry, which is
            the no-op singleton unless explicitly enabled — recording is
            read-only and never changes results.
        model: cost model for the lowering, including its serial-or-
            waves decision (e.g. a session's calibrated
            :class:`~repro.costmodel.layers.LayeredCostModel`); None
            builds a fresh uncalibrated model from ``estimator``.
        result_cache: semantic result cache
            (:class:`~repro.cache.ResultCache`).  When given, the
            lowering substitutes ``CacheRead`` operators for groupings
            the cache can serve, the interpreter serves them (falling
            back to cold computation if an entry was evicted), and
            every finished grouping result is offered back to the
            cache.  None (the default) runs cache-unaware —
            bit-identical to the pre-cache behavior.
    """

    def __init__(
        self,
        catalog: Catalog,
        base_table: str,
        aggregates: "AggregateNeeds | None" = None,
        use_indexes: bool = True,
        tracer: Tracer | None = None,
        parallelism: int = 1,
        dictionary_cache: DictionaryCache | None = None,
        estimator: "CardinalityEstimator | None" = None,
        memory_budget_bytes: float | None = None,
        metrics: MetricsRegistry | None = None,
        model: "EngineCostModel | None" = None,
        result_cache: ResultCache | None = None,
    ) -> None:
        if parallelism < 1:
            raise ExecutionError("parallelism must be >= 1")
        self._catalog = catalog
        self._base_table = base_table
        self._aggregates = aggregates or [AggregateSpec.count_star("cnt")]
        self._use_indexes = use_indexes
        self._tracer = tracer or NOOP_TRACER
        self._parallelism = parallelism
        self._dictionary_cache = dictionary_cache
        self._estimator = estimator
        self._memory_budget_bytes = memory_budget_bytes
        self._metrics = metrics if metrics is not None else get_metrics()
        self._model = model
        self._result_cache = result_cache
        # Temps of the plan being interpreted; an executor interprets
        # one plan at a time (a Session builds one per execution).
        self._temps = TempScope(catalog)

    # -- lowering -----------------------------------------------------------------

    def lower(
        self, plan: LogicalPlan, steps: list[Step] | None = None
    ) -> "PhysicalPlan":
        """Lower ``plan`` to the physical plan this executor would run.

        With ``parallelism=1`` the lowering honors ``steps``
        (depth-first when None); a parallel executor schedules itself
        and rejects an explicit linear order.
        """
        from repro.physical.lowering import lower as lower_plan
        from repro.physical.plan import PhysicalPlanError

        try:
            return lower_plan(
                plan,
                catalog=self._catalog,
                base_table=self._base_table,
                aggregates=self._aggregates,
                use_indexes=self._use_indexes,
                estimator=self._estimator,
                memory_budget_bytes=self._memory_budget_bytes,
                steps=steps,
                parallelism=self._parallelism,
                model=self._model,
                result_cache=self._result_cache,
            )
        except PhysicalPlanError as exc:
            # An inconsistent schedule is the caller's error, reported
            # with the executor's exception type as it always was.
            raise ExecutionError(str(exc)) from exc

    def execute(
        self, plan: LogicalPlan, steps: list[Step] | None = None
    ) -> ExecutionResult:
        """Lower ``plan``, verify the physical plan, and interpret it.

        With ``parallelism >= 2`` ``steps`` must be None — a
        caller-supplied linear order has no meaning once independent
        pipelines may run concurrently.
        """
        if plan.relation != self._base_table:
            raise ExecutionError(
                f"plan targets {plan.relation!r}, executor is bound to "
                f"{self._base_table!r}"
            )
        physical = self.lower(plan, steps)
        physical.check(self.analysis_context())
        return self.execute_physical(physical)

    def analysis_context(self) -> "AnalysisContext":
        """Dataflow-analysis context with this executor's ingredients.

        With an estimator attached this enables the full rule catalog
        — including the cardinality-interval containment cross-check
        of the lowering's ``est_rows`` (PV022), making every verified
        execution a standing test of the cost model.
        """
        from repro.analysis.dataflow import AnalysisContext

        return AnalysisContext(
            catalog=self._catalog,
            base_table=self._base_table,
            estimator=self._estimator,
            model=self._model,
        )

    # -- physical interpretation -------------------------------------------------

    def execute_physical(self, physical: "PhysicalPlan") -> ExecutionResult:
        """Interpret a lowered physical plan, serially or on its waves."""
        parallel = physical.waves is not None
        dictionaries = self._dictionary_cache or DictionaryCache(
            metrics=self._metrics
        )
        registry = self._metrics
        dictionary_stats_before = (
            dictionaries.stats() if registry.enabled else {}
        )
        result = ExecutionResult()
        self._temps = TempScope(self._catalog)
        started = monotonic()
        peak_before = self._catalog.peak_temp_bytes
        current_before = self._catalog.current_temp_bytes
        with self._tracer.span(
            "execute.plan",
            relation=physical.relation,
            steps=(
                len(physical.compute_pipelines())
                if parallel
                else len(physical.pipelines)
            ),
            parallelism=self._parallelism,
            mode=physical.mode,
        ) as plan_span:
            try:
                if parallel:
                    local_peak = self._execute_waves(
                        physical, result, dictionaries, current_before
                    )
                else:
                    local_peak = self._execute_serial(
                        physical, result, dictionaries, current_before
                    )
            finally:
                # Leave none of this run's temporaries behind, even on
                # failure; other in-flight runs keep theirs.
                self._temps.drop_all()
            plan_span.set(
                work=result.metrics.work,
                queries=result.metrics.queries_executed,
                **{
                    f"dictionary_{key}": value
                    for key, value in dictionaries.stats().items()
                },
            )
        result.wall_seconds = monotonic() - started
        result.peak_temp_bytes = local_peak - current_before
        result.metrics.mode = physical.mode
        # Keep the catalog's all-time peak meaningful across runs.  The
        # write goes through the catalog so it happens under the temp
        # lock (mutating another object's lock-guarded state directly
        # is exactly what the CL209 concurrency lint rejects).
        self._catalog.set_peak_temp_bytes(max(peak_before, local_peak))
        if registry.enabled:
            self._record_run_metrics(
                registry,
                physical,
                result,
                dictionaries,
                dictionary_stats_before,
            )
        return result

    def _record_run_metrics(
        self,
        registry: MetricsRegistry,
        physical: "PhysicalPlan",
        result: ExecutionResult,
        dictionaries: DictionaryCache,
        dictionary_stats_before: dict[str, int],
    ) -> None:
        """Fold one run's totals into the metrics registry."""
        relation = physical.relation
        mode = physical.mode
        registry.inc(
            "repro_executor_runs_total", relation=relation, mode=mode
        )
        registry.observe(
            "repro_executor_run_seconds",
            result.wall_seconds,
            relation=relation,
            mode=mode,
        )
        registry.inc(
            "repro_executor_queries_total",
            result.metrics.queries_executed,
            relation=relation,
        )
        registry.inc(
            "repro_executor_work_bytes_total",
            result.metrics.work,
            relation=relation,
        )
        registry.set_gauge(
            "repro_executor_peak_temp_bytes",
            result.peak_temp_bytes,
            relation=relation,
        )
        # Hit/miss deltas rather than totals: a shared serving cache
        # outlives this run, and its counters must not double-count.
        after = dictionaries.stats()
        for stat in ("hits", "misses"):
            delta = after[stat] - dictionary_stats_before.get(stat, 0)
            if delta:
                registry.inc(
                    f"repro_dictcache_{stat}_total", delta, relation=relation
                )

    # -- schedules -----------------------------------------------------------------

    def _execute_serial(
        self,
        physical: "PhysicalPlan",
        result: ExecutionResult,
        dictionaries: DictionaryCache,
        current_before: int,
    ) -> int:
        local_peak = current_before
        for pipeline in physical.pipelines:
            if pipeline.is_compute:
                self._run_pipeline(physical, pipeline, result, dictionaries)
            else:
                self._run_drop(physical, pipeline)
            local_peak = max(local_peak, self._catalog.current_temp_bytes)
        return local_peak

    def _execute_waves(
        self,
        physical: "PhysicalPlan",
        result: ExecutionResult,
        dictionaries: DictionaryCache,
        current_before: int,
    ) -> int:
        """Run the dependency waves on one thread pool.

        Each pipeline aggregates into its own ``ExecutionMetrics``;
        after every wave they fold into the result in schedule order,
        so totals are deterministic and equal to a serial run's
        regardless of thread interleaving.
        """
        local_peak = current_before
        assert physical.waves is not None
        with ThreadPoolExecutor(
            max_workers=self._parallelism, thread_name_prefix="repro-wave"
        ) as pool:
            for wave in physical.waves:
                wave_metrics = {
                    index: ExecutionMetrics() for index in wave.pipelines
                }
                self._run_wave(
                    physical, wave, result, dictionaries, wave_metrics, pool
                )
                # Fold in deterministic schedule order, not completion
                # order; peak temp storage is maximal right before the
                # wave's drops run.
                for index in wave.pipelines:
                    result.metrics.merge_in(wave_metrics[index])
                local_peak = max(
                    local_peak, self._catalog.current_temp_bytes
                )
                for index in wave.drops:
                    self._run_drop(physical, physical.pipelines[index])
        return local_peak

    def _run_wave(
        self,
        physical: "PhysicalPlan",
        wave: "PhysicalWave",
        result: ExecutionResult,
        dictionaries: DictionaryCache,
        wave_metrics: dict[int, ExecutionMetrics],
        pool: ThreadPoolExecutor,
    ) -> None:
        """Run one wave's compute pipelines as pool tasks.

        Every input table feeding at least two feasible groupings
        becomes one shared-scan batch
        (:func:`~repro.engine.morsel.compute_morsel_groupings`, its
        morsels running on the pool); every other pipeline starts at
        once and overlaps the batch.  Batched pipelines start when
        their batch is done and claim its precomputed result.
        """
        futures: list[Future[None]] = []
        with self._tracer.span(
            "execute.wave", index=wave.index, nodes=len(wave.pipelines)
        ) as wave_span:

            def submit(
                index: int, precomputed: dict[int, Table] | None = None
            ) -> None:
                futures.append(
                    pool.submit(
                        self._run_pipeline,
                        physical,
                        physical.pipelines[index],
                        result,
                        dictionaries,
                        wave_metrics[index],
                        wave_span,
                        precomputed,
                    )
                )

            batches: dict[str, list[tuple[int, GroupingOperator]]] = {}
            for index in wave.pipelines:
                entry = self._morsel_batch_entry(
                    physical, physical.pipelines[index]
                )
                if entry is None:
                    submit(index)
                else:
                    source_name, op = entry
                    batches.setdefault(source_name, []).append((index, op))
            for source_name, members in batches.items():
                self._run_morsel_batch(
                    physical,
                    source_name,
                    members,
                    dictionaries,
                    pool,
                    submit,
                    wave_span,
                )
            for future in futures:
                future.result()

    def _morsel_batch_entry(
        self, physical: "PhysicalPlan", pipeline: "PhysicalPipeline"
    ) -> tuple[str, "GroupingOperator"] | None:
        """(input table name, grouping op) if the pipeline batches.

        A pipeline joins a morsel batch when its unpartitioned grouping
        reads either the base relation through a plain ``Scan`` or a
        materialized temp through ``Reaggregate``; index scans and
        budget-partitioned groupings keep their own execution scheme.
        A single-morsel batch still shares its one scan across every
        member, so small inputs batch too.
        """
        from repro.physical import plan as phys

        for op_id in pipeline.ops:
            op = physical.op(op_id)
            if isinstance(op, phys.Reaggregate):
                if op.partitions != 1:
                    return None
                producer = physical.op(op.source)
                if not isinstance(producer, phys.Materialize):
                    return None
                return producer.output, op
            if isinstance(op, phys.GroupingOperator):
                if op.partitions != 1:
                    return None
                source = physical.op(op.source)
                if not isinstance(source, phys.Scan):
                    return None
                return source.table, op
        return None

    def _run_morsel_batch(
        self,
        physical: "PhysicalPlan",
        source_name: str,
        members: list[tuple[int, "GroupingOperator"]],
        dictionaries: DictionaryCache,
        pool: ThreadPoolExecutor,
        submit: Callable[..., None],
        wave_span: Span,
    ) -> None:
        """Run one input's shared-scan batch; submit every member's task.

        Members whose grouping cannot run two-phase are submitted at
        once, as are all members when fewer than two can (a batch of
        one shares nothing, so the single-pass kernel is strictly
        cheaper).  The rest compute over shared morsel scans, then
        their pipelines are submitted to claim the results.
        """
        from repro.physical import plan as phys

        if len(members) < 2:
            for index, _ in members:
                submit(index)
            return
        table = self._temps.get(source_name)
        batch: list[tuple[int, "GroupingOperator", MorselGrouping]] = []
        for index, op in members:
            aggregates = (
                reaggregate_specs(op.aggregates)
                if isinstance(op, phys.Reaggregate)
                else op.aggregates
            )
            # Feasibility is only known here (it needs the per-key
            # cardinalities).
            grouping = MorselGrouping(
                table,
                list(op.keys),
                aggregates,
                name=op.output,
                dictionaries=dictionaries,
            )
            if grouping.feasible:
                batch.append((index, op, grouping))
            else:
                submit(index)
        if len(batch) < 2:
            for index, _, _ in batch:
                submit(index)
            return
        morsels = max(op.morsels for _, op, _ in batch)
        registry = self._metrics
        with self._tracer.span_under(
            wave_span,
            "execute.morsel_batch",
            source=source_name,
            groupings=len(batch),
            morsels=morsels,
        ) as batch_span:
            started = monotonic()
            tables, stats = compute_morsel_groupings(
                table, [grouping for _, _, grouping in batch], morsels, pool
            )
            batch_seconds = monotonic() - started
            for i, (start, stop) in enumerate(stats.ranges):
                with self._tracer.span_under(
                    batch_span,
                    "execute.morsel",
                    index=i,
                    rows=stop - start,
                    bytes=stats.bytes_per_morsel[i],
                ):
                    pass
            batch_span.set(
                morsels_run=stats.morsels,
                bytes=sum(stats.bytes_per_morsel),
            )
            if registry.enabled:
                relation = physical.relation
                registry.inc(
                    "repro_executor_morsel_batches_total",
                    relation=relation,
                )
                registry.inc(
                    "repro_executor_morsels_total",
                    stats.morsels,
                    relation=relation,
                )
                registry.observe(
                    "repro_executor_morsel_batch_seconds",
                    batch_seconds,
                    relation=relation,
                )
                for start, stop in stats.ranges:
                    registry.observe(
                        "repro_executor_morsel_rows",
                        stop - start,
                        relation=relation,
                    )
        precomputed = {
            op.op_id: out for (_, op, _), out in zip(batch, tables)
        }
        for index, _, _ in batch:
            submit(index, precomputed)

    # -- pipeline interpreter ------------------------------------------------------

    def _run_drop(
        self, physical: "PhysicalPlan", pipeline: "PhysicalPipeline"
    ) -> None:
        from repro.physical.plan import DropTemp as DropTempOp

        for op_id in pipeline.ops:
            op = physical.op(op_id)
            if not isinstance(op, DropTempOp):
                raise ExecutionError(
                    f"drop pipeline contains non-drop operator {op.describe()}"
                )
            with self._tracer.span("execute.drop_temp", temp=op.temp):
                self._temps.drop(op.temp)

    def _run_pipeline(
        self,
        physical: "PhysicalPlan",
        pipeline: "PhysicalPipeline",
        result: ExecutionResult,
        dictionaries: DictionaryCache,
        metrics: ExecutionMetrics | None = None,
        parent_span: Span | None = None,
        precomputed: dict[int, Table] | None = None,
    ) -> None:
        metrics = result.metrics if metrics is None else metrics
        bytes_before = metrics.work
        attrs = dict(
            node=pipeline.label,
            source=pipeline.source,
            kind=pipeline.kind,
            materialized=pipeline.materialized,
        )
        if parent_span is None:
            span_context = self._tracer.span("execute.node", **attrs)
        else:
            span_context = self._tracer.span_under(
                parent_span, "execute.node", **attrs
            )
        with span_context as span:
            # Intra-pipeline data flow: operator id -> produced input
            # (a Table, or the Index an IndexScan resolved).  Data from
            # other pipelines is only reachable through the catalog.
            env: dict[int, Table | Index] = {}
            rows_out: int | None = None
            for op_id in pipeline.ops:
                produced = self._run_op(
                    physical, physical.op(op_id), env, result, metrics,
                    dictionaries, span, precomputed,
                )
                if rows_out is None and produced is not None:
                    rows_out = produced
            step_bytes = metrics.work - bytes_before
            if pipeline.attribute:
                metrics.per_query_bytes[pipeline.label] = step_bytes
            span.set(rows_out=rows_out or 0, bytes=step_bytes)

    def _run_op(
        self,
        physical: "PhysicalPlan",
        op,
        env: dict[int, Table | Index],
        result: ExecutionResult,
        metrics: ExecutionMetrics,
        dictionaries: DictionaryCache,
        node_span: Span,
        precomputed: dict[int, Table] | None = None,
    ) -> int | None:
        """Interpret one operator; returns grouping output rows (else None)."""
        registry = self._metrics
        if not registry.enabled:
            return self._interpret_op(
                physical, op, env, result, metrics, dictionaries, node_span,
                precomputed,
            )
        op_started = monotonic()
        try:
            return self._interpret_op(
                physical, op, env, result, metrics, dictionaries, node_span,
                precomputed,
            )
        finally:
            registry.observe(
                "repro_executor_op_seconds",
                monotonic() - op_started,
                op=op.op_name,
            )
            registry.inc("repro_executor_ops_total", op=op.op_name)

    def _interpret_op(
        self,
        physical: "PhysicalPlan",
        op,
        env: dict[int, Table | Index],
        result: ExecutionResult,
        metrics: ExecutionMetrics,
        dictionaries: DictionaryCache,
        node_span: Span,
        precomputed: dict[int, Table] | None = None,
    ) -> int | None:
        from repro.physical import plan as phys

        with self._tracer.span_under(
            node_span, f"execute.{op.op_name}", op_id=op.op_id
        ) as op_span:
            if isinstance(op, phys.Scan):
                table = self._catalog.get(op.table)
                if op.charge:
                    metrics.record_scan(table.num_rows, table.touch())
                env[op.op_id] = table
                op_span.set(rows_out=table.num_rows)
                return None
            if isinstance(op, phys.IndexScan):
                index = self._resolve_index(op.table, op.index)
                env[op.op_id] = index
                op_span.set(sorted_prefix=op.sorted_prefix)
                return None
            if isinstance(op, phys.CacheRead):
                table, served = self._run_cache_read(
                    op, metrics, dictionaries
                )
                env[op.op_id] = table
                if op.query is not None:
                    result.results[frozenset(op.query)] = table
                op_span.set(
                    rows_out=table.num_rows,
                    served=served,
                    derived=op.derived,
                )
                return table.num_rows
            morsel_batched = (
                precomputed is not None
                and op.op_id in precomputed
                and isinstance(op, phys.GroupingOperator)
            )
            if morsel_batched:
                assert precomputed is not None
                table = self._claim_precomputed(
                    physical, op, env, precomputed[op.op_id], metrics
                )
            elif isinstance(op, phys.GroupingOperator):
                table = self._run_grouping(
                    physical, op, env, metrics, dictionaries
                )
            elif isinstance(op, phys.CubeExpand):
                self._run_cube_expand(op, env, result, metrics, dictionaries)
                op_span.set(queries=len(op.queries))
                return None
            elif isinstance(op, phys.RollupExpand):
                self._run_rollup_expand(
                    op, env, result, metrics, dictionaries
                )
                op_span.set(prefixes=len(op.order) - 1)
                return None
            elif isinstance(op, phys.Materialize):
                self._run_materialize(physical, op, env, metrics)
                return None
            elif isinstance(op, phys.DropTemp):
                self._temps.drop(op.temp)
                return None
            else:
                raise ExecutionError(
                    f"unknown physical operator {op.op_name!r}"
                )
            # Shared tail of the grouping operators.
            regime = "morsel" if morsel_batched else _strategy(op)
            env[op.op_id] = table
            if op.query is not None:
                result.results[frozenset(op.query)] = table
            if self._result_cache is not None:
                self._populate_cache(op, table)
            op_span.set(rows_out=table.num_rows, regime=regime)
            self._metrics.inc(
                "repro_executor_groupings_total",
                op=op.op_name,
                regime=regime,
            )
            return table.num_rows

    # -- operator implementations --------------------------------------------------

    def _resolve_index(self, table: str, name: str) -> Index:
        for index in self._catalog.indexes_on(table):
            if index.name == name:
                return index
        raise ExecutionError(f"index {name!r} on {table!r} does not exist")

    def _claim_precomputed(
        self,
        physical: "PhysicalPlan",
        op: "GroupingOperator",
        env: dict[int, Table | Index],
        table: Table,
        metrics: ExecutionMetrics,
    ) -> Table:
        """Adopt a morsel-batch result, metered exactly as serial is.

        The batch already did the physical work — one shared row-store
        pass per morsel for the whole batch.  The *deterministic*
        counters, however, charge this operator what the serial
        interpreter would: one full scan of its input
        (``scan_bytes`` meters without re-touching memory) plus one
        grouping.  Metrics totals are therefore mode-independent while
        the real memory traffic is what morsel execution saves.
        """
        metrics.queries_executed += 1
        source = self._grouping_input(physical, op, env)
        assert isinstance(source, Table)
        if op.charge_scan:
            metrics.record_scan(source.num_rows, source.scan_bytes())
        metrics.record_group_by()
        return table

    def _grouping_input(
        self,
        physical: "PhysicalPlan",
        op: "GroupingOperator",
        env: dict[int, Table | Index],
    ) -> Table | Index:
        """The input of a grouping operator.

        A materialized intermediate lives in an earlier pipeline and is
        resolved through the catalog; access paths and cache reads hand
        theirs over in the pipeline environment.
        """
        from repro.physical.plan import Materialize

        producer = physical.op(op.source)
        if isinstance(producer, Materialize):
            if producer.output not in self._temps:
                raise ExecutionError(
                    f"intermediate {producer.output!r} was not "
                    "materialized before its consumers"
                )
            return self._temps.get(producer.output)
        source = env.get(op.source)
        if source is None:
            raise ExecutionError(
                f"operator {op.op_id} reads missing pipeline input "
                f"{op.source}"
            )
        return source

    def _run_grouping(
        self,
        physical: "PhysicalPlan",
        op: "GroupingOperator",
        env: dict[int, Table | Index],
        metrics: ExecutionMetrics,
        dictionaries: DictionaryCache,
    ) -> Table:
        """Group the operator's input by its keys.

        A Reaggregate's input is already grouped, so it combines the
        partial aggregates (:func:`reaggregate_specs`).
        """
        from repro.physical.plan import Reaggregate

        metrics.queries_executed += 1
        source = self._grouping_input(physical, op, env)
        strategy = _strategy(op)
        aggregates: Sequence[AggregateSpec] = op.aggregates
        if isinstance(op, Reaggregate):
            aggregates = reaggregate_specs(aggregates)
        keys = list(op.keys)
        if isinstance(source, Index):
            return source.group_by(
                keys,
                aggregates,
                op.output,
                metrics,
                dictionaries=dictionaries,
                strategy=strategy,
            )
        if op.partitions > 1:
            return self._group_partitioned(
                source, op, aggregates, metrics, dictionaries, strategy
            )
        table = group_by(
            source,
            keys,
            aggregates,
            name=op.output,
            metrics=metrics if op.charge_scan else None,
            dictionaries=dictionaries,
            strategy=strategy,
        )
        if not op.charge_scan:
            # An upstream charged Scan already paid for the pass over
            # the input (shared scan); meter only the grouping itself.
            metrics.record_group_by()
        return table

    def _run_cache_read(
        self,
        op,
        metrics: ExecutionMetrics,
        dictionaries: DictionaryCache,
    ) -> tuple[Table, bool]:
        """Serve a cached grouping result, recomputing if it was evicted.

        Returns ``(table, served)`` where ``served`` is False on the
        fallback path (the entry vanished between lowering and
        execution, so the grouping runs cold against the base table).
        An exact hit counts as an executed query; a derived hit does
        not — its downstream Reaggregate does the counting, mirroring
        the parent-reuse path.
        """
        cache = self._result_cache
        if cache is not None:
            table = cache.serve(op.fingerprint, derived=op.derived)
            if table is not None:
                if not op.derived:
                    metrics.queries_executed += 1
                if table.name != op.output:
                    table = table.rename(op.output)
                return table, True
        source = self._catalog.get(op.table)
        metrics.queries_executed += 1
        table = group_by(
            source,
            list(op.keys),
            op.aggregates,
            name=op.output,
            metrics=metrics,
            dictionaries=dictionaries,
        )
        return table, False

    def _populate_cache(self, op, table: Table) -> None:
        """Admit a finished grouping result into the result cache."""
        assert self._result_cache is not None
        base = self._catalog.get(self._base_table)
        self._result_cache.put(
            self._base_table,
            self._catalog.version(self._base_table),
            op.keys,
            table,
            est_cost=op.est_cost,
            input_rows=base.num_rows,
            agg_sig=aggregate_signature(op.aggregates),
        )

    def _group_partitioned(
        self,
        source: Table,
        op: "GroupingOperator",
        aggregates: Sequence[AggregateSpec],
        metrics: ExecutionMetrics,
        dictionaries: DictionaryCache,
        strategy: str,
    ) -> Table:
        """Budget fallback: group per value-range partition, concatenate.

        Partitions split on contiguous dictionary-code ranges of the
        first (alphabetically lowest) key, so each partition's sorted
        group order is a contiguous slice of the global order and the
        concatenation is bit-identical to the unpartitioned result.
        The scan and grouping are metered once for the whole input —
        the partitioned pass still reads each row once.
        """
        keys = list(op.keys)
        if op.charge_scan:
            metrics.record_scan(source.num_rows, source.touch())
        metrics.record_group_by()
        parts = partition_by_values(source, keys[0], op.partitions)
        if len(parts) <= 1:
            return group_by(
                source,
                keys,
                aggregates,
                name=op.output,
                metrics=None,
                dictionaries=dictionaries,
                strategy=strategy,
            )
        grouped = [
            group_by(
                part,
                keys,
                aggregates,
                name=f"{op.output}_part{i}",
                metrics=None,
                dictionaries=None,
                strategy=strategy,
            )
            for i, part in enumerate(parts)
        ]
        return union_all(grouped, name=op.output)

    def _run_cube_expand(
        self,
        op: "CubeExpand",
        env: dict[int, Table | Index],
        result: ExecutionResult,
        metrics: ExecutionMetrics,
        dictionaries: DictionaryCache,
    ) -> None:
        """Answer every covered CUBE grouping from the top's result."""
        top = env.get(op.source)
        if not isinstance(top, Table):
            raise ExecutionError(
                f"cube expand {op.op_id} reads missing pipeline input "
                f"{op.source}"
            )
        top.build_dictionaries()
        reaggregates = reaggregate_specs(op.aggregates)
        for query in op.queries:
            metrics.queries_executed += 1
            table = group_by(
                top,
                list(query),
                reaggregates,
                name="cube_" + "_".join(query),
                metrics=metrics,
                dictionaries=dictionaries,
            )
            result.results[frozenset(query)] = table

    def _run_rollup_expand(
        self,
        op: "RollupExpand",
        env: dict[int, Table | Index],
        result: ExecutionResult,
        metrics: ExecutionMetrics,
        dictionaries: DictionaryCache,
    ) -> None:
        """Answer ROLLUP prefixes successively, each from the previous."""
        current = env.get(op.source)
        if not isinstance(current, Table):
            raise ExecutionError(
                f"rollup expand {op.op_id} reads missing pipeline input "
                f"{op.source}"
            )
        answers = set(op.answers)
        reaggregates = reaggregate_specs(op.aggregates)
        for i in range(len(op.order) - 1, 0, -1):
            prefix = list(op.order[:i])
            metrics.queries_executed += 1
            current = group_by(
                current,
                prefix,
                reaggregates,
                name="rollup_" + "_".join(prefix),
                metrics=metrics,
                dictionaries=dictionaries,
            )
            if tuple(sorted(prefix)) in answers:
                result.results[frozenset(prefix)] = current

    def _run_materialize(
        self,
        physical: "PhysicalPlan",
        op,
        env: dict[int, Table | Index],
        metrics: ExecutionMetrics,
    ) -> None:
        table = env.get(op.source)
        if not isinstance(table, Table):
            raise ExecutionError(
                f"materialize {op.op_id} reads missing pipeline input "
                f"{op.source}"
            )
        # Dictionary-encode the temp's key columns before the catalog
        # exposes it, so child queries aggregate over dense codes (the
        # cost model charges this encode work as part of materialization).
        producer = physical.op(op.source)
        for column in getattr(producer, "keys", ()):
            table.dictionary(column)
        self._temps.materialize(table)
        metrics.record_materialize(table.num_rows, table.size_bytes())


def _strategy(op: "GroupingOperator") -> str:
    """The grouping regime, ``hash`` or ``sort``, an operator runs."""
    from repro.physical.plan import Reaggregate, SortGroupBy

    if isinstance(op, Reaggregate):
        return op.strategy
    return "sort" if isinstance(op, SortGroupBy) else "hash"


def execute_naive(
    catalog: Catalog,
    base_table: str,
    queries: list[frozenset[str]],
    aggregates: list[AggregateSpec] | None = None,
    use_indexes: bool = True,
) -> ExecutionResult:
    """Convenience: run every query directly against the base relation."""
    from repro.core.plan import naive_plan

    executor = PlanExecutor(
        catalog, base_table, aggregates=aggregates, use_indexes=use_indexes
    )
    return executor.execute(naive_plan(base_table, queries))
