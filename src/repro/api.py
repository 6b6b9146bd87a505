"""High-level public API: a Session tying the whole system together.

A :class:`Session` owns a catalog with one base relation, a statistics
source, a cost model, and an executor, and exposes the paper's workflow
as three calls: ``optimize`` (run GB-MQO), ``execute`` (run a logical
plan), and ``run`` (both).  Everything underneath is reachable for
advanced use, but the examples and experiments go through this facade.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.optimizer import (
    GbMqoOptimizer,
    OptimizationResult,
    OptimizerOptions,
)
from repro.core.plan import LogicalPlan, naive_plan
from repro.core.scheduling import (
    Step,
    depth_first_schedule,
    storage_minimizing_schedule,
)
from repro.core.storage import estimator_size_fn
from repro.costmodel.base import CostModel, PlanCoster
from repro.costmodel.cardinality import CardinalityCostModel
from repro.costmodel.engine_model import (
    CALIBRATION_FACTOR_BAND,
    CALIBRATION_MIN_RUNS,
    EngineCostModel,
)
from repro.costmodel.layers import (
    ADAPTIVE_MIN_OBSERVATIONS,
    AdaptiveThresholdLayer,
    CalibrationLayer,
    CostLayer,
    LayeredCostModel,
)
from repro.cache import CacheConfig, ResultCache
from repro.engine.aggregation import AggregateSpec
from repro.engine.catalog import Catalog
from repro.engine.executor import ExecutionResult, PlanExecutor
from repro.engine.indexes import IndexSpec
from repro.engine.table import Table
from repro.obs.history import PlanHistoryStore
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.obs.tracer import NOOP_TRACER, Span, Tracer
from repro.stats.cardinality import (
    CardinalityEstimator,
    ExactCardinalityEstimator,
    SampledCardinalityEstimator,
)

# Re-exports that make ``from repro import api`` self-sufficient.
from repro.workloads.queries import (  # noqa: F401
    containment_workload,
    single_column_queries,
    two_column_queries,
)
from repro.workloads.tpch import make_lineitem  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.physical.lowering import AggregateNeeds
    from repro.physical.plan import PhysicalPlan


@dataclass
class RunOutcome:
    """optimize + execute in one call."""

    optimization: OptimizationResult
    execution: ExecutionResult


@dataclass(frozen=True)
class FeedbackConfig:
    """Knobs of the Session's estimate→actual feedback loop.

    Passing a config (or ``feedback=True`` for the defaults) to
    :class:`Session` closes the loop automatically: every ``execute()``
    records est-vs-actual per node into the history store, and the
    session's single layered cost model refreshes its correction layers
    on the configured cadence — so later ``optimize()`` calls plan with
    calibrated costs.

    Args:
        history: where run records go — a
            :class:`~repro.obs.history.PlanHistoryStore`, a JSONL path
            (persistent across processes), or None for a session-scoped
            in-memory store.
        refresh_every: refresh the correction layers after every N
            recorded executions (default 1 — immediate feedback).
        min_runs: minimum observations per (operator, regime) group
            before the calibration layer trusts it.
        clamp: ``(lower, upper)`` band calibration factors clamp to.
        adaptive: also attach the metrics-driven
            :class:`~repro.costmodel.layers.AdaptiveThresholdLayer`
            (hash-vs-sort factor, morsel mode floor re-tuning).
        min_observations: minimum metric-histogram count the adaptive
            layer needs on both sides of a comparison.
    """

    history: "PlanHistoryStore | str | Path | None" = None
    refresh_every: int = 1
    min_runs: int = CALIBRATION_MIN_RUNS
    clamp: tuple[float, float] = CALIBRATION_FACTOR_BAND
    adaptive: bool = True
    min_observations: int = ADAPTIVE_MIN_OBSERVATIONS
    extra_layers: tuple[CostLayer, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.refresh_every < 1:
            raise ValueError(
                f"refresh_every must be >= 1, got {self.refresh_every}"
            )


class Session:
    """One base relation plus everything needed to plan and run on it.

    Args:
        catalog: catalog already holding the base relation.
        base_table: the relation's name.
        estimator: cardinality source for the cost models.
        cost_model: 'engine' (the realistic optimizer model, default) or
            'cardinality' (the analytic Section 3.2.1 model).
        use_indexes: let execution answer queries from covering indexes.
        tracer: span tracer threaded through the optimizer, cost model,
            and executor.  Defaults to the shared no-op tracer, which
            records nothing and adds near-zero overhead.
        metrics: metrics registry threaded through the same layers for
            aggregate counters/histograms (see :mod:`repro.obs.metrics`).
            Defaults to the process-wide registry, which is the no-op
            singleton unless explicitly enabled.  With feedback enabled
            and no explicitly-enabled registry available, the session
            creates a private recording registry so the adaptive layer
            has distributions to read.
        feedback: False (default — today's behavior, bit-identical),
            True for the default estimate→actual feedback loop, or a
            :class:`FeedbackConfig` for full control.  When enabled the
            session holds ONE layered cost model across optimize calls,
            records every ``execute()`` into its history store, and
            refreshes the correction layers on the configured cadence.
        cache: False (default — bit-identical to a cache-less session),
            True for a semantic result cache with the default
            :class:`~repro.cache.CacheConfig`, or a config for full
            control.  When enabled, finished grouping results are
            admitted into a :class:`~repro.cache.ResultCache` and later
            runs serve exact or lattice-derivable hits through
            zero-scan-cost ``CacheRead`` operators; base-table mutations
            (``catalog.replace_table`` / :meth:`invalidate`) drop
            dependent entries atomically.

    Sessions are context managers: ``with Session.for_table(t) as s:``
    releases held resources (history file handle, cached results,
    cached dictionaries) on exit via :meth:`close`.
    """

    def __init__(
        self,
        catalog: Catalog,
        base_table: str,
        estimator: CardinalityEstimator,
        cost_model: str = "engine",
        use_indexes: bool = True,
        enable_plan_cache: bool = False,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        feedback: bool | FeedbackConfig = False,
        cache: bool | CacheConfig = False,
    ) -> None:
        self.catalog = catalog
        self.base_table = base_table
        self.estimator = estimator
        self.cost_model_name = cost_model
        self.use_indexes = use_indexes
        self.tracer = tracer or NOOP_TRACER
        self.metrics = metrics if metrics is not None else get_metrics()
        if feedback is True:
            self._feedback: FeedbackConfig | None = FeedbackConfig()
        elif isinstance(feedback, FeedbackConfig):
            self._feedback = feedback
        else:
            self._feedback = None
        self._history: PlanHistoryStore | None = None
        if self._feedback is not None:
            source = self._feedback.history
            self._history = (
                source
                if isinstance(source, PlanHistoryStore)
                else PlanHistoryStore(source)
            )
            if self._feedback.adaptive and not self.metrics.enabled:
                # The adaptive layer reads latency distributions; a
                # no-op registry would starve it, so record privately.
                self.metrics = MetricsRegistry()
        self._result_cache: ResultCache | None = None
        if cache:
            config = cache if isinstance(cache, CacheConfig) else None
            result_cache = ResultCache(config, metrics=self.metrics)
            self._result_cache = result_cache
            # Version bumps (replace_table, drop, clustered-index
            # builds) atomically drop every dependent cache entry.
            catalog.add_invalidation_hook(
                lambda name, version: result_cache.invalidate(name)
            )
        self._cost_model: CostModel | None = None
        self._coster: PlanCoster | None = None
        self.executions_recorded = 0
        #: Plan cache: (queries, options) -> OptimizationResult, keyed
        #: per physical-design version.  Off by default so experiment
        #: timings stay honest; enable for serving workloads.
        self.enable_plan_cache = enable_plan_cache
        self._plan_cache: dict[
            tuple[frozenset[frozenset[str]], OptimizerOptions | None, int],
            OptimizationResult,
        ] = {}
        self._design_version = 0
        self.plan_cache_hits = 0

    # -- construction ----------------------------------------------------------

    @classmethod
    def for_table(
        cls,
        table: Table,
        statistics: str = "exact",
        cost_model: str = "engine",
        sample_rows: int = 10_000,
        seed: int = 0,
        use_indexes: bool = True,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        feedback: bool | FeedbackConfig = False,
        cache: bool | CacheConfig = False,
    ) -> "Session":
        """Build a session around one table.

        Args:
            table: the base relation.
            statistics: 'exact' (oracle) or 'sampled' (GEE over a
                sample, metered — the realistic mode).
            cost_model: 'engine' or 'cardinality'.
            sample_rows: sample size for sampled statistics.
            seed: sampling seed.
            use_indexes: allow covering-index execution paths.
            tracer: span tracer for the whole session (no-op default).
            metrics: metrics registry for the whole session (defaults
                to the process-wide registry).
            feedback: the estimate→actual feedback loop — off (False,
                default), default config (True), or a
                :class:`FeedbackConfig`.
            cache: the semantic result cache — off (False, default),
                default config (True), or a
                :class:`~repro.cache.CacheConfig`.
        """
        catalog = Catalog()
        catalog.add_table(table)
        if statistics == "exact":
            estimator: CardinalityEstimator = ExactCardinalityEstimator(table)
        elif statistics == "sampled":
            estimator = SampledCardinalityEstimator(
                table, sample_rows=sample_rows, seed=seed
            )
        else:
            raise ValueError(f"unknown statistics mode {statistics!r}")
        return cls(
            catalog,
            table.name,
            estimator,
            cost_model=cost_model,
            use_indexes=use_indexes,
            tracer=tracer,
            metrics=metrics,
            feedback=feedback,
            cache=cache,
        )

    # -- cost model / coster ------------------------------------------------------

    @property
    def history(self) -> PlanHistoryStore | None:
        """The feedback loop's history store (None when feedback is off)."""
        return self._history

    @property
    def feedback_enabled(self) -> bool:
        """Whether the estimate→actual feedback loop is active."""
        return self._feedback is not None

    # -- result cache ----------------------------------------------------------

    @property
    def result_cache(self) -> ResultCache | None:
        """The semantic result cache (None when caching is off)."""
        return self._result_cache

    @property
    def cache_enabled(self) -> bool:
        """Whether the semantic result cache is active."""
        return self._result_cache is not None

    def cache_stats(self) -> dict[str, object]:
        """Hit/eviction/byte accounting of the result cache.

        Returns ``{"enabled": False}`` when caching is off; otherwise
        ``enabled: True`` plus every counter from
        :meth:`~repro.cache.ResultCache.stats`.
        """
        if self._result_cache is None:
            return {"enabled": False}
        return {"enabled": True, **self._result_cache.stats()}

    def invalidate(self, table: str | None = None) -> int:
        """Record a mutation of ``table`` (default: the base relation).

        Bumps the catalog's version counter, which atomically drops
        every dependent result-cache entry through the invalidation
        hook; returns the new version.  Callers that mutate table
        contents outside :meth:`~repro.engine.catalog.Catalog.
        replace_table` use this to keep cached results sound.
        """
        return self.catalog.bump_version(table or self.base_table)

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Release session-held resources.

        Closes the feedback history's append handle, drops every result
        cache entry, clears the plan cache, and drops cached column
        dictionaries from the catalog's tables.  The session stays
        usable afterwards — the caches simply start cold again.
        """
        if self._history is not None:
            self._history.close()
        if self._result_cache is not None:
            self._result_cache.clear()
        self._plan_cache.clear()
        for name in self.catalog.table_names():
            self.catalog.get(name).drop_dictionaries()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def cost_model(self) -> CostModel:
        """The session's single cost-model instance.

        Built once and reused across every ``optimize()`` / ``coster()``
        call, so calibration state survives across queries (the coster's
        *caches* are dropped on invalidation, the model is not).  With
        feedback enabled this is a
        :class:`~repro.costmodel.layers.LayeredCostModel` carrying the
        calibration and adaptive layers over the session's history store
        and metrics registry.
        """
        if self._cost_model is None:
            if self.cost_model_name == "cardinality":
                self._cost_model = CardinalityCostModel(self.estimator)
            elif self.cost_model_name == "engine":
                if self._feedback is not None:
                    self._cost_model = LayeredCostModel(
                        self.estimator,
                        layers=self._build_layers(),
                        catalog=self.catalog,
                        base_table=self.base_table,
                        use_indexes=self.use_indexes,
                    )
                else:
                    self._cost_model = EngineCostModel(
                        self.estimator,
                        catalog=self.catalog,
                        base_table=self.base_table,
                        use_indexes=self.use_indexes,
                    )
            else:
                raise ValueError(
                    f"unknown cost model {self.cost_model_name!r}"
                )
        return self._cost_model

    def _build_layers(self) -> tuple[CostLayer, ...]:
        config = self._feedback
        assert config is not None and self._history is not None
        layers: list[CostLayer] = [
            CalibrationLayer(
                self._history,
                relation=self.base_table,
                min_runs=config.min_runs,
                clamp=config.clamp,
            )
        ]
        if config.adaptive:
            layers.append(
                AdaptiveThresholdLayer(
                    self.metrics,
                    relation=self.base_table,
                    min_observations=config.min_observations,
                )
            )
        layers.extend(config.extra_layers)
        return tuple(layers)

    def coster(self) -> PlanCoster:
        """The session's plan coster (caches rebuilt after invalidation)."""
        if self._coster is None:
            self._coster = PlanCoster(
                self.cost_model(), tracer=self.tracer, metrics=self.metrics
            )
        return self._coster

    def invalidate_coster(self) -> None:
        """Drop cached costs and plans (after physical-design changes).

        The cost-model *instance* is kept — only the coster's memoized
        edge/sub-plan costs and the plan cache are dropped, so feedback
        calibration state survives the invalidation.
        """
        self._coster = None
        self._design_version += 1

    def reset_cost_model(self) -> None:
        """Drop the cost-model instance itself (and all cached costs).

        The rebuilt model starts from the static constants; with
        feedback enabled its layers re-derive from the (unchanged)
        history store on the next refresh.
        """
        self._cost_model = None
        self.invalidate_coster()

    def refresh_feedback(self) -> bool:
        """Refresh the layered model's corrections from recorded data.

        Returns True when any factor or threshold changed — cached plan
        costs are dropped in that case so the next ``optimize()`` plans
        with the new state.  No-op (False) when feedback is off or the
        model is not layered.
        """
        model = self.cost_model()
        if not isinstance(model, LayeredCostModel):
            return False
        changed = model.refresh()
        if changed:
            self.invalidate_coster()
        return changed

    def adaptive_state(self) -> dict[str, object]:
        """JSON-friendly snapshot of the feedback loop (CLI ``adaptive``).

        Includes per-layer state, the merged corrections/thresholds,
        and the recording counters.  With feedback off, reports only
        ``{"feedback": False}``.
        """
        if self._feedback is None:
            return {"feedback": False}
        model = self.cost_model()
        state: dict[str, object] = {
            "feedback": True,
            "executions_recorded": self.executions_recorded,
            "refresh_every": self._feedback.refresh_every,
            "history_runs": (
                self._history.calibration(relation=self.base_table).runs
                if self._history is not None
                else 0
            ),
            "history_path": (
                str(self._history.path)
                if self._history is not None and self._history.path is not None
                else None
            ),
        }
        if isinstance(model, LayeredCostModel):
            state["model"] = model.describe()
        return state

    # -- physical design -----------------------------------------------------------

    def create_index(
        self, columns: tuple[str, ...], name: str | None = None, clustered: bool = False
    ) -> None:
        """Create an index on the base relation and refresh costing."""
        index_name = name or ("ix_" + "_".join(columns))
        self.catalog.create_index(
            self.base_table, IndexSpec(index_name, tuple(columns), clustered)
        )
        self.invalidate_coster()

    # -- planning and execution -----------------------------------------------------

    def optimize(
        self,
        queries: list[frozenset[str]],
        options: OptimizerOptions | None = None,
    ) -> OptimizationResult:
        """Run the GB-MQO hill climber on the input queries.

        With :attr:`enable_plan_cache` set, repeated calls for the same
        (query set, options) under an unchanged physical design return
        the previously computed result (its ``optimization_seconds``
        reflects the original run).
        """
        if self.enable_plan_cache:
            key = (
                frozenset(frozenset(q) for q in queries),
                options,
                self._design_version,
            )
            if key in self._plan_cache:
                self.plan_cache_hits += 1
                return self._plan_cache[key]
            result = GbMqoOptimizer(
                self.coster(), options, tracer=self.tracer,
                metrics=self.metrics,
            ).optimize(self.base_table, queries)
            self._plan_cache[key] = result
            return result
        optimizer = GbMqoOptimizer(
            self.coster(), options, tracer=self.tracer, metrics=self.metrics
        )
        return optimizer.optimize(self.base_table, queries)

    def _schedule_steps(
        self,
        plan: LogicalPlan,
        schedule: str,
        parallelism: int,
    ) -> list[Step] | None:
        # Parallel executors schedule themselves from the dependency
        # graph (the lowering may still pick the linear schedule).
        if parallelism > 1:
            return None
        if schedule == "storage":
            return storage_minimizing_schedule(
                plan, estimator_size_fn(self.estimator)
            )
        if schedule == "depth_first":
            return depth_first_schedule(plan)
        raise ValueError(f"unknown schedule {schedule!r}")

    def _executor(
        self,
        aggregates: "AggregateNeeds | None",
        tracer: Tracer | None,
        parallelism: int,
        memory_budget_bytes: float | None,
    ) -> PlanExecutor:
        # With feedback on, the executor lowers (and picks serial or
        # waves) against the session's calibrated model instead of
        # building fresh uncalibrated ones; with feedback off the
        # executor keeps building its own — the bit-identical path.
        model: EngineCostModel | None = None
        if self._feedback is not None:
            candidate = self.cost_model()
            if isinstance(candidate, EngineCostModel):
                model = candidate
        return PlanExecutor(
            self.catalog,
            self.base_table,
            aggregates=aggregates,
            use_indexes=self.use_indexes,
            tracer=tracer or self.tracer,
            parallelism=parallelism,
            estimator=self.estimator,
            memory_budget_bytes=memory_budget_bytes,
            metrics=self.metrics,
            model=model,
            result_cache=self._result_cache,
        )

    def execute(
        self,
        plan: LogicalPlan,
        schedule: str = "storage",
        aggregates: list[AggregateSpec] | None = None,
        tracer: Tracer | None = None,
        parallelism: int = 1,
        memory_budget_bytes: float | None = None,
    ) -> ExecutionResult:
        """Execute a logical plan.

        The plan is lowered to costed physical operators
        (:mod:`repro.physical`) — hash vs sort grouping chosen per node
        from the session's statistics — verified, and interpreted.

        Args:
            plan: the plan to run.
            schedule: 'storage' follows the Section 4.4.1 BF/DF marking;
                'depth_first' uses plain pre-order.  Ignored when
                ``parallelism > 1``: the lowering then derives its own
                schedule from the plan's dependency graph.
            aggregates: aggregate list (COUNT(*) by default).
            tracer: span tracer for this run only (defaults to the
                session tracer).
            parallelism: worker threads; 1 runs the linear schedule
                serially.  With more, the lowering asks the cost model
                whether the workload clears the parallel floors: if so
                the plan runs on dependency waves with shared-scan
                morsel batches, otherwise serially (small inputs never
                pay parallel overhead).  Parallel runs produce
                bit-identical results and equal metrics totals; the
                schedule used is reported on ``result.metrics.mode``
                (``'serial'`` or ``'morsel'``).
            memory_budget_bytes: plan-wide transient-memory budget for
                the lowering; groupings estimated over it are demoted to
                the sort regime and then to partitioned execution.
                Results stay bit-identical.

        With feedback enabled the run is additionally recorded into the
        session's history store (est-vs-actual per node, from a span
        window over this run only) and the correction layers refresh on
        the configured cadence — results are unchanged; only *future*
        plan choices move.
        """
        steps = self._schedule_steps(plan, schedule, parallelism)
        if self._feedback is None:
            executor = self._executor(
                aggregates, tracer, parallelism, memory_budget_bytes
            )
            return executor.execute(plan, steps)
        run_tracer = tracer or self.tracer
        if run_tracer.enabled:
            record_tracer: Tracer = run_tracer
            window_start = len(run_tracer.spans)
        else:
            record_tracer = Tracer()
            window_start = 0
        executor = self._executor(
            aggregates, record_tracer, parallelism, memory_budget_bytes
        )
        result = executor.execute(plan, steps)
        self._record_execution(
            plan, result, record_tracer.spans[window_start:], parallelism
        )
        return result

    def _record_execution(
        self,
        plan: LogicalPlan,
        execution: ExecutionResult,
        spans: list[Span],
        parallelism: int,
    ) -> None:
        """Append one run's est-vs-actual record; refresh on cadence."""
        from repro.obs.analyze import SpanSlice, analyze_execution

        if self._history is None:  # pragma: no cover - guarded by caller
            return
        analysis = analyze_execution(
            plan,
            execution,
            SpanSlice(spans),
            self.coster(),
            self.estimator,
        )
        self._history.append_analysis(
            analysis, plan, parallelism=parallelism
        )
        self.executions_recorded += 1
        config = self._feedback
        if (
            config is not None
            and self.executions_recorded % config.refresh_every == 0
        ):
            self.refresh_feedback()

    def lower(
        self,
        plan: LogicalPlan,
        schedule: str = "storage",
        aggregates: list[AggregateSpec] | None = None,
        parallelism: int = 1,
        memory_budget_bytes: float | None = None,
    ) -> "PhysicalPlan":
        """Lower a logical plan to its physical form without running it.

        Same knobs as :meth:`execute`; returns the
        :class:`~repro.physical.plan.PhysicalPlan` that ``execute``
        would interpret (render it with ``.render()``).
        """
        steps = self._schedule_steps(plan, schedule, parallelism)
        executor = self._executor(
            aggregates, None, parallelism, memory_budget_bytes
        )
        return executor.lower(plan, steps)

    def run(
        self,
        queries: list[frozenset[str]],
        options: OptimizerOptions | None = None,
    ) -> RunOutcome:
        """Optimize then execute in one call."""
        optimization = self.optimize(queries, options)
        execution = self.execute(optimization.plan)
        return RunOutcome(optimization, execution)

    def run_naive(self, queries: list[frozenset[str]]) -> ExecutionResult:
        """Execute the naive plan (the baseline of every experiment)."""
        return self.execute(naive_plan(self.base_table, queries))

    def explain(self, plan: LogicalPlan):
        """EXPLAIN a plan: per-node estimates and edge costs.

        Returns:
            A :class:`repro.core.explain.PlanExplanation`; print its
            ``render()`` for the human-readable form.
        """
        from repro.core.explain import explain_plan

        return explain_plan(plan, self.coster(), self.estimator)

    def explain_analyze(
        self,
        plan: LogicalPlan,
        schedule: str = "storage",
        parallelism: int = 1,
        history=None,
    ):
        """EXPLAIN ANALYZE: execute the plan instrumented and report
        estimated vs actual rows/bytes/time and q-error per node.

        Args:
            plan: the plan to analyze.
            schedule: execution schedule, as in :meth:`execute`.
            parallelism: worker threads, as in :meth:`execute`.
            history: a :class:`repro.obs.history.PlanHistoryStore` (or a
                path to one) to append this run's estimated-vs-actual
                record to, keyed by the plan's fingerprint.

        Returns:
            A :class:`repro.obs.analyze.PlanAnalysis`; print its
            ``render()`` for the human-readable form.
        """
        from repro.obs.analyze import explain_analyze

        analysis = explain_analyze(
            self, plan, schedule=schedule, parallelism=parallelism
        )
        if history is not None:
            from repro.obs.history import PlanHistoryStore

            store = (
                history
                if isinstance(history, PlanHistoryStore)
                else PlanHistoryStore(history)
            )
            store.append_analysis(analysis, plan, parallelism=parallelism)
        return analysis

    def run_with_aggregates(self, queries, options=None):
        """Optimize and execute a workload with per-query aggregates.

        The Section 7.2 extension end to end: the optimizer plans over
        the queries' column sets; the lowering gives every node the
        union of its subtree's aggregates, children reaggregate
        distributively (AVG is decomposed and recombined
        automatically), and the plan runs on the session's executor —
        its estimator, tracer, metrics registry and result cache.

        Args:
            queries: list of :class:`repro.core.extensions.AggregateQuery`.
            options: optimizer knobs (CUBE/ROLLUP must stay disabled).

        Returns:
            (OptimizationResult, ExecutionResult), each result projected
            to the query's keys and requested aggregate aliases.
        """
        from repro.core.extensions import queries_to_column_sets
        from repro.engine.multi_aggregate import execute_multi_aggregate

        column_sets = queries_to_column_sets(queries)
        optimization = self.optimize(column_sets, options)
        execution = execute_multi_aggregate(
            self.catalog, self.base_table, optimization.plan, queries,
            make_executor=lambda needs: self._executor(needs, None, 1, None),
        )
        return optimization, execution
