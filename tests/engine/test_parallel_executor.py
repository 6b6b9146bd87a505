"""Parallel execution on waves: bit-identical to serial, equal metrics.

The acceptance bar for ``PlanExecutor(parallelism>=2)``: on every
built-in workload the parallel run must produce bit-identical result
tables and equal aggregated :class:`ExecutionMetrics` totals versus a
serial run of the same plan.  The inputs here are small, so the
parallel executors get a cost model that always picks waves
(:func:`tests.engine.support.wave_executor`): otherwise the lowering
would pick the serial schedule and every comparison would be serial
against serial.
"""

import numpy as np
import pytest

from repro.api import Session
from repro.core.plan import LogicalPlan, NodeKind, PlanNode, SubPlan
from repro.engine.catalog import Catalog
from repro.engine.executor import ExecutionError, PlanExecutor
from repro.obs.tracer import Tracer
from repro.stats.cardinality import ExactCardinalityEstimator
from repro.workloads.customers import make_customers
from repro.workloads.queries import combi_workload
from repro.workloads.sales import make_sales
from repro.workloads.tpch import make_lineitem
from tests.engine.support import wave_executor

WORKLOAD_BUILDERS = {
    "sales": make_sales,
    "lineitem": make_lineitem,
    "customers": make_customers,
}


def fs(*cols):
    return frozenset(cols)


def assert_tables_identical(a, b):
    assert a.column_names == b.column_names
    assert a.num_rows == b.num_rows
    for column in a.column_names:
        np.testing.assert_array_equal(a[column], b[column])


def run_both(maker, queries=None, parallelism=3):
    """Optimize once per fresh session; execute serial and parallel."""
    serial_session = Session.for_table(maker(4_000), statistics="exact")
    parallel_session = Session.for_table(maker(4_000), statistics="exact")
    if queries is None:
        table = serial_session.catalog.get(serial_session.base_table)
        queries = combi_workload(list(table.column_names)[:4], 2)
    serial = serial_session.execute(serial_session.optimize(queries).plan)
    parallel = wave_executor(
        parallel_session.catalog,
        parallel_session.base_table,
        parallel_session.estimator,
        parallelism,
    ).execute(parallel_session.optimize(queries).plan)
    assert serial.metrics.mode == "serial"
    assert parallel.metrics.mode == "morsel"
    return serial, parallel


class TestBuiltinWorkloads:
    @pytest.mark.parametrize("workload", sorted(WORKLOAD_BUILDERS))
    def test_results_bit_identical(self, workload):
        serial, parallel = run_both(WORKLOAD_BUILDERS[workload])
        assert set(serial.results) == set(parallel.results)
        for query in serial.results:
            assert_tables_identical(
                serial.results[query], parallel.results[query]
            )

    @pytest.mark.parametrize("workload", sorted(WORKLOAD_BUILDERS))
    def test_metrics_totals_equal(self, workload):
        serial, parallel = run_both(WORKLOAD_BUILDERS[workload])
        assert serial.metrics.as_dict(per_query=True) == parallel.metrics.as_dict(
            per_query=True
        )


class TestHandBuiltPlans:
    def fixture_executors(self, random_table, parallelism):
        serial_cat, parallel_cat = Catalog(), Catalog()
        serial_cat.add_table(random_table)
        parallel_cat.add_table(random_table.rename("r"))
        estimator = ExactCardinalityEstimator(random_table)
        return (
            PlanExecutor(serial_cat, "r", estimator=estimator),
            wave_executor(parallel_cat, "r", estimator, parallelism),
        )

    def deep_plan(self):
        lowmid = SubPlan(
            PlanNode(fs("low", "mid")),
            (
                SubPlan.leaf(fs("low")),
                SubPlan.leaf(fs("mid")),
            ),
            required=False,
        )
        return LogicalPlan(
            "r",
            (lowmid, SubPlan.leaf(fs("txt"))),
            frozenset([fs("low"), fs("mid"), fs("txt")]),
        )

    def test_deep_plan_identical(self, random_table):
        serial, parallel = self.fixture_executors(random_table, 4)
        a = serial.execute(self.deep_plan())
        b = parallel.execute(self.deep_plan())
        assert b.metrics.mode == "morsel"
        assert set(a.results) == set(b.results)
        for query in a.results:
            assert_tables_identical(a.results[query], b.results[query])
        assert a.metrics.as_dict(per_query=True) == b.metrics.as_dict(
            per_query=True
        )
        assert a.peak_temp_bytes == b.peak_temp_bytes

    def cube_plan(self):
        node = PlanNode(fs("low", "mid"), NodeKind.CUBE)
        answers = frozenset([fs("low", "mid"), fs("low"), fs("mid")])
        root = SubPlan(node, (), required=False, direct_answers=answers)
        return LogicalPlan("r", (root,), answers)

    def test_cube_plan_identical(self, random_table):
        serial, parallel = self.fixture_executors(random_table, 2)
        a = serial.execute(self.cube_plan())
        b = parallel.execute(self.cube_plan())
        assert b.metrics.mode == "morsel"
        for query in a.results:
            assert_tables_identical(a.results[query], b.results[query])
        assert a.metrics.as_dict() == b.metrics.as_dict()

    def rollup_plan(self):
        node = PlanNode(fs("low", "mid"), NodeKind.ROLLUP, ("low", "mid"))
        answers = frozenset([fs("low", "mid"), fs("low")])
        root = SubPlan(node, (), required=False, direct_answers=answers)
        return LogicalPlan("r", (root,), answers)

    def test_rollup_plan_identical(self, random_table):
        serial, parallel = self.fixture_executors(random_table, 2)
        a = serial.execute(self.rollup_plan())
        b = parallel.execute(self.rollup_plan())
        assert b.metrics.mode == "morsel"
        for query in a.results:
            assert_tables_identical(a.results[query], b.results[query])
        assert a.metrics.as_dict() == b.metrics.as_dict()

    def test_index_path_identical(self, random_table):
        from repro.engine.indexes import IndexSpec

        serial, parallel = self.fixture_executors(random_table, 2)
        for executor in (serial, parallel):
            executor._catalog.create_index(
                "r", IndexSpec("ix_low", ("low",))
            )
        plan = self.deep_plan()
        a = serial.execute(plan)
        b = parallel.execute(plan)
        assert b.metrics.mode == "morsel"
        for query in a.results:
            assert_tables_identical(a.results[query], b.results[query])
        assert a.metrics.index_scans == b.metrics.index_scans


class TestParallelContract:
    def test_parallelism_below_one_rejected(self, random_table):
        catalog = Catalog()
        catalog.add_table(random_table)
        with pytest.raises(ExecutionError):
            PlanExecutor(catalog, "r", parallelism=0)

    def test_explicit_steps_rejected_in_parallel(self, random_table):
        from repro.core.plan import naive_plan
        from repro.core.scheduling import depth_first_schedule

        catalog = Catalog()
        catalog.add_table(random_table)
        executor = PlanExecutor(catalog, "r", parallelism=2)
        plan = naive_plan("r", [fs("low")])
        with pytest.raises(ExecutionError):
            executor.execute(plan, depth_first_schedule(plan))

    def test_temps_cleaned_up(self, random_table):
        catalog = Catalog()
        catalog.add_table(random_table)
        executor = wave_executor(
            catalog, "r", ExactCardinalityEstimator(random_table), 4
        )
        plan = TestHandBuiltPlans().deep_plan()
        assert executor.execute(plan).metrics.mode == "morsel"
        assert catalog.temp_names() == ()
        assert catalog.current_temp_bytes == 0

    def test_wave_spans_traced(self, random_table):
        catalog = Catalog()
        catalog.add_table(random_table)
        tracer = Tracer()
        executor = wave_executor(
            catalog,
            "r",
            ExactCardinalityEstimator(random_table),
            2,
            tracer=tracer,
        )
        executor.execute(TestHandBuiltPlans().deep_plan())
        wave_spans = [s for s in tracer.spans if s.name == "execute.wave"]
        node_spans = [s for s in tracer.spans if s.name == "execute.node"]
        assert len(wave_spans) == 2  # depth 0 and depth 1
        wave_ids = {s.span_id for s in wave_spans}
        assert all(s.parent_id in wave_ids for s in node_spans)
        (plan_span,) = [s for s in tracer.spans if s.name == "execute.plan"]
        assert plan_span.attributes["parallelism"] == 2

    def test_dictionary_cache_stats_on_plan_span(self, random_table):
        catalog = Catalog()
        catalog.add_table(random_table)
        tracer = Tracer()
        executor = PlanExecutor(catalog, "r", tracer=tracer)
        executor.execute(TestHandBuiltPlans().deep_plan())
        (plan_span,) = [s for s in tracer.spans if s.name == "execute.plan"]
        assert plan_span.attributes["dictionary_misses"] >= 1

    def test_shared_cache_reused_across_runs(self, random_table):
        from repro.engine.dictcache import DictionaryCache

        catalog = Catalog()
        catalog.add_table(random_table)
        cache = DictionaryCache()
        executor = PlanExecutor(catalog, "r", dictionary_cache=cache)
        plan = TestHandBuiltPlans().deep_plan()
        executor.execute(plan)
        first_misses = cache.stats()["misses"]
        executor.execute(plan)
        assert cache.stats()["misses"] == first_misses


class TestSchedulerContract:
    def test_near_unique_grouping_runs_beside_the_batch(self, random_table):
        """Only feasible groupings share a scan; the rest run on their own."""
        from repro.core.plan import naive_plan

        # high x mid spans 2,500 x 60 composite slots, far beyond what
        # per-morsel partial states pay off for on 5,000 rows.
        queries = [fs("low"), fs("mid"), fs("high", "mid")]
        plan = naive_plan("r", queries)
        serial_cat, parallel_cat = Catalog(), Catalog()
        serial_cat.add_table(random_table)
        parallel_cat.add_table(random_table.rename("r"))
        estimator = ExactCardinalityEstimator(random_table)
        tracer = Tracer()
        serial = PlanExecutor(serial_cat, "r", estimator=estimator)
        parallel = wave_executor(
            parallel_cat, "r", estimator, 2, tracer=tracer
        )
        a = serial.execute(plan)
        b = parallel.execute(plan)
        assert b.metrics.mode == "morsel"
        (batch,) = [
            s for s in tracer.spans if s.name == "execute.morsel_batch"
        ]
        assert batch.attributes["groupings"] == 2
        regimes = {
            s.attributes["op_id"]: s.attributes["regime"]
            for s in tracer.spans
            if "regime" in s.attributes
        }
        physical = parallel.lower(plan)
        by_keys = {op.keys: regimes[op.op_id] for op in physical.grouping_ops()}
        assert by_keys[("low",)] == by_keys[("mid",)] == "morsel"
        assert by_keys[("high", "mid")] in ("hash", "sort")
        assert set(a.results) == set(b.results) == set(queries)
        for query in a.results:
            assert_tables_identical(a.results[query], b.results[query])
        assert a.metrics.as_dict(per_query=True) == b.metrics.as_dict(
            per_query=True
        )

    def test_stress_more_workers_than_cores(self, random_table):
        """Concurrent pool tasks lose no result, temp or counter."""
        import os
        import sys

        from repro.core.plan import naive_plan

        def spool(parent, *children):
            return SubPlan(
                PlanNode(fs(*parent)),
                tuple(SubPlan.leaf(fs(c)) for c in children),
                required=False,
            )

        # Three temps materialize concurrently in wave 0, and their six
        # children reaggregate concurrently in wave 1.
        deep = LogicalPlan(
            "r",
            (
                spool(("low", "mid"), "low", "mid"),
                spool(("txt", "corr"), "txt", "corr"),
                spool(("shadow", "high"), "shadow", "high"),
            ),
            frozenset(
                fs(c) for c in ("low", "mid", "txt", "corr", "shadow", "high")
            ),
        )
        wide = naive_plan(
            "r",
            [fs(c) for c in random_table.column_names]
            + [fs("low", "mid"), fs("high", "mid"), fs("txt", "low")],
        )
        estimator = ExactCardinalityEstimator(random_table)
        serial_cat, parallel_cat = Catalog(), Catalog()
        serial_cat.add_table(random_table)
        parallel_cat.add_table(random_table.rename("r"))
        serial = PlanExecutor(serial_cat, "r", estimator=estimator)
        workers = 4 * (os.cpu_count() or 1)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for plan in (deep, wide):
                expected = serial.execute(plan)
                for _ in range(10):
                    got = wave_executor(
                        parallel_cat, "r", estimator, workers
                    ).execute(plan)
                    assert got.metrics.mode == "morsel"
                    assert set(got.results) == set(expected.results)
                    for query, table in expected.results.items():
                        assert_tables_identical(table, got.results[query])
                    assert got.metrics.as_dict(
                        per_query=True
                    ) == expected.metrics.as_dict(per_query=True)
                    assert parallel_cat.temp_names() == ()
                    assert parallel_cat.current_temp_bytes == 0
        finally:
            sys.setswitchinterval(previous)
