"""Unit + property tests for per-query aggregate execution (Section 7.2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Session
from repro.core.extensions import AggregateQuery
from repro.core.plan import naive_plan
from repro.engine.aggregation import AggregateSpec
from repro.engine.multi_aggregate import (
    MultiAggregateError,
    canonical_alias,
    execute_multi_aggregate,
    prepare_workload,
)
from repro.engine.table import Table
from tests.conftest import brute_force_group_by, result_as_dict


def fs(*cols):
    return frozenset(cols)


def q(cols, *specs):
    return AggregateQuery(fs(*cols), tuple(specs))


@pytest.fixture
def session(random_table):
    return Session.for_table(random_table, statistics="exact")


def reference(table, keys, func, column):
    return brute_force_group_by(table, keys, func, column)


class TestPrepare:
    def test_canonical_alias(self):
        assert canonical_alias("count", None) == "cnt"
        assert canonical_alias("sum", "x") == "sum_x"

    def test_shared_identity(self):
        workload = prepare_workload(
            [
                q(["a"], AggregateSpec("sum", "x", "total")),
                q(["a"], AggregateSpec("sum", "x", "other_name")),
            ]
        )
        assert len(workload.needs[fs("a")]) == 1
        assert len(workload.captures[fs("a")]) == 2

    def test_avg_decomposed(self):
        workload = prepare_workload(
            [q(["a"], AggregateSpec("avg", "x", "mean_x"))]
        )
        identities = set(workload.needs[fs("a")])
        assert identities == {("sum", "x"), ("count", None)}


class TestExecution:
    def test_mixed_aggregates_match_brute_force(self, session, random_table):
        queries = [
            q(["low"], AggregateSpec.count_star(), AggregateSpec("sum", "high", "s")),
            q(["mid"], AggregateSpec("min", "high", "lo"), AggregateSpec("max", "high", "hi")),
            q(["low", "mid"], AggregateSpec.count_star()),
        ]
        optimization, run = session.run_with_aggregates(queries)
        optimization.plan.validate()

        low = run.results[fs("low")]
        assert result_as_dict(low, ["low"], "cnt") == reference(
            random_table, ["low"], "count", None
        )
        assert result_as_dict(low, ["low"], "s") == reference(
            random_table, ["low"], "sum", "high"
        )
        mid = run.results[fs("mid")]
        assert result_as_dict(mid, ["mid"], "lo") == reference(
            random_table, ["mid"], "min", "high"
        )
        assert result_as_dict(mid, ["mid"], "hi") == reference(
            random_table, ["mid"], "max", "high"
        )

    def test_avg_recombined_exactly(self, session, random_table):
        queries = [q(["low"], AggregateSpec("avg", "high", "mean_high"))]
        _, run = session.run_with_aggregates(queries)
        got = result_as_dict(run.results[fs("low")], ["low"], "mean_high")
        expected = reference(random_table, ["low"], "avg", "high")
        for key, value in expected.items():
            assert got[key] == pytest.approx(value)

    def test_results_via_merged_plan_match_naive_plan(self, random_table):
        """Same aggregates through a merged tree and the naive plan."""
        queries = [
            q(["low"], AggregateSpec("sum", "high", "s")),
            q(["mid"], AggregateSpec("sum", "high", "s")),
        ]
        from repro.core.plan import LogicalPlan, PlanNode, SubPlan
        from repro.engine.catalog import Catalog

        catalog = Catalog()
        catalog.add_table(random_table)
        merged_root = SubPlan(
            PlanNode(fs("low", "mid")),
            (SubPlan.leaf(fs("low")), SubPlan.leaf(fs("mid"))),
        )
        merged = LogicalPlan("r", (merged_root,), frozenset([fs("low"), fs("mid")]))
        naive = naive_plan("r", [fs("low"), fs("mid")])
        run_merged = execute_multi_aggregate(catalog, "r", merged, queries)
        run_naive = execute_multi_aggregate(catalog, "r", naive, queries)
        for columns in (fs("low"), fs("mid")):
            assert sorted(run_merged.results[columns].to_rows()) == sorted(
                run_naive.results[columns].to_rows()
            )

    def test_required_intermediate_with_aggregates(self, random_table):
        from repro.core.plan import LogicalPlan, PlanNode, SubPlan
        from repro.engine.catalog import Catalog

        catalog = Catalog()
        catalog.add_table(random_table)
        root = SubPlan(
            PlanNode(fs("low", "mid")), (SubPlan.leaf(fs("low")),), required=True
        )
        plan = LogicalPlan(
            "r", (root,), frozenset([fs("low"), fs("low", "mid")])
        )
        queries = [
            q(["low", "mid"], AggregateSpec("max", "high", "m")),
            q(["low"], AggregateSpec.count_star()),
        ]
        run = execute_multi_aggregate(catalog, "r", plan, queries)
        got = result_as_dict(
            run.results[fs("low", "mid")], ["low", "mid"], "m"
        )
        assert got == reference(random_table, ["low", "mid"], "max", "high")

    def test_plan_must_answer_queries(self, random_table):
        from repro.engine.catalog import Catalog

        catalog = Catalog()
        catalog.add_table(random_table)
        plan = naive_plan("r", [fs("low")])
        with pytest.raises(MultiAggregateError):
            execute_multi_aggregate(
                catalog, "r", plan, [q(["mid"], AggregateSpec.count_star())]
            )

    def test_cube_nodes_rejected(self, random_table):
        from repro.core.plan import LogicalPlan, NodeKind, PlanNode, SubPlan
        from repro.engine.catalog import Catalog

        catalog = Catalog()
        catalog.add_table(random_table)
        node = SubPlan(
            PlanNode(fs("low"), NodeKind.CUBE),
            (),
            direct_answers=frozenset([fs("low")]),
        )
        plan = LogicalPlan("r", (node,), frozenset([fs("low")]))
        with pytest.raises(MultiAggregateError):
            execute_multi_aggregate(
                catalog, "r", plan, [q(["low"], AggregateSpec.count_star())]
            )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 5_000))
def test_multi_aggregate_property(seed):
    """Property: optimized multi-aggregate runs equal brute force."""
    rng = np.random.default_rng(seed)
    n = 400
    table = Table(
        "t",
        {
            "g1": rng.integers(0, 8, n),
            "g2": rng.integers(0, 15, n),
            "v": rng.integers(-50, 50, n),
        },
    )
    session = Session.for_table(table, statistics="exact")
    queries = [
        q(["g1"], AggregateSpec.count_star(), AggregateSpec("sum", "v", "sv")),
        q(["g2"], AggregateSpec("min", "v", "mn")),
        q(["g1", "g2"], AggregateSpec("max", "v", "mx")),
    ]
    _, run = session.run_with_aggregates(queries)
    assert result_as_dict(run.results[fs("g1")], ["g1"], "sv") == reference(
        table, ["g1"], "sum", "v"
    )
    assert result_as_dict(run.results[fs("g2")], ["g2"], "mn") == reference(
        table, ["g2"], "min", "v"
    )
    assert result_as_dict(
        run.results[fs("g1", "g2")], ["g1", "g2"], "mx"
    ) == reference(table, ["g1", "g2"], "max", "v")


# -- one executor: per-query aggregates through PlanExecutor ------------------

ONE_PATH_QUERIES = [
    q(["low"], AggregateSpec.count_star(), AggregateSpec("sum", "high", "s")),
    q(["mid"], AggregateSpec("min", "high", "lo"), AggregateSpec("avg", "high", "m")),
    q(["low", "mid"], AggregateSpec("max", "high", "hi")),
]


def merged_plan():
    """(low, mid) from R, answering itself, with low and mid below it."""
    from repro.core.plan import LogicalPlan, PlanNode, SubPlan

    root = SubPlan(
        PlanNode(fs("low", "mid")),
        (SubPlan.leaf(fs("low")), SubPlan.leaf(fs("mid"))),
        required=True,
    )
    return LogicalPlan(
        "r", (root,), frozenset([fs("low"), fs("mid"), fs("low", "mid")])
    )


def assert_bit_identical(a, b):
    assert set(a) == set(b)
    for columns in a:
        assert a[columns].column_names == b[columns].column_names
        for name in a[columns].column_names:
            left, right = a[columns][name], b[columns][name]
            assert left.dtype == right.dtype
            assert left.tobytes() == right.tobytes()


class TestOnePath:
    def test_waves_bit_identical_to_serial(self, session):
        from tests.engine.support import wave_executor

        plan = merged_plan()
        serial = execute_multi_aggregate(
            session.catalog, "r", plan, ONE_PATH_QUERIES
        )
        waves = execute_multi_aggregate(
            session.catalog,
            "r",
            plan,
            ONE_PATH_QUERIES,
            make_executor=lambda needs: wave_executor(
                session.catalog, "r", session.estimator, 2, aggregates=needs
            ),
        )
        assert serial.metrics.mode == "serial"
        assert waves.metrics.mode == "morsel"
        assert_bit_identical(waves.results, serial.results)
        assert waves.metrics.as_dict() == serial.metrics.as_dict()

    def test_repeat_is_served_from_cache(self, random_table):
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        session = Session.for_table(
            random_table, statistics="exact", cache=True, tracer=tracer
        )
        _, first = session.run_with_aggregates(ONE_PATH_QUERIES)
        hits = session.cache_stats()["hits"]
        tracer.clear()
        _, second = session.run_with_aggregates(ONE_PATH_QUERIES)
        reads = [s for s in tracer.spans if s.name == "execute.cache_read"]
        assert reads
        assert all(s.attributes["served"] and not s.attributes["derived"] for s in reads)
        assert session.cache_stats()["hits"] == hits + len(reads)
        assert_bit_identical(second.results, first.results)

        # The same column set with another aggregate list is a miss.
        stats = session.cache_stats()
        tracer.clear()
        _, other = session.run_with_aggregates(
            [q(["low"], AggregateSpec("max", "high", "top"))]
        )
        after = session.cache_stats()
        assert after["hits"] == stats["hits"]
        assert after["derived_hits"] == stats["derived_hits"]
        assert after["misses"] == stats["misses"] + 1
        assert not [s for s in tracer.spans if s.name == "execute.cache_read"]
        assert result_as_dict(other.results[fs("low")], ["low"], "top") == (
            reference(random_table, ["low"], "max", "high")
        )

    def test_traced_run_emits_operator_spans(self, random_table):
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        session = Session.for_table(
            random_table, statistics="exact", tracer=tracer
        )
        session.run_with_aggregates(ONE_PATH_QUERIES)
        names = {span.name for span in tracer.spans}
        assert "execute.plan" in names
        assert {"execute.hash_group_by", "execute.sort_group_by"} & names


class TestPhysicalSerialization:
    def test_mixed_aggregates_round_trip(self, session):
        from repro.core.serialize import (
            physical_plan_from_json,
            physical_plan_to_json,
        )
        from repro.engine.executor import PlanExecutor

        needs = {
            fs("low"): (AggregateSpec("sum", "high", "sum_high"),),
            fs("mid"): (AggregateSpec("min", "high", "min_high"),),
            fs("low", "mid"): (AggregateSpec.count_star(),),
        }
        physical = PlanExecutor(
            session.catalog, "r", aggregates=needs,
            estimator=session.estimator,
        ).lower(merged_plan())
        lists = {op.aggregates for op in physical.grouping_ops()}
        assert len(lists) == 3  # the union at the root, one per leaf
        rebuilt = physical_plan_from_json(physical_plan_to_json(physical))
        assert rebuilt == physical

    def test_payload_without_aggregates_runs_as_count_star(self, session):
        from repro.core.serialize import (
            physical_plan_from_dict,
            physical_plan_to_dict,
        )
        from repro.engine.executor import PlanExecutor

        executor = PlanExecutor(
            session.catalog, "r", estimator=session.estimator
        )
        physical = executor.lower(merged_plan())
        payload = physical_plan_to_dict(physical)
        for entry in payload["operators"]:
            entry.pop("aggregates", None)
        legacy = physical_plan_from_dict(payload)
        assert legacy == physical
        assert legacy.check(executor.analysis_context()) == []
        assert_bit_identical(
            PlanExecutor(session.catalog, "r").execute_physical(legacy).results,
            PlanExecutor(session.catalog, "r").execute_physical(physical).results,
        )
