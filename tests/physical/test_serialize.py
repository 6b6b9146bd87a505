"""Physical plan (de)serialization: round trips and corruption gates."""

import json

import pytest

from repro.core.plan import PlanError, naive_plan
from repro.core.serialize import (
    PHYSICAL_FORMAT_VERSION,
    physical_plan_from_dict,
    physical_plan_from_json,
    physical_plan_to_dict,
    physical_plan_to_json,
)
from repro.workloads.queries import containment_workload
from tests.engine.support import wave_executor


def fs(*cols):
    return frozenset(cols)


def lower_on_waves(session, plan, parallelism, **kwargs):
    """Lower ``plan`` onto dependency waves despite its small input."""
    return wave_executor(
        session.catalog,
        session.base_table,
        session.estimator,
        parallelism,
        **kwargs,
    ).lower(plan)


@pytest.fixture
def physical(session):
    result = session.optimize(containment_workload(["low", "mid", "txt"]))
    return session.lower(result.plan)


class TestRoundTrip:
    def test_dict_round_trip_serial(self, physical):
        rebuilt = physical_plan_from_dict(physical_plan_to_dict(physical))
        assert rebuilt == physical

    def test_json_round_trip(self, physical):
        rebuilt = physical_plan_from_json(physical_plan_to_json(physical))
        assert rebuilt == physical

    def test_round_trip_parallel_with_budget(self, session):
        result = session.optimize(containment_workload(["low", "mid"]))
        physical = lower_on_waves(
            session, result.plan, 2, memory_budget_bytes=float(1 << 20)
        )
        rebuilt = physical_plan_from_json(physical_plan_to_json(physical))
        assert rebuilt == physical
        assert rebuilt.waves is not None
        assert rebuilt.waves == physical.waves
        assert rebuilt.memory_budget_bytes == float(1 << 20)

    def test_rebuilt_plan_executes_identically(self, session, physical):
        from repro.engine.executor import PlanExecutor

        rebuilt = physical_plan_from_json(physical_plan_to_json(physical))
        a = PlanExecutor(session.catalog, "r").execute_physical(physical)
        b = PlanExecutor(session.catalog, "r").execute_physical(rebuilt)
        assert set(a.results) == set(b.results)
        assert a.metrics.as_dict() == b.metrics.as_dict()

    def test_payload_is_json_clean(self, physical):
        payload = physical_plan_to_dict(physical)
        assert json.loads(json.dumps(payload)) == json.loads(
            json.dumps(payload)
        )
        assert payload["physical_version"] == PHYSICAL_FORMAT_VERSION


class TestCorruption:
    def test_version_mismatch_rejected(self, physical):
        payload = physical_plan_to_dict(physical)
        payload["physical_version"] = 99
        with pytest.raises(PlanError, match="format version"):
            physical_plan_from_dict(payload)

    def test_unknown_operator_tag_rejected(self, physical):
        payload = physical_plan_to_dict(physical)
        payload["operators"][0]["op"] = "quantum_scan"
        with pytest.raises(PlanError, match="unknown operator tag"):
            physical_plan_from_dict(payload)

    def test_unknown_operator_field_rejected(self, physical):
        payload = physical_plan_to_dict(physical)
        payload["operators"][0]["surprise"] = 1
        with pytest.raises(PlanError, match="malformed physical plan"):
            physical_plan_from_dict(payload)

    def test_structural_violation_rejected_by_verifier(self, physical):
        payload = physical_plan_to_dict(physical)
        # Orphan an operator: remove it from its pipeline.
        payload["pipelines"][0]["ops"] = payload["pipelines"][0]["ops"][:-1]
        with pytest.raises(PlanError, match="PV012"):
            physical_plan_from_dict(payload)

    def test_non_object_operator_entry_rejected(self, physical):
        payload = physical_plan_to_dict(physical)
        payload["operators"][0] = "scan"
        with pytest.raises(PlanError, match="must be objects"):
            physical_plan_from_dict(payload)


class TestMorselRoundTrip:
    def test_mode_and_morsels_survive(self, session):
        result = session.optimize(containment_workload(["low", "mid"]))
        physical = lower_on_waves(session, result.plan, 4)
        assert physical.mode == "morsel"
        rebuilt = physical_plan_from_json(physical_plan_to_json(physical))
        assert rebuilt == physical
        assert rebuilt.mode == "morsel"
        for op, op_r in zip(physical.operators, rebuilt.operators):
            if hasattr(op, "morsels"):
                assert op_r.morsels == op.morsels

    def test_legacy_payload_without_mode_still_loads(self, physical):
        payload = physical_plan_to_dict(physical)
        payload.pop("mode", None)
        rebuilt = physical_plan_from_dict(payload)
        assert rebuilt.mode == physical.mode == "serial"

    @pytest.mark.parametrize("legacy_mode", ["wavefront", "morsel"])
    def test_legacy_mode_key_is_ignored(self, session, legacy_mode):
        """Older payloads carry ``mode``; the wave schedule decides."""
        from repro.engine.executor import PlanExecutor

        plan = session.optimize(containment_workload(["low", "mid"])).plan
        physical = lower_on_waves(session, plan, 2)
        payload = physical_plan_to_dict(physical)
        assert "mode" not in payload
        payload["mode"] = legacy_mode
        rebuilt = physical_plan_from_dict(payload)
        assert rebuilt == physical
        assert rebuilt.mode == "morsel"
        executor = PlanExecutor(
            session.catalog, "r", parallelism=2, estimator=session.estimator
        )
        assert rebuilt.check(executor.analysis_context()) == []
        serial = PlanExecutor(
            session.catalog, "r", estimator=session.estimator
        ).execute(plan)
        parallel = executor.execute_physical(rebuilt)
        assert parallel.metrics.mode == "morsel"
        assert set(parallel.results) == set(serial.results)
        for query, table in serial.results.items():
            other = parallel.results[query]
            assert other.column_names == table.column_names
            for column in table.column_names:
                assert other[column].dtype == table[column].dtype
                assert (other[column] == table[column]).all()
        assert parallel.metrics.as_dict(
            per_query=True
        ) == serial.metrics.as_dict(per_query=True)
