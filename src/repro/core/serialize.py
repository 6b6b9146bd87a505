"""Plan (de)serialization: logical and physical plans as dicts / JSON.

A production system caches optimized plans; this module round-trips
:class:`~repro.core.plan.LogicalPlan` through JSON-compatible dicts so
plans can be stored, diffed, or shipped to the client-side executor of
Section 5.2 in another process.  Lowered
:class:`~repro.physical.plan.PhysicalPlan` DAGs round-trip the same way
(operator tags resolve through :data:`repro.physical.plan.OP_TYPES`),
so a costed physical plan can be rendered or re-executed elsewhere.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from repro.core.plan import LogicalPlan, NodeKind, PlanError, PlanNode, SubPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.physical.plan import PhysicalPlan

#: Bumped on any incompatible change to the wire shape.
FORMAT_VERSION = 1

#: Bumped on any incompatible change to the physical wire shape.
PHYSICAL_FORMAT_VERSION = 1


def subplan_to_dict(subplan: SubPlan) -> dict[str, object]:
    payload = {
        "columns": sorted(subplan.node.columns),
        "kind": subplan.node.kind.value,
        "required": subplan.required,
        "children": [subplan_to_dict(child) for child in subplan.children],
    }
    if subplan.node.kind is NodeKind.ROLLUP:
        payload["rollup_order"] = list(subplan.node.rollup_order)
    if subplan.direct_answers:
        payload["direct_answers"] = sorted(
            sorted(q) for q in subplan.direct_answers
        )
    return payload


def plan_to_dict(plan: LogicalPlan) -> dict[str, object]:
    """Serialize a plan to a JSON-compatible dict."""
    return {
        "version": FORMAT_VERSION,
        "relation": plan.relation,
        "required": sorted(sorted(q) for q in plan.required),
        "subplans": [subplan_to_dict(s) for s in plan.subplans],
    }


def subplan_from_dict(payload: dict[str, object]) -> SubPlan:
    kind = NodeKind(payload.get("kind", "group_by"))
    node = PlanNode(
        frozenset(payload["columns"]),
        kind,
        tuple(payload.get("rollup_order", ())),
    )
    children = tuple(
        subplan_from_dict(child) for child in payload.get("children", ())
    )
    direct = frozenset(
        frozenset(q) for q in payload.get("direct_answers", ())
    )
    return SubPlan(node, children, payload.get("required", False), direct)


def plan_from_dict(payload: dict[str, object]) -> LogicalPlan:
    """Rebuild a plan from :func:`plan_to_dict` output.

    The payload is verified *before* any plan dataclass is built: the
    static verifier (:mod:`repro.analysis`) runs its structural rules
    over the raw dict, so a corrupted payload is rejected with an error
    naming the violated rule instead of an arbitrary constructor crash.

    Raises:
        PlanError: on version mismatch, or — as the
            :class:`~repro.analysis.verifier.PlanVerificationError`
            subclass — when the payload violates a plan invariant.
    """
    # Imported here: repro.analysis builds on this module's types.
    from repro.analysis.planview import PlanViewError
    from repro.analysis.verifier import STRUCTURAL_RULES, check_payload

    version = payload.get("version")
    if version != FORMAT_VERSION:
        raise PlanError(
            f"unsupported plan format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    try:
        check_payload(payload, rules=STRUCTURAL_RULES)
    except PlanViewError as error:
        raise PlanError(f"malformed plan payload: {error}") from None
    return LogicalPlan(
        str(payload["relation"]),
        tuple(subplan_from_dict(s) for s in payload.get("subplans", ())),
        frozenset(frozenset(q) for q in payload.get("required", ())),
    )


def plan_to_json(plan: LogicalPlan, indent: int | None = None) -> str:
    """Serialize a plan to a JSON string."""
    return json.dumps(plan_to_dict(plan), indent=indent, sort_keys=True)


def plan_from_json(text: str) -> LogicalPlan:
    """Parse a plan from :func:`plan_to_json` output."""
    return plan_from_dict(json.loads(text))


# -- physical plans ------------------------------------------------------------


def physical_plan_to_dict(plan: "PhysicalPlan") -> dict[str, object]:
    """Serialize a lowered physical plan to a JSON-compatible dict."""
    payload: dict[str, object] = {
        "physical_version": PHYSICAL_FORMAT_VERSION,
        "relation": plan.relation,
        "operators": [op.to_dict() for op in plan.operators],
        "pipelines": [
            {
                "ops": list(p.ops),
                "label": p.label,
                "kind": p.kind,
                "source": p.source,
                "materialized": p.materialized,
                "attribute": p.attribute,
                "depth": p.depth,
            }
            for p in plan.pipelines
        ],
    }
    if plan.waves is not None:
        payload["waves"] = [
            {
                "index": w.index,
                "pipelines": list(w.pipelines),
                "drops": list(w.drops),
            }
            for w in plan.waves
        ]
    if plan.memory_budget_bytes is not None:
        payload["memory_budget_bytes"] = plan.memory_budget_bytes
    return payload


def physical_plan_from_dict(payload: dict[str, object]) -> "PhysicalPlan":
    """Rebuild a physical plan from :func:`physical_plan_to_dict` output.

    The rebuilt plan is gated through the physical verifier rules
    (PV012+), so a corrupted payload is rejected with an error naming
    the violated invariant.  A ``mode`` key written by older versions
    is ignored: the wave schedule alone decides how the plan runs.  An
    operator written without ``aggregates`` (older versions) loads with
    the COUNT(*) default.

    Raises:
        PlanError: on version mismatch, unknown operator tags, or — as
            the :class:`~repro.analysis.verifier.PlanVerificationError`
            subclass — when the payload violates a physical invariant.
    """
    # Imported here: repro.physical and repro.analysis build on core.
    from repro.analysis.physrules import check_physical_plan
    from repro.engine.aggregation import AggregateSpec
    from repro.engine.types import SchemaError
    from repro.physical.plan import (
        OP_TYPES,
        PhysicalPipeline,
        PhysicalPlan,
        PhysicalPlanError,
        PhysicalWave,
    )

    version = payload.get("physical_version")
    if version != PHYSICAL_FORMAT_VERSION:
        raise PlanError(
            f"unsupported physical plan format version {version!r} "
            f"(expected {PHYSICAL_FORMAT_VERSION})"
        )
    operators = []
    for entry in payload.get("operators", ()):
        if not isinstance(entry, dict):
            raise PlanError("malformed physical plan payload: operator "
                            "entries must be objects")
        tag = entry.get("op")
        op_cls = OP_TYPES.get(str(tag))
        if op_cls is None:
            raise PlanError(
                f"malformed physical plan payload: unknown operator "
                f"tag {tag!r}"
            )
        fields = {k: _untuple(v) for k, v in entry.items() if k != "op"}
        try:
            if "aggregates" in fields:
                fields["aggregates"] = tuple(
                    AggregateSpec(**spec) for spec in fields["aggregates"]
                )
            operators.append(op_cls(**fields))
        except (TypeError, SchemaError) as error:
            raise PlanError(
                f"malformed physical plan payload: {error}"
            ) from None
    pipelines = tuple(
        PhysicalPipeline(
            ops=tuple(entry.get("ops", ())),
            label=str(entry.get("label", "")),
            kind=str(entry.get("kind", "group_by")),
            source=str(entry.get("source", "R")),
            materialized=bool(entry.get("materialized", False)),
            attribute=bool(entry.get("attribute", True)),
            depth=int(entry.get("depth", 0)),
        )
        for entry in payload.get("pipelines", ())
    )
    waves = None
    if "waves" in payload:
        waves = tuple(
            PhysicalWave(
                int(entry.get("index", i)),
                tuple(entry.get("pipelines", ())),
                tuple(entry.get("drops", ())),
            )
            for i, entry in enumerate(payload["waves"])
        )
    budget = payload.get("memory_budget_bytes")
    try:
        plan = PhysicalPlan(
            relation=str(payload.get("relation", "")),
            operators=tuple(operators),
            pipelines=pipelines,
            waves=waves,
            memory_budget_bytes=(
                float(budget) if budget is not None else None
            ),
        )
    except PhysicalPlanError as error:
        raise PlanError(
            f"malformed physical plan payload: {error}"
        ) from None
    check_physical_plan(plan)
    return plan


def _untuple(value: object) -> object:
    """Invert the operators' list-of-lists JSON form back to tuples."""
    if isinstance(value, list):
        return tuple(_untuple(item) for item in value)
    return value


def physical_plan_to_json(
    plan: "PhysicalPlan", indent: int | None = None
) -> str:
    """Serialize a physical plan to a JSON string."""
    return json.dumps(
        physical_plan_to_dict(plan), indent=indent, sort_keys=True
    )


def physical_plan_from_json(text: str) -> "PhysicalPlan":
    """Parse a physical plan from :func:`physical_plan_to_json` output."""
    return physical_plan_from_dict(json.loads(text))
