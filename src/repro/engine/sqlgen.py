"""SQL text generation for a logical plan (Section 5.2).

The client-side implementation of the paper issues plain SQL against an
existing DBMS: ``SELECT v, COUNT(*) AS cnt INTO T_v FROM T_u GROUP BY v``
for intermediate nodes, a final SELECT for leaves, replacing COUNT(*)
with SUM(cnt) whenever the source is a temporary table, and DROP TABLE
once all children of a temporary are done.  This module renders exactly
those statements, in schedule order, so the plan can be inspected or
shipped to a real database.
"""

from __future__ import annotations

from repro.core.plan import LogicalPlan, NodeKind, PlanNode
from repro.core.scheduling import Step, depth_first_schedule
from repro.physical.lowering import temp_name_for


def _columns_sql(node: PlanNode) -> str:
    return ", ".join(sorted(node.columns))


def _source_sql(parent: PlanNode | None, relation: str) -> str:
    return relation if parent is None else temp_name_for(parent)


def _aggregate_sql(from_base: bool) -> str:
    return "COUNT(*) AS cnt" if from_base else "SUM(cnt) AS cnt"


def step_to_sql(step: Step, relation: str) -> str:
    """Render one schedule step as a SQL statement."""
    if step.action == "drop":
        return f"DROP TABLE {temp_name_for(step.node)};"
    from_base = step.parent is None
    source = _source_sql(step.parent, relation)
    columns = _columns_sql(step.node)
    aggregate = _aggregate_sql(from_base)
    if step.node.kind is NodeKind.CUBE:
        return (
            f"SELECT {columns}, {aggregate} FROM {source} "
            f"GROUP BY CUBE ({columns});"
        )
    if step.node.kind is NodeKind.ROLLUP:
        ordered = ", ".join(step.node.rollup_order)
        return (
            f"SELECT {ordered}, {aggregate} FROM {source} "
            f"GROUP BY ROLLUP ({ordered});"
        )
    if step.materialize:
        return (
            f"SELECT {columns}, {aggregate} INTO {temp_name_for(step.node)} "
            f"FROM {source} GROUP BY {columns};"
        )
    return f"SELECT {columns}, {aggregate} FROM {source} GROUP BY {columns};"


def plan_to_sql(
    plan: LogicalPlan, steps: list[Step] | None = None
) -> list[str]:
    """Render a whole plan as an ordered SQL script.

    Args:
        plan: the logical plan.
        steps: schedule to follow (depth-first when None).
    """
    if steps is None:
        steps = depth_first_schedule(plan)
    return [step_to_sql(step, plan.relation) for step in steps]


def grouping_sets_sql(relation: str, queries: list[frozenset[str]]) -> str:
    """The single GROUPING SETS statement equivalent to the input S."""
    sets = ", ".join(
        "(" + ", ".join(sorted(q)) + ")"
        for q in sorted(queries, key=lambda q: (len(q), sorted(q)))
    )
    return (
        f"SELECT *, COUNT(*) AS cnt FROM {relation} "
        f"GROUP BY GROUPING SETS ({sets});"
    )
