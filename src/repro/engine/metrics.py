"""Execution metrics collected by every physical operator.

The paper measures plan quality in wall-clock time on a real DBMS.  Our
engine also runs for real (numpy work per scan and per aggregation), but
for stable assertions in tests the engine additionally maintains
deterministic counters: bytes scanned, bytes materialized, rows grouped.
``work`` (bytes scanned + bytes materialized) is the deterministic proxy
for plan cost used in integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ExecutionMetrics:
    """Mutable counters threaded through physical operators."""

    rows_scanned: int = 0
    bytes_scanned: int = 0
    rows_materialized: int = 0
    bytes_materialized: int = 0
    group_by_ops: int = 0
    index_scans: int = 0
    queries_executed: int = 0
    sort_ops: int = 0
    per_query_bytes: dict[str, int] = field(default_factory=dict)
    #: Execution mode that produced these counters ("serial" or
    #: "morsel").  Descriptive, not a counter: it is
    #: excluded from :data:`COUNTER_FIELDS`, :meth:`as_dict`, and
    #: merging, so mode never perturbs counter equality checks.
    mode: str = "serial"

    #: The scalar counter fields, in declaration order (used by
    #: :meth:`as_dict` and :meth:`diff` so new counters stay covered).
    COUNTER_FIELDS = (
        "rows_scanned",
        "bytes_scanned",
        "rows_materialized",
        "bytes_materialized",
        "group_by_ops",
        "index_scans",
        "queries_executed",
        "sort_ops",
    )

    @property
    def work(self) -> int:
        """Deterministic cost proxy: total bytes read plus written."""
        return self.bytes_scanned + self.bytes_materialized

    def record_scan(self, rows: int, bytes_: int, *, from_index: bool = False) -> None:
        self.rows_scanned += rows
        self.bytes_scanned += bytes_
        if from_index:
            self.index_scans += 1

    def record_materialize(self, rows: int, bytes_: int) -> None:
        self.rows_materialized += rows
        self.bytes_materialized += bytes_

    def record_group_by(self) -> None:
        self.group_by_ops += 1

    def record_sort(self) -> None:
        self.sort_ops += 1

    def merge_in(self, other: "ExecutionMetrics") -> None:
        """Fold another metrics object into this one in place.

        The parallel executor gives each plan-node step its own metrics
        and folds them back in deterministic schedule order; counter
        addition is commutative, so serial and parallel executions of
        the same plan report equal totals.
        """
        for name in self.COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for query, bytes_ in other.per_query_bytes.items():
            self.per_query_bytes[query] = (
                self.per_query_bytes.get(query, 0) + bytes_
            )

    def merged_with(self, other: "ExecutionMetrics") -> "ExecutionMetrics":
        """Return a new metrics object combining self and other."""
        merged = ExecutionMetrics(
            **{
                name: getattr(self, name) + getattr(other, name)
                for name in self.COUNTER_FIELDS
            }
        )
        # Per-query bytes are additive too: when both sides ran the same
        # query, its bytes must sum, not clobber.
        merged.per_query_bytes = dict(self.per_query_bytes)
        for query, bytes_ in other.per_query_bytes.items():
            merged.per_query_bytes[query] = (
                merged.per_query_bytes.get(query, 0) + bytes_
            )
        return merged

    def as_dict(self, per_query: bool = False) -> dict[str, object]:
        """Flat snapshot of every counter (plus the derived ``work``).

        Args:
            per_query: include the ``per_query_bytes`` mapping (as a
                copy) under its own key.
        """
        snapshot: dict[str, object] = {
            name: getattr(self, name) for name in self.COUNTER_FIELDS
        }
        snapshot["work"] = self.work
        if per_query:
            snapshot["per_query_bytes"] = dict(self.per_query_bytes)
        return snapshot

    def diff(self, before: "ExecutionMetrics") -> dict[str, int]:
        """Per-counter deltas of self minus an earlier snapshot.

        Useful for attributing a region of execution (e.g. one plan
        node) without mutating or copying the shared metrics object.
        """
        deltas = {
            name: getattr(self, name) - getattr(before, name)
            for name in self.COUNTER_FIELDS
        }
        deltas["work"] = self.work - before.work
        return deltas
