"""Morsel-driven two-phase aggregation: row-range partials + merge.

Running every Group By on its own pays one full row-store scan per
grouping.  Morsel execution turns that inside out: the base relation
(or a materialized temp) is split into row-range **morsels**; each
morsel pays one shared row-store pass (``Table.touch_range``) that
feeds *every* grouping in the batch, and each grouping computes a
decomposable :class:`~repro.engine.aggregation.PartialGroupState` per
morsel (count → sum of counts, sum → sum, min/max → min/max, avg →
(sum, count)).  Partials then merge by composite key code into final
group results, bit-identical to the single-pass ``group_by`` kernels —
the paper's shared-scan idea applied at the physical layer, with
thread-parallelism *inside* the operator batch (morsel workers run
numpy kernels that release the GIL).

:class:`MorselGrouping` prepares one grouping for morsel execution and
reports whether the two-phase plan can apply (``feasible`` is False for
an empty key list, an empty input, or a near-unique composite domain);
infeasible groupings never enter a batch — the executor runs them with
the single-pass kernel.  :func:`compute_morsel_groupings` runs a whole
batch: one shared scan per morsel, all partials, all merges.
"""

from __future__ import annotations

from concurrent.futures import Executor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.engine.aggregation import (
    AggregateSpec,
    PartialGroupState,
    _column_codes,
    _combined_codes,
    merge_partial_states,
    partial_aggregate_state,
)
from repro.engine.table import Table
from repro.engine.types import SchemaError

if TYPE_CHECKING:  # import cycle guard, mirroring aggregation.py
    from repro.engine.dictcache import DictionaryCache

#: Target rows per morsel: big enough that each worker's numpy kernels
#: dominate thread-dispatch overhead, small enough that a full-scale
#: workload yields several morsels to spread across workers.
MORSEL_TARGET_ROWS = 65_536

#: Hard cap on morsels per batch (scheduling overhead is O(morsels)).
MAX_MORSELS = 64

#: Composite-domain ceiling for two-phase execution, as a multiple of
#: the input rows.  Beyond it (near-unique key combinations) every
#: per-morsel regime loses: bincount partials pay O(radix) slot scans
#: per morsel, sort partials pay a comparison sort per morsel, and the
#: merge re-walks the domain — all to rediscover groups the single-pass
#: kernel finds in one bincount.  Such groupings stay out of batches.
MORSEL_RADIX_SLACK = 2


def morsel_count(n_rows: int, parallelism: int = 1) -> int:
    """How many morsels a relation of ``n_rows`` should split into.

    One per ``MORSEL_TARGET_ROWS`` rows, raised to ``parallelism`` (so
    every worker has work) and capped at :data:`MAX_MORSELS` and
    ``n_rows`` (no empty morsels).  A relation that fits in a single
    morsel is never split: slicing a small table ``parallelism`` ways
    multiplies per-morsel fixed costs without adding useful work.
    """
    if n_rows <= 0:
        return 1
    by_rows = -(-n_rows // MORSEL_TARGET_ROWS)  # ceil division
    if by_rows <= 1:
        return 1
    return max(1, min(max(by_rows, parallelism), MAX_MORSELS, n_rows))


def morsel_ranges(n_rows: int, morsels: int) -> list[tuple[int, int]]:
    """Split ``[0, n_rows)`` into up to ``morsels`` contiguous ranges.

    Ranges are near-equal (sizes differ by at most one row), cover every
    row exactly once, and are never empty — the partition is a pure
    function of (n_rows, morsels), so re-runs see identical morsels.
    """
    if n_rows <= 0:
        return []
    morsels = max(1, min(morsels, n_rows))
    bounds = np.linspace(0, n_rows, morsels + 1).astype(np.int64)
    return [
        (int(bounds[i]), int(bounds[i + 1])) for i in range(morsels)
    ]


class MorselGrouping:
    """One grouping prepared for two-phase morsel execution.

    Combines the key columns into composite codes once (through the
    plan-wide dictionary cache), then serves per-morsel
    :meth:`partial` states and the final :meth:`merge`.  ``feasible``
    is False when the two-phase plan cannot apply — empty key list,
    empty input, or a composite domain too large for per-morsel
    partials — and such a grouping must not join a batch.

    Args:
        table: input relation (base table or materialized temp).
        keys: grouping columns.
        aggregates: aggregate specs for the output.
        name: result table name.
        dictionaries: plan-wide dictionary cache.
    """

    def __init__(
        self,
        table: Table,
        keys: Sequence[str],
        aggregates: Sequence[AggregateSpec],
        name: str | None = None,
        dictionaries: "DictionaryCache | None" = None,
    ) -> None:
        self.table = table
        self.keys = list(keys)
        self.aggregates = list(aggregates)
        self.name = name
        self._dictionaries = dictionaries
        self._combined: np.ndarray | None = None
        self._radix = 0
        self._layout: dict[str, tuple[int, int]] | None = None
        self.feasible = bool(self.keys) and table.num_rows > 0
        if self.feasible:
            radix_cap = max(
                MORSEL_TARGET_ROWS, MORSEL_RADIX_SLACK * table.num_rows
            )
            # Cheap precheck: the composite radix is the product of the
            # per-key dictionary cardinalities, so infeasibility is
            # known before paying for the combined-code array.  The
            # per-column codes come from the plan-wide cache, where a
            # single-pass kernel run for an infeasible grouping reuses
            # them.
            radix = 1
            for key in self.keys:
                _, uniques = _column_codes(table, key, dictionaries)
                radix *= max(len(uniques), 1)
                if radix > radix_cap:
                    break
            if radix > radix_cap:
                self.feasible = False
            else:
                combined, radix, layout = _combined_codes(
                    table, self.keys, dictionaries
                )
                # The cap is far below the int64 overflow point where
                # _combined_codes compresses and drops the layout.
                assert layout is not None
                self._combined = combined
                self._radix = radix
                self._layout = layout
        self._columns = {
            spec.column: table[spec.column]
            for spec in self.aggregates
            if spec.column is not None
        }

    def partial(self, start: int, stop: int) -> PartialGroupState:
        """Partial aggregate state over rows ``[start, stop)``.

        Thread-safe: reads only immutable arrays prepared at
        construction, so morsel workers may call it concurrently.
        """
        assert self._combined is not None
        sliced = {
            name: array[start:stop]
            for name, array in self._columns.items()
        }
        return partial_aggregate_state(
            self._combined[start:stop],
            sliced,
            self.aggregates,
            radix=self._radix,
        )

    def merge(self, partials: Sequence[PartialGroupState]) -> Table:
        """Merge morsel partials into the final result table.

        Output columns, ordering, dtypes, and group numbering are
        identical to the single-pass :func:`group_by` result.
        """
        assert self._layout is not None
        codes, _counts, merged = merge_partial_states(
            partials,
            self.aggregates,
            {name: array.dtype for name, array in self._columns.items()},
            radix=self._radix,
        )
        columns: dict[str, np.ndarray] = {}
        key_parents: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for key in self.keys:
            stride, card = self._layout[key]
            parents = (codes // stride) % card
            _, uniques = _column_codes(self.table, key, self._dictionaries)
            key_parents[key] = (parents, uniques)
            columns[key] = uniques[parents]
        for spec in self.aggregates:
            if spec.alias in columns:
                raise SchemaError(
                    f"duplicate output column {spec.alias!r}"
                )
            columns[spec.alias] = merged[spec.alias]
        result_name = (
            self.name or f"groupby_{'_'.join(self.keys) or 'all'}"
        )
        result = Table.wrap(result_name, columns)
        # The same on-demand dictionaries group_by attaches: descendants
        # of a materialized result resolve them from the parent codes
        # instead of re-encoding raw values; leaf results never pay.
        for key, parents in key_parents.items():
            result.set_dictionary(key, *parents)
        return result


@dataclass
class MorselBatchStats:
    """What one shared-scan batch actually did (for spans/metrics)."""

    morsels: int
    ranges: list[tuple[int, int]]
    bytes_per_morsel: list[int]


def compute_morsel_groupings(
    table: Table,
    groupings: Sequence[MorselGrouping],
    morsels: int,
    pool: Executor | None = None,
) -> tuple[list[Table], MorselBatchStats]:
    """Run a batch of feasible groupings over shared morsel scans.

    Each morsel pays one ``touch_range`` pass over ``table`` — shared
    by every grouping in the batch — then computes every grouping's
    partial state for that row range.  Morsels run as tasks on
    ``pool`` (numpy kernels release the GIL), or inline without one;
    the caller must not be one of the pool's workers.  Partials are
    merged in morsel-index order regardless of completion order, so
    results are deterministic.

    Returns:
        (result tables, batch stats) with results in ``groupings``
        order.

    Raises:
        ValueError: if a grouping is infeasible.
    """
    if not all(grouping.feasible for grouping in groupings):
        raise ValueError("infeasible groupings cannot join a morsel batch")
    ranges = morsel_ranges(table.num_rows, morsels)
    bytes_per_morsel = [0] * len(ranges)
    partials: list[list[PartialGroupState]] = [[] for _ in ranges]

    def run_morsel(index: int) -> None:
        start, stop = ranges[index]
        # One shared row-store pass feeds every grouping in the batch.
        bytes_per_morsel[index] = table.touch_range(start, stop)
        partials[index] = [
            grouping.partial(start, stop) for grouping in groupings
        ]

    if pool is not None and len(ranges) > 1:
        list(pool.map(run_morsel, range(len(ranges))))
    else:
        for index in range(len(ranges)):
            run_morsel(index)

    results = [
        grouping.merge([states[g] for states in partials])
        for g, grouping in enumerate(groupings)
    ]
    return results, MorselBatchStats(
        morsels=len(ranges),
        ranges=ranges,
        bytes_per_morsel=bytes_per_morsel,
    )
