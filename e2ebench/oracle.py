"""Correctness oracle: memoised naive-plan results and result comparison.

The naive plan runs each query on its own against the base relation;
every plan GB-MQO produces must return the same tables.  Expected
results are computed one query at a time on a private copy of the
table (so the oracle never warms the dictionaries the timed session
uses), outside every timed region, and memoised by query, aggregate
list and table state.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.extensions import AggregateQuery
from repro.core.plan import naive_plan
from repro.engine.aggregation import AggregateSpec
from repro.engine.catalog import Catalog
from repro.engine.executor import execute_naive
from repro.engine.multi_aggregate import execute_multi_aggregate
from repro.engine.table import Table

from workloads import Scenario


class Oracle:
    """Naive-plan results for one scenario, memoised as column digests.

    Digests keep the memo small however many (query, state) results a
    run visits.  A float SUM/AVG column whose digest differs is checked
    against a recomputed naive result within :func:`float_tolerance`:
    the program documents that float sums agree up to addition order,
    and a merged plan adds in another order than the naive one.
    """

    def __init__(self, scenario: Scenario) -> None:
        self._scenario = scenario
        self._catalogs: dict[int, Catalog] = {}
        self._memo: dict[tuple, tuple[tuple[str, ...], list[np.dtype], list[bytes]]] = {}
        self._rtol = float_tolerance(scenario.table.num_rows)

    def _catalog(self, state: int) -> Catalog:
        if state not in self._catalogs:
            source = self._scenario.table_for_state(state)
            private = Table(
                source.name, {c: source[c] for c in source.column_names}
            )
            catalog = Catalog()
            catalog.add_table(private)
            self._catalogs[state] = catalog
        return self._catalogs[state]

    def _naive(
        self, query: frozenset[str], aggregates: tuple[AggregateSpec, ...], state: int
    ) -> Table:
        catalog = self._catalog(state)
        base = self._scenario.base_name
        if aggregates:
            result = execute_multi_aggregate(
                catalog,
                base,
                naive_plan(base, [query]),
                [AggregateQuery(query, aggregates)],
            )
        else:
            result = execute_naive(catalog, base, [query])
        return result.results[query]

    def check(
        self,
        got: Table,
        query: frozenset[str],
        aggregates: tuple[AggregateSpec, ...],
        state: int,
        digest: "hashlib._Hash",
    ) -> tuple[str | None, int]:
        """(mismatch or None, float columns equal only within tolerance).

        Keys, counts, MIN/MAX and integer sums must be bit-identical.
        Every column's digest is folded into ``digest``.
        """
        key = (query, aggregates, state)
        if key not in self._memo:
            want = self._naive(query, aggregates, state)
            self._memo[key] = (
                want.column_names,
                [want[name].dtype for name in want.column_names],
                [column_digest(want[name]) for name in want.column_names],
            )
        names, dtypes, digests = self._memo[key]
        if got.column_names != names:
            return f"columns {got.column_names} != {names}", 0
        reassociated = {s.alias for s in aggregates if s.func in ("sum", "avg")}
        reference = None
        inexact = 0
        for name, dtype, expected in zip(names, dtypes, digests):
            column = got[name]
            if column.dtype != dtype:
                return f"{name}: {column.dtype} != {dtype}", 0
            actual = column_digest(column)
            digest.update(actual)
            if actual == expected:
                continue
            if name in reassociated and dtype.kind == "f":
                if reference is None:
                    reference = self._naive(query, aggregates, state)
                want = reference[name]
                if column.shape == want.shape and np.allclose(
                    column, want, rtol=self._rtol, atol=0.0
                ):
                    inexact += 1
                    continue
            return f"{name}: values differ", 0
        return None, inexact


def column_digest(column: np.ndarray) -> bytes:
    return hashlib.sha256(np.ascontiguousarray(column).view(np.uint8)).digest()


def float_tolerance(rows: int) -> float:
    """Relative tolerance for a float SUM/AVG over ``rows`` values.

    Summing n float64 values in a different order changes the result by
    at most about (n - 1) machine epsilons relative to the sum of their
    magnitudes; every summed column here is non-negative.
    """
    return max(rows, 1) * float(np.finfo(np.float64).eps)
