"""The benchmark's four workloads: base tables and seeded operation streams.

Every session starts with the same warm-up batch, every single-column
Group By over the workload's columns, so set-up time does not depend on
which batch the seed happens to draw first.

Batch costs differ a lot with the columns a batch groups by (a
near-unique text column costs far more than a flag), so a run's totals
would mostly reflect which expensive columns a seed happened to pick.
Each workload therefore replays a fixed *deck* of batches, drawn once
from :data:`DESIGN_SEED` in *balanced rounds* (within a round every
candidate column appears in the same number of batches).  The run's
seed generates the base table and shuffles the deck anew on every pass
through it, so runs with different seeds measure the same work on
different data in a different order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.core.extensions import AggregateQuery
from repro.engine.aggregation import AggregateSpec
from repro.engine.catalog import Catalog
from repro.engine.table import Table
from repro.workloads.nref import make_neighboring_seq
from repro.workloads.sales import make_sales
from repro.workloads.tpch import make_lineitem

#: Seed of the batch decks and the cache-rw query pool.
DESIGN_SEED = 20050614


@dataclass(frozen=True)
class Batch:
    """One batch of Group By queries submitted together.

    ``aggregates`` is empty for COUNT(*) batches; otherwise it holds one
    aggregate list per query, in ``queries`` order.
    """

    queries: tuple[frozenset[str], ...]
    aggregates: tuple[tuple[AggregateSpec, ...], ...] = ()

    def aggregate_queries(self) -> list[AggregateQuery]:
        return [
            AggregateQuery(query, aggs)
            for query, aggs in zip(self.queries, self.aggregates)
        ]

    def aggregates_of(self, index: int) -> tuple[AggregateSpec, ...]:
        return self.aggregates[index] if self.aggregates else ()


@dataclass(frozen=True)
class Write:
    """Overwrite the update slice with the values of one variant."""

    variant: int


@dataclass
class Scenario:
    """A workload instantiated for one seed and row count."""

    table: Table
    parallelism: int
    cache: bool
    #: The first batch of every session, part of set-up.
    warm_up: Batch
    #: A fresh iterator over the same seeded operation stream.
    ops: Callable[[], Iterator[Batch | Write]]
    #: Operations in one full cycle of the stream's design (one pass
    #: through a deck, or one rotation of cache-rw's tail entry).
    cycle: int
    #: (column, start, stop, one values array per write variant).
    update: tuple[str, int, int, list[np.ndarray]] | None = None
    _state_tables: dict[int, Table] = field(default_factory=dict)

    @property
    def base_name(self) -> str:
        return self.table.name

    def table_for_state(self, state: int) -> Table:
        """The base table's contents after a write of ``state - 1``.

        State 0 is the generated table.  Every variant overwrites the
        same slice completely, so the contents depend only on the last
        write; the oracle memoises naive results per state.
        """
        if state not in self._state_tables:
            if state == 0:
                self._state_tables[0] = self.table
            else:
                assert self.update is not None
                column, start, stop, variants = self.update
                values = self.table[column].copy()
                values[start:stop] = variants[state - 1]
                self._state_tables[state] = self.table.with_column(column, values)
        return self._state_tables[state]

    def apply_write(self, catalog: Catalog, write: Write) -> int:
        """Write through ``Catalog.replace_table``; returns the new state."""
        assert self.update is not None
        column, start, stop, variants = self.update
        current = catalog.get(self.base_name)
        values = current[column].copy()
        values[start:stop] = variants[write.variant]
        catalog.replace_table(current.with_column(column, values))
        return write.variant + 1


def balanced_round(
    rng: np.random.Generator, columns: list[str], sizes: list[int], repeats: int
) -> list[list[str]]:
    """Split ``columns`` into batches of ``sizes``, each column in
    ``repeats`` distinct batches.

    Columns are placed in random order, each into the batches with the
    most room left (random tie-break); this greedy choice always
    completes when ``sum(sizes) == repeats * len(columns)``.
    """
    if sum(sizes) != repeats * len(columns) or max(sizes) > len(columns):
        raise ValueError("sizes do not admit a balanced round")
    room = list(sizes)
    batches: list[list[str]] = [[] for _ in sizes]
    for index in rng.permutation(len(columns)):
        ties = rng.random(len(sizes))
        ranked = sorted(range(len(sizes)), key=lambda b: (-room[b], ties[b]))
        for b in ranked[:repeats]:
            batches[b].append(columns[index])
            room[b] -= 1
    if any(room):
        raise ValueError("balanced round left unfilled batches")
    return [sorted(batch) for batch in batches]


def _sizes_summing_to(
    rng: np.random.Generator, count: int, lo: int, hi: int, total: int
) -> list[int]:
    """``count`` sizes in [lo, hi] summing to ``total``, drawn at random."""
    sizes = []
    for i in range(count):
        left = count - i - 1
        low = max(lo, total - hi * left)
        high = min(hi, total - lo * left)
        size = int(rng.integers(low, high + 1))
        sizes.append(size)
        total -= size
    return sizes


def _singles(columns: list[str]) -> list[frozenset[str]]:
    return [frozenset([c]) for c in columns]


def _singles_and_pairs(columns: list[str]) -> list[frozenset[str]]:
    return _singles(columns) + [
        frozenset(pair) for pair in itertools.combinations(columns, 2)
    ]


def _deck(
    seed: int,
    rounds: int,
    draw_round: Callable[[np.random.Generator], list[Batch]],
) -> tuple[Callable[[], Iterator[Batch | Write]], int]:
    """(stream, deck length): ``rounds`` design rounds, reshuffled on
    every pass through them."""
    design = np.random.default_rng(DESIGN_SEED)
    deck = [batch for _ in range(rounds) for batch in draw_round(design)]

    def ops() -> Iterator[Batch | Write]:
        rng = np.random.default_rng(seed)
        while True:
            for index in rng.permutation(len(deck)):
                yield deck[index]

    return ops, len(deck)


# -- profile-scan --------------------------------------------------------------


def profile_scan(rows: int, seed: int) -> Scenario:
    """Every single-column Group By over 8-16 of lineitem's 16 columns.

    A round is three batches whose sizes sum to 32, so every column is
    profiled in two of the three; the deck holds eight rounds.
    """
    table = make_lineitem(rows, seed=seed)
    columns = list(table.column_names)

    def draw_round(rng: np.random.Generator) -> list[Batch]:
        sizes = _sizes_summing_to(rng, 3, 8, 16, 2 * len(columns))
        return [
            Batch(tuple(_singles(batch)))
            for batch in balanced_round(rng, columns, sizes, 2)
        ]

    return Scenario(
        table, 2, False, Batch(tuple(_singles(columns))), *_deck(seed, 8, draw_round)
    )


# -- pairs-serial --------------------------------------------------------------


def pairs_serial(rows: int, seed: int) -> Scenario:
    """All 1- and 2-column Group Bys over 6 of nref's 10 columns.

    A round is five 6-column batches; every column is in three of them.
    The deck holds two rounds.
    """
    table = make_neighboring_seq(rows, seed=seed)
    columns = list(table.column_names)

    def draw_round(rng: np.random.Generator) -> list[Batch]:
        return [
            Batch(tuple(_singles_and_pairs(batch)))
            for batch in balanced_round(rng, columns, [6] * 5, 3)
        ]

    return Scenario(
        table, 1, False, Batch(tuple(_singles(columns))), *_deck(seed, 2, draw_round)
    )


# -- multi-agg -----------------------------------------------------------------

#: The aggregate menu each multi-agg query draws its list from.
AGGREGATE_MENU = (
    AggregateSpec("count", None, "cnt"),
    AggregateSpec("sum", "l_extendedprice", "sum_price"),
    AggregateSpec("min", "l_quantity", "min_qty"),
    AggregateSpec("max", "l_quantity", "max_qty"),
    AggregateSpec("avg", "l_discount", "avg_disc"),
)


def multi_agg(rows: int, seed: int) -> Scenario:
    """1- and 2-column Group Bys over 5 lineitem columns, each query
    with its own aggregate list, through ``Session.run_with_aggregates``.

    ``l_comment`` is left out of the grouping columns: it is ~90%
    unique, so every pair with it is near-unique and a batch holding it
    costs several times one without it.  Its scan cost is still paid
    by every query (row-store emulation), and profile-scan groups by
    it.  The remaining 15 columns split into three 5-column batches per
    round; the deck holds four rounds.  Each column set keeps one
    aggregate list, drawn with the deck, as a user re-asking a question
    would.
    """
    table = make_lineitem(rows, seed=seed)
    columns = [c for c in table.column_names if c != "l_comment"]
    menu = np.random.default_rng([DESIGN_SEED, 2])
    lists = {}
    for query in _singles_and_pairs(columns):
        count = int(menu.integers(1, 4))
        picked = menu.choice(len(AGGREGATE_MENU), count, replace=False)
        lists[query] = tuple(AGGREGATE_MENU[i] for i in sorted(picked))

    def batch_of(queries: list[frozenset[str]]) -> Batch:
        return Batch(tuple(queries), tuple(lists[q] for q in queries))

    def draw_round(rng: np.random.Generator) -> list[Batch]:
        return [
            batch_of(_singles_and_pairs(batch))
            for batch in balanced_round(rng, columns, [5] * 3, 1)
        ]

    return Scenario(
        table, 1, False, batch_of(_singles(columns)), *_deck(seed, 4, draw_round)
    )


# -- cache-rw ------------------------------------------------------------------

#: Query sets in the cache-rw pool, by popularity rank.
POOL_SIZE = 10
#: The reads between two writes, as (pool rank, coarse): rank None is
#: the epoch's tail entry, which rotates through ranks 2..9.  A coarse
#: read asks for an entry's singles instead of its pairs, answerable
#: from cached pairs (a lattice-derived hit).  Nine reads per write
#: make writes 10% of operations; the 5/3/1 Zipf-like popularity makes
#: about two reads in three cache hits, so the median batch is a hit.
EPOCH_READS = (
    (0, False), (0, False), (0, False), (0, False), (0, True),
    (1, False), (1, False), (1, True),
    (None, False),
)
#: Distinct contents a write can leave in the update slice.
WRITE_VARIANTS = 3
#: Rows in the update slice, as a share of the table.
UPDATE_SHARE = 0.01


def cache_rw(rows: int, seed: int) -> Scenario:
    """Skewed reads from a fixed pool of query sets over sales, with one
    write in ten replacing a row slice of one column.

    Pool entries are 3-column sets (every column in two of the ten); a
    read asks for the entry's three pairs, or for its three singles.
    Operations come in epochs: a write, then :data:`EPOCH_READS` in an
    order the seed shuffles.  A write invalidates every cached result,
    so fixing each epoch's multiset of reads keeps the numbers of hits
    and misses nearly the same from seed to seed, where independent
    Zipf draws made them (and the median batch) swing between modes.
    """
    table = make_sales(rows, seed=seed)
    columns = list(table.column_names)
    design = np.random.default_rng([DESIGN_SEED, 1])
    pool = balanced_round(design, columns, [3] * POOL_SIZE, 2)
    column = columns[int(design.integers(len(columns)))]
    data = np.random.default_rng([seed, 1])
    span = max(1, int(rows * UPDATE_SHARE))
    start = int(data.integers(0, rows - span + 1))
    variants = [
        data.choice(table[column], span) for _ in range(WRITE_VARIANTS)
    ]

    def read(rank: int, coarse: bool) -> Batch:
        entry = pool[rank]
        if coarse:
            return Batch(tuple(_singles(entry)))
        return Batch(tuple(frozenset(p) for p in itertools.combinations(entry, 2)))

    def ops() -> Iterator[Batch | Write]:
        rng = np.random.default_rng(seed)
        for epoch in itertools.count():
            yield Write(int(rng.integers(WRITE_VARIANTS)))
            tail = 2 + epoch % (POOL_SIZE - 2)
            reads = [
                read(tail if rank is None else rank, coarse)
                for rank, coarse in EPOCH_READS
            ]
            for index in rng.permutation(len(reads)):
                yield reads[index]

    return Scenario(
        table,
        1,
        True,
        Batch(tuple(_singles(columns))),
        ops,
        (1 + len(EPOCH_READS)) * (POOL_SIZE - 2),
        update=(column, start, start + span, variants),
    )


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, int], Scenario]
    #: Base table rows unless the command line overrides them.
    rows: int = 300_000


#: The benchmark's workloads; BENCHMARK.json records why each is there.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("profile-scan", profile_scan),
        Workload("pairs-serial", pairs_serial),
        Workload("cache-rw", cache_rw),
        # At 300k rows one batch takes about 0.8 s on a 2-core machine,
        # too few per run for a tail percentile; 100k rows gives about
        # 85 batches in a 20-second run.
        Workload("multi-agg", multi_agg, rows=100_000),
    )
}
