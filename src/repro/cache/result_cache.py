"""Thread-safe semantic result cache keyed by grouping fingerprints.

Three cooperating pieces:

* :func:`grouping_fingerprint` — canonical identity of one grouping
  result: source relation, sorted key set, and the aggregate signature.
* :class:`DerivabilityIndex` — per-relation map over the grouping
  lattice answering exact-hit and "which finer grouping can serve G via
  reaggregation" lookups.
* :class:`ResultCache` — the store itself: byte-budgeted, cost-aware
  LRU eviction, versioned invalidation, and hit/miss accounting that
  feeds ``repro_cache_*`` metrics.

Locking: one :class:`threading.Lock` guards every mutable structure
(entries, the derivability index, the counters, the logical clock), and
every mutation sits lexically inside a ``with self._lock:`` block — the
CL209 lock-discipline contract.  The cache sits on the executor's
serve/populate path, which may run from pool worker threads, so
every public method is safe to call concurrently.  Recency is a logical
counter, not wall-clock time — the repo-wide CL207 contract keeps
``time.time()`` out of the engine.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.aggregation import AggregateSpec
    from repro.engine.table import Table
    from repro.obs.metrics import MetricsRegistry

#: Default cache budget: generous for the synthetic workloads, small
#: enough that a service holding many distinct groupings still evicts.
DEFAULT_MAX_BYTES = 64 * 1024 * 1024

#: Eviction policies: ``cost`` keeps high reuse-savings entries
#: (est_cost saved x hits, per byte); ``lru`` is recency only.
EVICTION_POLICIES = ("cost", "lru")


@dataclass(frozen=True)
class CacheConfig:
    """Result-cache tuning knobs.

    Args:
        max_bytes: byte budget for all cached tables together.
        policy: eviction policy, one of :data:`EVICTION_POLICIES`.
        min_rows: groupings computed over fewer input rows than this
            are not admitted (tiny scans are cheaper to redo than to
            hold a table hostage in the budget).
    """

    max_bytes: int = DEFAULT_MAX_BYTES
    policy: str = "cost"
    min_rows: int = 0

    def __post_init__(self) -> None:
        if self.max_bytes <= 0:
            raise ValueError(
                f"max_bytes must be positive, got {self.max_bytes}"
            )
        if self.policy not in EVICTION_POLICIES:
            raise ValueError(
                f"unknown eviction policy {self.policy!r}; "
                f"expected one of {EVICTION_POLICIES}"
            )
        if self.min_rows < 0:
            raise ValueError(
                f"min_rows must be >= 0, got {self.min_rows}"
            )


def aggregate_signature(
    aggregates: Iterable["AggregateSpec"] | None,
) -> tuple[tuple[str, str | None, str], ...]:
    """Canonical, hashable identity of an aggregate list.

    Order matters — ``(sum(a), count(*))`` produces different output
    columns than the reverse — so the signature preserves it.
    """
    if not aggregates:
        return ()
    return tuple(
        (spec.func, spec.column, spec.alias) for spec in aggregates
    )


def grouping_fingerprint(
    relation: str,
    keys: Iterable[str],
    agg_sig: Sequence[tuple[str, str | None, str]] = (),
) -> str:
    """Canonical fingerprint of one grouping result (16 hex chars).

    Two queries share a fingerprint iff they group the same relation by
    the same key set with the same aggregate list — the exact-hit
    condition.  The key order is canonicalized; the aggregate order is
    not (it determines the output schema).
    """
    payload = json.dumps(
        [relation, sorted(keys), [list(sig) for sig in agg_sig]],
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass
class CacheEntry:
    """One cached grouping result plus its bookkeeping."""

    fingerprint: str
    relation: str
    version: int
    keys: frozenset[str]
    agg_sig: tuple[tuple[str, str | None, str], ...]
    table: "Table"
    rows: int
    bytes: int
    est_cost: float
    hits: int = 0
    last_used: int = 0

    def as_dict(self) -> dict[str, object]:
        """JSON-ready view (for ``cache_stats`` and the CLI)."""
        return {
            "fingerprint": self.fingerprint,
            "relation": self.relation,
            "version": self.version,
            "keys": sorted(self.keys),
            "rows": self.rows,
            "bytes": self.bytes,
            "est_cost": self.est_cost,
            "hits": self.hits,
        }


@dataclass(frozen=True)
class CacheProbe:
    """Outcome of a planner probe: the entry and how it can serve.

    ``exact`` means the entry's key set equals the requested grouping
    (serve the table as-is); otherwise the entry is strictly finer and
    must flow through a ``Reaggregate``.
    """

    entry: CacheEntry
    exact: bool


class DerivabilityIndex:
    """Grouping-lattice lookup structure over cached entries.

    Maintained by :class:`ResultCache` under its lock; not safe to
    mutate concurrently on its own.  Exact hits are one dict lookup on
    the fingerprint; derivable hits scan the relation's entries for a
    strict superset key set with a matching aggregate signature —
    exactly the paper's derivability condition (a coarser grouping is
    computable from any finer one by reaggregation).
    """

    def __init__(self) -> None:
        self._by_relation: dict[str, dict[str, CacheEntry]] = {}

    def add(self, entry: CacheEntry) -> None:
        self._by_relation.setdefault(entry.relation, {})[
            entry.fingerprint
        ] = entry

    def remove(self, entry: CacheEntry) -> None:
        relation = self._by_relation.get(entry.relation)
        if relation is not None:
            relation.pop(entry.fingerprint, None)
            if not relation:
                del self._by_relation[entry.relation]

    def find_exact(
        self,
        relation: str,
        keys: Iterable[str],
        agg_sig: Sequence[tuple[str, str | None, str]] = (),
    ) -> CacheEntry | None:
        """The entry whose grouping is exactly ``keys``, if cached."""
        fingerprint = grouping_fingerprint(relation, keys, agg_sig)
        return self._by_relation.get(relation, {}).get(fingerprint)

    def find_derivable(
        self,
        relation: str,
        keys: Iterable[str],
        agg_sig: Sequence[tuple[str, str | None, str]] = (),
    ) -> list[CacheEntry]:
        """Entries that can serve ``keys`` via reaggregation.

        A candidate's key set must strictly contain the requested keys
        (same-set hits are exact, not derivable) and its aggregates
        must match.  Sorted by row count ascending, so the cheapest
        reaggregation source comes first.
        """
        wanted = frozenset(keys)
        sig = tuple(agg_sig)
        candidates = [
            entry
            for entry in self._by_relation.get(relation, {}).values()
            if entry.agg_sig == sig and entry.keys > wanted
        ]
        candidates.sort(key=lambda entry: (entry.rows, entry.fingerprint))
        return candidates

    def entries_for(self, relation: str) -> tuple[CacheEntry, ...]:
        return tuple(self._by_relation.get(relation, {}).values())


@dataclass
class _CacheCounters:
    """Hit/miss accounting, mutated only under the cache lock."""

    hits: int = 0
    misses: int = 0
    derived_hits: int = 0
    evictions: int = 0
    puts: int = 0
    rejected: int = 0


class ResultCache:
    """Session-scoped semantic result cache with versioned invalidation.

    The planner side (:func:`repro.physical.lowering.lower`) calls
    :meth:`probe` to learn whether a grouping can be served, and emits
    ``CacheRead`` operators referencing the entry's fingerprint.  The
    executor side calls :meth:`serve` at interpretation time (the entry
    may have been evicted between lowering and execution — ``serve``
    returning ``None`` means "recompute") and :meth:`put` after every
    finished grouping.  The :class:`~repro.engine.catalog.Catalog`
    routes table mutations here through :meth:`invalidate`.
    """

    def __init__(
        self,
        config: CacheConfig | None = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        from repro.obs.metrics import get_metrics

        self.config = config or CacheConfig()
        self._metrics = metrics if metrics is not None else get_metrics()
        self._lock = threading.Lock()
        self._entries: dict[str, CacheEntry] = {}
        self._index = DerivabilityIndex()
        self._counters = _CacheCounters()
        self._bytes = 0
        self._clock = 0

    # -- planner side ------------------------------------------------------------

    def probe(
        self,
        relation: str,
        keys: Iterable[str],
        agg_sig: Sequence[tuple[str, str | None, str]] = (),
    ) -> CacheProbe | None:
        """Best cached way to serve grouping ``keys``, or ``None``.

        Pure lookup — no hit/miss counters move here; the executor's
        :meth:`serve` counts actual serves and the lowering reports
        planner misses via :meth:`note_miss`, so stats reflect what
        really happened rather than what was considered.
        """
        wanted = frozenset(keys)
        with self._lock:
            exact = self._index.find_exact(relation, wanted, agg_sig)
            if exact is not None:
                return CacheProbe(exact, exact=True)
            derivable = self._index.find_derivable(relation, wanted, agg_sig)
            if derivable:
                return CacheProbe(derivable[0], exact=False)
        return None

    def note_miss(self) -> None:
        """Record one planner probe that could not be served."""
        with self._lock:
            self._counters.misses += 1
        self._metrics.inc("repro_cache_misses_total")

    # -- executor side -----------------------------------------------------------

    def serve(self, fingerprint: str, derived: bool = False) -> "Table | None":
        """The cached table for ``fingerprint``, counting the hit.

        Returns ``None`` when the entry was evicted or invalidated
        after the plan was lowered — the executor falls back to cold
        computation, never to a stale table.
        """
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is not None:
                self._clock += 1
                entry.last_used = self._clock
                entry.hits += 1
                if derived:
                    self._counters.derived_hits += 1
                else:
                    self._counters.hits += 1
            else:
                self._counters.misses += 1
        if entry is None:
            self._metrics.inc("repro_cache_misses_total")
            return None
        if derived:
            self._metrics.inc("repro_cache_derived_hits_total")
        else:
            self._metrics.inc("repro_cache_hits_total")
        return entry.table

    def put(
        self,
        relation: str,
        version: int,
        keys: Iterable[str],
        table: "Table",
        *,
        est_cost: float = 0.0,
        input_rows: int | None = None,
        agg_sig: Sequence[tuple[str, str | None, str]] = (),
    ) -> bool:
        """Admit one finished grouping result; returns True if stored.

        Admission control: groupings over fewer than ``min_rows`` input
        rows are rejected (recomputing them is cheaper than budget
        pressure), as are tables larger than the whole budget.  The
        grouping-key dictionaries are built eagerly so a later
        ``Reaggregate`` over the entry sees fresh encodings (the PV021
        dictionary-freshness contract for ``CacheRead`` sources).
        """
        sig = tuple(agg_sig)
        size = table.size_bytes()
        if (
            input_rows is not None and input_rows < self.config.min_rows
        ) or size > self.config.max_bytes:
            with self._lock:
                self._counters.rejected += 1
            return False
        key_set = frozenset(keys)
        # Build dictionaries outside the lock: Table encoding is
        # idempotent and per-object, and may dominate the insert cost.
        for column in sorted(key_set):
            if column in table:
                table.dictionary(column)
        fingerprint = grouping_fingerprint(relation, key_set, sig)
        evicted = 0
        with self._lock:
            existing = self._entries.pop(fingerprint, None)
            if existing is not None:
                # Refresh: a re-execution after invalidation re-populates
                # the same fingerprint with the new version.
                self._index.remove(existing)
                self._bytes -= existing.bytes
            self._clock += 1
            entry = CacheEntry(
                fingerprint=fingerprint,
                relation=relation,
                version=version,
                keys=key_set,
                agg_sig=sig,
                table=table,
                rows=table.num_rows,
                bytes=size,
                est_cost=float(est_cost),
                last_used=self._clock,
            )
            self._entries[fingerprint] = entry
            self._index.add(entry)
            self._bytes += size
            self._counters.puts += 1
            while self._bytes > self.config.max_bytes:
                victim = self._pick_victim(protect=fingerprint)
                if victim is None:
                    break
                self._entries.pop(victim.fingerprint, None)
                self._index.remove(victim)
                self._bytes -= victim.bytes
                self._counters.evictions += 1
                evicted += 1
            current_bytes = self._bytes
        if evicted:
            self._metrics.inc("repro_cache_evictions_total", evicted)
        self._metrics.set_gauge("repro_cache_bytes", current_bytes)
        return True

    # -- invalidation ------------------------------------------------------------

    def invalidate(self, relation: str | None = None) -> int:
        """Drop entries for ``relation`` (all relations when ``None``)."""
        with self._lock:
            if relation is None:
                victims = list(self._entries.values())
            else:
                victims = list(self._index.entries_for(relation))
            for entry in victims:
                self._entries.pop(entry.fingerprint, None)
                self._index.remove(entry)
                self._bytes -= entry.bytes
            current_bytes = self._bytes
        if victims:
            self._metrics.set_gauge("repro_cache_bytes", current_bytes)
        return len(victims)

    def clear(self) -> int:
        """Drop everything (alias for a relation-less invalidate)."""
        return self.invalidate(None)

    # -- introspection -----------------------------------------------------------

    def stats(self) -> dict[str, object]:
        """Counter snapshot plus occupancy, JSON-ready."""
        with self._lock:
            counters = self._counters
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.config.max_bytes,
                "policy": self.config.policy,
                "min_rows": self.config.min_rows,
                "hits": counters.hits,
                "derived_hits": counters.derived_hits,
                "misses": counters.misses,
                "evictions": counters.evictions,
                "puts": counters.puts,
                "rejected": counters.rejected,
            }

    def entries(self) -> tuple[CacheEntry, ...]:
        """Current entries, most recently used first."""
        with self._lock:
            return tuple(
                sorted(
                    self._entries.values(),
                    key=lambda entry: -entry.last_used,
                )
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- internals ----------------------------------------------------------------

    def _pick_victim(self, protect: str) -> CacheEntry | None:
        """Lowest-value entry under the configured policy (read-only;
        the caller holds the lock and performs the removal inline).

        ``cost`` ranks by reuse savings per byte — estimated cost the
        entry saves per serve, scaled by how often it has actually been
        served, divided by the budget it occupies — with recency as the
        tiebreak.  ``lru`` is recency only.  The entry being inserted
        (``protect``) is never the victim.
        """
        candidates = [
            entry
            for entry in self._entries.values()
            if entry.fingerprint != protect
        ]
        if not candidates:
            return None
        if self.config.policy == "lru":
            return min(candidates, key=lambda entry: entry.last_used)
        return min(
            candidates,
            key=lambda entry: (
                entry.est_cost * (1 + entry.hits) / max(entry.bytes, 1),
                entry.last_used,
            ),
        )
