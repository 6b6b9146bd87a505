"""The query-optimizer cost model (Section 3.2.2).

Stands in for the commercial optimizer the paper calls into: it costs a
Group By over a real *or hypothetical* table from byte-level scan work,
per-row CPU for grouping, and the cost of materializing the result.  It
captures the effects of the current physical design — a covering index
makes a Group By cheap, both because the engine actually scans the
narrower sorted projection and because ordered aggregation skips hashing
— which is what drives the plan adaptation in Section 6.9 / Figure 14.

Cost constants are calibrated to the engine's physical operators, not to
wall-clock seconds; only relative costs matter for plan choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.core.plan import NodeKind, PlanNode
from repro.engine.catalog import Catalog
from repro.engine.morsel import morsel_count
from repro.stats.cardinality import CardinalityEstimator
from repro.stats.whatif import WhatIfRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.history import CalibrationReport

#: Cost per byte read from a stored table.
READ_BYTE = 1.0
#: Cost per byte written when materializing a temporary table.
WRITE_BYTE = 2.0
#: CPU cost per row per key column for hash grouping over a
#: dictionary-encoded stored table (calibrated to the engine's
#: bincount aggregation: a few ns/row ~ tens of byte-equivalents).
HASH_CPU = 24.0
#: CPU cost per row per key column for ordered (index) aggregation.
SORTED_CPU = 3.0
#: Extra CPU per row when the composite key domain is too large for the
#: cheap hash regime and the engine sorts the composite codes instead
#: (calibrated to np.sort on int64: ~35 ns/row).
SORT_GROUP_CPU = 300.0
#: The engine's hash-regime domain limit (mirrors
#: repro.engine.aggregation.BINCOUNT_LIMIT).
HASH_DOMAIN_LIMIT = float(1 << 22)
#: CPU cost per row per key column for dictionary-encoding a freshly
#: materialized temporary table (calibrated to the engine's integer
#: re-rank: ~35 ns/row).  Together with the write cost this is what
#: makes materializing a near-table-sized intermediate unattractive.
ENCODE_CPU = 300.0
#: CPU cost per composite-domain slot the hash (bincount) regime pays up
#: front: allocating and scanning the radix-sized count/lookup tables.
#: This is what makes hashing lose to sorting on small inputs with a
#: large key domain — the regime-dependent tradeoff the physical planner
#: exploits when lowering to HashGroupBy vs SortGroupBy.
BINCOUNT_INIT_CPU = 2.0
#: Bytes of transient state per composite-domain slot in the hash
#: regime (the int64 count table plus the int64 rank-lookup table).
HASH_SLOT_BYTES = 16.0
#: Bytes of transient state per input row in the sort regime (the int64
#: composite-code array plus its sorted copy).
SORT_ROW_BYTES = 16.0
#: Minimum base-relation rows before parallel execution is worth its
#: scheduling overhead; parallel plans lower to the serial schedule
#: below it, so small workloads never lose to serial.
MORSEL_MIN_ROWS = 32_768
#: Minimum groupings sharing a scan before morsel batching pays off —
#: with a single grouping there is no scan sharing to win.
MORSEL_MIN_GROUPINGS = 2
#: Extra CPU per row per grouping the two-phase partial/merge pass
#: costs over the single-pass kernels (per-morsel boundary detection
#: plus the final merge by key code).
MORSEL_PARTIAL_CPU = 8.0
#: Fixed scheduling cost per morsel dispatched to the worker pool.
MORSEL_DISPATCH_COST = 50_000.0
#: Calibration guard rails: a per-(operator, regime) correction factor
#: needs at least this many observed runs, and is clamped to this band,
#: so a short or noisy history cannot invert the model's decisions.
CALIBRATION_MIN_RUNS = 3
CALIBRATION_FACTOR_BAND = (0.2, 5.0)


@dataclass(frozen=True)
class GroupingChoice:
    """The costed hash-vs-sort decision for one physical grouping.

    Attributes:
        strategy: ``'hash'`` or ``'sort'`` — the cheaper feasible regime.
        hash_cost: estimated CPU of the bincount regime (``inf`` when the
            estimated composite domain exceeds the engine's hash limit).
        sort_cost: estimated CPU of the sort regime (always feasible).
        domain: estimated composite key domain (product of per-column
            cardinalities).
        mem_bytes: transient memory estimate of the chosen regime.
        decided_by: which cost layer settled the decision — ``'static'``
            when the uncorrected constants already picked this regime,
            otherwise the name of the correction layer (``'calibration'``,
            ``'adaptive'``, ...) whose factors flipped it.
    """

    strategy: str
    hash_cost: float
    sort_cost: float
    domain: float
    mem_bytes: float
    decided_by: str = "static"


@dataclass(frozen=True)
class ModeChoice:
    """The costed execution-mode decision for one plan run.

    Attributes:
        mode: ``'serial'`` (the linear schedule) or ``'morsel'``
            (dependency waves with shared-scan morsel batches).
        morsels: morsel count the morsel mode would use.
        serial_cost / morsel_cost: modeled costs.
        reason: one-line explanation of the decision (EXPLAIN output).
        decided_by: which cost layer settled the decision — ``'static'``
            when the built-in floors already picked this mode, otherwise
            the name of the layer whose re-tuned floors flipped it.
    """

    mode: str
    morsels: int
    serial_cost: float
    morsel_cost: float
    reason: str
    decided_by: str = "static"


def calibration_corrections(
    report: "CalibrationReport",
    min_runs: int = CALIBRATION_MIN_RUNS,
    clamp: tuple[float, float] = CALIBRATION_FACTOR_BAND,
) -> dict[tuple[str, str], float]:
    """Per-(operator, regime) multiplicative factors from run history.

    A group with a consistent estimate bias and enough runs yields its
    q-error geometric mean as the factor — multiplied in when the model
    under-estimates, divided out when it over-estimates — clamped to
    ``clamp``.  Mixed-bias or thin groups yield no correction.

    Args:
        report: the across-runs q-error rollup.
        min_runs: minimum observations a (operator, regime) group needs
            before it is trusted (default
            :data:`CALIBRATION_MIN_RUNS`).
        clamp: ``(lower, upper)`` band every factor is clamped to
            (default :data:`CALIBRATION_FACTOR_BAND`), so a short or
            noisy history cannot invert the model's decisions.
    """
    lower, upper = clamp
    if min_runs < 1:
        raise ValueError(f"min_runs must be >= 1, got {min_runs}")
    if not 0.0 < lower <= upper:
        raise ValueError(f"clamp band must satisfy 0 < lower <= upper, got {clamp}")
    factors: dict[tuple[str, str], float] = {}
    for (operator, regime), stats in report.groups.items():
        if stats.count < min_runs:
            continue
        gmean = stats.geometric_mean
        if gmean <= 1.0:
            continue
        if stats.bias == "under":
            factor = gmean
        elif stats.bias == "over":
            factor = 1.0 / gmean
        else:
            continue
        factors[(operator, regime)] = min(max(factor, lower), upper)
    return factors


def _join_origins(origins: Iterable[str]) -> str:
    """Deterministic display name for the layers behind a flipped call."""
    unique = sorted(set(origins))
    return "+".join(unique) if unique else "calibration"


def default_execution_mode(
    base_rows: int, n_groupings: int, parallelism: int
) -> str:
    """Threshold-only execution mode choice when no cost model is bound.

    Mirrors :meth:`EngineCostModel.execution_mode_choice`'s floors:
    parallel execution must clear both a minimum input size and a
    minimum number of scan-sharing groupings, otherwise serial wins.
    """
    if (
        parallelism >= 1
        and base_rows >= MORSEL_MIN_ROWS
        and n_groupings >= MORSEL_MIN_GROUPINGS
    ):
        return "morsel"
    return "serial"


class EngineCostModel:
    """Byte + CPU + materialization cost model over the engine.

    Args:
        estimator: cardinality source (exact or sampled).
        catalog: catalog holding the base table's indexes; None disables
            index awareness.
        base_table: name of the base relation R in the catalog.
        whatif: registry where hypothetical intermediate tables are
            declared as they are first costed (mirrors the what-if API).
        corrections: per-(operator, regime) multiplicative cost factors
            from :func:`calibration_corrections`; normally installed via
            :meth:`with_calibration` rather than passed directly.
        correction_origins: per-(operator, regime) name of the cost
            layer each correction came from (``'calibration'`` when
            absent) — surfaced as ``decided_by`` on flipped decisions.
        morsel_min_rows: base-row floor for the morsel mode; defaults to
            the static :data:`MORSEL_MIN_ROWS`.  An adaptive layer may
            re-tune it from observed run-time distributions.
        morsel_min_groupings: grouping-count floor for the morsel mode;
            defaults to the static :data:`MORSEL_MIN_GROUPINGS`.
        threshold_origin: name of the layer that supplied non-default
            floors (``decided_by`` on mode decisions they flip).
    """

    def __init__(
        self,
        estimator: CardinalityEstimator,
        catalog: Catalog | None = None,
        base_table: str | None = None,
        whatif: WhatIfRegistry | None = None,
        base_row_width: float | None = None,
        use_indexes: bool = True,
        corrections: dict[tuple[str, str], float] | None = None,
        correction_origins: dict[tuple[str, str], str] | None = None,
        morsel_min_rows: float | None = None,
        morsel_min_groupings: int | None = None,
        threshold_origin: str = "adaptive",
    ) -> None:
        self._estimator = estimator
        self._catalog = catalog
        self._base_table = base_table
        self._use_indexes = use_indexes
        self._corrections = dict(corrections or {})
        self._correction_origins = dict(correction_origins or {})
        self._morsel_min_rows = (
            float(morsel_min_rows)
            if morsel_min_rows is not None
            else float(MORSEL_MIN_ROWS)
        )
        self._morsel_min_groupings = (
            int(morsel_min_groupings)
            if morsel_min_groupings is not None
            else MORSEL_MIN_GROUPINGS
        )
        self._threshold_origin = threshold_origin
        if base_row_width is not None:
            self._base_row_width = float(base_row_width)
        elif catalog is not None and base_table is not None:
            self._base_row_width = float(catalog.get(base_table).row_width())
        else:
            # No physical information: assume a plausible wide row.
            self._base_row_width = 128.0
        self.whatif = whatif if whatif is not None else WhatIfRegistry()

    @property
    def estimator(self) -> CardinalityEstimator:
        return self._estimator

    @property
    def catalog(self) -> Catalog | None:
        """Catalog the model costs against (debug-verify lowering)."""
        return self._catalog

    @property
    def base_table(self) -> str | None:
        """Name of the base relation R, when physically bound."""
        return self._base_table

    @property
    def use_indexes(self) -> bool:
        """Whether covering indexes participate in scan costing."""
        return self._use_indexes

    # -- calibration -----------------------------------------------------------

    @property
    def corrections(self) -> dict[tuple[str, str], float]:
        """Active per-(operator, regime) calibration factors (a copy)."""
        return dict(self._corrections)

    @property
    def correction_origins(self) -> dict[tuple[str, str], str]:
        """Layer name behind each active correction factor (a copy)."""
        return dict(self._correction_origins)

    @property
    def morsel_min_rows(self) -> float:
        """Active base-row floor for the morsel execution mode."""
        return self._morsel_min_rows

    @property
    def morsel_min_groupings(self) -> int:
        """Active grouping-count floor for the morsel execution mode."""
        return self._morsel_min_groupings

    def _corrected(self, cost: float, operator: str, regime: str) -> float:
        return cost * self._corrections.get((operator, regime), 1.0)

    def _origin_for(self, *keys: tuple[str, str]) -> str:
        """Name(s) of the layer(s) whose factors touch ``keys``."""
        return _join_origins(
            self._correction_origins.get(key, "calibration")
            for key in keys
            if key in self._corrections
        )

    def _producer_key(
        self, columns: frozenset[str], from_base: bool
    ) -> tuple[str, str]:
        """(operator, regime) of the grouping that produces ``columns``.

        Calibration factors are keyed by the operator whose *output
        cardinality estimate* drives a cost component; this classifies
        a column set the way the lowering would: a base grouping lowers
        to ``hash_group_by``/``sort_group_by`` by domain regime, an
        intermediate one to ``reaggregate``.
        """
        regime = (
            "hash"
            if self.grouping_domain(columns) <= HASH_DOMAIN_LIMIT
            else "sort"
        )
        if not from_base:
            return ("reaggregate", regime)
        return (
            ("hash_group_by", "hash")
            if regime == "hash"
            else ("sort_group_by", "sort")
        )

    def with_calibration(
        self,
        report: "CalibrationReport",
        min_runs: int = CALIBRATION_MIN_RUNS,
        clamp: tuple[float, float] = CALIBRATION_FACTOR_BAND,
    ) -> "EngineCostModel":
        """A copy of this model with history-derived cost corrections.

        Closes the estimate→actual loop: per-(operator, regime) q-error
        bias accumulated by ``explain_analyze(history=...)`` runs (the
        :class:`~repro.obs.history.CalibrationReport`) becomes
        multiplicative factors on the matching operator costs, so a
        regime the model consistently under-estimates gets charged more
        on the next plan choice.  The receiver is left untouched.

        Args:
            report: the across-runs q-error rollup.
            min_runs: minimum observations per (operator, regime) group
                (see :func:`calibration_corrections`).
            clamp: ``(lower, upper)`` factor clamp band.
        """
        return EngineCostModel(
            self._estimator,
            catalog=self._catalog,
            base_table=self._base_table,
            whatif=self.whatif,
            base_row_width=self._base_row_width,
            use_indexes=self._use_indexes,
            corrections=calibration_corrections(
                report, min_runs=min_runs, clamp=clamp
            ),
            morsel_min_rows=self._morsel_min_rows,
            morsel_min_groupings=self._morsel_min_groupings,
            threshold_origin=self._threshold_origin,
        )

    # -- scan model -----------------------------------------------------------

    def _group_cpu(self, columns: frozenset[str]) -> float:
        """Per-row CPU to group on ``columns``.

        Mirrors the engine's two aggregation regimes: when the product
        of the per-column cardinalities fits the hash domain, grouping
        is a cheap counting pass; beyond it the engine sorts composite
        codes, a much heavier per-row cost.
        """
        cpu = len(columns) * HASH_CPU
        domain = 1.0
        for column in columns:
            domain *= max(self._estimator.rows(frozenset([column])), 1.0)
            if domain > HASH_DOMAIN_LIMIT:
                return cpu + SORT_GROUP_CPU
        return cpu

    def _base_scan_cost(self, columns: frozenset[str]) -> float:
        """Cheapest way to read R and group it on ``columns``.

        A direct scan reads *full rows* (row-store semantics); a
        covering non-clustered index reads only its narrow projection.
        """
        base_rows = float(self._estimator.base_rows)
        group_cpu = self._group_cpu(columns)
        direct = base_rows * (
            self._base_row_width * READ_BYTE + group_cpu
        )
        if (
            not self._use_indexes
            or self._catalog is None
            or self._base_table is None
        ):
            return direct
        index = self._catalog.find_covering_index(self._base_table, columns)
        if index is None:
            return direct
        base = self._catalog.get(self._base_table)
        cpu = (
            len(columns) * SORTED_CPU
            if index.is_prefix(columns)
            else group_cpu
        )
        via_index = base_rows * (
            index.scan_width(columns, base) * READ_BYTE + cpu
        )
        return min(direct, via_index)

    def _intermediate_scan_cost(
        self, parent: PlanNode, child_columns: frozenset[str]
    ) -> float:
        rows = self._estimator.rows(parent.columns)
        width = self._estimator.row_width(parent.columns)
        return rows * (width * READ_BYTE + self._group_cpu(child_columns))

    def _materialize_cost(self, columns: frozenset[str]) -> float:
        rows = self._estimator.rows(columns)
        width = self._estimator.row_width(columns)
        self.whatif.create(columns, rows, width)
        # Writing the rows plus dictionary-encoding the key columns so
        # children can aggregate cheaply (the executor does both).
        encode = rows * len(columns) * ENCODE_CPU
        return rows * width * WRITE_BYTE + encode

    # -- per-physical-operator costs --------------------------------------------
    #
    # The ``repro.physical`` lowering pass consumes these to annotate
    # each PhysicalOperator with an estimated cost/memory footprint and
    # to choose the grouping regime per node.  They decompose the same
    # constants the logical edge costs above are built from.

    def grouping_domain(self, columns: Iterable[str]) -> float:
        """Estimated composite key domain: product of per-column counts."""
        domain = 1.0
        for column in columns:
            domain *= max(self._estimator.rows(frozenset([column])), 1.0)
        return domain

    def grouping_choice(
        self,
        columns: Iterable[str],
        input_rows: float,
        operator: str | None = None,
    ) -> GroupingChoice:
        """Cost the hash and sort regimes for one grouping and pick one.

        Hashing pays per-row work plus a domain-proportional setup
        (allocating/scanning the bincount tables) and is infeasible
        beyond the engine's hash domain limit; sorting pays a heavy
        per-row cost but is domain-independent.  Small inputs over wide
        domains therefore sort; large inputs over narrow domains hash.

        Args:
            columns: the grouping keys.
            input_rows: estimated input cardinality.
            operator: physical operator kind the choice lowers to, for
                calibration-factor lookup: None keys the default base
                pair (``hash_group_by``/``sort_group_by``); pass
                ``'reaggregate'`` when costing an intermediate grouping
                so its own (operator, regime) corrections apply.
        """
        columns = list(columns)
        ncols = max(len(columns), 1)
        domain = self.grouping_domain(columns)
        rows = max(float(input_rows), 0.0)
        raw_sort = rows * (ncols * HASH_CPU + SORT_GROUP_CPU)
        if domain > HASH_DOMAIN_LIMIT:
            raw_hash = float("inf")
        else:
            raw_hash = rows * ncols * HASH_CPU + domain * BINCOUNT_INIT_CPU
        hash_key = (operator or "hash_group_by", "hash")
        sort_key = (operator or "sort_group_by", "sort")
        hash_cost = self._corrected(raw_hash, *hash_key)
        sort_cost = self._corrected(raw_sort, *sort_key)
        raw_strategy = "hash" if raw_hash <= raw_sort else "sort"
        strategy = "hash" if hash_cost <= sort_cost else "sort"
        decided_by = (
            "static"
            if strategy == raw_strategy
            else self._origin_for(hash_key, sort_key)
        )
        mem = (
            domain * HASH_SLOT_BYTES + rows * 8.0
            if strategy == "hash"
            else rows * SORT_ROW_BYTES
        )
        return GroupingChoice(
            strategy, hash_cost, sort_cost, domain, mem, decided_by
        )

    def scan_op_cost(self, rows: float, width: float) -> float:
        """Cost of one physical scan: ``rows * width`` bytes read."""
        return float(rows) * float(width) * READ_BYTE

    def grouping_op_cost(
        self,
        strategy: str,
        input_rows: float,
        columns: Iterable[str],
        input_sorted: bool = False,
    ) -> float:
        """CPU cost of one physical grouping operator.

        ``input_sorted`` models the index-prefix boundary-detection path
        (no hashing or sorting at all); otherwise ``strategy`` selects
        which regime's cost from :meth:`grouping_choice` applies.
        """
        columns = list(columns)
        rows = max(float(input_rows), 0.0)
        if input_sorted:
            return rows * max(len(columns), 1) * SORTED_CPU
        choice = self.grouping_choice(columns, rows)
        return choice.hash_cost if strategy == "hash" else choice.sort_cost

    def materialize_op_cost(self, columns: frozenset[str]) -> float:
        """Cost of one physical Materialize (write + key encode)."""
        return self._materialize_cost(columns)

    def execution_mode_choice(
        self, n_groupings: int, parallelism: int
    ) -> ModeChoice:
        """Pick the execution mode for a plan of ``n_groupings`` nodes.

        Serial pays one full row-store pass *per grouping*; morsel
        execution pays that pass once per morsel — shared by every
        grouping in the batch — plus two-phase overhead (partial states
        and the merge) and per-morsel scheduling.  Below the row /
        grouping floors, or when the overhead exceeds the shared-scan
        savings, serial wins: this is the rows×groupings threshold that
        keeps ``speedup_parallel >= 1`` on small workloads.
        """
        rows = max(float(self._estimator.base_rows), 0.0)
        groupings = max(int(n_groupings), 1)
        scan = rows * self._base_row_width * READ_BYTE
        group_cpu = rows * HASH_CPU
        serial_cost = groupings * (scan + group_cpu)
        morsels = morsel_count(int(rows), parallelism)
        morsel_cost = (
            scan
            + groupings * (group_cpu + rows * MORSEL_PARTIAL_CPU)
            + morsels * MORSEL_DISPATCH_COST
        )

        def decide(
            min_rows: float, min_groupings: int
        ) -> tuple[str, str]:
            if rows < min_rows:
                return "serial", (
                    f"base rows {int(rows)} below the morsel floor "
                    f"{int(min_rows)}"
                )
            if groupings < min_groupings:
                return "serial", (
                    f"{groupings} grouping(s): no scan sharing to win"
                )
            if morsel_cost >= serial_cost:
                return "serial", (
                    "two-phase overhead exceeds shared-scan savings"
                )
            return "morsel", (
                f"{groupings} groupings share each of {morsels} "
                f"morsel scans"
            )

        mode, reason = decide(
            self._morsel_min_rows, self._morsel_min_groupings
        )
        static_mode, _ = decide(MORSEL_MIN_ROWS, MORSEL_MIN_GROUPINGS)
        decided_by = "static" if mode == static_mode else self._threshold_origin
        return ModeChoice(
            mode=mode,
            morsels=morsels,
            serial_cost=serial_cost,
            morsel_cost=morsel_cost,
            reason=reason,
            decided_by=decided_by,
        )

    # -- public API -------------------------------------------------------------

    def group_by_cost(
        self, parent: PlanNode | None, columns: frozenset[str], materialize: bool
    ) -> float:
        """Cost of one plain Group By on ``columns`` from ``parent``.

        Calibration factors apply to the components driven by an
        *estimated* cardinality, keyed by the operator producing it: an
        intermediate scan reads the parent's output (scaled by the
        parent producer's factor), and a materialization writes this
        node's output (scaled by its own producer's factor).  Base-scan
        bytes ride on the exact base-row count and are never scaled.
        With no corrections installed every factor is 1.0 and this is
        byte-identical to the uncalibrated model.
        """
        if parent is None:
            cost = self._base_scan_cost(columns)
            from_base = True
        else:
            cost = self._corrected(
                self._intermediate_scan_cost(parent, columns),
                *self._producer_key(parent.columns, from_base=True),
            )
            from_base = False
        if materialize:
            cost += self._corrected(
                self._materialize_cost(columns),
                *self._producer_key(columns, from_base=from_base),
            )
        return cost

    def edge_cost(
        self,
        parent: PlanNode | None,
        child: PlanNode,
        materialize_child: bool,
    ) -> float:
        if child.kind is NodeKind.GROUP_BY:
            return self.group_by_cost(parent, child.columns, materialize_child)
        if child.kind is NodeKind.CUBE:
            return self._cube_cost(parent, child)
        return self._rollup_cost(parent, child)

    def _cube_cost(self, parent: PlanNode | None, child: PlanNode) -> float:
        # Full Group By materialized from the parent, then every other
        # grouping of the lattice computed from it (executor strategy).
        top = PlanNode(child.columns)
        cost = self.group_by_cost(parent, child.columns, True)
        subsets = _proper_subsets(child.columns)
        for subset in subsets:
            cost += self.group_by_cost(top, subset, False)
        return cost

    def _rollup_cost(self, parent: PlanNode | None, child: PlanNode) -> float:
        order = child.rollup_order
        cost = self.group_by_cost(
            parent, child.columns, materialize=len(order) > 1
        )
        for i in range(len(order) - 1, 0, -1):
            upper = PlanNode(frozenset(order[: i + 1]))
            cost += self.group_by_cost(upper, frozenset(order[:i]), False)
        return cost


def _proper_subsets(columns: frozenset[str]) -> list[frozenset[str]]:
    """Non-empty proper subsets of a column set (small sets only)."""
    ordered = sorted(columns)
    n = len(ordered)
    subsets = []
    for mask in range(1, (1 << n) - 1):
        subsets.append(
            frozenset(ordered[i] for i in range(n) if mask & (1 << i))
        )
    return subsets
