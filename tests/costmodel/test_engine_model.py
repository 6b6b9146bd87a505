"""Unit tests for the engine ("query optimizer") cost model."""

import pytest

from repro.core.plan import PlanNode
from repro.costmodel.engine_model import (
    EngineCostModel,
    HASH_DOMAIN_LIMIT,
    READ_BYTE,
)
from repro.engine.catalog import Catalog
from repro.engine.indexes import IndexSpec
from repro.engine.table import Table
from tests.core.support import FakeEstimator


def fs(*cols):
    return frozenset(cols)


def make_catalog(rows=100):
    table = Table(
        "t",
        {
            "a": list(range(rows)),
            "b": [i % 7 for i in range(rows)],
            "c": [i % 3 for i in range(rows)],
        },
    )
    catalog = Catalog()
    catalog.add_table(table)
    return catalog, table


class TestScanCosts:
    def test_base_scan_uses_full_row_width(self):
        catalog, table = make_catalog()
        estimator = FakeEstimator(100, {"a": 100, "b": 7, "c": 3})
        model = EngineCostModel(estimator, catalog, "t")
        narrow = model.edge_cost(None, PlanNode(fs("c")), False)
        wide = model.edge_cost(None, PlanNode(fs("a")), False)
        # Row-store semantics: a single-column Group By still reads the
        # whole row, so column choice does not change scan bytes.
        assert narrow == wide

    def test_intermediate_cheaper_than_base(self):
        catalog, _ = make_catalog()
        estimator = FakeEstimator(100, {"a": 100, "b": 7, "c": 3})
        model = EngineCostModel(estimator, catalog, "t")
        from_base = model.edge_cost(None, PlanNode(fs("c")), False)
        parent = PlanNode(fs("b", "c"))
        from_temp = model.edge_cost(parent, PlanNode(fs("c")), False)
        assert from_temp < from_base

    def test_materialization_charges_write_and_encode(self):
        catalog, _ = make_catalog()
        estimator = FakeEstimator(100, {"b": 7, "c": 3})
        model = EngineCostModel(estimator, catalog, "t")
        node = PlanNode(fs("b", "c"))
        plain = model.edge_cost(None, node, False)
        materialized = model.edge_cost(None, node, True)
        assert materialized > plain

    def test_materialization_registers_whatif(self):
        catalog, _ = make_catalog()
        estimator = FakeEstimator(100, {"b": 7, "c": 3})
        model = EngineCostModel(estimator, catalog, "t")
        model.edge_cost(None, PlanNode(fs("b", "c")), True)
        hypothetical = model.whatif.lookup(fs("b", "c"))
        assert hypothetical is not None
        assert hypothetical.est_rows == 21.0

    def test_sort_regime_surcharge(self):
        catalog, _ = make_catalog()
        big = HASH_DOMAIN_LIMIT  # two such columns exceed the limit
        estimator = FakeEstimator(
            10_000, {"a": big, "b": big, "c": 3}
        )
        model = EngineCostModel(estimator, catalog, "t")
        cheap = model.edge_cost(None, PlanNode(fs("c")), False)
        heavy = model.edge_cost(None, PlanNode(fs("a", "b")), False)
        assert heavy > cheap


class TestIndexAwareness:
    def test_covering_index_cheapens_scan(self):
        catalog, table = make_catalog()
        estimator = FakeEstimator(100, {"b": 7})
        without = EngineCostModel(estimator, catalog, "t").edge_cost(
            None, PlanNode(fs("b")), False
        )
        catalog.create_index("t", IndexSpec("ix_b", ("b",)))
        with_index = EngineCostModel(estimator, catalog, "t").edge_cost(
            None, PlanNode(fs("b")), False
        )
        assert with_index < without
        # The index scan reads 8 bytes/row instead of 24.
        assert with_index < 100 * (8 * READ_BYTE) + 100 * 10_000

    def test_use_indexes_flag(self):
        catalog, _ = make_catalog()
        catalog.create_index("t", IndexSpec("ix_b", ("b",)))
        estimator = FakeEstimator(100, {"b": 7})
        ignoring = EngineCostModel(
            estimator, catalog, "t", use_indexes=False
        ).edge_cost(None, PlanNode(fs("b")), False)
        using = EngineCostModel(estimator, catalog, "t").edge_cost(
            None, PlanNode(fs("b")), False
        )
        assert using < ignoring

    def test_no_catalog_defaults(self):
        estimator = FakeEstimator(100, {"b": 7})
        model = EngineCostModel(estimator)
        assert model.edge_cost(None, PlanNode(fs("b")), False) > 0


class TestCubeRollup:
    def test_cube_cost_covers_lattice(self):
        catalog, _ = make_catalog()
        estimator = FakeEstimator(1000, {"b": 7, "c": 3})
        model = EngineCostModel(estimator, catalog, "t")
        from repro.core.plan import NodeKind

        cube = PlanNode(fs("b", "c"), NodeKind.CUBE)
        plain = model.edge_cost(None, PlanNode(fs("b", "c")), True)
        assert model.edge_cost(None, cube, True) > plain

    def test_rollup_cost(self):
        catalog, _ = make_catalog()
        estimator = FakeEstimator(1000, {"b": 7, "c": 3})
        model = EngineCostModel(estimator, catalog, "t")
        from repro.core.plan import NodeKind

        rollup = PlanNode(fs("b", "c"), NodeKind.ROLLUP, ("b", "c"))
        single = model.edge_cost(None, PlanNode(fs("b", "c")), True)
        assert model.edge_cost(None, rollup, True) > single


class TestExecutionModeChoice:
    def _model(self, rows):
        catalog, _ = make_catalog()
        estimator = FakeEstimator(rows, {"b": 7, "c": 3})
        return EngineCostModel(estimator, catalog, "t")

    def test_small_input_stays_serial(self):
        from repro.costmodel.engine_model import MORSEL_MIN_ROWS

        choice = self._model(MORSEL_MIN_ROWS - 1).execution_mode_choice(
            10, parallelism=4
        )
        assert choice.mode == "serial"
        assert "floor" in choice.reason

    def test_single_grouping_stays_serial(self):
        choice = self._model(1_000_000).execution_mode_choice(
            1, parallelism=4
        )
        assert choice.mode == "serial"

    def test_scale_picks_morsel_and_costs_order(self):
        choice = self._model(1_000_000).execution_mode_choice(
            12, parallelism=4
        )
        assert choice.mode == "morsel"
        assert choice.morsels > 1
        assert choice.morsel_cost < choice.serial_cost

    def test_default_mode_mirrors_floors(self):
        from repro.costmodel.engine_model import (
            MORSEL_MIN_GROUPINGS,
            MORSEL_MIN_ROWS,
            default_execution_mode,
        )

        assert default_execution_mode(
            MORSEL_MIN_ROWS, MORSEL_MIN_GROUPINGS, 2
        ) == "morsel"
        assert default_execution_mode(
            MORSEL_MIN_ROWS - 1, MORSEL_MIN_GROUPINGS, 2
        ) == "serial"
        assert default_execution_mode(
            MORSEL_MIN_ROWS, MORSEL_MIN_GROUPINGS - 1, 2
        ) == "serial"


class TestCalibration:
    def _report(self, groups):
        from repro.obs.history import CalibrationReport, QErrorStats

        stats = {}
        for key, (q_errors, direction) in groups.items():
            s = QErrorStats()
            for q in q_errors:
                if direction == "under":
                    s.add(q, est_rows=1.0, actual_rows=q)
                else:
                    s.add(q, est_rows=q, actual_rows=1.0)
            stats[key] = s
        return CalibrationReport(
            groups=stats, runs=sum(s.count for s in stats.values()),
            fingerprints=1,
        )

    def test_under_estimates_charged_more(self):
        from repro.costmodel.engine_model import calibration_corrections

        report = self._report(
            {("hash_group_by", "hash"): ([2.0, 2.0, 2.0], "under")}
        )
        factors = calibration_corrections(report)
        assert factors[("hash_group_by", "hash")] == pytest.approx(2.0)

    def test_over_estimates_discounted(self):
        from repro.costmodel.engine_model import calibration_corrections

        report = self._report(
            {("sort_group_by", "sort"): ([4.0, 4.0, 4.0], "over")}
        )
        factors = calibration_corrections(report)
        assert factors[("sort_group_by", "sort")] == pytest.approx(0.25)

    def test_thin_groups_ignored_and_band_clamped(self):
        from repro.costmodel.engine_model import (
            CALIBRATION_FACTOR_BAND,
            calibration_corrections,
        )

        report = self._report(
            {
                ("reaggregate", "hash"): ([9.0, 9.0], "under"),
                ("hash_group_by", "hash"): ([50.0, 50.0, 50.0], "under"),
            }
        )
        factors = calibration_corrections(report)
        assert ("reaggregate", "hash") not in factors
        assert factors[("hash_group_by", "hash")] == CALIBRATION_FACTOR_BAND[1]

    def test_with_calibration_returns_corrected_copy(self):
        catalog, _ = make_catalog()
        estimator = FakeEstimator(1000, {"b": 7, "c": 3})
        model = EngineCostModel(estimator, catalog, "t")
        report = self._report(
            {("hash_group_by", "hash"): ([3.0, 3.0, 3.0], "under")}
        )
        calibrated = model.with_calibration(report)
        assert model.corrections == {}
        assert calibrated.corrections == {
            ("hash_group_by", "hash"): pytest.approx(3.0)
        }

    def test_min_runs_parameter(self):
        from repro.costmodel.engine_model import calibration_corrections

        report = self._report(
            {("hash_group_by", "hash"): ([2.0], "under")}
        )
        assert calibration_corrections(report) == {}
        factors = calibration_corrections(report, min_runs=1)
        assert factors[("hash_group_by", "hash")] == pytest.approx(2.0)

    def test_clamp_parameter(self):
        from repro.costmodel.engine_model import calibration_corrections

        report = self._report(
            {("hash_group_by", "hash"): ([50.0] * 3, "under")}
        )
        factors = calibration_corrections(report, clamp=(0.1, 10.0))
        assert factors[("hash_group_by", "hash")] == 10.0

    def test_knob_validation(self):
        from repro.costmodel.engine_model import calibration_corrections

        report = self._report({})
        with pytest.raises(ValueError, match="min_runs"):
            calibration_corrections(report, min_runs=0)
        with pytest.raises(ValueError, match="clamp"):
            calibration_corrections(report, clamp=(-1.0, 2.0))
        with pytest.raises(ValueError, match="clamp"):
            calibration_corrections(report, clamp=(2.0, 1.0))

    def test_with_calibration_threads_knobs(self):
        catalog, _ = make_catalog()
        estimator = FakeEstimator(1000, {"b": 7, "c": 3})
        model = EngineCostModel(estimator, catalog, "t")
        report = self._report(
            {("hash_group_by", "hash"): ([50.0], "under")}
        )
        calibrated = model.with_calibration(
            report, min_runs=1, clamp=(0.5, 3.0)
        )
        assert calibrated.corrections == {("hash_group_by", "hash"): 3.0}


class TestDecisionAttribution:
    def _model(self, corrections=None, origins=None, **kwargs):
        catalog, _ = make_catalog()
        estimator = FakeEstimator(200_000, {"b": 7, "c": 3})
        return EngineCostModel(
            estimator,
            catalog,
            "t",
            corrections=corrections,
            correction_origins=origins,
            **kwargs,
        )

    def test_uncorrected_choice_is_static(self):
        choice = self._model().grouping_choice(fs("b", "c"), 1000.0)
        assert choice.decided_by == "static"

    def test_correction_that_does_not_flip_is_static(self):
        # Inflating the already-losing sort regime changes no outcome.
        choice = self._model(
            corrections={("sort_group_by", "sort"): 5.0}
        ).grouping_choice(fs("b", "c"), 1000.0)
        assert choice.strategy == "hash"
        assert choice.decided_by == "static"

    def test_correction_that_flips_is_attributed(self):
        # Discounting sort below hash flips the regime decision.
        choice = self._model(
            corrections={("sort_group_by", "sort"): 0.001},
            origins={("sort_group_by", "sort"): "calibration"},
        ).grouping_choice(fs("b", "c"), 1000.0)
        assert choice.strategy == "sort"
        assert choice.decided_by == "calibration"

    def test_mode_floor_override_attributed(self):
        from repro.costmodel.engine_model import MORSEL_MIN_ROWS

        static = self._model().execution_mode_choice(12, parallelism=4)
        assert static.decided_by == "static"
        # A raised floor turns a static morsel pick back into serial.
        tuned = self._model(
            morsel_min_rows=MORSEL_MIN_ROWS * 100,
            threshold_origin="adaptive",
        ).execution_mode_choice(12, parallelism=4)
        assert tuned.mode == "serial"
        assert tuned.decided_by == "adaptive"
