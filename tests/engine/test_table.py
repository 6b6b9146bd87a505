"""Unit tests for the columnar Table."""

import numpy as np
import pytest

from repro.engine.table import Table
from repro.engine.types import INT_NULL, SchemaError


class TestConstruction:
    def test_basic(self, tiny_table):
        assert tiny_table.num_rows == 12
        assert tiny_table.column_names == ("a", "b", "c", "v")

    def test_empty_columns_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", {})

    def test_ragged_columns_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", {"a": [1, 2], "b": [1]})

    def test_bool_coerced_to_int(self):
        table = Table("t", {"flag": [True, False, True]})
        assert table["flag"].dtype == np.int64
        assert list(table["flag"]) == [1, 0, 1]

    def test_object_column_with_none_becomes_null_string(self):
        table = Table("t", {"s": np.array(["a", None, "b"], dtype=object)})
        assert table["s"][1] == ""

    def test_two_dimensional_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", {"m": np.zeros((2, 2))})

    def test_from_rows_roundtrip(self):
        rows = [(1, "a"), (2, "b")]
        table = Table.from_rows("t", ["x", "y"], rows)
        assert table.to_rows() == rows

    def test_from_rows_empty(self):
        table = Table.from_rows("t", ["x"], [])
        assert table.num_rows == 0

    def test_missing_column_raises(self, tiny_table):
        with pytest.raises(SchemaError, match="no column"):
            tiny_table["nope"]

    def test_contains(self, tiny_table):
        assert "a" in tiny_table
        assert "zz" not in tiny_table


class TestSizeModel:
    def test_row_width_ints(self):
        table = Table("t", {"a": [1], "b": [2]})
        assert table.row_width() == 16

    def test_row_width_subset(self, tiny_table):
        assert tiny_table.row_width(["a"]) == 8

    def test_size_bytes_scales_with_rows(self, tiny_table):
        assert tiny_table.size_bytes(["a"]) == 8 * 12

    def test_string_width_is_itemsize(self):
        table = Table("t", {"s": ["abc", "x"]})
        assert table.row_width() == table["s"].dtype.itemsize

    def test_touch_returns_size(self, tiny_table):
        assert tiny_table.touch() == tiny_table.size_bytes()
        assert tiny_table.touch(["a"]) == tiny_table.size_bytes(["a"])


class TestRelationalOps:
    def test_project_shares_arrays(self, tiny_table):
        projection = tiny_table.project(["a", "b"])
        assert projection["a"] is tiny_table["a"]
        assert projection.column_names == ("a", "b")

    def test_project_missing_column(self, tiny_table):
        with pytest.raises(SchemaError):
            tiny_table.project(["a", "nope"])

    def test_project_shares_dictionaries(self, tiny_table):
        tiny_table.dictionary("a")
        projection = tiny_table.project(["a"])
        assert "a" in projection._dictionaries

    def test_take_mask(self, tiny_table):
        mask = tiny_table["a"] == 1
        taken = tiny_table.take(mask)
        assert taken.num_rows == 4
        assert set(taken["a"]) == {1}

    def test_take_indices(self, tiny_table):
        taken = tiny_table.take(np.array([0, 2]))
        assert list(taken["a"]) == [1, 2]

    def test_sort_by(self, tiny_table):
        ordered = tiny_table.sort_by(["c", "a"])
        c = ordered["c"]
        assert all(c[i] <= c[i + 1] for i in range(len(c) - 1))

    def test_rename(self, tiny_table):
        renamed = tiny_table.rename("other")
        assert renamed.name == "other"
        assert renamed["a"] is tiny_table["a"]

    def test_with_column(self, tiny_table):
        extended = tiny_table.with_column("d", range(12))
        assert "d" in extended
        assert "d" not in tiny_table

    def test_with_column_wrong_length(self, tiny_table):
        with pytest.raises(SchemaError):
            tiny_table.with_column("d", [1, 2])


class TestDictionary:
    def test_codes_roundtrip(self, tiny_table):
        codes, values = tiny_table.dictionary("b")
        assert list(values[codes]) == list(tiny_table["b"])

    def test_codes_are_dense(self, tiny_table):
        codes, values = tiny_table.dictionary("a")
        assert codes.max() == len(values) - 1
        assert codes.min() == 0

    def test_cached(self, tiny_table):
        first = tiny_table.dictionary("a")
        second = tiny_table.dictionary("a")
        assert first[0] is second[0]

    def test_build_all(self, tiny_table):
        tiny_table.build_dictionaries()
        assert set(tiny_table._dictionaries) == set(tiny_table.column_names)

    def test_null_values_participate(self):
        table = Table("t", {"x": [INT_NULL, 1, INT_NULL]})
        codes, values = table.dictionary("x")
        assert len(values) == 2


class TestDictionaryStaleness:
    """Derived tables must never serve a dictionary built for other data."""

    def base(self):
        table = Table("t", {"a": [3, 1, 2, 1], "b": ["x", "y", "y", "x"]})
        table.build_dictionaries()
        return table

    def test_take_reencodes_for_new_rows(self):
        table = self.base()
        subset = table.take(np.array([0, 2]))
        codes, values = subset.dictionary("a")
        assert list(values) == [2, 3]
        assert list(values[codes]) == [3, 2]

    def test_sort_by_reencodes_for_new_order(self):
        table = self.base()
        ordered = table.sort_by(["a"])
        codes, values = ordered.dictionary("a")
        assert list(values[codes]) == list(ordered["a"]) == [1, 1, 2, 3]

    def test_with_column_replacement_drops_stale_dictionary(self):
        table = self.base()
        derived = table.with_column("a", [9, 9, 8, 7])
        codes, values = derived.dictionary("a")
        assert list(values) == [7, 8, 9]
        assert list(values[codes]) == [9, 9, 8, 7]

    def test_with_column_keeps_untouched_dictionaries(self):
        table = self.base()
        derived = table.with_column("c", [0, 1, 2, 3])
        # Untouched column: same rows, same arrays — carry-over is valid
        # and must not re-encode.
        assert derived.cached_dictionary("b") is not None
        codes, values = derived.dictionary("b")
        assert list(values[codes]) == list(derived["b"])

    def test_rename_shares_dictionaries(self):
        table = self.base()
        renamed = table.rename("other")
        assert renamed.cached_dictionary("a") is table.cached_dictionary("a")

    # Dictionaries derived on demand (pending until first read) follow
    # the same rules.

    def pending(self):
        # As a Group By result would be handed them: per-row codes into a
        # sorted parent dictionary that holds values the table lacks.
        table = Table("t", {"a": [3, 1, 2, 1], "b": ["x", "y", "y", "x"]})
        table.set_dictionary(
            "a", np.array([3, 1, 2, 1]), np.array([0, 1, 2, 3, 5])
        )
        table.set_dictionary("b", np.array([1, 2, 2, 1]), np.array(["w", "x", "y"]))
        return table

    def test_pending_resolves_to_dense_sorted_codes(self):
        codes, values = self.pending().cached_dictionary("a")
        assert list(values) == [1, 2, 3]
        assert list(codes) == [2, 0, 1, 0]

    def test_set_dictionary_replaces_resolved_one(self):
        table = Table("t", {"a": [2, 4]})
        table.dictionary("a")
        table.set_dictionary("a", np.array([1, 2]), np.array([0, 2, 4]))
        codes, values = table.cached_dictionary("a")
        assert list(values) == [2, 4]
        assert list(codes) == [0, 1]

    def test_take_never_inherits_pending(self):
        taken = self.pending().take(np.array([0, 2]))
        assert taken.cached_dictionary("a") is None
        codes, values = taken.dictionary("a")
        assert list(values[codes]) == [3, 2]

    def test_sort_by_never_inherits_pending(self):
        ordered = self.pending().sort_by(["a"])
        assert ordered.cached_dictionary("a") is None
        assert ordered.cached_dictionary("b") is None

    def test_with_column_drops_replaced_pending(self):
        derived = self.pending().with_column("a", [9, 9, 8, 7])
        assert derived.cached_dictionary("a") is None
        codes, values = derived.cached_dictionary("b")
        assert list(values[codes]) == ["x", "y", "y", "x"]

    def test_rename_and_project_share_pending(self):
        table = self.pending()
        for shared in (table.rename("other"), table.project(["a", "b"])):
            codes, values = shared.cached_dictionary("a")
            assert list(values[codes]) == [3, 1, 2, 1]

    def test_drop_dictionaries_clears_pending(self):
        table = self.pending()
        table.dictionary("b")  # one resolved, one still pending
        assert table.drop_dictionaries() == 2
        assert table.cached_dictionary("a") is None
        assert table.cached_dictionary("b") is None

    def test_evict_clears_pending(self):
        from repro.engine.dictcache import DictionaryCache

        table = self.pending()
        cache = DictionaryCache()
        assert cache.evict(table) == 2
        assert table.cached_dictionary("a") is None
        cache.codes(table, "a")
        assert cache.stats()["misses"] == 1
