"""Result-key dictionaries derived on demand from the grouping pass.

A Group By result is handed each key's per-group parent codes plus the
parent's distinct values; the dense dictionary is resolved from them
only when something groups the result again.  The contract pinned here:

* a resolved dictionary is bit-identical to ``legacy_encode`` (sort-based
  ``np.unique``) of the result's key column, in every grouping regime
  and through the morsel merge;
* a leaf result does no dictionary work at all, while materialization
  and ``ResultCache.put`` leave resolved dictionaries behind;
* concurrent readers all resolve to the same dictionary without ever
  falling back to a raw-value encode.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.result_cache import ResultCache
from repro.engine import dictcache
from repro.engine.aggregation import AggregateSpec, group_by
from repro.engine.dictcache import DictionaryCache, legacy_encode
from repro.engine.executor import PlanExecutor
from repro.engine.morsel import MorselGrouping, compute_morsel_groupings
from repro.engine.table import Table

COUNT = [AggregateSpec.count_star()]


def assert_matches_legacy(result: Table, keys) -> None:
    for key in keys:
        codes, values = result.dictionary(key)
        ref_codes, ref_values = legacy_encode(result[key])
        np.testing.assert_array_equal(codes, ref_codes)
        np.testing.assert_array_equal(values, ref_values)
        assert codes.dtype == ref_codes.dtype
        assert values.dtype == ref_values.dtype


def make_keys(rng, n, cards, strings):
    columns = {}
    for i, card in enumerate(cards):
        ints = rng.integers(-card, card, n) * 3
        columns[f"k{i}"] = (
            np.char.add("s", ints.astype(str)) if strings[i] else ints
        )
    return Table("base", columns)


@pytest.fixture
def encode_calls(monkeypatch):
    """Count every ``encode_column`` call (raw encodes and resolves)."""
    calls = []
    original = dictcache.encode_column

    def counting(array):
        calls.append(len(array))
        return original(array)

    monkeypatch.setattr(dictcache, "encode_column", counting)
    return calls


class TestBitIdentity:
    @given(
        n=st.integers(min_value=1, max_value=400),
        cards=st.lists(
            st.integers(min_value=1, max_value=60), min_size=1, max_size=3
        ),
        strings=st.lists(st.booleans(), min_size=3, max_size=3),
        strategy=st.sampled_from(["auto", "sort"]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_bincount_and_sort_regimes(self, n, cards, strings, strategy, seed):
        table = make_keys(np.random.default_rng(seed), n, cards, strings)
        keys = list(table.column_names)
        result = group_by(table, keys, COUNT, strategy=strategy)
        assert_matches_legacy(result, keys)
        # One column grouped again must agree as well.
        again = group_by(result, keys[:1], COUNT, strategy=strategy)
        assert_matches_legacy(again, keys[:1])

    def test_compressed_regime(self):
        rng = np.random.default_rng(5)
        table = Table(
            "w", {f"k{i}": rng.integers(0, 500, 2000) for i in range(8)}
        )
        keys = list(table.column_names)
        result = group_by(table, keys, COUNT)
        assert_matches_legacy(result, keys)

    @pytest.mark.parametrize("strings", [False, True])
    def test_morsel_merge(self, strings):
        table = make_keys(
            np.random.default_rng(6), 900, [7, 11], [strings, not strings, False]
        )
        keys = list(table.column_names)
        grouping = MorselGrouping(table, keys, COUNT)
        [out], _ = compute_morsel_groupings(table, [grouping], 3)
        assert_matches_legacy(out, keys)


class TestOnDemand:
    def base(self, encode_calls):
        table = make_keys(np.random.default_rng(7), 500, [9, 13], [False, True, False])
        table.build_dictionaries()
        encode_calls.clear()
        return table

    def test_leaf_result_does_no_dictionary_work(self, encode_calls):
        table = self.base(encode_calls)
        cache = DictionaryCache()
        group_by(table, ["k0", "k1"], COUNT, dictionaries=cache)
        grouping = MorselGrouping(table, ["k0", "k1"], COUNT, dictionaries=cache)
        compute_morsel_groupings(table, [grouping], 2)
        assert encode_calls == []
        assert cache.stats()["misses"] == 0

    def test_reaggregation_resolves_as_a_hit(self, encode_calls):
        table = self.base(encode_calls)
        result = group_by(table, ["k0", "k1"], COUNT)
        cache = DictionaryCache()
        group_by(result, ["k1"], COUNT, dictionaries=cache)
        # One resolve over the result's rows, never a raw-value encode.
        assert encode_calls == [result.num_rows]
        assert cache.stats() == {"hits": 1, "misses": 0, "evictions": 0}

    def test_result_cache_put_resolves(self, encode_calls):
        result = group_by(self.base(encode_calls), ["k0", "k1"], COUNT)
        ResultCache().put("base", 0, ["k0", "k1"], result)
        encode_calls.clear()
        for key in ("k0", "k1"):
            assert result.cached_dictionary(key) is not None
        assert encode_calls == []

    def test_materialize_resolves(self, encode_calls, monkeypatch):
        from repro.api import Session
        from repro.workloads.sales import make_sales

        materialized = []
        original = PlanExecutor._run_materialize

        def recording(self, physical, op, env, metrics):
            original(self, physical, op, env, metrics)
            keys = getattr(physical.op(op.source), "keys", ())
            materialized.append((env[op.source], list(keys)))

        monkeypatch.setattr(PlanExecutor, "_run_materialize", recording)
        session = Session.for_table(make_sales(3_000), statistics="exact")
        queries = [frozenset({"state"}), frozenset({"region", "state"})]
        session.execute(session.optimize(queries).plan)
        assert materialized
        encode_calls.clear()
        for table, keys in materialized:
            assert keys
            for key in keys:
                assert table.cached_dictionary(key) is not None
        assert encode_calls == []


def test_concurrent_readers_never_raw_encode():
    rng = np.random.default_rng(8)
    table = Table(
        "t", {"a": rng.integers(0, 300, 20_000), "b": rng.integers(0, 40, 20_000)}
    )
    cache = DictionaryCache()
    ref_codes, ref_values = legacy_encode(group_by(table, ["a", "b"], COUNT)["a"])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            result = group_by(table, ["a", "b"], COUNT)
            barrier = threading.Barrier(8)
            served = []

            def reader():
                barrier.wait(timeout=10)
                served.append(cache.codes(result, "a"))

            threads = [threading.Thread(target=reader) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert len(served) == 8
            for codes, values in served:
                np.testing.assert_array_equal(codes, ref_codes)
                np.testing.assert_array_equal(values, ref_values)
    finally:
        sys.setswitchinterval(interval)
    assert cache.stats()["misses"] == 0
    assert cache.stats()["hits"] == 20 * 8
