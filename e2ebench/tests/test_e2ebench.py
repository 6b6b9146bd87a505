"""Tests of the end-to-end benchmark at tiny scale.

Run from the repository root with ``python -m pytest e2ebench/tests``.
Every workload runs the way the benchmark command runs it (one process
per run), on a few thousand rows and a fixed number of operations.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Rows per workload (4000 otherwise): profile-scan needs enough for
#: the executor to split its scans into several morsels (~65k rows each).
ROWS = {"profile-scan": 140_000}
OPS = 12

#: Per-layer metrics that count work and must repeat exactly for a seed.
#: Call counts into the statistics and cost-model layers are left out:
#: they follow set iteration order, which string hashing varies from
#: process to process.
DETERMINISTIC = (
    "stats.statistics_created",
    "physical.hash_ops",
    "physical.sort_ops",
    "physical.reaggregate_ops",
    "physical.cache_read_ops",
    "physical.morsel_batches",
    "engine.scan_emulation_bytes",
    "engine.materialize_bytes",
    "engine.peak_temp_bytes",
    "cache.exact_hits",
    "cache.derived_hits",
    "cache.misses",
    "cache.evictions",
    "cache.invalidated_entries",
    "cache.resident_bytes",
)


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT) -> tuple[dict, dict]:
    """(detail payload, result line) of one tiny run."""
    completed = subprocess.run(
        [
            sys.executable, str(cwd / "e2ebench" / "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--rows", str(ROWS.get(workload, 4000)),
            "--batches", str(OPS),
        ],
        capture_output=True, text=True, cwd=cwd, timeout=300, check=True,
    )
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs() -> dict[tuple[str, int], tuple[dict, dict]]:
    return {(w, t): bench(w, t) for w in WORKLOADS for t in (0, 1)}


def test_spec_matches_the_runner():
    assert SPEC["command"] == ["python3", "e2ebench/run.py"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.LAYER_METRICS
    assert WORKLOADS == list(run.TRACE_OPS_PER_SECOND) == list(workloads.WORKLOADS)
    assert "setup_s" in run.E2E_METRICS
    setup_bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in SPEC["end_to_end"])


def test_layer_map_covers_every_per_layer_metric():
    layer_map = json.loads((BENCH / "layer_map.json").read_text())["map"]
    assert list(layer_map) == list(run.LAYER_METRICS)
    moved = set(run.E2E_METRICS) | {"write_p50_s", "peak_temp_bytes"}
    for entries in layer_map.values():
        for entry in entries:
            assert set(entry["moves"]) <= moved
            assert set(entry["workloads"]) <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(runs, workload, trace):
    detail, result = runs[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = run.LAYER_METRICS if trace else run.E2E_METRICS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= OPS
    assert detail["failures"] == []
    assert detail["context"]["rows"] == ROWS.get(workload, 4000)
    if trace == 0:
        assert detail["error_rate"] == 0
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert detail["results_repeat"] is True


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_for_a_seed(runs, workload):
    first_detail, first = runs[workload, 1]
    second_detail, second = bench(workload, 1)
    for name in DETERMINISTIC:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first_detail["result_digest"] == second_detail["result_digest"]
    e2e_detail, _ = runs[workload, 0]
    again, _ = bench(workload, 0)
    for key in ("peak_temp_bytes", "cache", "result_digest", "batches", "writes"):
        assert e2e_detail[key] == again[key], key


def test_layers_show_up_where_the_workloads_put_them(runs):
    metrics = {
        w: {k: v["value"] for k, v in runs[w, 1][1]["metrics"].items()}
        for w in WORKLOADS
    }
    assert metrics["profile-scan"]["physical.morsel_batches"] > 0
    assert metrics["profile-scan"]["engine.worker_busy_share"] > 0
    assert metrics["pairs-serial"]["engine.materialize_bytes"] > 0
    assert metrics["pairs-serial"]["physical.morsel_batches"] == 0
    assert metrics["cache-rw"]["cache.exact_hits"] > 0
    assert metrics["cache-rw"]["cache.derived_hits"] > 0
    assert metrics["cache-rw"]["cache.invalidated_entries"] > 0
    assert metrics["multi-agg"]["engine.multi_aggregate_share"] > 0
    for w in WORKLOADS:
        if w != "cache-rw":
            assert metrics[w]["cache.misses"] == 0
        assert metrics[w]["trace.accounted_share"] > 0.5


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [
            sys.executable, "e2ebench/run.py", "--workload", WORKLOADS[0],
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        capture_output=True, text=True, cwd=tmp_path, timeout=120, check=False,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_balanced_round_places_every_column_repeats_times():
    rng = np.random.default_rng(0)
    columns = [f"c{i}" for i in range(16)]
    for _ in range(50):
        sizes = workloads._sizes_summing_to(rng, 3, 8, 16, 32)
        batches = workloads.balanced_round(rng, columns, sizes, 2)
        assert [len(b) for b in batches] == sizes
        assert all(len(set(b)) == len(b) for b in batches)
        flat = [c for b in batches for c in b]
        assert all(flat.count(c) == 2 for c in columns)


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 101)]
    value, percentile = run.tail(samples)
    assert percentile == 90 and value == 90.0
    assert sum(s > value for s in samples) >= 10
    assert run.tail([1.0, 2.0, 3.0]) == (3.0, 100)


def test_throughput_is_the_median_over_complete_cycles():
    log = [(2, 1.0), (0, 1.0)] * 3 + [(5, 0.1)]
    rate, cycles = run.throughput(log, 2)
    assert (rate, cycles) == (1.0, 3)
    assert run.throughput(log[:1], 2) == (2.0, 0)
