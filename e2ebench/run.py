#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the GB-MQO path.

One client in a closed loop replays a seeded stream of operations
against one ``Session`` over a generated base table.  A read operation
is a batch of Group By queries that goes optimize -> lower -> check ->
execute and returns one result table per query; cache-rw also has
writes.  Every result is checked against the naive plan (one query at
a time) outside the timed region.

    python3 e2ebench/run.py --workload profile-scan --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` replays a fixed number of operations four times: plain,
as the naive plan, with the program's own span tracer, and with this
benchmark's layer spans (see ``tracing.py``), and reports per-layer
metrics.  ``--workload all`` runs every workload in its own process and
prints a summary.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import ROOT as ROOT_LAYER
from tracing import Recorder, layer_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Session builds (each with its warm-up batch) per run; setup_s is
#: their median.
SETUP_REPEATS = 5

#: Traced operations per second of ``--seconds``.  The traced run
#: replays a fixed count (so its counts repeat exactly for a seed)
#: sized to take about as long as one untraced run at 300k rows.
TRACE_OPS_PER_SECOND = {
    "profile-scan": 1.2,
    "pairs-serial": 0.6,
    "cache-rw": 8.0,
    "multi-agg": 0.8,
}

#: End-to-end metrics every workload reports with ``--trace 0``.
E2E_METRICS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "batch_p50_s": "s",
    "batch_tail_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics every workload reports with ``--trace 1`` (0 where
#: a layer is not on the workload's path).
LAYER_METRICS = {
    "stats.self_share": "share",
    "stats.rows_calls": "count",
    "stats.statistics_created": "count",
    "costmodel.self_share": "share",
    "costmodel.calls": "count",
    "core.optimize_share": "share",
    "core.self_share": "share",
    "core.pairs_considered": "count",
    "core.merges_accepted": "count",
    "core.plan_cost": "cost",
    "core.naive_plan_cost": "cost",
    "core.est_speedup": "x",
    "core.batch_p50_s": "s",
    "core.naive_batch_p50_s": "s",
    "core.measured_speedup": "x",
    "physical.lower_share": "share",
    "physical.hash_ops": "count",
    "physical.sort_ops": "count",
    "physical.reaggregate_ops": "count",
    "physical.cache_read_ops": "count",
    "physical.morsel_batches": "count",
    "analysis.check_share": "share",
    "engine.execute_share": "share",
    "engine.scan_emulation_share": "share",
    "engine.scan_emulation_bytes": "B",
    "engine.morsel_prepare_share": "share",
    "engine.morsel_partial_share": "share",
    "engine.morsel_merge_share": "share",
    "engine.worker_busy_share": "share",
    "engine.wait_share": "share",
    "engine.group_by_share": "share",
    "engine.decode_share": "share",
    "engine.encode_share": "share",
    "engine.encode_hit_ratio": "ratio",
    "engine.reaggregate_share": "share",
    "engine.materialize_share": "share",
    "engine.materialize_bytes": "B",
    "engine.multi_aggregate_share": "share",
    "engine.peak_temp_bytes": "B",
    "cache.probe_share": "share",
    "cache.serve_share": "share",
    "cache.put_share": "share",
    "cache.invalidate_share": "share",
    "cache.exact_hits": "count",
    "cache.derived_hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "cache.evictions": "count",
    "cache.invalidated_entries": "count",
    "cache.resident_bytes": "B",
    "obs.span_overhead_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.accounted_share": "ratio",
    "trace.batch_s": "s",
    "bench.self_share": "share",
}

#: Recorder layer -> metric reporting that layer's self time, summed
#: over all threads, as a share of the traced operations' time.  Shares
#: rather than seconds: a layer a workload never enters reports 0 on
#: every run, which is a share, not a frozen timer; the seconds are in
#: the detail payload.
SELF_SHARE_METRICS = {
    "stats": "stats.self_share",
    "costmodel": "costmodel.self_share",
    "core": "core.self_share",
    "physical": "physical.lower_share",
    "analysis": "analysis.check_share",
    "engine.execute": "engine.execute_share",
    "engine.scan_emulation": "engine.scan_emulation_share",
    "engine.morsel_prepare": "engine.morsel_prepare_share",
    "engine.morsel_partial": "engine.morsel_partial_share",
    "engine.morsel_merge": "engine.morsel_merge_share",
    "engine.group_by": "engine.group_by_share",
    "engine.decode": "engine.decode_share",
    "engine.encode": "engine.encode_share",
    "engine.reaggregate": "engine.reaggregate_share",
    "engine.materialize": "engine.materialize_share",
    "engine.multi_aggregate": "engine.multi_aggregate_share",
    "cache.probe": "cache.probe_share",
    "cache.serve": "cache.serve_share",
    "cache.put": "cache.put_share",
    "cache.invalidate": "cache.invalidate_share",
    ROOT_LAYER: "bench.self_share",
}

#: Failure descriptions kept in the payload, per pass.
MAX_FAILURES_KEPT = 5


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import from it.

    Exits with an error when the source tree is missing, or when
    ``repro`` resolves anywhere else, so a result is never reported for
    some other copy of the program.
    """
    # The workloads use at most two threads (parallelism=2); keep
    # numerical libraries from starting pools of their own.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        sys.exit(f"e2ebench: no program source at {package}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        sys.exit(f"e2ebench: repro imported from {repro.__file__}, not {package}")


def git_commit() -> str | None:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tail(samples: list[float]) -> tuple[float, int]:
    """(value, percentile): the highest whole percentile with at least
    ten samples above it, by nearest rank; the maximum when there are
    fewer than eleven samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100
    percentile = (100 * (n - 10)) // n
    rank = math.ceil(percentile * n / 100)
    return ordered[rank - 1], percentile


class Pass:
    """Replays a scenario's operation stream against one fresh session.

    Args:
        naive: answer batches with the naive plan (one query at a time,
            serial, no cache) instead of GB-MQO.
        tracer: the program's own span tracer for the session.
        recorder: this benchmark's layer-span recorder; each operation
            after the warm-up runs inside its root span.
        oracle: checks every result against the naive plan (None skips
            the check).
    """

    def __init__(
        self,
        scenario,
        seed: int,
        oracle=None,
        naive: bool = False,
        tracer=None,
        recorder=None,
    ) -> None:
        self.scenario = scenario
        self.seed = seed
        self.oracle = oracle
        self.naive = naive
        self.tracer = tracer
        self.recorder = recorder
        self.ops = scenario.ops()
        self.session = None
        self.state = 0
        self.batch_s: list[float] = []
        self.write_s: list[float] = []
        #: (queries answered, seconds) of every operation after warm-up.
        self.log: list[tuple[int, float]] = []
        self.queries = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.inexact_columns = 0
        self.peak_temp_bytes = 0
        self.plan_cost = 0.0
        self.naive_plan_cost = 0.0
        self.pairs_considered = 0
        self.merges_accepted = 0
        self.digest = hashlib.sha256()

    def open(self) -> float:
        """Build the session and run the warm-up batch; returns seconds."""
        from repro.api import Session

        # Each set-up starts from cold column dictionaries.
        self.scenario.table.drop_dictionaries()
        started = time.perf_counter()
        self.session = Session.for_table(
            self.scenario.table,
            statistics="sampled",
            seed=self.seed,
            cache=self.scenario.cache and not self.naive,
            tracer=self.tracer,
        )
        warm_up = self.scenario.warm_up
        outcome = self._attempt(warm_up)
        elapsed = time.perf_counter() - started
        self._clear_tracer()
        if outcome is not None:
            self._check(warm_up, outcome[1])
        return elapsed

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    def run(self, seconds: float | None = None, count: int | None = None) -> None:
        """Run operations until ``seconds`` of them are timed, or ``count``."""
        busy = 0.0
        done = 0
        while (count is None or done < count) and (seconds is None or busy < seconds):
            busy += self.step(next(self.ops))
            done += 1

    def step(self, op) -> float:
        """Run one operation; returns its timed seconds."""
        started = time.perf_counter()
        outcome = self._attempt(op)
        elapsed = time.perf_counter() - started
        self._clear_tracer()
        if outcome is None:
            self.log.append((0, elapsed))
            return elapsed
        optimization, result = outcome
        if result is None:
            self.log.append((0, elapsed))
            self.write_s.append(elapsed)
            return elapsed
        self.log.append((len(op.queries), elapsed))
        self.batch_s.append(elapsed)
        self.queries += len(op.queries)
        self.peak_temp_bytes = max(
            self.peak_temp_bytes, getattr(result, "peak_temp_bytes", 0)
        )
        if optimization is not None:
            self.plan_cost += optimization.cost
            self.naive_plan_cost += optimization.naive_cost
            telemetry = optimization.telemetry
            if telemetry is not None:
                self.pairs_considered += telemetry.pairs_considered
                self.merges_accepted += telemetry.merges_accepted
        self._check(op, result)
        return elapsed

    def _attempt(self, op):
        """Run ``op``; None if it raised (counted as failed)."""
        self.attempted += 1
        try:
            if self.recorder is None:
                return self._execute(op)
            with self.recorder.root():
                return self._execute(op)
        except Exception:
            self._fail(traceback.format_exc(limit=3))
            return None

    def _clear_tracer(self) -> None:
        """Drop the program tracer's spans, outside the timed region."""
        if self.tracer is not None:
            self.tracer.clear()

    def _execute(self, op):
        from repro.core.plan import naive_plan
        from repro.engine.multi_aggregate import execute_multi_aggregate

        from workloads import Write

        session = self.session
        if isinstance(op, Write):
            self.state = self.scenario.apply_write(session.catalog, op)
            return None, None
        queries = list(op.queries)
        base = self.scenario.base_name
        if op.aggregates:
            if self.naive:
                return None, execute_multi_aggregate(
                    session.catalog, base, naive_plan(base, queries),
                    op.aggregate_queries(),
                )
            return session.run_with_aggregates(op.aggregate_queries())
        if self.naive:
            return None, session.execute(naive_plan(base, queries))
        optimization = session.optimize(queries)
        return optimization, session.execute(
            optimization.plan, parallelism=self.scenario.parallelism
        )

    def _check(self, op, result) -> None:
        if self.oracle is None:
            return
        for index, query in enumerate(op.queries):
            aggregates = op.aggregates_of(index)
            got = result.results.get(query)
            if got is None:
                self._fail(f"no result for {sorted(query)}")
                return
            self.digest.update(repr(sorted(query)).encode())
            problem, inexact = self.oracle.check(
                got, query, aggregates, self.state, self.digest
            )
            if problem is not None:
                self._fail(f"{sorted(query)} state {self.state}: {problem}")
                return
            self.inexact_columns += inexact

    def _fail(self, description: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURES_KEPT:
            self.failures.append(description)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def throughput(log: list[tuple[int, float]], cycle: int) -> tuple[float, int]:
    """(queries per second, cycles): the median over complete cycles of
    the stream's design, or the whole run when it holds none.

    Every complete cycle is the same work, so their median shrugs off a
    burst of interference from other processes that a run-wide total
    would absorb.
    """
    rates = []
    for start in range(0, len(log) - cycle + 1, cycle):
        chunk = log[start:start + cycle]
        rates.append(sum(q for q, _ in chunk) / sum(s for _, s in chunk))
    if rates:
        return statistics.median(rates), len(rates)
    seconds = sum(s for _, s in log)
    return (sum(q for q, _ in log) / seconds if seconds else 0.0), 0


def end_to_end(
    scenario, seed: int, seconds: float, count: int | None, oracle
) -> tuple[dict, dict, list]:
    """Untraced run: set up several times, then the timed closed loop."""
    setups = []
    passes = []
    for _ in range(SETUP_REPEATS):
        if passes:
            passes[-1].close()
        passes.append(Pass(scenario, seed, oracle))
        setups.append(passes[-1].open())
    run = passes[-1]
    run.run(seconds=None if count else seconds, count=count or None)
    cache = run.session.cache_stats()
    run.close()
    rate, cycles = throughput(run.log, scenario.cycle)
    tail_value, tail_percentile = tail(run.batch_s) if run.batch_s else (0.0, 0)
    metrics = {
        "setup_s": median(setups),
        "queries_per_s": rate,
        "batch_p50_s": median(run.batch_s),
        "batch_tail_s": tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "write_p50_s": median(run.write_s) if run.write_s else None,
        "peak_temp_bytes": run.peak_temp_bytes,
        "error_rate": sum(p.failed for p in passes) / sum(p.attempted for p in passes),
        "tail_percentile": tail_percentile,
        "throughput_cycles": cycles,
        "batches": len(run.batch_s),
        "writes": len(run.write_s),
        "queries": run.queries,
        "setup_samples_s": setups,
        "cache": cache,
        "failures": [f for p in passes for f in p.failures],
        "inexact_float_columns": run.inexact_columns,
        "result_digest": run.digest.hexdigest(),
    }
    return metrics, extra, passes


def traced(scenario, seed: int, count: int, oracle) -> tuple[dict, dict, list]:
    """Fixed-count replay: plain, naive, program tracer, layer spans."""
    from repro.obs.tracer import Tracer


    def replay(**kwargs) -> Pass:
        replay_pass = Pass(scenario, seed, **kwargs)
        replay_pass.open()
        return replay_pass

    plain = replay(oracle=oracle)
    plain.run(count=count)
    plain.close()
    naive = replay(naive=True)
    naive.run(count=count)
    naive.close()
    spans = replay(tracer=Tracer())
    spans.run(count=count)
    spans.close()

    recorder = Recorder()
    layered = replay(oracle=oracle)
    # Only operations after the warm-up run inside root spans.
    layered.recorder = recorder
    session = layered.session
    statistics_before = len(session.estimator.created_statistics)
    cache_before = session.cache_stats()
    with layer_spans(recorder, scenario.base_name):
        layered.run(count=count)
    statistics_created = len(session.estimator.created_statistics) - statistics_before
    cache_after = session.cache_stats()
    layered.close()

    plain_s = sum(plain.batch_s) + sum(plain.write_s)
    traced_s = sum(layered.batch_s) + sum(layered.write_s)
    spans_s = sum(spans.batch_s) + sum(spans.write_s)
    def share(seconds: float) -> float:
        return seconds / traced_s if traced_s else 0.0

    metrics = dict.fromkeys(LAYER_METRICS, 0.0)
    for layer, name in SELF_SHARE_METRICS.items():
        metrics[name] = share(recorder.self_s.get(layer, 0.0))
    counts = recorder.counts
    for name in (
        "stats.rows_calls",
        "physical.hash_ops",
        "physical.sort_ops",
        "physical.reaggregate_ops",
        "physical.cache_read_ops",
        "physical.morsel_batches",
        "engine.scan_emulation_bytes",
        "engine.materialize_bytes",
        "cache.invalidated_entries",
    ):
        metrics[name] = counts.get(name, 0)
    encodes = counts.get("engine.encode_hits", 0) + counts.get("engine.encode_misses", 0)
    hits = misses = derived = 0
    if cache_after.get("enabled"):
        hits = cache_after["hits"] - cache_before["hits"]
        derived = cache_after["derived_hits"] - cache_before["derived_hits"]
        misses = cache_after["misses"] - cache_before["misses"]
        metrics["cache.evictions"] = cache_after["evictions"] - cache_before["evictions"]
        metrics["cache.resident_bytes"] = cache_after["bytes"]
    probes = hits + derived + misses
    batch_p50 = median(plain.batch_s)
    naive_p50 = median(naive.batch_s)
    main_total = sum(recorder.main_self_s.values())
    metrics.update(
        {
            "stats.statistics_created": statistics_created,
            "costmodel.calls": recorder.calls.get("costmodel", 0),
            "core.optimize_share": share(recorder.inclusive_s.get("core", 0.0)),
            "core.pairs_considered": layered.pairs_considered,
            "core.merges_accepted": layered.merges_accepted,
            "core.plan_cost": layered.plan_cost,
            "core.naive_plan_cost": layered.naive_plan_cost,
            "core.est_speedup": (
                layered.naive_plan_cost / layered.plan_cost if layered.plan_cost else 0.0
            ),
            "core.batch_p50_s": batch_p50,
            "core.naive_batch_p50_s": naive_p50,
            "core.measured_speedup": naive_p50 / batch_p50 if batch_p50 else 0.0,
            "engine.worker_busy_share": share(recorder.worker_busy_s),
            "engine.wait_share": share(
                recorder.main_self_s.get("engine.morsel_wait", 0.0)
            ),
            "engine.encode_hit_ratio": (
                counts.get("engine.encode_hits", 0) / encodes if encodes else 0.0
            ),
            "engine.peak_temp_bytes": layered.peak_temp_bytes,
            "cache.exact_hits": hits,
            "cache.derived_hits": derived,
            "cache.misses": misses,
            "cache.hit_ratio": (hits + derived) / probes if probes else 0.0,
            "obs.span_overhead_ratio": spans_s / plain_s if plain_s else 0.0,
            "trace.overhead_ratio": traced_s / plain_s if plain_s else 0.0,
            "trace.accounted_share": (
                1.0 - recorder.main_self_s.get(ROOT_LAYER, 0.0) / main_total
                if main_total
                else 0.0
            ),
            "trace.batch_s": traced_s,
        }
    )
    extra = {
        "ops": count,
        "executor_thread_self_s": dict(sorted(recorder.main_self_s.items())),
        "all_threads_self_s": dict(sorted(recorder.self_s.items())),
        "layer_calls": dict(sorted(recorder.calls.items())),
        "inexact_float_columns": plain.inexact_columns + layered.inexact_columns,
        "result_digest": layered.digest.hexdigest(),
        "results_repeat": plain.digest.hexdigest() == layered.digest.hexdigest(),
        "failures": [f for p in (plain, naive, spans, layered) for f in p.failures],
    }
    return metrics, extra, [plain, naive, spans, layered]


def run_workload(args) -> int:
    import_program()
    import numpy as np

    from oracle import Oracle
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    scenario = workload.build(args.rows or workload.rows, args.seed)
    oracle = Oracle(scenario)
    if args.trace:
        count = args.batches or max(
            3, math.ceil(args.seconds * TRACE_OPS_PER_SECOND[workload.name])
        )
        metrics, extra, passes = traced(scenario, args.seed, count, oracle)
        units = LAYER_METRICS
    else:
        metrics, extra, passes = end_to_end(
            scenario, args.seed, args.seconds, args.batches, oracle
        )
        units = E2E_METRICS
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = failed == 0 and extra.get("results_repeat", True)
    context = {
        "workload": workload.name,
        "seed": args.seed,
        "rows": scenario.table.num_rows,
        "columns": len(scenario.table.column_names),
        "seconds": args.seconds,
        "trace": args.trace,
        "parallelism": scenario.parallelism,
        "cache": scenario.cache,
        "statistics": "sampled",
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
    }
    print(
        f"e2ebench {workload.name} seed={args.seed} "
        f"rows={scenario.table.num_rows} "
        f"trace={args.trace}"
    )
    for name, unit in units.items():
        print(f"  {name:<28} {metrics[name]:>16.6g} {unit}")
    if not args.trace:
        write = extra["write_p50_s"]
        write_text = "n/a" if write is None else f"{write:.6g}"
        print(f"  {'write_p50_s':<28} {write_text:>16} s")
        print(f"  {'peak_temp_bytes':<28} {extra['peak_temp_bytes']:>16} B")
        print(f"  {'error_rate':<28} {extra['error_rate']:>16.6g} ratio")
        print(
            f"  {'batch_tail_s':<28} is p{extra['tail_percentile']} "
            f"of {extra['batches']} batches"
        )
    print(json.dumps({"context": context, "verifier": {"correct": correct}, **extra}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one combined result line."""
    summary = {}
    for name in TRACE_OPS_PER_SECOND:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if args.rows:
            command += ["--rows", str(args.rows)]
        if args.batches:
            command += ["--batches", str(args.batches)]
        child = subprocess.run(command, capture_output=True, text=True, check=False)
        sys.stdout.write(child.stdout)
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            return child.returncode
        summary[name] = json.loads(child.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(s["correct"] for s in summary.values()),
        "attempted": sum(s["attempted"] for s in summary.values()),
        "failed": sum(s["failed"] for s in summary.values()),
        "metrics": {
            f"{workload}.{name}": value
            for workload, s in summary.items()
            for name, value in s["metrics"].items()
        },
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=(*TRACE_OPS_PER_SECOND, "all")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--rows", type=int, default=0,
        help="base table rows (default: the workload's own, 300k or 100k)",
    )
    parser.add_argument(
        "--batches", type=int, default=0,
        help="run exactly this many operations after warm-up instead of "
        "timing --seconds (for tests)",
    )
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
