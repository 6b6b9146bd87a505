"""Per-layer self time from spans recorded around calls into each layer.

The traced run wraps public functions and methods of the program's
modules (``repro.stats``, ``repro.costmodel``, ``repro.core``,
``repro.physical``, ``repro.analysis``, ``repro.engine``,
``repro.cache``) for the duration of one pass, without editing them.
Each wrapped call opens a span on its thread's own stack; a span's self
time is its duration minus the time its child spans on the same thread
cover.  Spans opened on other threads (morsel workers) are roots there:
their durations add up to worker busy time, while the executor thread
waiting for them shows up as the self time of the morsel driver span.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator


#: Layer of the span the benchmark opens around each traced operation.
ROOT = "bench"


class Recorder:
    """Thread-safe accumulator of span self times and counts per layer.

    On the executor thread only spans inside a :data:`ROOT` span count,
    so work the benchmark itself does between operations (checking
    results against the naive plan) is never attributed to a layer.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        #: layer -> self seconds, summed over every thread.
        self.self_s: dict[str, float] = defaultdict(float)
        #: layer -> self seconds on the executor (calling) thread only.
        self.main_self_s: dict[str, float] = defaultdict(float)
        #: layer -> inclusive seconds of calls entering it from another layer.
        self.inclusive_s: dict[str, float] = defaultdict(float)
        #: layer -> number of calls entering it from another layer.
        self.calls: dict[str, int] = defaultdict(int)
        #: free-form counters (bytes, operator counts, hits).
        self.counts: dict[str, float] = defaultdict(float)
        #: summed duration of root spans opened on worker threads.
        self.worker_busy_s = 0.0

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def active(self) -> bool:
        """Whether spans opened on this thread now are recorded."""
        return bool(self._stack()) or threading.get_ident() != self._main

    def enter(self, layer: str) -> list:
        frame = [layer, 0.0, time.perf_counter()]
        self._stack().append(frame)
        return frame

    def leave(self, frame: list) -> None:
        elapsed = time.perf_counter() - frame[2]
        stack = self._stack()
        stack.pop()
        layer = frame[0]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += elapsed
        own = elapsed - frame[1]
        on_main = threading.get_ident() == self._main
        with self._lock:
            self.self_s[layer] += own
            if on_main:
                self.main_self_s[layer] += own
            if parent is None or parent[0] != layer:
                self.inclusive_s[layer] += elapsed
                self.calls[layer] += 1
            if parent is None and not on_main:
                self.worker_busy_s += elapsed

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    @contextmanager
    def root(self) -> Iterator[None]:
        """The span around one traced operation."""
        frame = self.enter(ROOT)
        try:
            yield
        finally:
            self.leave(frame)


def _wrapper(
    recorder: Recorder,
    original: Callable,
    layer: str | Callable[..., str],
    after: Callable | None,
) -> Callable:
    @functools.wraps(original)
    def wrapped(*args, **kwargs):
        if not recorder.active():
            return original(*args, **kwargs)
        name = layer(*args, **kwargs) if callable(layer) else layer
        frame = recorder.enter(name)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.leave(frame)
        if after is not None:
            after(recorder, result, *args, **kwargs)
        return result

    return wrapped


class Patcher:
    """Installs span wrappers and restores the originals on :meth:`undo`."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def method(
        self,
        cls: type,
        name: str,
        layer: str | Callable[..., str],
        after: Callable | None = None,
    ) -> None:
        original = cls.__dict__[name]
        self._undo.append((cls, name, original))
        setattr(cls, name, _wrapper(self.recorder, original, layer, after))

    def function(
        self,
        original: Callable,
        layer: str | Callable[..., str],
        after: Callable | None = None,
    ) -> None:
        """Wrap a module-level function under every name bound to it.

        Modules that did ``from x import f`` hold their own reference,
        so each ``repro`` module attribute that *is* the function gets
        the same wrapper.
        """
        wrapped = _wrapper(self.recorder, original, layer, after)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def undo(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def _count_ops(recorder: Recorder, plan, *args, **kwargs) -> None:
    from repro.physical import plan as phys

    for op in plan.iter_ops():
        if isinstance(op, phys.Reaggregate):
            recorder.count("physical.reaggregate_ops")
        elif isinstance(op, phys.HashGroupBy):
            recorder.count("physical.hash_ops")
        elif isinstance(op, phys.SortGroupBy):
            recorder.count("physical.sort_ops")
        elif isinstance(op, phys.CacheRead):
            recorder.count("physical.cache_read_ops")


@contextmanager
def layer_spans(recorder: Recorder, base_table: str) -> Iterator[None]:
    """Wrap each layer's entry points while the block runs.

    ``base_table`` separates first-level grouping (kernel over the base
    relation) from reaggregation (kernel over a temp or cached result).
    """
    from repro.cache.result_cache import ResultCache
    from repro.core import scheduling
    from repro.core.optimizer import GbMqoOptimizer
    from repro.costmodel.base import PlanCoster
    from repro.costmodel.engine_model import EngineCostModel
    from repro.engine import aggregation, executor, morsel, multi_aggregate
    from repro.engine.catalog import Catalog
    from repro.engine.dictcache import DictionaryCache
    from repro.engine.table import Table
    from repro.physical import lowering
    from repro.physical.plan import PhysicalPlan
    from repro.stats.cardinality import SampledCardinalityEstimator

    patcher = Patcher(recorder)
    try:
        patcher.method(
            SampledCardinalityEstimator, "rows", "stats",
            after=lambda r, *_a, **_k: r.count("stats.rows_calls"),
        )
        patcher.method(SampledCardinalityEstimator, "row_width", "stats")
        for name in (
            "edge_cost", "group_by_cost", "grouping_choice", "grouping_domain",
            "scan_op_cost", "grouping_op_cost", "materialize_op_cost",
            "execution_mode_choice",
        ):
            patcher.method(EngineCostModel, name, "costmodel")
        for name in ("edge_cost", "subplan_cost", "plan_cost"):
            patcher.method(PlanCoster, name, "costmodel")
        patcher.method(GbMqoOptimizer, "optimize", "core")
        patcher.function(scheduling.storage_minimizing_schedule, "core")
        patcher.function(lowering.lower, "physical", after=_count_ops)
        patcher.method(PhysicalPlan, "check", "analysis")
        patcher.method(executor.PlanExecutor, "execute", "engine.execute")
        patcher.function(
            multi_aggregate.execute_multi_aggregate, "engine.multi_aggregate"
        )

        def kernel_layer(*args, **kwargs) -> str:
            table = args[0] if args else kwargs["table"]
            if table.name == base_table:
                return "engine.group_by"
            return "engine.reaggregate"

        patcher.function(aggregation.group_by, kernel_layer)
        patcher.method(
            Table, "touch_range", "engine.scan_emulation",
            after=lambda r, out, *_a, **_k: r.count(
                "engine.scan_emulation_bytes", out
            ),
        )
        patcher.method(aggregation.GroupStructure, "key_column", "engine.decode")

        def encode_layer(cache, table, column) -> str:
            hit = table.cached_dictionary(column) is not None
            recorder.count("engine.encode_hits" if hit else "engine.encode_misses")
            return "engine.encode"

        patcher.method(DictionaryCache, "codes", encode_layer)
        patcher.method(
            Catalog, "materialize_temp", "engine.materialize",
            after=lambda r, out, *_a, **_k: r.count(
                "engine.materialize_bytes", out.size_bytes()
            ),
        )
        patcher.function(
            morsel.compute_morsel_groupings, "engine.morsel_wait",
            after=lambda r, *_a, **_k: r.count("physical.morsel_batches"),
        )
        patcher.method(morsel.MorselGrouping, "__init__", "engine.morsel_prepare")
        patcher.method(morsel.MorselGrouping, "partial", "engine.morsel_partial")
        patcher.method(morsel.MorselGrouping, "merge", "engine.morsel_merge")
        patcher.method(ResultCache, "probe", "cache.probe")
        patcher.method(ResultCache, "serve", "cache.serve")
        patcher.method(ResultCache, "put", "cache.put")
        patcher.method(
            ResultCache, "invalidate", "cache.invalidate",
            after=lambda r, out, *_a, **_k: r.count(
                "cache.invalidated_entries", out
            ),
        )
        yield
    finally:
        patcher.undo()
