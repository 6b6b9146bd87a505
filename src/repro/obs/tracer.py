"""Span tracer: parent/child span trees with near-zero disabled cost.

The tracer is the one instrumentation primitive every layer shares.  A
*span* is a named, monotonic-clocked interval with attached attributes;
spans nest via an explicit stack, so whatever runs inside a
``with tracer.span(...)`` block becomes a child of that span.  The same
object also carries flat counters and histograms (the optimizer's
search telemetry sinks into these), and a one-call flat snapshot for
export.

Two implementations share the interface:

* :class:`Tracer` — records everything;
* :class:`NoopTracer` (module singleton :data:`NOOP_TRACER`) — the
  default wired through the optimizer and engine.  Its ``span()``
  returns one shared, reusable context manager and allocates nothing,
  so instrumented hot paths pay a single method call when tracing is
  off.  Hot loops that want even that gone can branch on
  ``tracer.enabled``.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field
from typing import Iterator

from repro.obs.clock import monotonic
from repro.obs.metrics import _ZERO_BUCKET, _bucket_index, bucket_upper_bound

#: Sentinel meaning "derive the parent from the current thread's stack".
_STACK_PARENT = object()


@dataclass
class Span:
    """One named interval in the trace tree.

    Args:
        name: operation name, e.g. ``"optimize.iteration"``.
        span_id: id unique within the owning tracer.
        parent_id: id of the enclosing span, or None for roots.
        start: monotonic start time.
        end: monotonic end time (None while the span is open).
        attributes: arbitrary JSON-serializable key/value details.
    """

    name: str
    span_id: int
    parent_id: int | None
    start: float
    end: float | None = None
    attributes: dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set(self, **attributes: object) -> None:
        """Attach attributes to the span."""
        self.attributes.update(attributes)

    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation (one JSONL line per span)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attributes": dict(self.attributes),
        }


class _NoopSpan:
    """Inert span handed out by the no-op tracer."""

    __slots__ = ()

    name = ""
    span_id = -1
    parent_id = None
    start = 0.0
    end = 0.0
    duration = 0.0
    attributes: dict[str, object] = {}

    def set(self, **attributes: object) -> None:
        """Discard attributes."""


class _NoopSpanContext:
    """Shared, allocation-free context manager for disabled tracing."""

    __slots__ = ()

    def __enter__(self) -> _NoopSpan:
        return _NOOP_SPAN

    def __exit__(self, *exc_info: object) -> None:
        return None


_NOOP_SPAN = _NoopSpan()
_NOOP_SPAN_CONTEXT = _NoopSpanContext()


class _SpanContext:
    """Context manager opening one real span on entry."""

    __slots__ = ("_tracer", "_name", "_attributes", "_span", "_parent")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attributes: dict[str, object],
        parent: object = _STACK_PARENT,
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._attributes = attributes
        self._span: Span | None = None
        self._parent = parent

    def __enter__(self) -> Span:
        self._span = self._tracer._open(
            self._name, self._attributes, self._parent
        )
        return self._span

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        assert self._span is not None
        if exc_type is not None:
            self._span.attributes.setdefault("error", True)
        self._tracer._close(self._span)
        return None


@dataclass
class HistogramStats:
    """Streaming summary of one observed value series.

    Beyond count/total/min/max/mean, observations land in exponential
    (base-2) buckets — the same scheme as
    :class:`repro.obs.metrics.HistogramValue` — so p50/p95/p99 can be
    estimated without keeping the raw series.  ``as_dict()`` keeps its
    original keys and gains the three percentile estimates.
    """

    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")
    buckets: dict[int, int] = field(default_factory=dict)

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        index = _bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        if self.count == 0:
            return 0.0
        return self.total / self.count

    def quantile(self, q: float) -> float:
        """Estimated q-quantile (geometric bucket midpoint, clamped)."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= target:
                upper = bucket_upper_bound(index)
                lower = (
                    bucket_upper_bound(index - 1)
                    if index != _ZERO_BUCKET
                    else 0.0
                )
                mid = math.sqrt(lower * upper) if lower > 0.0 else upper
                return min(max(mid, self.minimum), self.maximum)
        return self.maximum  # pragma: no cover - float-rounding guard

    def as_dict(self) -> dict[str, float]:
        if self.count == 0:
            return {
                "count": 0, "total": 0.0, "min": 0.0, "max": 0.0,
                "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
            }
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class Tracer:
    """Recording tracer: span tree, counters, histograms.

    The tracer is thread-safe: span records and counters are guarded by
    one lock, while the open-span stack is *per thread*, so workers of
    the parallel executor each nest their own spans without
    corrupting each other's parentage.  A span that must hang off
    another thread's span (a per-node span under the executor's wave
    span) is opened with :meth:`span_under`.

    Args:
        clock: monotonic time source (injectable for deterministic
            tests); defaults to :func:`repro.obs.clock.monotonic`.
    """

    enabled = True

    def __init__(self, clock=monotonic) -> None:
        self._clock = clock
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        #: Finished and open spans, in start order.
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.histograms: dict[str, HistogramStats] = {}

    # -- spans -------------------------------------------------------------------

    @property
    def _stack(self) -> list[Span]:
        """This thread's open-span stack (created on first use)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attributes: object) -> _SpanContext:
        """Open a child span of the current span for a ``with`` block."""
        return _SpanContext(self, name, attributes)

    def span_under(
        self, parent: object, name: str, **attributes: object
    ) -> _SpanContext:
        """Open a span under an explicit parent span (cross-thread).

        ``parent`` is a :class:`Span` (or None for a root span); the
        new span still pushes onto *this* thread's stack, so spans the
        worker opens inside it nest correctly.
        """
        parent_id = parent.span_id if isinstance(parent, Span) else None
        return _SpanContext(self, name, attributes, parent=parent_id)

    def _open(
        self,
        name: str,
        attributes: dict[str, object],
        parent: object = _STACK_PARENT,
    ) -> Span:
        stack = self._stack
        if parent is _STACK_PARENT:
            parent_id = stack[-1].span_id if stack else None
        else:
            parent_id = parent  # type: ignore[assignment]
        span = Span(
            name=name,
            span_id=0,
            parent_id=parent_id,  # type: ignore[arg-type]
            start=self._clock(),
            attributes=dict(attributes),
        )
        with self._lock:
            span.span_id = self._next_id
            self._next_id += 1
            self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self._clock()
        stack = self._stack
        if stack and stack[-1] is span:
            stack.pop()
        else:  # pragma: no cover - misuse guard
            stack[:] = [s for s in stack if s is not span]

    @property
    def current_span(self) -> Span | None:
        """The innermost open span on this thread, or None outside any."""
        stack = self._stack
        return stack[-1] if stack else None

    def root_spans(self) -> list[Span]:
        return [span for span in self.spans if span.parent_id is None]

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    # -- counters / histograms ---------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        """Increment a flat counter."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, name: str, value: float) -> None:
        """Record one observation into a histogram."""
        with self._lock:
            stats = self.histograms.get(name)
            if stats is None:
                stats = self.histograms[name] = HistogramStats()
            stats.add(value)

    # -- export ------------------------------------------------------------------

    def metrics_snapshot(self) -> dict[str, float]:
        """Flat dict of every counter and histogram statistic."""
        snapshot: dict[str, float] = dict(self.counters)
        for name, stats in self.histograms.items():
            for key, value in stats.as_dict().items():
                snapshot[f"{name}.{key}"] = value
        snapshot["spans"] = len(self.spans)
        return snapshot

    def to_jsonl_lines(self) -> Iterator[str]:
        """One compact JSON object per span, parents before children."""
        for span in self.spans:
            yield json.dumps(span.to_dict(), sort_keys=True)

    def render_tree(self) -> str:
        """ASCII span tree with durations and attributes."""
        from repro.obs.export import render_span_tree

        return render_span_tree(self.spans)

    def clear(self) -> None:
        """Drop all recorded spans, counters, and histograms."""
        self._stack.clear()
        with self._lock:
            self.spans.clear()
            self.counters.clear()
            self.histograms.clear()
            self._next_id = 0


class NoopTracer(Tracer):
    """Disabled tracer: records nothing, allocates nothing per span."""

    enabled = False

    def span(self, name: str, **attributes: object) -> _NoopSpanContext:  # type: ignore[override]
        return _NOOP_SPAN_CONTEXT

    def span_under(self, parent: object, name: str, **attributes: object) -> _NoopSpanContext:  # type: ignore[override]
        return _NOOP_SPAN_CONTEXT

    def count(self, name: str, value: float = 1) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None


#: Shared disabled tracer — the default for every instrumented layer.
NOOP_TRACER = NoopTracer()
