"""Telemetry core: metric registry + hierarchical wall-clock spans.

Design constraints (see docs/observability.md):

* **Single injection seam.**  Every instrumented layer obtains its
  telemetry sink via :func:`repro.telemetry.get`, which returns the
  process-wide active :class:`Telemetry` — by default a *disabled*
  instance whose recording methods are no-ops.  Nothing in the pipeline
  constructs its own sink, so one :func:`install` (or the ``use()``
  context manager) turns the whole compile → assemble → simulate →
  analyze pipeline observable at once.

* **No-op default, hot-loop safe.**  A disabled :class:`Telemetry`
  records nothing and allocates nothing per event.  Hot paths (the
  simulator dispatch loop) additionally *batch*: they accumulate plain
  local integers and publish once per run, so the disabled-mode cost on
  the per-instruction path is zero telemetry calls (enforced by
  ``tests/test_telemetry_overhead.py``).

* **Thread safety.**  The registry and all metric mutations take a
  single re-entrant lock; the span stack is thread-local, so concurrent
  runners produce correctly-nested spans per thread.

Metric name convention: dotted lowercase paths (``sim.instructions``,
``harness.cache.hit``).  Exporters map them to each format's own
conventions (Prometheus: dots become underscores under a ``repro_``
namespace).
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramState",
    "LabeledCounter",
    "SpanRecord",
    "Telemetry",
    "TelemetrySnapshot",
    "get",
    "install",
    "use",
]


# --------------------------------------------------------------------------
# metric instruments
# --------------------------------------------------------------------------

class Counter:
    """Monotonically increasing count (events, cache hits, retries)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.RLock) -> None:
        self.name = name
        self.value = 0
        self._lock = lock

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """Last-value metric (instructions/sec, memory pages)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.RLock) -> None:
        self.name = name
        self.value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)


#: sentinel bucket for observations <= 0 (sorts below every real bucket)
_ZERO_BUCKET = -1074


def _bucket_index(value: float) -> int:
    """Log2 bucket for *value*: bucket *j* holds ``2**(j-1) < v <= 2**j``.

    ``math.frexp`` gives ``value = m * 2**e`` with ``0.5 <= m < 1``, so
    the bucket is ``e`` — except exact powers of two (``m == 0.5``),
    which sit on the closed upper edge of bucket ``e - 1``.  Negative
    indices cover fractions (bucket -1 = (0.25, 0.5], ...), which is
    what makes sub-second latencies distinguishable.
    """
    if value <= 0:
        return _ZERO_BUCKET
    m, e = math.frexp(value)
    return e - 1 if m == 0.5 else e


def _bucket_edges(index: int) -> tuple[float, float]:
    if index <= _ZERO_BUCKET:
        return (0.0, 0.0)
    return (math.ldexp(1.0, index - 1), math.ldexp(1.0, index))


def _estimate_percentiles(count: int, minimum: float | None,
                          maximum: float | None, buckets: dict[int, int],
                          qs: tuple[float, ...] = (0.5, 0.95, 0.99),
                          ) -> dict[str, float]:
    """Percentile estimates from a log2-bucketed distribution.

    Walks the cumulative bucket counts to the target rank, then
    interpolates linearly inside the landing bucket ``(2**(j-1), 2**j]``
    and clamps to the exact observed ``[min, max]`` — so a single-sample
    histogram reports that sample for every quantile, and estimates can
    never leave the observed range.  Worst-case bucket-shape error is
    2× (one bucket spans a factor of two), which is plenty for tail
    *gating* (a real p95 regression moves buckets, not fractions).
    """
    out: dict[str, float] = {}
    ordered = sorted(buckets.items())
    lo_clamp = minimum if minimum is not None else 0.0
    hi_clamp = maximum if maximum is not None else 0.0
    for q in qs:
        key = f"p{q * 100:g}"
        if count <= 0 or not ordered:
            out[key] = 0.0
            continue
        rank = q * count
        cum = 0
        estimate = hi_clamp
        for index, n in ordered:
            cum += n
            if cum >= rank and n > 0:
                lo, hi = _bucket_edges(index)
                frac = (rank - (cum - n)) / n
                estimate = lo + frac * (hi - lo)
                break
        out[key] = min(max(estimate, lo_clamp), hi_clamp)
    return out


class Histogram:
    """Distribution of observed values in power-of-two buckets.

    Tracks ``count``/``sum``/``min``/``max`` exactly and the shape in
    log2 buckets (bucket *j* holds values ``v`` with ``2**(j-1) < v <=
    2**j``; negative *j* covers fractions, so sub-second durations keep
    their shape; ``v <= 0`` collapses into a sentinel bottom bucket).
    Cheap enough for per-phase durations and per-function sizes; not
    meant for per-instruction use.
    """

    __slots__ = ("name", "count", "sum", "min", "max", "buckets", "_lock")

    def __init__(self, name: str, lock: threading.RLock) -> None:
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self.buckets: dict[int, int] = {}
        self._lock = lock

    def observe(self, value: float, n: int = 1) -> None:
        """Record *value*; *n* > 1 records it *n* times in one locked
        update (bulk path for per-run aggregates like superblock
        residency, where one length is observed thousands of times)."""
        with self._lock:
            self.count += n
            self.sum += value * n
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            bucket = _bucket_index(value)
            self.buckets[bucket] = self.buckets.get(bucket, 0) + n

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentiles(self, qs: tuple[float, ...] = (0.5, 0.95, 0.99),
                    ) -> dict[str, float]:
        """Estimated quantiles (``{"p50": ..., "p95": ..., "p99": ...}``);
        see :func:`_estimate_percentiles` for accuracy bounds."""
        with self._lock:
            return _estimate_percentiles(self.count, self.min, self.max,
                                         dict(self.buckets), qs)


class LabeledCounter:
    """A family of counters keyed by one label value (e.g. the sampled
    hot-PC histogram ``sim.hot_pc{pc="0x400120"}``)."""

    __slots__ = ("name", "values", "_lock")

    def __init__(self, name: str, lock: threading.RLock) -> None:
        self.name = name
        self.values: dict[str, int] = {}
        self._lock = lock

    def inc(self, label: str, amount: int = 1) -> None:
        with self._lock:
            self.values[label] = self.values.get(label, 0) + amount

    def top(self, n: int = 10) -> list[tuple[str, int]]:
        """The *n* largest (label, count) pairs, descending."""
        with self._lock:
            items = sorted(self.values.items(),
                           key=lambda kv: kv[1], reverse=True)
        return items[:n]


# --------------------------------------------------------------------------
# spans
# --------------------------------------------------------------------------

@dataclass
class SpanRecord:
    """One completed wall-clock span."""

    name: str                     #: e.g. ``"bcc.parse"``
    category: str                 #: coarse grouping (``compile``/``sim``/...)
    start_us: int                 #: microseconds since telemetry epoch
    duration_us: int
    span_id: int
    parent_id: int                #: 0 = root
    depth: int                    #: 1 = root span
    thread_id: int
    args: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.duration_us / 1e6


class _NullContext:
    """Reusable no-op context manager for disabled telemetry."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class _NullCounter:
    __slots__ = ()
    name = "<disabled>"
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    name = "<disabled>"
    value = 0.0

    def set(self, value: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    name = "<disabled>"
    count = 0
    sum = 0.0
    min = None
    max = None
    mean = 0.0
    buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        pass

    def percentiles(self, qs: tuple[float, ...] = (0.5, 0.95, 0.99),
                    ) -> dict[str, float]:
        return {f"p{q * 100:g}": 0.0 for q in qs}


class _NullLabeledCounter:
    __slots__ = ()
    name = "<disabled>"
    values: dict[str, int] = {}

    def inc(self, label: str, amount: int = 1) -> None:
        pass

    def top(self, n: int = 10) -> list[tuple[str, int]]:
        return []


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()
_NULL_LABELED = _NullLabeledCounter()


# --------------------------------------------------------------------------
# mergeable snapshots (the parallel harness's shard-result currency)
# --------------------------------------------------------------------------

@dataclass
class HistogramState:
    """Plain-data image of one :class:`Histogram` (picklable, lock-free)."""

    count: int = 0
    sum: float = 0.0
    min: float | None = None
    max: float | None = None
    buckets: dict[int, int] = field(default_factory=dict)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentiles(self, qs: tuple[float, ...] = (0.5, 0.95, 0.99),
                    ) -> dict[str, float]:
        """Estimated quantiles; same math as :meth:`Histogram.percentiles`."""
        return _estimate_percentiles(self.count, self.min, self.max,
                                     self.buckets, qs)


@dataclass
class TelemetrySnapshot:
    """A picklable, *mergeable* image of one :class:`Telemetry` sink.

    This is how parallel shard workers report telemetry back to the
    parent process: the worker records into its own private sink, calls
    :meth:`Telemetry.snapshot` at the end of the job, and ships the
    snapshot (plain dataclasses all the way down — no locks, no thread
    state) inside its result.  The parent folds every shard into its own
    sink with :meth:`Telemetry.merge_snapshot`, which sums counters,
    peak-merges gauges, pointwise-adds histograms, and re-parents the
    shard's span forest under whatever span is currently open (the
    harness opens a ``parallel:shard`` span per worker result).
    """

    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, HistogramState] = field(default_factory=dict)
    labeled: dict[str, dict[str, int]] = field(default_factory=dict)
    spans: list[SpanRecord] = field(default_factory=list)
    spans_dropped: int = 0

    @property
    def empty(self) -> bool:
        return not (self.counters or self.gauges or self.histograms
                    or self.labeled or self.spans)


# --------------------------------------------------------------------------
# the registry
# --------------------------------------------------------------------------

class Telemetry:
    """Thread-safe registry of metrics plus hierarchical spans.

    Parameters
    ----------
    enabled:
        ``False`` produces a *disabled* sink: every recording method is a
        no-op returning shared null instruments, and ``span()`` yields a
        shared null context manager.  This is the process default.
    max_spans:
        Memory bound on recorded spans; past it new spans are dropped
        (counted in ``telemetry.spans_dropped``) rather than growing
        without bound.
    """

    def __init__(self, enabled: bool = True, max_spans: int = 200_000) -> None:
        self.enabled = enabled
        self.max_spans = max_spans
        self.epoch = perf_counter()
        self.spans: list[SpanRecord] = []
        self.spans_dropped = 0
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._labeled: dict[str, LabeledCounter] = {}
        self._lock = threading.RLock()
        self._tls = threading.local()
        self._next_span_id = 1

    # -- instruments -------------------------------------------------------

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _NULL_COUNTER
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter(name, self._lock)
        return metric

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return _NULL_GAUGE
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge(name, self._lock)
        return metric

    def histogram(self, name: str) -> Histogram:
        if not self.enabled:
            return _NULL_HISTOGRAM
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram(name, self._lock)
        return metric

    def labeled_counter(self, name: str) -> LabeledCounter:
        if not self.enabled:
            return _NULL_LABELED
        with self._lock:
            metric = self._labeled.get(name)
            if metric is None:
                metric = self._labeled[name] = LabeledCounter(name, self._lock)
        return metric

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    @contextmanager
    def _span_cm(self, name: str, category: str, args: dict):
        stack = self._stack()
        with self._lock:
            span_id = self._next_span_id
            self._next_span_id += 1
        parent_id = stack[-1][0] if stack else 0
        depth = len(stack) + 1
        stack.append((span_id, depth))
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            record = SpanRecord(
                name=name, category=category,
                start_us=int((start - self.epoch) * 1e6),
                duration_us=int((end - start) * 1e6),
                span_id=span_id, parent_id=parent_id, depth=depth,
                thread_id=threading.get_ident(), args=args)
            with self._lock:
                if len(self.spans) < self.max_spans:
                    self.spans.append(record)
                else:
                    self.spans_dropped += 1

    def span(self, name: str, category: str = "pipeline", **args):
        """Context manager timing one hierarchical wall-clock span.

        Nesting is tracked per thread; exporters reconstruct the tree
        from ``parent_id``/``depth``.  ``**args`` become span attributes
        (Chrome trace ``args``, JSONL fields).
        """
        if not self.enabled:
            return _NULL_CONTEXT
        return self._span_cm(name, category, args)

    # -- introspection -----------------------------------------------------

    def counters(self) -> dict[str, int]:
        with self._lock:
            return {name: c.value for name, c in sorted(self._counters.items())}

    def gauges(self) -> dict[str, float]:
        with self._lock:
            return {name: g.value for name, g in sorted(self._gauges.items())}

    def histograms(self) -> dict[str, Histogram]:
        with self._lock:
            return dict(sorted(self._histograms.items()))

    def labeled_counters(self) -> dict[str, LabeledCounter]:
        with self._lock:
            return dict(sorted(self._labeled.items()))

    def span_aggregates(self) -> dict[str, dict[str, float]]:
        """Per-span-name aggregates: count, total/mean/max seconds."""
        with self._lock:
            spans = list(self.spans)
        agg: dict[str, dict[str, float]] = {}
        for span in spans:
            entry = agg.setdefault(span.name, {
                "count": 0, "total_s": 0.0, "max_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += span.duration_s
            entry["max_s"] = max(entry["max_s"], span.duration_s)
        for entry in agg.values():
            entry["mean_s"] = entry["total_s"] / entry["count"]
        return dict(sorted(agg.items()))

    def max_span_depth(self) -> int:
        with self._lock:
            return max((s.depth for s in self.spans), default=0)

    # -- snapshots / merging -----------------------------------------------

    def current_span_id(self) -> int:
        """Id of the innermost open span on this thread (0 = none)."""
        stack = self._stack()
        return stack[-1][0] if stack else 0

    def _current_depth(self) -> int:
        stack = self._stack()
        return stack[-1][1] if stack else 0

    def snapshot(self) -> TelemetrySnapshot:
        """A picklable, mergeable image of this sink's current state.

        Disabled sinks return an empty snapshot.  The image is deep
        enough that later mutation of this sink never leaks into it.
        """
        if not self.enabled:
            return TelemetrySnapshot()
        with self._lock:
            return TelemetrySnapshot(
                counters={n: c.value for n, c in
                          sorted(self._counters.items())},
                gauges={n: g.value for n, g in sorted(self._gauges.items())},
                histograms={
                    n: HistogramState(h.count, h.sum, h.min, h.max,
                                      dict(h.buckets))
                    for n, h in sorted(self._histograms.items())},
                labeled={n: dict(lc.values) for n, lc in
                         sorted(self._labeled.items())},
                spans=list(self.spans),
                spans_dropped=self.spans_dropped,
            )

    def merge_snapshot(self, snapshot: TelemetrySnapshot,
                       start_offset_us: int = 0) -> None:
        """Fold a worker *snapshot* into this sink (deterministically).

        * counters and labeled counters are **summed**;
        * gauges are **peak-merged** (``max``), so merge order across
          shards cannot change the result;
        * histograms are pointwise-added (count/sum/buckets summed,
          min/max widened);
        * spans get fresh ids and are **re-parented**: snapshot roots
          (``parent_id == 0``) become children of the innermost span
          currently open on this thread, depths shift accordingly, and
          every start time is displaced by *start_offset_us* (the
          parent-clock offset of the shard — worker spans are recorded
          against the worker's own epoch).

        No-op on a disabled sink.
        """
        if not self.enabled:
            return
        for name, value in sorted(snapshot.counters.items()):
            self.counter(name).inc(value)
        for name, value in sorted(snapshot.gauges.items()):
            gauge = self.gauge(name)
            with self._lock:
                gauge.value = max(gauge.value, float(value))
        for name, state in sorted(snapshot.histograms.items()):
            histogram = self.histogram(name)
            with self._lock:
                histogram.count += state.count
                histogram.sum += state.sum
                for bound in (state.min, ):
                    if bound is not None and (histogram.min is None
                                              or bound < histogram.min):
                        histogram.min = bound
                for bound in (state.max, ):
                    if bound is not None and (histogram.max is None
                                              or bound > histogram.max):
                        histogram.max = bound
                for bucket, count in sorted(state.buckets.items()):
                    histogram.buckets[bucket] = (
                        histogram.buckets.get(bucket, 0) + count)
        for name, values in sorted(snapshot.labeled.items()):
            labeled = self.labeled_counter(name)
            for label, count in sorted(values.items()):
                labeled.inc(label, count)
        if snapshot.spans:
            parent = self.current_span_id()
            depth_shift = self._current_depth()
            with self._lock:
                base = self._next_span_id
                self._next_span_id += len(snapshot.spans)
            id_map = {record.span_id: base + i
                      for i, record in enumerate(snapshot.spans)}
            for record in snapshot.spans:
                adopted = SpanRecord(
                    name=record.name, category=record.category,
                    start_us=record.start_us + start_offset_us,
                    duration_us=record.duration_us,
                    span_id=id_map[record.span_id],
                    parent_id=id_map.get(record.parent_id, parent),
                    depth=record.depth + depth_shift,
                    thread_id=record.thread_id,
                    args=dict(record.args))
                with self._lock:
                    if len(self.spans) < self.max_spans:
                        self.spans.append(adopted)
                    else:
                        self.spans_dropped += 1
        with self._lock:
            self.spans_dropped += snapshot.spans_dropped


# --------------------------------------------------------------------------
# the injection seam
# --------------------------------------------------------------------------

_DISABLED = Telemetry(enabled=False)
_active = _DISABLED
_seam_lock = threading.Lock()


def get() -> Telemetry:
    """The process-wide active telemetry sink (disabled no-op by default).

    This is the single seam every instrumented layer goes through; see
    the module docstring.
    """
    return _active


def install(telemetry: Telemetry | None) -> Telemetry:
    """Install *telemetry* as the active sink (``None`` restores the
    disabled default); returns the previously active sink."""
    global _active
    with _seam_lock:
        previous = _active
        _active = telemetry if telemetry is not None else _DISABLED
    return previous


@contextmanager
def use(telemetry: Telemetry):
    """Scoped :func:`install`: active within the ``with`` block only."""
    previous = install(telemetry)
    try:
        yield telemetry
    finally:
        install(previous)
