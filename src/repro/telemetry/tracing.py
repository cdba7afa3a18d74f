"""Distributed tracing: one causal identity across processes and tiers.

The prediction service executes one job in (at least) four places — the
HTTP front end, the asyncio engine, a forked worker process, and the
shared artifact store — each of which reports telemetry into its *own*
sink.  PR 6 made the service fault-tolerant but left those reports
unjoined: "why was this prediction slow?" had no answer because no
identity crossed the process boundary.  This module supplies that
identity and the plumbing to carry it:

* :class:`TraceContext` — a W3C-trace-context-shaped identity
  (``trace_id`` + ``span_id`` + ``parent_id``), minted at HTTP ingress
  (honoring an inbound ``traceparent`` header so external callers can
  stitch the service into *their* traces) and carried on
  :class:`~repro.service.jobs.JobRecord` /
  :class:`~repro.harness.parallel.ShardJob`;
* :class:`TraceSpan` — a plain-data, picklable, **wall-clock** span
  (``time.time()`` start, not a per-process ``perf_counter`` epoch), so
  spans recorded in a forked worker land on the same absolute timeline
  as the engine's without cross-process clock stitching;
* a thread-local *active context* (:func:`activate` / :func:`current`)
  that (a) collects :func:`span` timings into a per-job list the worker
  ships back inside its :class:`~repro.harness.parallel.ShardResult`,
  and (b) lets :class:`~repro.telemetry.core.Telemetry` tag every
  ordinary span with the active ``trace_id`` — which survives
  :meth:`~repro.telemetry.core.Telemetry.merge_snapshot` verbatim, so
  worker sinks re-stitch into the parent's at snapshot-merge time;
* :func:`timeline` — the ``GET /jobs/<id>/trace`` body: the ordered
  span list plus non-overlapping segment accounting
  (``queue_wait_s + dispatch_s + exec_s ≈ end-to-end``).

Everything here is inert unless a context is activated: :func:`span`
with no active context is a shared no-op, so batch harness runs pay
nothing.
"""

from __future__ import annotations

import os
import re
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

__all__ = [
    "TraceContext", "TraceSpan", "activate", "current", "span",
    "manual_span", "timeline", "parse_traceparent", "SEGMENT_NAMES",
]

#: ``version-trace_id-span_id-flags`` per the W3C trace-context spec
_TRACEPARENT_RE = re.compile(
    r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$")

#: timeline segment span names -> the ``segments`` key they accumulate in
SEGMENT_NAMES = {
    "queue_wait": "queue_wait_s",
    "dispatch": "dispatch_s",
    "exec": "exec_s",
    "retry_backoff": "retry_backoff_s",
}


def _hex_id(nbytes: int) -> str:
    return os.urandom(nbytes).hex()


@dataclass(frozen=True)
class TraceContext:
    """One position in a distributed trace (immutable, picklable).

    ``trace_id`` is shared by every span of one causal chain;
    ``span_id`` names the position itself; ``parent_id`` links upward
    (``""`` at the root).  The wire form is the W3C ``traceparent``
    header, so any W3C-speaking client or proxy interoperates.
    """

    trace_id: str            #: 32 lowercase hex chars
    span_id: str             #: 16 lowercase hex chars
    parent_id: str = ""      #: 16 hex chars, or "" for a root

    @classmethod
    def mint(cls) -> "TraceContext":
        """A fresh root context (new trace, new root span)."""
        return cls(trace_id=_hex_id(16), span_id=_hex_id(8))

    def child(self) -> "TraceContext":
        """A child position: same trace, new span, parented here."""
        return TraceContext(trace_id=self.trace_id, span_id=_hex_id(8),
                            parent_id=self.span_id)

    @property
    def traceparent(self) -> str:
        """The W3C ``traceparent`` header value for this position."""
        return f"00-{self.trace_id}-{self.span_id}-01"


def parse_traceparent(header: str | None) -> TraceContext | None:
    """Parse an inbound ``traceparent`` header into a *continuation*
    context: same trace, a fresh span parented on the caller's span.

    Returns ``None`` for anything malformed (wrong shape, non-hex,
    all-zero ids, the reserved ``ff`` version) — the caller mints a
    fresh root instead; a bad header can cost trace continuity, never
    a request.
    """
    if not header or not isinstance(header, str):
        return None
    match = _TRACEPARENT_RE.match(header.strip().lower())
    if match is None:
        return None
    version, trace_id, span_id, _flags = match.groups()
    if version == "ff":
        return None
    if trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    return TraceContext(trace_id=trace_id, span_id=_hex_id(8),
                        parent_id=span_id)


@dataclass
class TraceSpan:
    """One completed wall-clock span of a distributed trace.

    Unlike :class:`~repro.telemetry.core.SpanRecord` (microseconds since
    a per-process ``perf_counter`` epoch), a ``TraceSpan`` is anchored
    at absolute ``time.time()`` — spans recorded in different processes
    compare directly.  Durations still come from ``perf_counter`` so
    they are monotonic.
    """

    name: str                #: e.g. ``"worker.simulate"``
    tier: str                #: ingress | queue | service | worker | cache
    trace_id: str
    span_id: str
    parent_id: str
    start_s: float           #: wall clock (``time.time()``)
    duration_s: float
    process: str = ""        #: e.g. ``"service"`` / ``"worker:4711"``
    args: dict = field(default_factory=dict)

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def to_dict(self) -> dict:
        out = {
            "name": self.name, "tier": self.tier,
            "trace_id": self.trace_id, "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": round(self.start_s, 6),
            "duration_s": round(self.duration_s, 6),
            "process": self.process,
        }
        if self.args:
            out["args"] = dict(self.args)
        return out


# --------------------------------------------------------------------------
# thread-local active context + span collection
# --------------------------------------------------------------------------

_tls = threading.local()


def _stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def current() -> TraceContext | None:
    """The innermost active trace context on this thread (or ``None``)."""
    stack = _stack()
    return stack[-1][0] if stack else None


@contextmanager
def activate(ctx: TraceContext | None, process: str = ""):
    """Make *ctx* the active context for the ``with`` block and collect
    every :func:`span` recorded under it.  Yields the collector list
    (populated as spans close).  ``None`` deactivates: :func:`span`
    becomes a no-op and the yielded list stays empty.
    """
    spans: list[TraceSpan] = []
    if ctx is None:
        yield spans
        return
    stack = _stack()
    stack.append((ctx, spans, process or f"pid:{os.getpid()}"))
    try:
        yield spans
    finally:
        stack.pop()


@contextmanager
def span(name: str, tier: str, **args):
    """Time one wall-clock span under the active context (no-op when no
    context is active).  Nested spans parent correctly: the span becomes
    the active position for its dynamic extent.
    """
    stack = _stack()
    if not stack:
        yield None
        return
    ctx, spans, process = stack[-1]
    child = ctx.child()
    stack.append((child, spans, process))
    wall = time.time()
    start = perf_counter()
    try:
        yield child
    finally:
        duration = perf_counter() - start
        stack.pop()
        spans.append(TraceSpan(
            name=name, tier=tier, trace_id=child.trace_id,
            span_id=child.span_id, parent_id=child.parent_id,
            start_s=wall, duration_s=duration, process=process,
            args=args))


def manual_span(ctx: TraceContext, name: str, tier: str, start_s: float,
                end_s: float, process: str = "service",
                parent_id: str | None = None, **args) -> TraceSpan:
    """A span built from explicit wall-clock timestamps (the engine
    reconstructs ``queue_wait`` retroactively — the job was not *doing*
    anything while queued, so nothing could have timed it live).
    Parented on *ctx* unless *parent_id* overrides.
    """
    return TraceSpan(
        name=name, tier=tier, trace_id=ctx.trace_id, span_id=_hex_id(8),
        parent_id=ctx.span_id if parent_id is None else parent_id,
        start_s=start_s, duration_s=max(0.0, end_s - start_s),
        process=process, args=args)


# --------------------------------------------------------------------------
# timelines (the /jobs/<id>/trace body)
# --------------------------------------------------------------------------

def timeline(trace_id: str, spans: list[TraceSpan],
             total_s: float | None = None) -> dict:
    """Assemble one job's spans into the wire-format trace timeline.

    ``segments`` carries the non-overlapping accounting the acceptance
    criterion checks: ``queue_wait_s + dispatch_s + exec_s`` (plus any
    ``retry_backoff_s``) should approximate ``total_s``.  Worker and
    cache spans nest *inside* ``exec`` and are listed, never added.
    """
    ordered = sorted((s for s in spans if s.trace_id == trace_id),
                     key=lambda s: (s.start_s, s.span_id))
    segments = {key: 0.0 for key in SEGMENT_NAMES.values()}
    for record in ordered:
        key = SEGMENT_NAMES.get(record.name)
        if key is not None:
            segments[key] += record.duration_s
    accounted = sum(segments.values())
    segments = {k: round(v, 6) for k, v in segments.items()}
    segments["accounted_s"] = round(accounted, 6)
    if total_s is not None:
        segments["total_s"] = round(total_s, 6)
    return {
        "trace_id": trace_id,
        "tiers": sorted({s.tier for s in ordered}),
        "segments": segments,
        "spans": [s.to_dict() for s in ordered],
    }
