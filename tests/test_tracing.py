"""Distributed tracing + flight recorder invariants (PR 7).

Property-based coverage of the three load-bearing mechanisms:

* W3C ``traceparent`` parse/mint round-trips (continuation keeps the
  trace, malformed headers degrade to a fresh root — never an error);
* the flight-recorder ring keeps exactly the last *capacity* events in
  sequence order through arbitrary wraparound;
* snapshot merge re-stitches worker telemetry into the parent sink with
  every span's ``trace_id`` tag intact — the property that makes one
  trace span the fork boundary.
"""

from __future__ import annotations

import string

from hypothesis import given, settings, strategies as st

from repro import telemetry as _telemetry
from repro.telemetry import tracing
from repro.telemetry.core import Telemetry
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.tracing import (
    TraceContext, parse_traceparent, timeline,
)

_hex = st.text(alphabet="0123456789abcdef", min_size=32, max_size=32)
_hex16 = st.text(alphabet="0123456789abcdef", min_size=16, max_size=16)


# -- traceparent ------------------------------------------------------------


class TestTraceparent:
    @given(trace_id=_hex, span_id=_hex16)
    @settings(max_examples=50)
    def test_round_trip_keeps_trace_parents_on_caller(self, trace_id,
                                                      span_id):
        header = f"00-{trace_id}-{span_id}-01"
        ctx = parse_traceparent(header)
        if trace_id == "0" * 32 or span_id == "0" * 16:
            assert ctx is None  # all-zero ids are invalid per the spec
            return
        assert ctx.trace_id == trace_id
        assert ctx.parent_id == span_id
        assert ctx.span_id != span_id and len(ctx.span_id) == 16

    def test_mint_emit_parse_round_trip(self):
        root = TraceContext.mint()
        cont = parse_traceparent(root.traceparent)
        assert cont.trace_id == root.trace_id
        assert cont.parent_id == root.span_id

    @given(st.text(alphabet=string.printable, max_size=64))
    @settings(max_examples=50)
    def test_arbitrary_garbage_never_raises(self, header):
        ctx = parse_traceparent(header)
        if ctx is not None:  # only a perfectly-shaped header parses
            assert len(ctx.trace_id) == 32

    def test_rejects(self):
        root = TraceContext.mint()
        bad = [None, "", "not-a-header",
               f"ff-{root.trace_id}-{root.span_id}-01",     # version ff
               f"00-{'0' * 32}-{root.span_id}-01",          # zero trace
               f"00-{root.trace_id}-{'0' * 16}-01",         # zero span
               f"00-{root.trace_id[:-1]}-{root.span_id}-01"]
        assert all(parse_traceparent(h) is None for h in bad)

    def test_child_shares_trace_links_parent(self):
        root = TraceContext.mint()
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id


# -- flight recorder --------------------------------------------------------


class TestFlightRecorder:
    @given(capacity=st.integers(min_value=1, max_value=64),
           n=st.integers(min_value=0, max_value=300))
    @settings(max_examples=50)
    def test_ring_keeps_last_capacity_in_seq_order(self, capacity, n):
        ring = FlightRecorder(capacity=capacity)
        for i in range(n):
            ring.record("event", index=i)
        dump = ring.dump()
        assert len(dump) == min(n, capacity)
        seqs = [e["seq"] for e in dump]
        assert seqs == sorted(seqs)
        # exactly the most recent events survive wraparound
        assert [e["index"] for e in dump] == list(range(max(0, n - capacity),
                                                        n))

    def test_capacity_zero_disables(self):
        ring = FlightRecorder(capacity=0)
        ring.record("event", index=1)
        assert not ring.enabled and ring.dump() == []

    def test_trace_id_filled_from_active_context(self):
        ring = FlightRecorder(capacity=8)
        ctx = TraceContext.mint()
        with tracing.activate(ctx):
            ring.record("inside")
        ring.record("outside")
        dump = {e["kind"]: e for e in ring.dump()}
        assert dump["inside"]["trace_id"] == ctx.trace_id
        assert "trace_id" not in dump["outside"]


# -- cross-process re-stitching ---------------------------------------------


def _worker_sink(ctx: TraceContext, worker: int):
    """One simulated forked worker: records under its own private sink
    and an activated trace context, returns (snapshot, trace spans)."""
    sink = Telemetry(enabled=True)
    with _telemetry.use(sink):
        with tracing.activate(ctx, process=f"worker:{worker}") as spans:
            with tracing.span("worker.simulate", "worker", shard=worker):
                pass
            with sink.span(f"run:{worker}", category="harness"):
                pass
    return sink.snapshot(), spans


class TestMergeStitching:
    @given(n=st.integers(min_value=1, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_merge_preserves_each_workers_trace_id(self, n):
        parent = Telemetry(enabled=True)
        contexts = [TraceContext.mint() for _ in range(n)]
        all_spans = []
        for worker, ctx in enumerate(contexts):
            snapshot, spans = _worker_sink(ctx, worker)
            parent.merge_snapshot(snapshot)
            all_spans.extend(spans)
        # metric spans: the trace_id tag survived the merge verbatim
        merged = {s.args.get("trace_id") for s in parent.spans}
        assert merged == {ctx.trace_id for ctx in contexts}
        # trace spans: each context's timeline sees exactly its own span
        for ctx in contexts:
            body = timeline(ctx.trace_id, all_spans)
            assert len(body["spans"]) == 1
            assert body["spans"][0]["trace_id"] == ctx.trace_id
            assert body["tiers"] == ["worker"]

    def test_span_args_unchanged_without_active_context(self):
        # the trace_id tag must never leak into untraced batch runs
        sink = Telemetry(enabled=True)
        with sink.span("compile", benchmark="queens"):
            pass
        assert sink.spans[0].args == {"benchmark": "queens"}


# -- timeline accounting ----------------------------------------------------


class TestTimeline:
    def test_segments_account_queue_dispatch_exec_not_lease(self):
        ctx = TraceContext.mint()
        spans = [
            tracing.manual_span(ctx, "queue_wait", "queue", 0.0, 1.0),
            tracing.manual_span(ctx, "dispatch", "service", 1.0, 1.5),
            tracing.manual_span(ctx, "exec", "service", 1.5, 4.0),
            tracing.manual_span(ctx, "cache.get", "cache", 2.0, 3.0),
            tracing.manual_span(ctx, "retry_backoff", "service", 4.0, 4.25),
        ]
        body = timeline(ctx.trace_id, spans, total_s=4.25)
        seg = body["segments"]
        assert seg["queue_wait_s"] == 1.0
        # the cache lookup happens *inside* exec: listed, never
        # double-counted
        assert "cache.get" in [s["name"] for s in body["spans"]]
        assert seg["accounted_s"] == 1.0 + 0.5 + 2.5 + 0.25
        assert seg["total_s"] == 4.25
        assert body["tiers"] == ["cache", "queue", "service"]

    def test_foreign_trace_spans_filtered(self):
        mine, theirs = TraceContext.mint(), TraceContext.mint()
        spans = [tracing.manual_span(mine, "exec", "service", 0.0, 1.0),
                 tracing.manual_span(theirs, "exec", "service", 0.0, 9.0)]
        body = timeline(mine.trace_id, spans)
        assert len(body["spans"]) == 1
        assert body["segments"]["exec_s"] == 1.0

    def test_nested_spans_parent_correctly(self):
        ctx = TraceContext.mint()
        with tracing.activate(ctx) as spans:
            with tracing.span("outer", "worker"):
                with tracing.span("inner", "worker"):
                    pass
        by_name = {s.name: s for s in spans}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].parent_id == ctx.span_id
