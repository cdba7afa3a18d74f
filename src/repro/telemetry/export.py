"""Telemetry exporters: Chrome trace JSON, JSONL, Prometheus text, summary.

Four formats, one source of truth (:class:`~repro.telemetry.Telemetry`):

* :func:`to_chrome_trace` — Chrome trace-event format (the ``{"traceEvents":
  [...]}`` object form) loadable in Perfetto / ``chrome://tracing``; spans
  become complete (``"ph": "X"``) events.
* :func:`to_jsonl` — newline-delimited JSON event log (one span or metric
  per line), greppable and streamable.
* :func:`to_prometheus` — Prometheus text exposition (``repro_`` namespace,
  dots mapped to underscores) for scraping or pushgateway upload.
* :func:`summary_table` — human-readable report: span aggregates, counters,
  gauges, histogram stats, hottest sampled PCs.

:func:`write_report` writes all of them plus a run manifest and the
machine-readable ``telemetry.json`` summary consumed by
``python -m repro.telemetry diff``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.telemetry.core import Telemetry
from repro.telemetry.manifest import run_manifest

__all__ = [
    "to_chrome_trace",
    "to_jsonl",
    "to_prometheus",
    "summary_table",
    "summary_dict",
    "slo_summary",
    "write_report",
    "REPORT_FILES",
    "BENCH_SCHEMA",
]

BENCH_SCHEMA = "repro.telemetry.bench/v1"

#: Files produced by :func:`write_report` (name -> description).
REPORT_FILES = {
    "trace.json": "Chrome trace-event JSON (open in Perfetto)",
    "events.jsonl": "JSONL event log",
    "metrics.prom": "Prometheus text exposition",
    "summary.txt": "human-readable summary table",
    "manifest.json": "run provenance manifest",
    "telemetry.json": "machine-readable summary (diff/baseline input)",
}


# --------------------------------------------------------------------------
# Chrome trace-event format
# --------------------------------------------------------------------------

def to_chrome_trace(telemetry: Telemetry,
                    process_name: str = "repro-pipeline") -> dict:
    """The trace as a Chrome trace-event JSON object.

    Spans are emitted as complete events (``ph: "X"``) with microsecond
    timestamps relative to the telemetry epoch; counters are attached as
    a final counter (``ph: "C"``) sample so they show up as tracks.
    """
    events: list[dict] = [{
        "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
        "args": {"name": process_name},
    }]
    threads = {}
    for span in telemetry.spans:
        tid = threads.setdefault(span.thread_id, len(threads) + 1)
        args = {str(k): v for k, v in span.args.items()}
        args["depth"] = span.depth
        events.append({
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": span.start_us,
            "dur": span.duration_us,
            "pid": 1,
            "tid": tid,
            "args": args,
        })
    counters = telemetry.counters()
    if counters:
        last_us = max((s.start_us + s.duration_us for s in telemetry.spans),
                      default=0)
        events.append({
            "name": "counters", "ph": "C", "ts": last_us, "pid": 1,
            "tid": 0, "args": {k: v for k, v in counters.items()},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# --------------------------------------------------------------------------
# JSONL event log
# --------------------------------------------------------------------------

def to_jsonl(telemetry: Telemetry) -> str:
    """One JSON object per line: spans first (in start order), then the
    final metric values."""
    lines = []
    for span in sorted(telemetry.spans, key=lambda s: s.start_us):
        lines.append(json.dumps({
            "event": "span", "name": span.name, "cat": span.category,
            "start_us": span.start_us, "duration_us": span.duration_us,
            "span_id": span.span_id, "parent_id": span.parent_id,
            "depth": span.depth, "args": span.args,
        }, sort_keys=True))
    for name, value in telemetry.counters().items():
        lines.append(json.dumps(
            {"event": "counter", "name": name, "value": value},
            sort_keys=True))
    for name, value in telemetry.gauges().items():
        lines.append(json.dumps(
            {"event": "gauge", "name": name, "value": value},
            sort_keys=True))
    for name, hist in telemetry.histograms().items():
        lines.append(json.dumps({
            "event": "histogram", "name": name, "count": hist.count,
            "sum": hist.sum, "min": hist.min, "max": hist.max,
            "buckets": {str(k): v for k, v in sorted(hist.buckets.items())},
        }, sort_keys=True))
    for name, fam in telemetry.labeled_counters().items():
        lines.append(json.dumps({
            "event": "labeled_counter", "name": name,
            "values": dict(sorted(fam.values.items())),
        }, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


# --------------------------------------------------------------------------
# Prometheus text exposition
# --------------------------------------------------------------------------

_PROM_BAD = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str) -> str:
    return "repro_" + _PROM_BAD.sub("_", name)


def to_prometheus(telemetry: Telemetry) -> str:
    """Prometheus text exposition format (version 0.0.4)."""
    lines: list[str] = []
    for name, value in telemetry.counters().items():
        metric = _prom_name(name) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {value}")
    for name, value in telemetry.gauges().items():
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {value}")
    for name, hist in telemetry.histograms().items():
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} summary")
        for key, value in hist.percentiles().items():
            quantile = float(key[1:]) / 100.0
            lines.append(f'{metric}{{quantile="{quantile:g}"}} {value:.6g}')
        lines.append(f"{metric}_count {hist.count}")
        lines.append(f"{metric}_sum {hist.sum}")
    for name, fam in telemetry.labeled_counters().items():
        metric = _prom_name(name) + "_total"
        lines.append(f"# TYPE {metric} counter")
        for label, value in sorted(fam.values.items()):
            lines.append(f'{metric}{{key="{label}"}} {value}')
    for name, agg in telemetry.span_aggregates().items():
        metric = _prom_name("span." + name) + "_seconds"
        lines.append(f"# TYPE {metric} summary")
        lines.append(f"{metric}_count {int(agg['count'])}")
        lines.append(f"{metric}_sum {agg['total_s']:.6f}")
    return "\n".join(lines) + ("\n" if lines else "")


# --------------------------------------------------------------------------
# human summary + machine summary
# --------------------------------------------------------------------------

def summary_table(telemetry: Telemetry, top_pcs: int = 10) -> str:
    """Fixed-width human summary of spans, metrics, and hot PCs."""
    out: list[str] = []
    agg = telemetry.span_aggregates()
    if agg:
        out.append("spans (wall clock):")
        out.append(f"  {'name':<36} {'count':>6} {'total':>10} "
                   f"{'mean':>10} {'max':>10}")
        for name, entry in sorted(agg.items(),
                                  key=lambda kv: -kv[1]["total_s"]):
            out.append(
                f"  {name:<36} {int(entry['count']):>6} "
                f"{entry['total_s']:>9.3f}s {entry['mean_s']:>9.4f}s "
                f"{entry['max_s']:>9.4f}s")
    counters = telemetry.counters()
    if counters:
        out.append("counters:")
        for name, value in counters.items():
            out.append(f"  {name:<44} {value:>14,}")
    gauges = telemetry.gauges()
    if gauges:
        out.append("gauges:")
        for name, value in gauges.items():
            out.append(f"  {name:<44} {value:>14,.1f}")
    for name, hist in telemetry.histograms().items():
        pct = hist.percentiles()
        out.append(f"histogram {name}: count={hist.count} "
                   f"mean={hist.mean:.2f} min={hist.min} max={hist.max} "
                   f"p50={pct['p50']:.4g} p95={pct['p95']:.4g} "
                   f"p99={pct['p99']:.4g}")
    for name, fam in telemetry.labeled_counters().items():
        top = fam.top(top_pcs)
        if top:
            out.append(f"top {name}:")
            for label, value in top:
                out.append(f"  {label:<44} {value:>14,}")
    if telemetry.spans_dropped:
        out.append(f"(!) {telemetry.spans_dropped} spans dropped "
                   f"past max_spans={telemetry.max_spans}")
    return "\n".join(out) + ("\n" if out else "")


def slo_summary(counters: dict[str, int]) -> dict[str, float]:
    """Derived rates from raw counters.

    Pure arithmetic over already-exported names, so it works identically
    on a live sink, a recorded ``telemetry.json``, or the committed
    baseline; missing counters read as 0 and empty denominators yield a
    rate of 0.0 rather than an error.

    * ``cache_hit_rate`` — artifact-cache hits / (hits + misses).
    * ``sim_trace_cache_hit_rate`` — Tier-1 superblock trace-cache hits
      / lookups (``sim.tier1.trace_cache_hits`` / ``..._misses``); low
      values mean simulation time is going to block formation, not
      block execution.
    """
    def count(name: str) -> float:
        return float(counters.get(name, 0))

    def rate(num: float, den: float) -> float:
        return round(num / den, 6) if den > 0 else 0.0

    hits = count("harness.artifact_cache.hit")
    misses = count("harness.artifact_cache.miss")
    trace_hits = count("sim.tier1.trace_cache_hits")
    trace_misses = count("sim.tier1.trace_cache_misses")
    return {
        "cache_hit_rate": rate(hits, hits + misses),
        "sim_trace_cache_hit_rate": rate(trace_hits,
                                         trace_hits + trace_misses),
    }


def summary_dict(telemetry: Telemetry, config: dict | None = None,
                 seed: int | None = None) -> dict:
    """Machine-readable summary — the ``telemetry.json`` /
    ``BENCH_pipeline.json`` payload consumed by the diff CLI."""
    counters = telemetry.counters()
    gauges = telemetry.gauges()
    histograms = {}
    for name, hist in telemetry.histograms().items():
        entry = {"count": hist.count, "sum": hist.sum, "mean": hist.mean,
                 "min": hist.min, "max": hist.max}
        entry.update(hist.percentiles())
        histograms[name] = entry
    return {
        "schema": BENCH_SCHEMA,
        "manifest": run_manifest(config, seed),
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
        "slo": slo_summary(counters),
        "spans": telemetry.span_aggregates(),
        "max_span_depth": telemetry.max_span_depth(),
        "spans_recorded": len(telemetry.spans),
        "spans_dropped": telemetry.spans_dropped,
    }


def write_report(telemetry: Telemetry, outdir: Path | str,
                 config: dict | None = None,
                 seed: int | None = None) -> dict[str, Path]:
    """Write every export format into *outdir*; returns name -> path.

    Files written are exactly :data:`REPORT_FILES`.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    trace = outdir / "trace.json"
    trace.write_text(json.dumps(to_chrome_trace(telemetry)) + "\n")
    paths["trace.json"] = trace

    events = outdir / "events.jsonl"
    events.write_text(to_jsonl(telemetry))
    paths["events.jsonl"] = events

    prom = outdir / "metrics.prom"
    prom.write_text(to_prometheus(telemetry))
    paths["metrics.prom"] = prom

    summary = outdir / "summary.txt"
    summary.write_text(summary_table(telemetry))
    paths["summary.txt"] = summary

    payload = summary_dict(telemetry, config, seed)
    manifest = outdir / "manifest.json"
    manifest.write_text(json.dumps(payload["manifest"], indent=2,
                                   sort_keys=True) + "\n")
    paths["manifest.json"] = manifest

    machine = outdir / "telemetry.json"
    machine.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    paths["telemetry.json"] = machine
    return paths
