"""End-to-end telemetry for the reproduction pipeline.

The paper's own contribution is measurement infrastructure (QPT edge
profiles, miss rates, IPBC); this package turns the same lens on the
pipeline itself: where wall-clock goes across compile → assemble →
simulate → analyze, which simulated PCs dominate interpreter time, and
whether a change regressed throughput.

Layout
------
:mod:`repro.telemetry.core`
    Metric registry (counters / gauges / histograms / labeled counters)
    plus hierarchical wall-clock spans, behind the single injection seam
    :func:`get` / :func:`install` / :func:`use` (no-op by default).
:mod:`repro.telemetry.export`
    Chrome trace-event JSON, JSONL event log, Prometheus text
    exposition, human summary, and the machine-readable summary used for
    baselines; :func:`write_report` emits all of them plus a manifest.
:mod:`repro.telemetry.manifest`
    Run provenance (git sha, interpreter, platform, seed, config hash).
:mod:`repro.telemetry.bench`
    Baseline loading/validation and regression diffing
    (``BENCH_pipeline.json``).
:mod:`repro.telemetry.logging_setup`
    Shared structured logging + ``--log-level``/``--quiet`` CLI flags.

Run ``python -m repro.telemetry --help`` for the summarize/diff/record
CLI, and see docs/observability.md for the metric catalog and span
hierarchy.
"""

from repro.telemetry.bench import (
    DiffResult, MalformedReport, Regression, diff_reports, load_report,
)
from repro.telemetry.core import (
    Counter, Gauge, Histogram, HistogramState, LabeledCounter, SpanRecord,
    Telemetry, TelemetrySnapshot, get, install, use,
)
from repro.telemetry.export import (
    BENCH_SCHEMA, REPORT_FILES, slo_summary, summary_dict, summary_table,
    to_chrome_trace, to_jsonl, to_prometheus, write_report,
)
from repro.telemetry.logging_setup import (
    add_logging_args, configure_from_args, get_logger, setup_logging,
)
from repro.telemetry.manifest import config_hash, run_manifest

__all__ = [
    "Counter", "Gauge", "Histogram", "HistogramState", "LabeledCounter",
    "SpanRecord", "Telemetry", "TelemetrySnapshot", "get", "install", "use",
    "to_chrome_trace", "to_jsonl", "to_prometheus", "summary_table",
    "summary_dict", "slo_summary", "write_report", "REPORT_FILES",
    "BENCH_SCHEMA",
    "run_manifest", "config_hash",
    "load_report", "diff_reports", "DiffResult", "Regression",
    "MalformedReport",
    "setup_logging", "add_logging_args", "configure_from_args",
    "get_logger",
]
