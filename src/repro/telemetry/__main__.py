"""``python -m repro.telemetry`` — summarize, diff, and record telemetry.

Subcommands:

``summarize PATH``
    Pretty-print a telemetry summary JSON (``telemetry.json`` from a
    ``--telemetry`` run, or a ``BENCH_pipeline.json`` baseline).  PATH
    may be the file or the report directory containing it.

``diff BASELINE CURRENT [--threshold F] [--min-seconds S]``
    Compare two summaries and flag wall-clock regressions: any span
    whose total grew by >= threshold (default 0.20 = 20%) or throughput
    gauge that dropped by the same fraction.  Exit codes: 0 = ok,
    1 = regression found, 2 = malformed input.  This is the CI gate for
    the perf trajectory.

``record -o OUT.json [--benchmarks A,B] [--dataset ref] [--hot-pc N]
[--jobs N] [--cache DIR]``
    Run a small reference pipeline (compile + simulate the selected
    benchmarks) under telemetry and write the summary JSON — how
    ``BENCH_pipeline.json`` baselines are produced.  ``--jobs N`` shards
    the pipeline across worker processes (their telemetry snapshots are
    merged into the summary); ``--cache DIR`` reuses the persistent
    artifact cache.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro import telemetry
from repro.telemetry.bench import MalformedReport, diff_reports, load_report
from repro.telemetry.logging_setup import (
    add_logging_args, configure_from_args,
)

EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_MALFORMED = 2


def _resolve(path: str) -> Path:
    """Accept either a summary file or a report directory."""
    p = Path(path)
    if p.is_dir():
        return p / "telemetry.json"
    return p


def _cmd_summarize(args: argparse.Namespace) -> int:
    try:
        payload = load_report(_resolve(args.path))
    except MalformedReport as exc:
        print(f"error[malformed-report]: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    manifest = payload["manifest"]
    print(f"run: {manifest.get('created_utc')}  "
          f"git={str(manifest.get('git_sha'))[:12]}  "
          f"python={manifest.get('python')}  "
          f"config={manifest.get('config_hash')}")
    spans = payload["spans"]
    if spans:
        print(f"{'span':<36} {'count':>6} {'total':>10} {'mean':>10}")
        for name, entry in sorted(spans.items(),
                                  key=lambda kv: -kv[1]["total_s"]):
            print(f"{name:<36} {int(entry['count']):>6} "
                  f"{entry['total_s']:>9.3f}s {entry['mean_s']:>9.4f}s")
    for kind in ("counters", "gauges"):
        block = payload[kind]
        if block:
            print(f"{kind}:")
            for name, value in sorted(block.items()):
                print(f"  {name:<44} {value:>16,.1f}" if
                      isinstance(value, float) else
                      f"  {name:<44} {value:>16,}")
    histograms = payload.get("histograms") or {}
    if histograms:
        print("histograms (tail latencies):")
        for name, h in sorted(histograms.items()):
            print(f"  {name:<36} count={int(h.get('count', 0)):>6} "
                  f"p50={h.get('p50', 0.0):.4g} "
                  f"p95={h.get('p95', 0.0):.4g} "
                  f"p99={h.get('p99', 0.0):.4g}")
    # derived SLO rates: stored by new summaries, recomputed for old ones
    from repro.telemetry.export import slo_summary
    slo = payload.get("slo") or slo_summary(payload.get("counters", {}))
    if any(slo.values()):
        print("slo:")
        for name, value in sorted(slo.items()):
            print(f"  {name:<44} {value:>16.6f}")
    print(f"span depth: {payload.get('max_span_depth', '?')}, "
          f"recorded: {payload.get('spans_recorded', '?')}")
    return EXIT_OK


def _cmd_diff(args: argparse.Namespace) -> int:
    try:
        baseline = load_report(_resolve(args.baseline))
        current = load_report(_resolve(args.current))
    except MalformedReport as exc:
        print(f"error[malformed-report]: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    result = diff_reports(baseline, current, threshold=args.threshold,
                          min_seconds=args.min_seconds)
    print(result.describe(args.threshold))
    return EXIT_OK if result.ok else EXIT_REGRESSION


def _cmd_record(args: argparse.Namespace) -> int:
    # local import: keep the CLI importable without the harness
    from repro.harness.runner import SuiteRunner

    benchmarks = [b for b in args.benchmarks.split(",") if b] or None
    sink = telemetry.Telemetry()
    with telemetry.use(sink):
        runner = SuiteRunner(benchmarks=benchmarks,
                             pc_sample_interval=args.hot_pc,
                             parallelism=args.jobs,
                             cache_dir=args.cache)
        with sink.span("pipeline", category="bench",
                       dataset=args.dataset):
            if args.jobs > 1:
                runner.prefetch([(name, args.dataset)
                                 for name in runner.benchmark_names])
            for name in runner.benchmark_names:
                runner.run(name, args.dataset)
    config = {
        "kind": "pipeline",
        "benchmarks": sorted(runner.benchmark_names),
        "dataset": args.dataset,
        "hot_pc": args.hot_pc,
        "max_instructions": runner.max_instructions,
        "jobs": args.jobs,
    }
    payload = telemetry.summary_dict(sink, config=config)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(payload['spans'])} span kinds, "
          f"{payload['counters'].get('sim.instructions', 0):,} simulated "
          f"instructions)", file=sys.stderr)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Summarize, diff, and record pipeline telemetry.")
    add_logging_args(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("summarize",
                           help="pretty-print a telemetry summary JSON")
    p_sum.add_argument("path", help="summary file or report directory")
    p_sum.set_defaults(func=_cmd_summarize)

    p_diff = sub.add_parser(
        "diff", help="compare two summaries; exit 1 on a regression")
    p_diff.add_argument("baseline")
    p_diff.add_argument("current")
    p_diff.add_argument("--threshold", type=float, default=0.20,
                        help="fractional slowdown that counts as a "
                             "regression (default 0.20)")
    p_diff.add_argument("--min-seconds", type=float, default=0.005,
                        help="ignore spans shorter than this in the "
                             "baseline (default 0.005)")
    p_diff.set_defaults(func=_cmd_diff)

    p_rec = sub.add_parser(
        "record", help="run a reference pipeline and write its summary")
    p_rec.add_argument("-o", "--output", required=True,
                       help="output summary JSON path")
    p_rec.add_argument("--benchmarks", default="queens,fields",
                       help="comma-separated benchmark names "
                            "(default: queens,fields)")
    p_rec.add_argument("--dataset", default="ref")
    p_rec.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="shard the pipeline across N worker processes "
                            "(merged telemetry; see docs/performance.md)")
    p_rec.add_argument("--cache", default=None, metavar="DIR",
                       help="persistent artifact cache directory "
                            "(off by default for honest timings)")
    p_rec.add_argument("--hot-pc", type=int, default=None, metavar="N",
                       help="sample the simulated pc every N instructions")
    p_rec.set_defaults(func=_cmd_record)

    args = parser.parse_args(argv)
    configure_from_args(args)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
