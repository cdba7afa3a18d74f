"""``python -m repro.bench`` — simulator micro-benchmarks.

``sim`` measures per-tier simulation throughput on the suite's hottest
benchmarks, pipeline-shaped: each measurement is one edge-profiling pass
plus one three-analyzer sequence pass over the same executable — exactly
the work the experiment harness performs per (benchmark, dataset), so
the numbers predict real report wall-clock, not an observer-free toy
loop.  Best-of-N per tier; instructions/second = (instructions retired
across both passes) / wall.

Output: a human table, an optional :data:`~repro.telemetry.export.
BENCH_SCHEMA` summary JSON (``-o``) whose gauges
``sim.instructions_per_sec.tier0`` / ``.tier1`` / ``sim.tier1_speedup``
feed ``python -m repro.telemetry diff``, and an optional in-place update
of the committed ``BENCH_pipeline.json`` (``--update-baseline``).

The ``--gate`` flag enforces the tiered-engine acceptance floor:

* Tier-1 throughput must be at least ``--min-tier1-x`` (default 5.0)
  times :data:`COMMITTED_BASELINE_IPS` — the simulator throughput
  committed in ``BENCH_pipeline.json`` *before* the tiered engine
  landed (the pre-decoding interpreter, i.e. the original Tier-0
  baseline the 5x target was set against).
* The *live* tier1/tier0 ratio must stay above ``--min-ratio``
  (default 2.5).  This is deliberately lower than 5: Tier-0 itself got
  ~1.8x faster than the committed baseline when dispatch moved to
  pre-decoded closures, which shrinks the live ratio without any
  Tier-1 regression.  See docs/performance.md ("Tiered execution
  engine") for the full accounting.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from time import perf_counter

from repro import telemetry

EXIT_OK = 0
EXIT_GATE = 1

#: the 5 benchmarks with the largest simulated-instruction budgets in the
#: suite (the "hottest" — superblock residency is highest here, so they
#: bound both tiers' best case and the report's wall-clock)
HOT_BENCHMARKS = ("kernels", "matmul", "mesh", "gauss", "cg")

#: ``sim.instructions_per_sec`` committed in ``BENCH_pipeline.json``
#: before the tiered engine existed (the fetch-decode-execute
#: interpreter measured by the PR-6 pipeline baseline).  The acceptance
#: gate "tier1 >= 5x the committed Tier-0 baseline" is anchored here,
#: NOT at the live tier0 gauge: re-measuring tier0 each run would move
#: the goalposts with the machine, and today's tier0 is itself much
#: faster than the engine the target was set against.
COMMITTED_BASELINE_IPS = 1_740_628


def _measure(name: str, dataset: str, engine: str, best: int,
             max_instructions: int) -> tuple[float, int]:
    """Best-of-*best* pipeline-shaped throughput for one benchmark.

    Returns (instructions/second, instructions per measurement).
    """
    from repro.bench.suite import get
    from repro.core.predictors import HeuristicPredictor
    from repro.core.sequences import sequence_experiment
    from repro.harness.parallel import compile_artifact
    from repro.sim import EdgeProfile, Machine

    bench = get(name)
    executable, analysis = compile_artifact(bench)
    # the report's superblock layout (sequence_experiment applies it too)
    layout = HeuristicPredictor(analysis).prediction_map()
    inputs = list(bench.dataset(dataset).inputs)
    best_ips = 0.0
    total = 0
    for _ in range(max(1, best)):
        start = perf_counter()
        profile = EdgeProfile()
        Machine(executable, inputs=list(inputs), observers=[profile],
                max_instructions=max_instructions, engine=engine,
                layout=layout).run()
        analyzers = sequence_experiment(
            executable, profile, inputs=list(inputs), analysis=analysis,
            max_instructions=max_instructions, engine=engine)
        wall = perf_counter() - start
        total = (profile.total_instructions
                 + next(iter(analyzers.values())).total_instructions)
        best_ips = max(best_ips, total / wall)
    return best_ips, total


def _geomean(values: list[float]) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _cmd_sim(args: argparse.Namespace) -> int:
    benchmarks = [b for b in args.benchmarks.split(",") if b]
    results: dict[str, dict[str, float]] = {}
    print(f"{'benchmark':<10} {'tier0 M/s':>10} {'tier1 M/s':>10} "
          f"{'ratio':>6}   (best of {args.best}, pipeline-shaped)")
    for name in benchmarks:
        per = {}
        for tier in ("tier0", "tier1"):
            ips, instructions = _measure(
                name, args.dataset, tier, args.best, args.max_instructions)
            per[tier] = ips
            per[f"{tier}_instructions"] = instructions
        per["ratio"] = per["tier1"] / per["tier0"] if per["tier0"] else 0.0
        results[name] = per
        print(f"{name:<10} {per['tier0'] / 1e6:>10.2f} "
              f"{per['tier1'] / 1e6:>10.2f} {per['ratio']:>6.2f}",
              flush=True)

    tier0_ips = _geomean([r["tier0"] for r in results.values()])
    tier1_ips = _geomean([r["tier1"] for r in results.values()])
    ratio = tier1_ips / tier0_ips if tier0_ips else 0.0
    baseline_x = tier1_ips / COMMITTED_BASELINE_IPS
    print(f"{'geomean':<10} {tier0_ips / 1e6:>10.2f} "
          f"{tier1_ips / 1e6:>10.2f} {ratio:>6.2f}")
    print(f"tier1 vs committed baseline "
          f"({COMMITTED_BASELINE_IPS / 1e6:.2f} M/s): {baseline_x:.2f}x")

    payload = None
    if args.output or args.update_baseline:
        sink = telemetry.Telemetry()
        sink.gauge("sim.instructions_per_sec.tier0").set(tier0_ips)
        sink.gauge("sim.instructions_per_sec.tier1").set(tier1_ips)
        sink.gauge("sim.tier1_speedup").set(ratio)
        config = {
            "kind": "sim-bench",
            "benchmarks": sorted(benchmarks),
            "dataset": args.dataset,
            "best_of": args.best,
            "max_instructions": args.max_instructions,
        }
        payload = telemetry.summary_dict(sink, config=config)
        payload["sim_bench"] = {
            name: {k: v for k, v in per.items()}
            for name, per in results.items()
        }
    if args.output:
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}", file=sys.stderr)
    if args.update_baseline:
        path = Path(args.update_baseline)
        baseline = json.loads(path.read_text())
        baseline.setdefault("gauges", {}).update({
            "sim.instructions_per_sec.tier0": tier0_ips,
            "sim.instructions_per_sec.tier1": tier1_ips,
            "sim.tier1_speedup": ratio,
        })
        baseline["sim_bench"] = payload["sim_bench"]
        path.write_text(json.dumps(baseline, indent=2, sort_keys=True)
                        + "\n")
        print(f"updated gauges in {path}", file=sys.stderr)

    if args.gate:
        failures = []
        if baseline_x < args.min_tier1_x:
            failures.append(
                f"tier1 {tier1_ips / 1e6:.2f} M/s is "
                f"{baseline_x:.2f}x the committed baseline "
                f"(< {args.min_tier1_x:.1f}x gate)")
        if ratio < args.min_ratio:
            failures.append(
                f"live tier1/tier0 ratio {ratio:.2f} "
                f"< {args.min_ratio:.1f} gate")
        for failure in failures:
            print(f"GATE FAILED: {failure}", file=sys.stderr)
        if failures:
            return EXIT_GATE
        print(f"gate ok: tier1 {baseline_x:.2f}x committed baseline "
              f"(>= {args.min_tier1_x:.1f}x), live ratio {ratio:.2f} "
              f"(>= {args.min_ratio:.1f})")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Simulator micro-benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser(
        "sim", help="per-tier simulator throughput on the hottest "
                    "benchmarks")
    p_sim.add_argument("--benchmarks", default=",".join(HOT_BENCHMARKS),
                       help="comma-separated benchmark names (default: "
                            "the 5 hottest)")
    p_sim.add_argument("--dataset", default="ref")
    p_sim.add_argument("--best", type=int, default=3, metavar="N",
                       help="measurements per (benchmark, tier); the "
                            "fastest is kept (default 3)")
    p_sim.add_argument("--max-instructions", type=int,
                       default=200_000_000)
    p_sim.add_argument("-o", "--output", default=None, metavar="PATH",
                       help="write a BENCH-schema summary JSON (for "
                            "'telemetry diff')")
    p_sim.add_argument("--update-baseline", default=None, metavar="PATH",
                       help="merge the per-tier gauges into an existing "
                            "baseline JSON (e.g. BENCH_pipeline.json)")
    p_sim.add_argument("--gate", action="store_true",
                       help="exit 1 unless tier1 beats the committed "
                            "baseline by --min-tier1-x and the live "
                            "ratio stays above --min-ratio")
    p_sim.add_argument("--min-tier1-x", type=float, default=5.0,
                       help="required tier1 multiple of the committed "
                            "pre-tiering baseline (default 5.0)")
    p_sim.add_argument("--min-ratio", type=float, default=2.5,
                       help="required live tier1/tier0 ratio "
                            "(default 2.5)")
    p_sim.set_defaults(func=_cmd_sim)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
