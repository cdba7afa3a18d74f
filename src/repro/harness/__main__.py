"""``python -m repro.harness`` — print the full paper reproduction report.

Options:
    --tables N,M     only the listed tables (1-7)
    --graphs N,M     only the listed graphs (1-13; 4 means all of 4-11)
    --benchmarks A,B restrict the suite to the named benchmarks
    --order SPEC     heuristic priority order for Tables 5-7: "paper"
                     (default), "registry", or an explicit comma list
    --heuristics SPEC
                     ablate the heuristic set: "-guard" drops Guard
                     (drop-many with "-a,-b"), "Point,Call" keeps only
                     the named ones — see repro.core.registry
    -O0              compile the suite without optimization (smoke mode)
    --degraded       fault-isolated mode: failures render as FAILED cells
    --deadline S     per-run wall-clock watchdog (seconds, > 0)
    --jobs N         run every simulation the selected tables and graphs
                     need (each (benchmark, dataset) run, the Graphs 4-11
                     traces riding in their profile runs) in one batch
                     across N worker processes, one task per benchmark
                     that compiles it once (see docs/performance.md)
    --cache DIR      persistent artifact cache (defaults to
                     $REPRO_CACHE_DIR when set); --no-cache forces off
    --telemetry DIR  record spans + metrics; write a full report bundle
                     (Chrome trace, JSONL, Prometheus, summary, manifest)
    --hot-pc N       sample the simulator pc every N instructions
                     (requires --telemetry to be exported; also exposed on
                     the Machine API directly)
    --engine TIER    simulator execution engine: tier0 (pre-decoded
                     dispatch) or tier1 (superblock trace cache, the
                     default) — see docs/performance.md
    --range-table    append the range-evidence ablation table
    --scev-table     append the SCEV trip-count verification table
    --loop-shape-table
                     append the loop-shape (rotate/unrotate) ablation
    --corpus-table SPEC
                     append the generated-corpus predictability table;
                     SPEC is a corpus directory (python -m repro.gen
                     corpus) or SEED:COUNT for a fresh corpus — runs
                     under the same --jobs/--cache/--engine settings
    --log-level/--quiet
                     shared structured-logging knobs (repro.telemetry)

On a pipeline fault the CLI exits non-zero with a one-line structured
error (``error[code] benchmark=... phase=...: message``), never a raw
traceback — see docs/robustness.md.  Telemetry output formats are
documented in docs/observability.md.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import time

from repro import telemetry
from repro.bench.suite import get
from repro.core.registry import HeuristicSpecError, resolve_order
from repro.errors import ReproError
from repro.harness import (
    SEQUENCE_BENCHMARKS, SuiteRunner,
    graph1, graph12, graph13, graphs2_3, graphs4_11,
    table1, table2, table3, table4, table5, table6, table7,
)
from repro.telemetry.logging_setup import (
    add_logging_args, configure_from_args,
)


#: options whose values may start with "-" (ablation specs like
#: ``--heuristics -guard``); argparse rejects option-like values, so
#: :func:`_absorb_dash_values` merges them into ``--opt=value`` form.
_DASH_VALUE_OPTIONS = ("--heuristics", "--order")


def _absorb_dash_values(argv: list[str]) -> list[str]:
    """Merge ``--heuristics -guard`` into ``--heuristics=-guard`` so drop
    specs survive argparse's option-vs-value disambiguation."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if (arg in _DASH_VALUE_OPTIONS and i + 1 < len(argv)
                and argv[i + 1].startswith("-")):
            out.append(f"{arg}={argv[i + 1]}")
            i += 2
        else:
            out.append(arg)
            i += 1
    return out


def _selection(spec: str, option: str, valid: range) -> set[int]:
    """The numbers of a comma list such as ``"1,2,4"``; raises
    ``ValueError`` naming *option* for anything outside *valid*."""
    numbers = set()
    for item in filter(None, (i.strip() for i in spec.split(","))):
        number = int(item) if item.isdecimal() else None
        if number not in valid:
            raise ValueError(f"{option}: no such number {item!r} (valid: "
                             f"{valid.start}-{valid.stop - 1})")
        numbers.add(number)
    return numbers


def report_demand(names: list[str], tables: set[int], graphs: set[int]
                  ) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """What the selected sections simulate: the (benchmark, dataset) runs,
    in the order a serial report first reads them, and the runs whose
    Graphs 4-11 sequence pass is read.  Table 1 and Graph 12 need none."""
    pairs: list[tuple[str, str]] = []
    if tables & set(range(2, 8)) or graphs & {1, 2, 3}:
        pairs += [(name, "ref") for name in names]
    sequences = []
    if graphs & set(range(4, 12)):
        sequences = [(name, "ref") for name in SEQUENCE_BENCHMARKS
                     if name in names]
        pairs += sequences
    if 13 in graphs:
        pairs += [(name, ds.name) for name in names
                  for ds in get(name).datasets]
    return list(dict.fromkeys(pairs)), sequences


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate every table and figure of "
                    "Ball & Larus, PLDI 1993.")
    parser.add_argument("--tables", default="1,2,3,4,5,6,7",
                        help="comma-separated table numbers")
    parser.add_argument("--graphs", default="1,2,4,12,13",
                        help="comma-separated graph numbers")
    parser.add_argument("--benchmarks", default="",
                        help="comma-separated benchmark names "
                             "(default: full suite)")
    parser.add_argument("--order", default=None, metavar="SPEC",
                        help="heuristic priority order for Tables 5-7: "
                             "'paper' (default), 'registry', or an "
                             "explicit comma-separated name list")
    parser.add_argument("--heuristics", default=None, metavar="SPEC",
                        help="ablate the heuristic set: '-name' entries "
                             "drop heuristics, plain entries keep only "
                             "the named ones")
    parser.add_argument("-O0", dest="no_opt", action="store_true",
                        help="compile the suite without optimization "
                             "(empty pass pipeline)")
    parser.add_argument("--degraded", action="store_true",
                        help="fault-isolated mode: a failing benchmark "
                             "renders as FAILED cells instead of aborting")
    parser.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="per-run wall-clock watchdog deadline")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run every (benchmark, dataset) simulation "
                             "of the report in one batch across N worker "
                             "processes (default 1: serial)")
    parser.add_argument("--cache", default=None, metavar="DIR",
                        help="persistent content-addressed artifact cache "
                             "directory (default: $REPRO_CACHE_DIR when "
                             "set, else off)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the artifact cache even when "
                             "--cache or $REPRO_CACHE_DIR is set")
    parser.add_argument("--telemetry", default=None, metavar="DIR",
                        help="record pipeline telemetry and write the "
                             "report bundle (trace.json, events.jsonl, "
                             "metrics.prom, summary.txt, manifest.json, "
                             "telemetry.json) into DIR")
    parser.add_argument("--hot-pc", type=int, default=None, metavar="N",
                        help="sample the simulated pc every N instructions "
                             "(hot-PC histogram; off by default)")
    parser.add_argument("--engine", default=None,
                        choices=("tier0", "tier1"),
                        help="simulator execution engine (default: resolve "
                             "via REPRO_CHAOS_FORCE_TIER0 / "
                             "REPRO_SIM_ENGINE, else tier1)")
    parser.add_argument("--range-table", action="store_true",
                        help="also print the range-evidence ablation table "
                             "(recompiles the suite fold-free with the "
                             "SCCP+range branch evidence attached)")
    parser.add_argument("--scev-table", action="store_true",
                        help="also print the SCEV trip-count verification "
                             "table (predicted vs observed back-edge "
                             "counts, fold-free recompile)")
    parser.add_argument("--loop-shape-table", action="store_true",
                        help="also print the loop-shape ablation table "
                             "(rotate/unrotate differential plus the Loop "
                             "heuristic's miss rate per loop shape)")
    parser.add_argument("--corpus-table", default=None, metavar="SPEC",
                        help="also print the generated-corpus "
                             "characterization table; SPEC is a corpus "
                             "directory or SEED:COUNT (see "
                             "python -m repro.gen / docs/corpus.md)")
    add_logging_args(parser)
    if argv is None:
        import sys
        argv = sys.argv[1:]
    args = parser.parse_args(_absorb_dash_values(list(argv)))
    log = configure_from_args(args).getChild("harness")

    benchmarks = [b for b in args.benchmarks.split(",") if b] or None
    try:
        tables = _selection(args.tables, "--tables", range(1, 8))
        graphs = _selection(args.graphs, "--graphs", range(1, 14))
        for name in benchmarks or ():
            get(name)
    except KeyError as exc:  # from get()
        log.error("--benchmarks: %s", exc.args[0])
        return 2
    except ValueError as exc:
        log.error(str(exc))
        return 2
    try:
        order = (resolve_order(args.order, args.heuristics)
                 if args.order is not None or args.heuristics is not None
                 else None)
    except HeuristicSpecError as exc:
        log.error(exc.oneline())
        return 2
    cache_dir = None if args.no_cache else (
        args.cache or os.environ.get("REPRO_CACHE_DIR") or None)
    if args.jobs < 1:
        log.error("--jobs must be >= 1 (got %d)", args.jobs)
        return 2
    if args.deadline is not None and not args.deadline > 0:
        log.error("--deadline must be > 0 seconds (got %s)", args.deadline)
        return 2
    sink = telemetry.Telemetry() if args.telemetry is not None else None

    def scope():
        return (telemetry.use(sink) if sink is not None
                else contextlib.nullcontext())

    with scope():  # the cache's startup sweep reports into the sink
        runner = SuiteRunner(benchmarks=benchmarks,
                             strict=not args.degraded,
                             wall_clock_deadline=args.deadline,
                             pc_sample_interval=args.hot_pc,
                             optimize=not args.no_opt,
                             parallelism=args.jobs, cache_dir=cache_dir,
                             engine=args.engine)

    start = time.time()

    @functools.cache
    def final_results():
        """Table 6, built once for Tables 6 and 7."""
        return table6(runner, order=order)

    generators = {
        1: lambda: table1(runner).render(),
        2: lambda: table2(runner).render(),
        3: lambda: table3(runner).render(),
        4: lambda: table4(runner).render(),
        5: lambda: table5(runner, order=order).render(),
        6: lambda: final_results().render(),
        7: lambda: table7(runner, order=order, t6=final_results()).render(),
    }
    if order is not None:
        log.info("heuristic order: %s", " -> ".join(order))
    pairs, sequences = report_demand(runner.benchmark_names, tables, graphs)
    # the Graphs 4-11 traces ride in their profile runs, serial or not
    runner.declare_sequences(sequences)
    try:
        with scope(), telemetry.get().span(
                "report", category="harness",
                tables=sorted(tables), graphs=sorted(graphs)):
            tm = telemetry.get()
            if args.jobs > 1:
                with tm.span("prefetch", category="harness",
                             runs=len(pairs), sequences=len(sequences)):
                    runner.prefetch(pairs)

            for number in sorted(tables):
                with tm.span(f"table{number}", category="harness"):
                    print(generators[number]())
                    print()

            if 1 in graphs:
                with tm.span("graph1", category="harness"):
                    print(graph1(runner).describe())
                    print()
            if 2 in graphs or 3 in graphs:
                with tm.span("graphs2_3", category="harness"):
                    print(graphs2_3(runner).describe())
                    print()
            if graphs & set(range(4, 12)):
                with tm.span("graphs4_11", category="harness"):
                    seq = tuple(name for name, _ in sequences)
                    for sg in graphs4_11(runner, benchmarks=seq):
                        print(sg.describe())
                    print()
            if 12 in graphs:
                with tm.span("graph12", category="harness"):
                    family = graph12()
                    print("Graph 12 model: f(m,100) for m=0.025..0.30:")
                    for m, curve in family.items():
                        print(f"  m={m:.3f}: f(100)={curve[-1]:.3f}")
                    print()
            if 13 in graphs:
                with tm.span("graph13", category="harness"):
                    print(graph13(runner).describe())

            if args.range_table:
                from repro.harness.evidence import evidence_table
                print()
                print(evidence_table(runner).render())
            if args.scev_table:
                from repro.harness.scev_report import scev_table
                print()
                print(scev_table(runner).render())
            if args.loop_shape_table:
                from repro.harness.scev_report import loop_shape_table
                print()
                print(loop_shape_table(runner).render())
            if args.corpus_table:
                from repro.harness.corpus_report import corpus_table
                try:
                    rendered = corpus_table(
                        args.corpus_table, jobs=args.jobs,
                        cache_dir=cache_dir, engine=args.engine)
                except ValueError as exc:
                    log.error(str(exc))
                    return 2
                print()
                print(rendered)
    except ReproError as exc:
        log.error(exc.oneline())
        return 1

    # degraded mode: summarize any failures in the footer but still exit 0
    # (the report was produced — that is the point of fault isolation)
    failures = [oc for oc in runner._run_failures.values()]
    if runner._skipped:
        failures += [runner.outcome(name) for name in runner._skipped
                     if name in runner.benchmark_names]
    for outcome in failures:
        log.warning(outcome.describe())

    if runner.cache is not None:
        stats = runner.cache.stats()
        log.info("artifact cache: %d hits, %d misses, %d stores, "
                 "%d corrupt, %d entries on disk", stats["hits"],
                 stats["misses"], stats["stores"], stats["corrupt"],
                 stats["entries"])

    if sink is not None:
        config = {
            "benchmarks": sorted(runner.benchmark_names),
            "tables": sorted(tables), "graphs": sorted(graphs),
            "degraded": args.degraded, "deadline": args.deadline,
            "hot_pc": args.hot_pc,
            "order": list(order) if order is not None else None,
            "optimize": not args.no_opt,
            "max_instructions": runner.max_instructions,
            "jobs": args.jobs,
            "cache": cache_dir,
            "engine": args.engine,
        }
        paths = telemetry.write_report(sink, args.telemetry, config=config)
        log.info("telemetry report written to %s (%s)", args.telemetry,
                 ", ".join(sorted(paths)))

    log.info("done in %.1fs", time.time() - start)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
