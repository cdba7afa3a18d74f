"""Machine-readable export of every table and graph (CSV + JSON).

``python -m repro.harness.export OUTDIR`` writes one file per table/figure
so the results can be plotted or diffed without re-running the suite. All
rates are fractions (not percentages) in the exported data.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from repro.harness.graphs import (
    graph1, graph12, graph13, graphs2_3, graphs4_11,
)
from repro.harness.runner import SuiteRunner
from repro.harness.tables import (
    table1, table2, table3, table4, table5, table6, table7,
)

__all__ = ["export_all", "export_tables", "export_graphs"]


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def export_tables(runner: SuiteRunner, outdir: Path) -> list[Path]:
    """Write table1.csv .. table7.json into *outdir*; returns the paths."""
    written: list[Path] = []

    t1 = table1(runner)
    path = outdir / "table1.csv"
    _write_csv(path, ["program", "group", "description", "paper_analogue",
                      "code_size_kb", "procedures"],
               [[r.name, r.group, r.description, r.paper_analogue,
                 f"{r.code_size_kb:.2f}", r.procedures] for r in t1.rows])
    written.append(path)

    t2 = table2(runner)
    path = outdir / "table2.csv"
    _write_csv(path, ["program", "loop_pred_miss", "loop_perfect",
                      "non_loop_fraction", "target_miss", "random_miss",
                      "non_loop_perfect", "big_count", "big_fraction"],
               [[r.name, r.loop_pred_miss, r.loop_perfect,
                 r.non_loop_fraction, r.target_miss, r.random_miss,
                 r.non_loop_perfect, r.big_count, r.big_fraction]
                for r in t2.rows])
    written.append(path)

    t3 = table3(runner)
    path = outdir / "table3.csv"
    rows = []
    for r in t3.rows:
        for name, cell in r.cells.items():
            rows.append([r.name, name, cell.coverage, cell.miss,
                         cell.perfect])
    _write_csv(path, ["program", "heuristic", "coverage", "miss", "perfect"],
               rows)
    written.append(path)

    t4 = table4(runner)
    path = outdir / "table4.json"
    path.write_text(json.dumps({
        "n_trials": t4.n_trials,
        "pairwise_order": list(t4.pairwise),
        "top_orders": [
            {"order": list(order), "trial_share": share, "miss_rate": miss}
            for order, share, miss in t4.top_orders
        ],
    }, indent=2))
    written.append(path)

    t5 = table5(runner)
    path = outdir / "table5.csv"
    rows = []
    for r in t5.rows:
        for name, cell in r.cells.items():
            rows.append([r.name, name, cell.coverage, cell.miss,
                         cell.perfect])
    _write_csv(path, ["program", "slot", "coverage", "miss", "perfect"],
               rows)
    written.append(path)

    t6 = table6(runner)
    path = outdir / "table6.csv"
    _write_csv(path, ["program", "heuristic_coverage", "heuristic_miss",
                      "heuristic_perfect", "with_default_miss",
                      "with_default_perfect", "all_miss", "all_perfect",
                      "loop_rand_miss"],
               [[r.name, r.heuristic_coverage, r.heuristic_miss,
                 r.heuristic_perfect, r.with_default_miss,
                 r.with_default_perfect, r.all_miss, r.all_perfect,
                 r.loop_rand_miss] for r in t6.rows])
    written.append(path)

    t7 = table7(runner, t6=t6)
    path = outdir / "table7.json"
    path.write_text(json.dumps({
        "all": {k: {"mean": m, "std": s} for k, (m, s) in
                t7.all_stats.items()},
        "most": {k: {"mean": m, "std": s} for k, (m, s) in
                 t7.most_stats.items()},
        "excluded": t7.excluded,
    }, indent=2))
    written.append(path)
    return written


def export_graphs(runner: SuiteRunner, outdir: Path,
                  sequence_benchmarks: tuple[str, ...] | None = None
                  ) -> list[Path]:
    """Write graph1.csv .. graph13.csv into *outdir*; returns the paths."""
    from repro.harness.graphs import SEQUENCE_BENCHMARKS
    if sequence_benchmarks is None:
        sequence_benchmarks = SEQUENCE_BENCHMARKS
    written: list[Path] = []

    g1 = graph1(runner)
    path = outdir / "graph1.csv"
    _write_csv(path, ["rank", "avg_miss_rate"],
               [[i, v] for i, v in enumerate(g1.curve)])
    written.append(path)

    g23 = graphs2_3(runner)
    path = outdir / "graphs2_3.csv"
    _write_csv(path, ["rank", "cumulative_trial_share", "overall_miss_rate"],
               [[i, share, miss] for i, (share, miss) in enumerate(
                   zip(g23.result.cumulative_trial_share(),
                       g23.result.overall_miss_rates))])
    written.append(path)

    for sg in graphs4_11(runner, benchmarks=sequence_benchmarks):
        path = outdir / f"graph_sequences_{sg.name}.csv"
        rows = []
        for label, curve in sg.instruction_curves().items():
            for x, pct in curve:
                rows.append([label, x, pct])
        _write_csv(path, ["predictor", "length_upper", "cum_instr_pct"],
                   rows)
        written.append(path)

    family = graph12()
    path = outdir / "graph12.csv"
    rows = []
    for m, curve in family.items():
        for s, value in enumerate(curve, start=1):
            rows.append([m, s, value])
    _write_csv(path, ["miss_rate", "length", "fraction"], rows)
    written.append(path)

    g13 = graph13(runner)
    path = outdir / "graph13.csv"
    _write_csv(path, ["program", "dataset", "heuristic_miss",
                      "perfect_miss"],
               [[p.benchmark, p.dataset, p.heuristic_miss, p.perfect_miss]
                for p in g13.points])
    written.append(path)
    return written


def export_all(outdir: str | Path,
               runner: SuiteRunner | None = None) -> list[Path]:
    """Export every table and graph; creates *outdir* if needed."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    runner = runner or SuiteRunner()
    return export_tables(runner, outdir) + export_graphs(runner, outdir)


def main(argv: list[str] | None = None) -> int:
    import argparse
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.export",
        description="Export every table/figure as CSV/JSON.")
    parser.add_argument("outdir", help="output directory")
    args = parser.parse_args(argv)
    for path in export_all(args.outdir):
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
