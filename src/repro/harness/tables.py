"""Generators for every table in the paper (Tables 1-7).

Each ``tableN`` function takes a :class:`~repro.harness.runner.SuiteRunner`,
computes the table's underlying data (returned as a list of typed rows plus
summary statistics), and can render itself in the paper's layout via
``.render()``. Numbers are our measurements on the reproduction suite; the
*shape* (which predictors win, which heuristics cover what) is what the
reproduction is checked against — see EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.classify import Prediction
from repro.core.evaluation import (
    big_branches, evaluate_predictions, evaluate_predictor,
)
from repro.core.heuristics import HEURISTIC_NAMES, applicable_heuristics
from repro.core.registry import HEURISTIC_REGISTRY
from repro.core.orders import (
    OrderData, build_order_data, pairwise_order, subset_experiment,
)
from repro.core.predictors import (
    HeuristicPredictor, LoopRandomPredictor, RandomPredictor, TakenPredictor,
)
from repro.errors import ReproError
from repro.harness.report import TextTable, cd_cell, mean_std, pct
from repro.harness.resilience import (
    RunOutcome, RunStatus, classify_failure, failure_cells,
)
from repro.harness.runner import BenchmarkRun, SuiteRunner

__all__ = [
    "table1", "table2", "table3", "table4", "table5", "table6", "table7",
    "heuristic_table", "order_data_for",
]


def _runs_and_failures(
        runner: SuiteRunner) -> tuple[list[BenchmarkRun], list[RunOutcome]]:
    """Healthy runs plus classified failures, in suite order.

    In strict mode any failure raises from inside ``all_outcomes`` (the
    historical behavior), so the failure list is only ever populated in
    degraded (``strict=False``) mode.
    """
    outcomes = runner.all_outcomes()
    return ([oc.run for oc in outcomes if oc.ok],
            [oc for oc in outcomes if oc.failed])


def heuristic_table(run: BenchmarkRun) -> dict[int, dict[str, Prediction]]:
    """Per-branch map of every applicable heuristic's prediction, cached on
    the run (Tables 3-5 and the ordering experiments all consume it)."""
    cached = getattr(run, "_heuristic_table", None)
    if cached is None:
        cached = {}
        for branch in run.analysis.non_loop_branches():
            pa = run.analysis.analysis_of(branch)
            cached[branch.address] = applicable_heuristics(branch, pa)
        run._heuristic_table = cached
    return cached


def order_data_for(run: BenchmarkRun) -> OrderData:
    """The vectorized order-evaluation table for one run (cached), read
    from the run's :func:`heuristic_table`."""
    cached = getattr(run, "_order_data", None)
    if cached is None:
        cached = build_order_data(run.name, run.analysis, run.profile,
                                  table=heuristic_table(run))
        run._order_data = cached
    return cached


# -- Table 1 -------------------------------------------------------------------


@dataclass
class Table1Row:
    name: str
    description: str
    paper_analogue: str
    group: str
    code_size_kb: float
    procedures: int


@dataclass
class Table1:
    rows: list[Table1Row]
    failed: list[RunOutcome] = field(default_factory=list)

    def render(self) -> str:
        table = TextTable(
            ["Program", "Description", "Grp", "Size(KB)", "Procs"],
            title="Table 1: benchmarks, sorted by code size within group")
        last_group = None
        for row in self.rows:
            if last_group is not None and row.group != last_group:
                table.add_separator()
            last_group = row.group
            table.add_row(row.name, row.description, row.group,
                          f"{row.code_size_kb:.1f}", row.procedures)
        for oc in self.failed:
            table.add_row(oc.benchmark, *failure_cells(oc, 4))
        return table.render()


def table1(runner: SuiteRunner) -> Table1:
    """Benchmark listing with object-code sizes (compile only, no runs)."""
    from repro.bench.suite import get
    rows = []
    failed: list[RunOutcome] = []
    for name in runner.benchmark_names:
        if runner.is_skipped(name):
            failed.append(RunOutcome(name, "-", RunStatus.SKIPPED))
            continue
        try:
            executable, _ = runner.compiled(name)
        except ReproError as exc:
            if runner.strict:
                raise
            failed.append(RunOutcome(name, "-", classify_failure(exc),
                                     error=exc))
            continue
        benchmark = get(name)
        rows.append(Table1Row(
            name=name, description=benchmark.description,
            paper_analogue=benchmark.paper_analogue, group=benchmark.group,
            code_size_kb=executable.code_size_kb,
            procedures=len(executable.procedures)))
    rows.sort(key=lambda r: (r.group != "int", -r.code_size_kb))
    return Table1(rows, failed)


# -- Table 2 -------------------------------------------------------------------


@dataclass
class Table2Row:
    name: str
    loop_pred_miss: float
    loop_perfect: float
    non_loop_fraction: float
    target_miss: float
    random_miss: float
    non_loop_perfect: float
    big_count: int
    big_fraction: float


@dataclass
class Table2:
    rows: list[Table2Row]
    failed: list[RunOutcome] = field(default_factory=list)

    def summary(self) -> dict[str, tuple[float, float]]:
        """Mean/std of each column, each benchmark weighted equally."""
        return {
            "loop_pred": mean_std([r.loop_pred_miss for r in self.rows]),
            "loop_perfect": mean_std([r.loop_perfect for r in self.rows]),
            "non_loop_fraction": mean_std(
                [r.non_loop_fraction for r in self.rows]),
            "target": mean_std([r.target_miss for r in self.rows]),
            "random": mean_std([r.random_miss for r in self.rows]),
            "non_loop_perfect": mean_std(
                [r.non_loop_perfect for r in self.rows]),
        }

    def render(self) -> str:
        table = TextTable(
            ["Program", "Loop Prd/Prf", "%NL", "Tgt/Prf", "Rnd/Prf", "Big",
             "Big%"],
            title="Table 2: loop vs non-loop branches")
        for r in self.rows:
            table.add_row(
                r.name, cd_cell(r.loop_pred_miss, r.loop_perfect),
                pct(r.non_loop_fraction),
                cd_cell(r.target_miss, r.non_loop_perfect),
                cd_cell(r.random_miss, r.non_loop_perfect),
                r.big_count, pct(r.big_fraction))
        for oc in self.failed:
            table.add_row(oc.benchmark, *failure_cells(oc, 6))
        table.add_separator()
        s = self.summary()
        table.add_row("MEAN", cd_cell(s["loop_pred"][0], s["loop_perfect"][0]),
                      pct(s["non_loop_fraction"][0]),
                      cd_cell(s["target"][0], s["non_loop_perfect"][0]),
                      cd_cell(s["random"][0], s["non_loop_perfect"][0]),
                      "", "")
        table.add_row("Std.Dev",
                      cd_cell(s["loop_pred"][1], s["loop_perfect"][1]),
                      pct(s["non_loop_fraction"][1]),
                      cd_cell(s["target"][1], s["non_loop_perfect"][1]),
                      cd_cell(s["random"][1], s["non_loop_perfect"][1]),
                      "", "")
        return table.render()


def table2(runner: SuiteRunner) -> Table2:
    """Loop/non-loop breakdown, loop predictor, Tgt/Rnd baselines, big
    branches."""
    rows = []
    runs, failed = _runs_and_failures(runner)
    for run in runs:
        loop_random = LoopRandomPredictor(run.analysis)
        taken = TakenPredictor(run.analysis)
        random = RandomPredictor(run.analysis)
        loop_eval = evaluate_predictions(
            loop_random.predictions(), run.profile, run.loop_addresses)
        target_eval = evaluate_predictor(taken, run.profile,
                                         run.non_loop_addresses)
        random_eval = evaluate_predictor(random, run.profile,
                                         run.non_loop_addresses)
        big = big_branches(run.profile, run.analysis)
        rows.append(Table2Row(
            name=run.name,
            loop_pred_miss=loop_eval.miss_rate,
            loop_perfect=loop_eval.perfect_rate,
            non_loop_fraction=run.non_loop_fraction,
            target_miss=target_eval.miss_rate,
            random_miss=random_eval.miss_rate,
            non_loop_perfect=target_eval.perfect_rate,
            big_count=big.count,
            big_fraction=big.fraction_of_dynamic))
    return Table2(rows, failed)


# -- Table 3 -------------------------------------------------------------------


@dataclass
class HeuristicCell:
    """One benchmark x heuristic entry: dynamic coverage of non-loop
    branches and the miss/perfect rates over the covered subset."""

    coverage: float
    miss: float
    perfect: float

    @property
    def visible(self) -> bool:
        """The paper leaves cells under 1% coverage blank."""
        return self.coverage >= 0.01


@dataclass
class Table3Row:
    name: str
    non_loop_fraction: float
    cells: dict[str, HeuristicCell]


@dataclass
class Table3:
    rows: list[Table3Row]
    failed: list[RunOutcome] = field(default_factory=list)

    def summary(self) -> dict[str, tuple[tuple[float, float],
                                         tuple[float, float]]]:
        """Per heuristic: (mean/std of miss, mean/std of perfect) over
        visible cells only (blank entries are not counted, per the paper)."""
        out = {}
        for h in HEURISTIC_NAMES:
            visible = [r.cells[h] for r in self.rows if r.cells[h].visible]
            out[h] = (mean_std([c.miss for c in visible]),
                      mean_std([c.perfect for c in visible]))
        return out

    def render(self) -> str:
        columns = ["Program", "NL"] + [f"{h}" for h in HEURISTIC_NAMES]
        table = TextTable(
            columns,
            title="Table 3: heuristics applied individually "
                  "(coverage% miss/perfect; blank if <1% coverage)")
        for r in self.rows:
            cells = []
            for h in HEURISTIC_NAMES:
                c = r.cells[h]
                cells.append(f"{pct(c.coverage)} {cd_cell(c.miss, c.perfect)}"
                             if c.visible else "")
            table.add_row(r.name, pct(r.non_loop_fraction), *cells)
        for oc in self.failed:
            table.add_row(oc.benchmark,
                          *failure_cells(oc, 1 + len(HEURISTIC_NAMES)))
        table.add_separator()
        s = self.summary()
        table.add_row("MEAN", "", *[cd_cell(s[h][0][0], s[h][1][0])
                                    for h in HEURISTIC_NAMES])
        table.add_row("Std.Dev", "", *[cd_cell(s[h][0][1], s[h][1][1])
                                       for h in HEURISTIC_NAMES])
        return table.render()


def _subset_eval(run: BenchmarkRun, addresses: list[int],
                 predictions: dict[int, Prediction]):
    return evaluate_predictions(predictions, run.profile, addresses)


def table3(runner: SuiteRunner) -> Table3:
    """Each heuristic in isolation: coverage and miss rates."""
    rows = []
    runs, failed = _runs_and_failures(runner)
    for run in runs:
        htable = heuristic_table(run)
        executed_nl = run.executed_non_loop
        total_nl = run.dynamic_count(executed_nl)
        cells: dict[str, HeuristicCell] = {}
        for h in HEURISTIC_NAMES:
            covered = [a for a in executed_nl if h in htable[a]]
            dynamic = run.dynamic_count(covered)
            coverage = dynamic / total_nl if total_nl else 0.0
            if covered:
                result = _subset_eval(
                    run, covered, {a: htable[a][h] for a in covered})
                cells[h] = HeuristicCell(coverage, result.miss_rate,
                                         result.perfect_rate)
            else:
                cells[h] = HeuristicCell(0.0, 0.0, 0.0)
        rows.append(Table3Row(run.name, run.non_loop_fraction, cells))
    return Table3(rows, failed)


# -- Table 4 -------------------------------------------------------------------


@dataclass
class Table4:
    """Top orders from the subset-generalization experiment."""

    top_orders: list[tuple[tuple[str, ...], float, float]]
    #: (order, % of trials, overall miss rate)
    n_trials: int
    pairwise: tuple[str, ...]
    failed: list[str] = field(default_factory=list)

    def render(self) -> str:
        table = TextTable(
            ["% of Trials", "Miss Rate", "Order"],
            title=f"Table 4: the 10 most common orders from the "
                  f"subset experiment ({self.n_trials} trials)")
        for order, share, miss in self.top_orders:
            table.add_row(f"{100 * share:.2f}", f"{100 * miss:.2f}",
                          " ".join(order))
        note = ""
        if self.failed:
            note = f"\nFAILED (excluded): {', '.join(self.failed)}"
        return (table.render()
                + f"\nPairwise-analysis order: {' '.join(self.pairwise)}"
                + note)


def table4(runner: SuiteRunner, exclude: tuple[str, ...] = ("matmul",),
           k: int | None = None) -> Table4:
    """The C(N, N/2) best-order generalization experiment (the paper ran
    C(22,11), excluding matrix300 — we exclude its analogue, matmul)."""
    runs, failed = _runs_and_failures(runner)
    datasets = [order_data_for(run) for run in runs
                if run.name not in exclude]
    result = subset_experiment(datasets, k=k)
    top = [(order, freq / result.n_trials, miss)
           for order, freq, miss in result.top(10)]
    return Table4(top, result.n_trials, pairwise_order(datasets),
                  failed=[oc.benchmark for oc in failed])


# -- Table 5 -------------------------------------------------------------------


@dataclass
class Table5Row:
    name: str
    cells: dict[str, HeuristicCell]  #: keyed by heuristic name + "Default"


@dataclass
class Table5:
    order: tuple[str, ...]
    rows: list[Table5Row]
    failed: list[RunOutcome] = field(default_factory=list)

    def columns(self) -> list[str]:
        return list(self.order) + ["Default"]

    def summary(self) -> dict[str, tuple[tuple[float, float],
                                         tuple[float, float]]]:
        out = {}
        for h in self.columns():
            visible = [r.cells[h] for r in self.rows if r.cells[h].visible]
            out[h] = (mean_std([c.miss for c in visible]),
                      mean_std([c.perfect for c in visible]))
        return out

    def render(self) -> str:
        table = TextTable(
            ["Program"] + self.columns(),
            title="Table 5: heuristics in the prioritized order "
                  + " -> ".join(self.order))
        for r in self.rows:
            cells = []
            for h in self.columns():
                c = r.cells[h]
                cells.append(f"{pct(c.coverage)} {cd_cell(c.miss, c.perfect)}"
                             if c.visible else "")
            table.add_row(r.name, *cells)
        for oc in self.failed:
            table.add_row(oc.benchmark,
                          *failure_cells(oc, len(self.columns())))
        table.add_separator()
        s = self.summary()
        table.add_row("MEAN", *[cd_cell(s[h][0][0], s[h][1][0])
                                for h in self.columns()])
        table.add_row("Std.Dev", *[cd_cell(s[h][0][1], s[h][1][1])
                                   for h in self.columns()])
        return table.render()


def table5(runner: SuiteRunner,
           order: tuple[str, ...] | None = None) -> Table5:
    """Per-heuristic accounting when applied in a fixed priority order.

    *order* is any registry-resolvable priority chain (default: the
    paper's); ablated orders from
    :func:`~repro.core.registry.resolve_order` drop columns accordingly.
    """
    rows = []
    runs, failed = _runs_and_failures(runner)
    order = (HEURISTIC_REGISTRY.paper_order() if order is None
             else tuple(HEURISTIC_REGISTRY.get(n).name for n in order))
    for run in runs:
        predictor = HeuristicPredictor(run.analysis, order=order)
        predictions = predictor.predictions()
        executed_nl = run.executed_non_loop
        total_nl = run.dynamic_count(executed_nl)
        cells: dict[str, HeuristicCell] = {}
        for h in list(order) + ["Default"]:
            covered = [a for a in executed_nl
                       if predictor.attribution.get(a) == h]
            dynamic = run.dynamic_count(covered)
            coverage = dynamic / total_nl if total_nl else 0.0
            if covered:
                result = evaluate_predictions(predictions, run.profile,
                                              covered)
                cells[h] = HeuristicCell(coverage, result.miss_rate,
                                         result.perfect_rate)
            else:
                cells[h] = HeuristicCell(0.0, 0.0, 0.0)
        rows.append(Table5Row(run.name, cells))
    return Table5(tuple(order), rows, failed)


# -- Table 6 -------------------------------------------------------------------


@dataclass
class Table6Row:
    name: str
    heuristic_coverage: float       #: non-loop dynamic coverage (non-default)
    heuristic_miss: float           #: miss on covered non-loop branches
    heuristic_perfect: float
    with_default_miss: float        #: all non-loop branches
    with_default_perfect: float
    all_miss: float                 #: all branches (loop + non-loop)
    all_perfect: float
    loop_rand_miss: float           #: Loop+Rand comparator, all branches
    target_nl_miss: float           #: Tgt on non-loop (for Table 7)
    random_nl_miss: float           #: Rnd on non-loop (for Table 7)


@dataclass
class Table6:
    rows: list[Table6Row]
    failed: list[RunOutcome] = field(default_factory=list)

    def render(self) -> str:
        table = TextTable(
            ["Program", "Heuristics", "+Default", "All", "Loop+Rand"],
            title="Table 6: final results (coverage% miss/perfect)")
        for r in self.rows:
            table.add_row(
                r.name,
                f"{pct(r.heuristic_coverage)} "
                f"{cd_cell(r.heuristic_miss, r.heuristic_perfect)}",
                cd_cell(r.with_default_miss, r.with_default_perfect),
                cd_cell(r.all_miss, r.all_perfect),
                cd_cell(r.loop_rand_miss, r.all_perfect))
        for oc in self.failed:
            table.add_row(oc.benchmark, *failure_cells(oc, 4))
        return table.render()


def table6(runner: SuiteRunner,
           order: tuple[str, ...] | None = None) -> Table6:
    """The combined predictor's final results (*order* defaults to the
    registry's paper chain)."""
    rows = []
    runs, failed = _runs_and_failures(runner)
    for run in runs:
        predictor = HeuristicPredictor(run.analysis, order=order)
        predictions = predictor.predictions()
        loop_rand = LoopRandomPredictor(run.analysis)
        taken = TakenPredictor(run.analysis)
        random = RandomPredictor(run.analysis)

        executed_nl = run.executed_non_loop
        covered = [a for a in executed_nl
                   if predictor.attribution.get(a) not in (None, "Default")]
        total_nl = run.dynamic_count(executed_nl)
        coverage = run.dynamic_count(covered) / total_nl if total_nl else 0.0
        cov_eval = evaluate_predictions(predictions, run.profile, covered)
        nl_eval = evaluate_predictions(predictions, run.profile, executed_nl)
        all_eval = evaluate_predictions(predictions, run.profile)
        lr_eval = evaluate_predictor(loop_rand, run.profile)
        tgt_eval = evaluate_predictor(taken, run.profile, executed_nl)
        rnd_eval = evaluate_predictor(random, run.profile, executed_nl)
        rows.append(Table6Row(
            name=run.name,
            heuristic_coverage=coverage,
            heuristic_miss=cov_eval.miss_rate,
            heuristic_perfect=cov_eval.perfect_rate,
            with_default_miss=nl_eval.miss_rate,
            with_default_perfect=nl_eval.perfect_rate,
            all_miss=all_eval.miss_rate,
            all_perfect=all_eval.perfect_rate,
            loop_rand_miss=lr_eval.miss_rate,
            target_nl_miss=tgt_eval.miss_rate,
            random_nl_miss=rnd_eval.miss_rate))
    return Table6(rows, failed)


# -- Table 7 -------------------------------------------------------------------


@dataclass
class Table7:
    """Means/std-devs of Table 6, for all benchmarks and for "most" (the
    paper excludes programs where a few big branches account for >90% of
    dynamic non-loop branches: eqntott, grep, tomcatv, matrix300 — we apply
    the same >90% rule to our analogues)."""

    all_stats: dict[str, tuple[float, float]]
    most_stats: dict[str, tuple[float, float]]
    excluded: list[str]
    failed: list[str] = field(default_factory=list)

    _COLUMNS = ("heuristic_nl", "all", "loop_rand", "target_nl", "random_nl")

    def render(self) -> str:
        table = TextTable(
            ["Metric", "mean(all)", "std(all)", "mean(most)", "std(most)"],
            title=f"Table 7: summary (excluded from 'most': "
                  f"{', '.join(self.excluded) or 'none'})")
        labels = {
            "heuristic_nl": "Heuristic miss, non-loop",
            "all": "Heuristic miss, all branches",
            "loop_rand": "Loop+Rand miss, all branches",
            "target_nl": "Tgt miss, non-loop",
            "random_nl": "Rnd miss, non-loop",
        }
        for key in self._COLUMNS:
            a = self.all_stats[key]
            m = self.most_stats[key]
            table.add_row(labels[key], pct(a[0]), pct(a[1]), pct(m[0]),
                          pct(m[1]))
        rendered = table.render()
        if self.failed:
            rendered += f"\nFAILED (excluded): {', '.join(self.failed)}"
        return rendered


def table7(runner: SuiteRunner, big_threshold: float = 0.9,
           big_count_limit: int = 6,
           order: tuple[str, ...] | None = None,
           t6: Table6 | None = None) -> Table7:
    """The paper's exclusion rule, literally: programs where "over 90% of
    the non-loop branches are accounted for by a few branch instructions" —
    we read "a few" as at most *big_count_limit* big branches.  The
    statistics summarize *t6*, the Table 6 of *runner* under *order*;
    without one it is built here (*order* defaults to the paper chain)."""
    if t6 is None:
        t6 = table6(runner, order=order)
    excluded = []
    runs, failed = _runs_and_failures(runner)
    for run in runs:
        big = big_branches(run.profile, run.analysis)
        if big.fraction_of_dynamic > big_threshold \
                and big.count <= big_count_limit:
            excluded.append(run.name)

    def stats(rows: list[Table6Row]) -> dict[str, tuple[float, float]]:
        return {
            "heuristic_nl": mean_std([r.with_default_miss for r in rows]),
            "all": mean_std([r.all_miss for r in rows]),
            "loop_rand": mean_std([r.loop_rand_miss for r in rows]),
            "target_nl": mean_std([r.target_nl_miss for r in rows]),
            "random_nl": mean_std([r.random_nl_miss for r in rows]),
        }

    most_rows = [r for r in t6.rows if r.name not in excluded]
    return Table7(stats(t6.rows), stats(most_rows), excluded,
                  failed=[oc.benchmark for oc in failed])
