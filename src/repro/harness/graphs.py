"""Generators for every graph in the paper (Graphs 1-13).

Graphs are returned as data series (x/y arrays or dicts of curves), ready to
plot or to assert properties over in tests/benchmarks; ``describe()`` gives
a text summary in lieu of the figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.model import model_family
from repro.core.orders import (
    SubsetExperimentResult, all_orders_curve, subset_experiment,
)
from repro.core.predictors import HeuristicPredictor, PerfectPredictor
from repro.errors import ReproError
from repro.harness.resilience import RunOutcome, classify_failure
from repro.harness.runner import BenchmarkRun, SuiteRunner
from repro.harness.tables import _runs_and_failures, order_data_for
from repro.sim.trace import SequenceAnalyzer

__all__ = [
    "graph1", "graphs2_3", "SequenceGraphs", "graphs4_11", "graph12",
    "Graph13", "graph13", "SEQUENCE_BENCHMARKS",
]

#: benchmarks used in the paper's sequence-length graphs (gcc, lcc, qpt,
#: xlisp, doduc, fpppp, spice2g6) mapped to our analogues; cg plays spice
#: (Graphs 4 and 5 are both spice).
SEQUENCE_BENCHMARKS = ("cg", "exprc", "scc", "minilisp", "microlog", "nbody",
                       "quad")


@dataclass
class Graph1:
    """Sorted average miss rates of all 5040 orders."""

    curve: np.ndarray  #: sorted ascending
    failed: list[str] = field(default_factory=list)

    @property
    def spread(self) -> float:
        """Worst order minus best order (how much ordering matters)."""
        return float(self.curve[-1] - self.curve[0])

    def describe(self) -> str:
        note = (f" (FAILED, excluded: {', '.join(self.failed)})"
                if self.failed else "")
        return (f"Graph 1: {len(self.curve)} orders; best "
                f"{100 * self.curve[0]:.2f}%, median "
                f"{100 * float(np.median(self.curve)):.2f}%, worst "
                f"{100 * self.curve[-1]:.2f}%{note}")


def graph1(runner: SuiteRunner,
           exclude: tuple[str, ...] = ("matmul",)) -> Graph1:
    runs, failed = _runs_and_failures(runner)
    datasets = [order_data_for(run) for run in runs
                if run.name not in exclude]
    return Graph1(all_orders_curve(datasets),
                  failed=[oc.benchmark for oc in failed])


@dataclass
class Graphs2And3:
    """The subset experiment's cumulative trial share (Graph 2) and
    per-order overall miss rates (Graph 3), over the most common orders."""

    result: SubsetExperimentResult
    top_n: int = 101
    failed: list[str] = field(default_factory=list)

    @property
    def cumulative_share(self) -> np.ndarray:
        return self.result.cumulative_trial_share()[:self.top_n]

    @property
    def miss_rates(self) -> np.ndarray:
        return np.array(self.result.overall_miss_rates[:self.top_n])

    def describe(self) -> str:
        share = self.cumulative_share
        n40 = min(40, len(share)) - 1
        return (f"Graphs 2-3: {len(self.result.orders)} distinct winning "
                f"orders over {self.result.n_trials} trials; top-40 orders "
                f"cover {100 * share[n40]:.1f}% of trials; their miss rates "
                f"span {100 * self.miss_rates.min():.2f}%-"
                f"{100 * self.miss_rates[:n40 + 1].max():.2f}%")


def graphs2_3(runner: SuiteRunner, exclude: tuple[str, ...] = ("matmul",),
              k: int | None = None) -> Graphs2And3:
    runs, failed = _runs_and_failures(runner)
    datasets = [order_data_for(run) for run in runs
                if run.name not in exclude]
    return Graphs2And3(subset_experiment(datasets, k=k),
                       failed=[oc.benchmark for oc in failed])


@dataclass
class SequenceGraphs:
    """Graphs 4-11 data for one benchmark: the three predictors' cumulative
    sequence-length distributions (instruction-weighted, plus the
    break-weighted variant the paper shows for spice in Graph 5)."""

    name: str
    analyzers: dict[str, SequenceAnalyzer]
    #: populated instead of analyzers when the benchmark failed (degraded)
    failure: RunOutcome | None = None

    @property
    def failed(self) -> bool:
        return self.failure is not None

    def instruction_curves(self) -> dict[str, list[tuple[int, float]]]:
        return {name: a.cumulative_instructions()
                for name, a in self.analyzers.items()}

    def break_curves(self) -> dict[str, list[tuple[int, float]]]:
        return {name: a.cumulative_breaks()
                for name, a in self.analyzers.items()}

    def describe(self) -> str:
        if self.failure is not None:
            return (f"Graph (sequences) {self.name}: "
                    f"{self.failure.failure_label()}")
        parts = [f"Graph (sequences) {self.name}:"]
        for name, a in self.analyzers.items():
            parts.append(
                f"  {name:10s} miss={100 * a.miss_rate:.0f}% "
                f"ipbc={a.ipbc_average:.0f} dividing={a.dividing_length}")
        return "\n".join(parts)


def graphs4_11(runner: SuiteRunner,
               benchmarks: tuple[str, ...] = SEQUENCE_BENCHMARKS
               ) -> list[SequenceGraphs]:
    """Run the trace-based sequence experiment for the paper's
    hard-to-predict benchmark set (cached by :meth:`SuiteRunner.sequences`).

    In degraded mode a benchmark whose run or sequence pass failed yields
    a placeholder entry whose ``failure`` field carries the classified
    outcome."""
    out = []
    for name in benchmarks:
        outcome = runner.outcome(name)
        if outcome.failed:  # unreachable in strict mode (outcome raises)
            out.append(SequenceGraphs(name, {}, failure=outcome))
            continue
        try:
            out.append(SequenceGraphs(name, runner.sequences(name)))
        except ReproError as exc:
            if runner.strict:
                raise
            out.append(SequenceGraphs(name, {}, failure=RunOutcome(
                name, outcome.dataset, classify_failure(exc), error=exc)))
    return out


def graph12(max_length: int = 101) -> dict[float, np.ndarray]:
    """The analytic model family f(m,s) = 1-(1-m)^s for m=0.025..0.30."""
    return model_family(max_length=max_length)


@dataclass
class Graph13Point:
    benchmark: str
    dataset: str
    heuristic_miss: float
    perfect_miss: float


@dataclass
class Graph13:
    points: list[Graph13Point]
    failed: list[RunOutcome] = field(default_factory=list)

    def by_benchmark(self) -> dict[str, list[Graph13Point]]:
        out: dict[str, list[Graph13Point]] = {}
        for p in self.points:
            out.setdefault(p.benchmark, []).append(p)
        return out

    def describe(self) -> str:
        lines = ["Graph 13: miss rates (all branches) across datasets"]
        for name, points in self.by_benchmark().items():
            cells = " ".join(
                f"{p.dataset}:{100 * p.heuristic_miss:.0f}/"
                f"{100 * p.perfect_miss:.0f}" for p in points)
            lines.append(f"  {name:10s} {cells}")
        for oc in self.failed:
            lines.append(f"  {oc.benchmark:10s} {oc.dataset}: "
                         f"{oc.failure_label()}")
        return "\n".join(lines)


def graph13(runner: SuiteRunner,
            benchmarks: list[str] | None = None) -> Graph13:
    """Heuristic vs perfect miss rates on every dataset of every benchmark.

    The heuristic predictor makes the *same* predictions regardless of
    dataset (it is program-based); the perfect predictor is re-derived per
    dataset."""
    from repro.bench.suite import get
    from repro.core.evaluation import evaluate_predictor

    points = []
    failed: list[RunOutcome] = []
    names = benchmarks or runner.benchmark_names
    for name in names:
        if runner.is_skipped(name) and not runner.strict:
            failed.append(runner.outcome(name))
            continue
        benchmark = get(name)
        for ds in benchmark.datasets:
            outcome = runner.outcome(name, ds.name)
            if outcome.failed:  # unreachable in strict mode (raises)
                failed.append(outcome)
                continue
            run = outcome.require()
            heuristic = HeuristicPredictor(run.analysis)
            perfect = PerfectPredictor(run.analysis, run.profile)
            h_eval = evaluate_predictor(heuristic, run.profile)
            p_eval = evaluate_predictor(perfect, run.profile)
            points.append(Graph13Point(name, ds.name, h_eval.miss_rate,
                                       p_eval.miss_rate))
    return Graph13(points, failed)
