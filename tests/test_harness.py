"""Tests for the experiment harness over a small benchmark subset."""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from conftest import MINI_SUITE
from repro import telemetry
from repro.bench.suite import Benchmark, Dataset, registered
from repro.core import orders
from repro.errors import SimulationLimitExceeded
from repro.harness import (
    SuiteRunner, TextTable, cd_cell, graph1, graph12, graph13, graphs2_3,
    graphs4_11, mean_std, pct, table1, table2, table3, table4, table5,
    table6, table7,
)
from repro.harness import graphs, tables
from repro.harness.tables import heuristic_table, order_data_for
from repro.sim import FORCE_TIER0_ENV, Machine, SequenceLog
from repro.telemetry import Telemetry


class TestReportHelpers:
    def test_pct(self):
        assert pct(0.256) == "26"
        assert pct(0.0) == "0"

    def test_cd_cell(self):
        assert cd_cell(0.26, 0.10) == "26/10"

    def test_mean_std(self):
        mean, std = mean_std([1.0, 2.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert std == pytest.approx((2 / 3) ** 0.5)
        assert mean_std([]) == (0.0, 0.0)

    def test_text_table(self):
        t = TextTable(["A", "B"], title="T")
        t.add_row("x", 1)
        t.add_separator()
        t.add_row("yy", 22)
        rendered = t.render()
        assert "T" in rendered
        assert rendered.count("---") >= 2
        with pytest.raises(ValueError):
            t.add_row("only one")


class TestRunner:
    def test_memoizes_runs(self, mini_runner):
        a = mini_runner.run("queens", "small")
        b = mini_runner.run("queens", "small")
        assert a is b

    def test_memoizes_compiles(self, mini_runner):
        x1, _ = mini_runner.compiled("queens")
        x2, _ = mini_runner.compiled("queens")
        assert x1 is x2

    def test_run_fields(self, queens_run):
        assert queens_run.dynamic_total > 0
        assert queens_run.loop_addresses
        assert queens_run.non_loop_addresses
        assert 0.0 <= queens_run.non_loop_fraction <= 1.0
        assert set(queens_run.executed_non_loop) <= \
            set(queens_run.non_loop_addresses)

    def test_all_runs_order(self, mini_runner):
        runs = mini_runner.all_runs("small")
        assert [r.name for r in runs] == MINI_SUITE


@pytest.fixture(scope="module")
def small_runner():
    """A runner whose default 'ref' accesses are replaced by tiny datasets:
    use the 'small' dataset name explicitly through run()."""
    runner = SuiteRunner(MINI_SUITE)
    # pre-warm with small datasets and alias them as ref to keep table
    # generators (which use the default dataset) fast
    for name in MINI_SUITE:
        run = runner.run(name, "small")
        runner._runs[(name, "ref")] = run
    return runner


class TestTables:
    def test_table1(self, small_runner):
        t = table1(small_runner)
        assert len(t.rows) == len(MINI_SUITE)
        assert all(r.code_size_kb > 0 for r in t.rows)
        rendered = t.render()
        for name in MINI_SUITE:
            assert name in rendered

    def test_table2(self, small_runner):
        t = table2(small_runner)
        assert len(t.rows) == len(MINI_SUITE)
        for r in t.rows:
            assert 0 <= r.loop_pred_miss <= 1
            assert r.loop_perfect <= r.loop_pred_miss + 1e-9
            assert 0 <= r.non_loop_fraction <= 1
            assert r.big_count >= 0
        assert "MEAN" in t.render()

    def test_table3(self, small_runner):
        t = table3(small_runner)
        for row in t.rows:
            assert set(row.cells) == {"Opcode", "Loop", "Call", "Return",
                                      "Guard", "Store", "Point"}
            for cell in row.cells.values():
                assert 0 <= cell.coverage <= 1
                assert cell.perfect <= cell.miss + 1e-9
        t.render()

    def test_table4_small_subsets(self, small_runner):
        t = table4(small_runner, exclude=(), k=1)
        assert t.n_trials == len(MINI_SUITE)
        assert t.top_orders
        assert sorted(t.pairwise) == sorted(
            ["Opcode", "Loop", "Call", "Return", "Guard", "Store", "Point"])
        t.render()

    def test_table5(self, small_runner):
        t = table5(small_runner)
        for row in t.rows:
            # coverages of the order slots + Default partition the dynamic
            # non-loop count
            total = sum(c.coverage for c in row.cells.values())
            assert total == pytest.approx(1.0, abs=1e-6)
        t.render()

    def test_table6(self, small_runner):
        t = table6(small_runner)
        for row in t.rows:
            assert 0 <= row.heuristic_coverage <= 1
            assert row.all_perfect <= row.all_miss + 1e-9
            assert row.all_perfect <= row.loop_rand_miss + 1e-9
        t.render()

    def test_table7(self, small_runner):
        t = table7(small_runner)
        assert set(t.all_stats) == set(t.most_stats)
        for key, (mean, std) in t.all_stats.items():
            assert 0 <= mean <= 1
        t.render()

    def test_table7_summarizes_a_given_table6(self, small_runner,
                                              monkeypatch):
        t6 = table6(small_runner)
        expected = table7(small_runner)
        monkeypatch.setattr(tables, "table6", None)  # not built again
        assert table7(small_runner, t6=t6) == expected

    def test_heuristic_table_cached(self, queens_run):
        a = heuristic_table(queens_run)
        b = heuristic_table(queens_run)
        assert a is b

    def test_order_data_cached(self, queens_run):
        assert order_data_for(queens_run) is order_data_for(queens_run)

    def test_order_data_reads_the_heuristic_table(self, queens_run,
                                                  monkeypatch):
        run = queens_run
        fresh = orders.build_order_data(run.name, run.analysis, run.profile)
        table = heuristic_table(run)
        monkeypatch.setattr(orders, "applicable_heuristics", None)
        data = orders.build_order_data(run.name, run.analysis, run.profile,
                                       table=table)
        for column in ("applies", "predict_taken", "taken", "not_taken",
                       "default_taken"):
            assert np.array_equal(getattr(data, column),
                                  getattr(fresh, column))


class TestGraphs:
    def test_graph1(self, small_runner):
        g = graph1(small_runner, exclude=())
        assert len(g.curve) == 5040
        assert g.spread >= 0
        assert "orders" in g.describe()

    def test_graphs2_3(self, small_runner):
        g = graphs2_3(small_runner, exclude=(), k=1)
        assert g.result.n_trials == len(MINI_SUITE)
        assert g.cumulative_share[-1] <= 1.0 + 1e-9
        g.describe()

    def test_graphs2_3_refuses_k_above_benchmark_count(self, small_runner):
        with pytest.raises(ValueError, match=r"k=5 .* n=3"):
            graphs2_3(small_runner, exclude=(), k=5)

    def test_graphs2_3_single_benchmark(self, small_runner):
        """One benchmark (as with --benchmarks X) gives one k=0 trial."""
        g = graphs2_3(small_runner, exclude=("fields", "gauss"))
        assert g.result.n_trials == 1
        assert g.cumulative_share[-1] == 1.0
        assert "over 1 trials" in g.describe()

    def test_graphs4_11(self, small_runner):
        (sg,) = graphs4_11(small_runner, benchmarks=("queens",))
        curves = sg.instruction_curves()
        assert set(curves) == {"Loop+Rand", "Heuristic", "Perfect"}
        # perfect predictor must not mispredict more than the others
        perfect = sg.analyzers["Perfect"]
        for name, analyzer in sg.analyzers.items():
            assert perfect.n_mispredicts <= analyzer.n_mispredicts
        sg.describe()

    def test_graph12(self):
        family = graph12(max_length=50)
        assert all(len(curve) == 50 for curve in family.values())

    def test_graph13(self, small_runner, monkeypatch):
        built = mock.Mock(wraps=graphs.HeuristicPredictor)
        monkeypatch.setattr(graphs, "HeuristicPredictor", built)
        g = graph13(small_runner, benchmarks=["queens"])
        assert len(g.points) == 3  # three datasets
        assert built.call_count == 1  # one program: one set of predictions
        for p in g.points:
            assert p.perfect_miss <= p.heuristic_miss + 1e-9
        assert "queens" in g.describe()


#: reads n, then sums n values; trailing inputs are never read, so a
#: truncated dataset still completes
SUM_SOURCE = """
int main() {
    int n = read_int();
    int i;
    int s = 0;
    for (i = 0; i < n; i++) { s += read_int(); }
    print_int(s);
    return 0;
}
"""


@pytest.fixture
def machines(monkeypatch):
    """Every Machine built while the test runs, as its effective limits."""
    built = []
    original = Machine.__init__

    def spy(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(SimpleNamespace(
            sequences=any(isinstance(ob, SequenceLog)
                          for ob in self.observers),
            inputs=tuple(self.inputs), fuel=self.max_instructions,
            memory=kwargs.get("max_memory_bytes"),
            deadline=self.wall_clock_deadline, engine=self.engine))

    monkeypatch.setattr(Machine, "__init__", spy)
    return built


class TestSequencePass:
    """``SuiteRunner.sequences`` re-simulates a run exactly as it was
    profiled: same engine, inputs, memory cap, and deadline."""

    def test_runs_on_the_runner_engine(self, machines, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
        monkeypatch.delenv(FORCE_TIER0_ENV, raising=False)
        runner = SuiteRunner(["queens"], engine="tier0")
        graphs4_11(runner, benchmarks=("queens",))
        assert [m.sequences for m in machines] == [False, True]
        assert [m.engine for m in machines] == ["tier0", "tier0"]

    def test_uses_the_profile_runs_effective_limits(self, machines):
        summer = Benchmark("seqsum", "int", "sums n inputs", "none",
                           (Dataset("ref", (3, 1, 2, 3, 7, 7)),
                            Dataset("small", (2, 5, 6, 9, 9))),
                           source_text=SUM_SOURCE)
        with registered([summer]):
            runner = SuiteRunner(["seqsum"], wall_clock_deadline=60.0)
            runner.limit_inputs("seqsum", 3, dataset="small")
            runner.limit_memory("seqsum", 1 << 20, dataset="small")
            # alias the small run as ref, as small_runner does: the
            # limits must come from the dataset that actually ran
            run = runner.run("seqsum", "small")
            runner._runs[("seqsum", "ref")] = run
            (sg,) = graphs4_11(runner, benchmarks=("seqsum",))
        profile, sequences = machines
        assert sequences.sequences and not profile.sequences
        assert sequences.inputs == profile.inputs == (2, 5, 6)
        assert sequences.memory == profile.memory == 1 << 20
        assert sequences.deadline == profile.deadline == 60.0
        assert sequences.fuel == profile.fuel
        assert run.output == "11"
        assert sg.analyzers["Perfect"].total_instructions == run.instr_count

    def test_fits_the_fuel_of_a_retried_profile_run(self):
        needed = SuiteRunner(["queens"]).run("queens").instr_count
        runner = SuiteRunner(["queens"], strict=False, retry_fuel_factor=4)
        runner.limit_fuel("queens", needed // 2)
        assert runner.outcome("queens").retried
        (sg,) = graphs4_11(runner, benchmarks=("queens",))
        assert not sg.failed
        assert sg.analyzers["Perfect"].total_instructions == needed

    @staticmethod
    def _starved_runner(strict: bool) -> SuiteRunner:
        """A runner whose memoized queens run fits, but whose sequence
        pass gets too little fuel."""
        runner = SuiteRunner(["queens"], strict=strict)
        runner.run("queens")
        runner.limit_fuel("queens", 100)
        return runner

    def test_failed_sequence_pass_raises_in_strict_mode(self):
        with pytest.raises(SimulationLimitExceeded) as info:
            graphs4_11(self._starved_runner(True), benchmarks=("queens",))
        assert info.value.benchmark == "queens"

    def test_failed_sequence_pass_renders_failed_when_degraded(self):
        (sg,) = graphs4_11(self._starved_runner(False),
                           benchmarks=("queens",))
        assert sg.failed and "FAILED" in sg.describe()

    def test_second_call_is_memoized(self):
        sink = Telemetry()
        with telemetry.use(sink):
            runner = SuiteRunner(["queens"])
            first = runner.sequences("queens")
            assert sink.counters()["sim.runs"] == 2
            assert runner.sequences("queens") is first
            graphs4_11(runner, benchmarks=("queens",))
        assert sink.counters()["sim.runs"] == 2

    def test_every_simulation_has_a_simulate_span(self):
        sink = Telemetry()
        with telemetry.use(sink):
            runner = SuiteRunner(MINI_SUITE)
            table1(runner)
            graphs4_11(runner, benchmarks=tuple(MINI_SUITE))
        spans = [s for s in sink.spans if s.name == "simulate"]
        assert len(spans) == sink.counters()["sim.runs"] == 2 * len(MINI_SUITE)
        assert [s.args.get("kind") for s in spans].count("sequences") \
            == len(MINI_SUITE)
