"""One execution core: ``repro.harness.parallel.execute``.

The serial runner and the ``--jobs`` pool worker both execute a
(benchmark, dataset) run through the same function, so a run means the
same thing whichever process runs it.  These tests spy on
that function to pin who calls it and how often, check that serial
and pooled runs count failures identically, and pin by a count that
an uncached run lays its superblocks out along the Ball–Larus
prediction.
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.core.predictors import HeuristicPredictor
from repro.errors import SimulationLimitExceeded
from repro.harness import SuiteRunner
from repro.harness import parallel
from repro.harness.parallel import run_shard
from repro.sim import EdgeProfile, Machine
from repro.telemetry import Telemetry


@pytest.fixture
def core_calls(monkeypatch):
    """Every call of the execution core made in this process, as
    (benchmark, dataset)."""
    calls = []
    core = parallel.execute

    def spy(job, cache):
        calls.append((job.benchmark, job.dataset))
        return core(job, cache)

    monkeypatch.setattr(parallel, "execute", spy)
    return calls


@pytest.fixture
def layouts_built(monkeypatch):
    """Every Ball–Larus prediction map built in this process."""
    built = []
    build = HeuristicPredictor.prediction_map

    def spy(self):
        built.append(self)
        return build(self)

    monkeypatch.setattr(HeuristicPredictor, "prediction_map", spy)
    return built


def test_serial_outcome_runs_the_core_once_per_memo_miss(core_calls):
    runner = SuiteRunner(["queens"])
    assert runner.outcome("queens", "small").ok
    assert core_calls == [("queens", "small")]
    assert runner.outcome("queens", "small").ok  # memo hit
    assert core_calls == [("queens", "small")]


def test_a_disk_hit_also_goes_through_the_core(core_calls, layouts_built,
                                              tmp_path):
    SuiteRunner(["queens"], cache_dir=tmp_path).run("queens", "small")
    assert len(layouts_built) == 1
    sink = Telemetry()
    with telemetry.use(sink):
        warm = SuiteRunner(["queens"], cache_dir=tmp_path)
        assert warm.outcome("queens", "small").ok
    assert core_calls == [("queens", "small")] * 2
    assert sink.counters().get("sim.runs", 0) == 0
    assert len(layouts_built) == 1, "a run-cache hit built a layout"


def test_uncached_runs_follow_the_ball_larus_layout():
    """An uncached queens run side-exits under half as often as the same
    run under BTFN: its superblocks follow the paper's prediction."""
    from repro.bench.suite import get
    runner = SuiteRunner(["queens"])
    executable, _ = runner.compiled("queens")
    inputs = get("queens").dataset("small").inputs
    counts = []
    for run in (lambda: runner.run("queens", "small"),
                lambda: Machine(executable, inputs=list(inputs),
                                observers=[EdgeProfile()]).run()):
        sink = Telemetry()
        with telemetry.use(sink):
            run()
        counts.append(sink.counters()["sim.tier1.side_exits"])
    ball_larus, btfn = counts
    assert ball_larus < btfn / 2, counts


def test_run_shard_runs_the_core_once(core_calls):
    job = SuiteRunner(["queens"])._shard_job("queens", "small")
    assert run_shard(job).ok
    assert core_calls == [("queens", "small")]


@pytest.mark.parametrize("strict, expected", [(True, 0), (False, 1)])
def test_pooled_runs_count_failures_like_serial_runs(strict, expected):
    counts = []
    for parallelism in (1, 2):
        sink = Telemetry()
        with telemetry.use(sink):
            runner = SuiteRunner(["queens", "fields"], strict=strict,
                                 parallelism=parallelism)
            runner.limit_fuel("queens", 1000)
            if strict:
                with pytest.raises(SimulationLimitExceeded):
                    runner.all_outcomes("small")
            else:
                assert runner.all_outcomes("small")[0].failed
        family = sink.labeled_counters().get("harness.failures_by_status")
        counts.append((sink.counters().get("harness.degraded_failures", 0),
                       family.values.get("timeout", 0) if family else 0))
    assert counts == [(expected, expected)] * 2
