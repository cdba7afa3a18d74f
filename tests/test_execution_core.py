"""One execution core: ``repro.harness.parallel.execute``.

The serial runner, the ``--jobs`` pool worker and the prediction service
all execute a (benchmark, dataset) run through the same function, so a
run means the same thing whichever process runs it.  These tests spy on
that function to pin who calls it and how often, and check that serial
and pooled runs count failures identically.
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.errors import SimulationLimitExceeded
from repro.harness import SuiteRunner
from repro.harness import parallel
from repro.harness.parallel import run_shard
from repro.service.engine import JobEngine, ServiceConfig, execute_order
from repro.service.jobs import JobKind, JobRequest
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


def test_serial_outcome_runs_the_core_once_per_memo_miss(core_calls):
    runner = SuiteRunner(["queens"])
    assert runner.outcome("queens", "small").ok
    assert core_calls == [("queens", "small")]
    assert runner.outcome("queens", "small").ok  # memo hit
    assert core_calls == [("queens", "small")]


def test_a_disk_hit_also_goes_through_the_core(core_calls, tmp_path):
    SuiteRunner(["queens"], cache_dir=tmp_path).run("queens", "small")
    sink = Telemetry()
    with telemetry.use(sink):
        warm = SuiteRunner(["queens"], cache_dir=tmp_path)
        assert warm.outcome("queens", "small").ok
    assert core_calls == [("queens", "small")] * 2
    assert sink.counters().get("sim.runs", 0) == 0


def test_run_shard_runs_the_core_once(core_calls):
    job = SuiteRunner(["queens"])._shard_job("queens", "small")
    assert run_shard(job).ok
    assert core_calls == [("queens", "small")]


@pytest.mark.parametrize("kind, calls", [
    (JobKind.SIMULATE, 1), (JobKind.PREDICT, 1), (JobKind.COMPILE, 0)])
def test_service_orders_run_the_core_except_compiles(core_calls, kind, calls):
    engine = JobEngine(ServiceConfig(workers=1, health_interval_s=0))
    order = engine._order_for(
        JobRequest(kind=kind, benchmark="queens", dataset="small"))
    result = execute_order(order)
    assert result.ok and result.analysis is not None
    assert len(core_calls) == calls


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
