"""Engine-level fault-tolerance tests: dedupe, crash containment,
quarantine, deadlines, backpressure, and the circuit breaker.

The engine runs on a real event loop with real forked worker processes
(``asyncio.run`` inside sync tests — no plugin needed); the worker
*behavior* is injected through module-level exec functions so each test
drives exactly one failure mode without touching the benchmark
pipeline.  The invariant under test everywhere: **every accepted job
terminates in a typed state** — nothing lost, nothing hung, no bare
exceptions.
"""

from __future__ import annotations

import asyncio
import os
from time import sleep

from repro.harness.resilience import RunStatus
from repro.harness.parallel import ShardResult
from repro.service.breaker import BreakerState, CircuitBreaker
from repro.service.engine import JobEngine, ServiceConfig, execute_order
from repro.service.jobs import JobKind, JobRequest, JobState
from repro.testing.chaos import chaos_env


# -- injected worker behaviors (module-level: they must pickle) ---------------

def _exec_ok(order) -> ShardResult:
    return ShardResult(benchmark=order.shard.benchmark,
                       dataset=order.shard.dataset, status=RunStatus.OK)


def _exec_crash(order) -> ShardResult:
    os._exit(11)  # simulated segfault: kills this worker process


def _exec_slow(order) -> ShardResult:
    sleep(30.0)
    return _exec_ok(order)


def _exec_briefly_slow(order) -> ShardResult:
    sleep(0.4)
    return _exec_ok(order)


def _exec_undecodable(order):
    return "not a ShardResult"


def _request(benchmark: str = "queens") -> JobRequest:
    # compile orders skip dataset resolution: fastest round-trip
    return JobRequest(kind=JobKind.COMPILE, benchmark=benchmark)


def _run(test_coro_fn, config: ServiceConfig, exec_fn):
    """Start an engine, run the test body against it, always stop it."""
    async def _inner():
        engine = JobEngine(config, exec_fn=exec_fn)
        await engine.start()
        try:
            return await test_coro_fn(engine)
        finally:
            await engine.stop()
    return asyncio.run(_inner())


# -- healthy path -------------------------------------------------------------

def test_submit_and_wait_returns_done_payload():
    async def body(engine):
        record = await engine.submit_and_wait(_request(), timeout_s=30)
        assert record.state is JobState.DONE
        assert record.result == {"benchmark": "queens", "kind": "compile"}
        assert record.attempts == 1 and record.crashes == 0
        stats = engine.stats()
        assert stats["jobs"]["submitted"] == 1
        assert stats["jobs"]["done"] == 1
        assert stats["inflight"] == 0
    _run(body, ServiceConfig(workers=1, health_interval_s=0), _exec_ok)


def test_unknown_benchmark_fails_typed_at_submit():
    async def body(engine):
        record = engine.submit(_request("no-such-benchmark"))
        assert record.finished and record.state is JobState.FAILED
        assert record.error["code"] == "repro-error"
        assert "unknown benchmark" in record.error["message"]
    _run(body, ServiceConfig(workers=1, health_interval_s=0), _exec_ok)


# -- in-flight dedupe ---------------------------------------------------------

def test_identical_inflight_requests_share_one_execution():
    async def body(engine):
        first = engine.submit(_request())
        second = engine.submit(_request())   # same key, first still queued
        third = engine.submit(_request("fields"))  # different key: no dedupe
        assert second.deduped_into == first.id
        assert third.deduped_into is None
        records = await asyncio.gather(
            engine.wait(first.id, 30), engine.wait(second.id, 30),
            engine.wait(third.id, 30))
        assert [r.state for r in records] == [JobState.DONE] * 3
        assert records[1].result == records[0].result
        stats = engine.stats()
        assert stats["jobs"]["deduped"] == 1
        assert stats["jobs"]["done"] == 3
    _run(body, ServiceConfig(workers=1, health_interval_s=0),
         _exec_briefly_slow)


def test_dedupe_does_not_chain_to_finished_jobs():
    async def body(engine):
        first = await engine.submit_and_wait(_request(), timeout_s=30)
        assert first.state is JobState.DONE
        again = engine.submit(_request())    # primary finished: fresh run
        assert again.deduped_into is None
        record = await engine.wait(again.id, 30)
        assert record.state is JobState.DONE
    _run(body, ServiceConfig(workers=1, health_interval_s=0), _exec_ok)


def test_dedupe_never_merges_job_kinds():
    """A predict job over the same run as an in-flight simulate job gets
    its own execution and its own payload."""
    async def body(engine):
        simulate = engine.submit(JobRequest(
            kind=JobKind.SIMULATE, benchmark="queens", dataset="small"))
        predict = engine.submit(JobRequest(
            kind=JobKind.PREDICT, benchmark="queens", dataset="small"))
        assert predict.deduped_into is None
        records = await asyncio.gather(engine.wait(simulate.id, 60),
                                       engine.wait(predict.id, 60))
        assert [r.state for r in records] == [JobState.DONE] * 2
        assert records[0].result["kind"] == "simulate"
        assert "prediction" not in records[0].result
        assert records[1].result["kind"] == "predict"
        assert "prediction" in records[1].result
        assert engine.stats()["jobs"]["deduped"] == 0
    _run(body, ServiceConfig(workers=1, health_interval_s=0), execute_order)


# -- crash containment / quarantine -------------------------------------------

def test_worker_crash_is_retried_then_quarantined():
    async def body(engine):
        record = await engine.submit_and_wait(_request(), timeout_s=60)
        # attempt 1 crashes a worker, redispatch crashes a second:
        # threshold 2 reached -> poison-job quarantine, typed
        assert record.state is JobState.QUARANTINED
        assert record.error["code"] == "job-quarantined-error"
        assert record.crashes == 2 and record.attempts == 2
        assert engine.supervisor.respawns >= 2, \
            "each crash must respawn the slot"
        # the key is now refused at submit time, no worker touched
        repeat = engine.submit(_request())
        assert repeat.finished
        assert repeat.state is JobState.QUARANTINED
        assert engine.stats()["quarantined_keys"] == 1
    _run(body, ServiceConfig(workers=1, health_interval_s=0,
                             crash_retries=1, quarantine_threshold=2),
         _exec_crash)


def test_worker_crash_fails_typed_when_out_of_retries():
    async def body(engine):
        record = await engine.submit_and_wait(_request(), timeout_s=60)
        assert record.state is JobState.FAILED
        assert record.error["code"] == "worker-crash-error"
        assert record.error["benchmark"] == "queens"
    _run(body, ServiceConfig(workers=1, health_interval_s=0,
                             crash_retries=0, quarantine_threshold=99),
         _exec_crash)


def test_respawned_slot_keeps_serving_after_a_crash():
    async def body(engine):
        bad = await engine.submit_and_wait(_request(), timeout_s=60)
        assert bad.state is JobState.FAILED
        # a different key still gets a (fresh) worker and its own typed
        # terminal state — one poison key never wedges the engine
        other = await engine.submit_and_wait(_request("fields"),
                                             timeout_s=60)
        assert other.state is JobState.FAILED
        assert other.error["benchmark"] == "fields"
        assert engine.supervisor.respawns >= 2
    _run(body, ServiceConfig(workers=1, health_interval_s=0,
                             crash_retries=0, quarantine_threshold=99),
         _exec_crash)


# -- deadlines / undecodable results ------------------------------------------

def test_deadline_kills_wedged_worker_and_fails_typed():
    async def body(engine):
        record = await engine.submit_and_wait(_request(), timeout_s=60)
        assert record.state is JobState.FAILED
        assert record.error["code"] == "job-deadline-error"
        assert engine.supervisor.respawns >= 1, \
            "a wedged worker must be killed and replaced"
    _run(body, ServiceConfig(workers=1, health_interval_s=0,
                             deadline_s=0.5), _exec_slow)


def test_undecodable_worker_result_fails_typed():
    async def body(engine):
        record = await engine.submit_and_wait(_request(), timeout_s=60)
        assert record.state is JobState.FAILED
        assert record.error["code"] == "worker-result-error"
    _run(body, ServiceConfig(workers=1, health_interval_s=0),
         _exec_undecodable)


# -- backpressure -------------------------------------------------------------

def test_queue_overflow_sheds_typed_rejections():
    async def body(engine):
        # submit() never yields to the loop, so the dispatcher cannot
        # drain between these calls: 1 fills the queue, 2 overflows
        first = engine.submit(_request("queens"))
        second = engine.submit(_request("fields"))
        assert not first.finished
        assert second.state is JobState.REJECTED
        assert second.error["code"] == "job-rejected-error"
        assert "queue full" in second.error["message"]
        done = await engine.wait(first.id, 30)
        assert done.state is JobState.DONE
    _run(body, ServiceConfig(workers=1, health_interval_s=0,
                             queue_limit=1), _exec_ok)


# -- circuit breaker ----------------------------------------------------------

def test_breaker_opens_after_engine_failures_and_sheds_load():
    async def body(engine):
        first = await engine.submit_and_wait(_request(), timeout_s=60)
        assert first.state is JobState.FAILED   # one crash: breaker trips
        assert engine.breaker.state is BreakerState.OPEN
        shed = engine.submit(_request("fields"))
        assert shed.state is JobState.REJECTED
        assert shed.error["code"] == "job-rejected-error"
        assert "breaker" in shed.error["message"]
        assert engine.stats()["breaker"]["state"] == "open"
    _run(body, ServiceConfig(workers=1, health_interval_s=0,
                             crash_retries=0, quarantine_threshold=99,
                             breaker_failure_threshold=1,
                             breaker_cooldown_s=3600), _exec_crash)


def test_breaker_chaos_seam_forces_open_at_construction():
    async def body(engine):
        assert engine.breaker.state is BreakerState.OPEN
        record = engine.submit(_request())
        assert record.state is JobState.REJECTED
    with chaos_env(breaker_trip=1):
        _run(body, ServiceConfig(workers=1, health_interval_s=0,
                                 breaker_cooldown_s=3600), _exec_ok)


def test_breaker_recovers_through_half_open_probe():
    clock = [0.0]
    breaker = CircuitBreaker(failure_threshold=2, window_s=30.0,
                             cooldown_s=5.0, half_open_probes=1,
                             clock=lambda: clock[0])
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    assert not breaker.allow(), "open: everything shed"
    clock[0] += 5.0
    assert breaker.allow(), "cooldown over: one probe admitted"
    assert breaker.state is BreakerState.HALF_OPEN
    assert not breaker.allow(), "probe budget is bounded"
    breaker.record_success()
    assert breaker.state is BreakerState.CLOSED
    assert breaker.allow()


def test_breaker_reopens_on_failed_probe():
    clock = [0.0]
    breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0,
                             clock=lambda: clock[0])
    breaker.record_failure()
    clock[0] += 5.0
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    assert breaker.trips == 2


def test_breaker_window_forgets_stale_failures():
    clock = [0.0]
    breaker = CircuitBreaker(failure_threshold=3, window_s=10.0,
                             clock=lambda: clock[0])
    breaker.record_failure()
    breaker.record_failure()
    clock[0] += 11.0  # both failures age out of the window
    breaker.record_failure()
    assert breaker.state is BreakerState.CLOSED
    assert breaker.snapshot()["recent_failures"] == 1
