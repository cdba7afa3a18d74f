"""The fault-tolerant job engine: queue, dedupe, quarantine, breaker.

This is the service's brain.  Jobs flow::

    submit ──► quarantine check ──► in-flight dedupe ──► bounded queue
                                                              │
              circuit breaker ◄── engine-side failures        ▼
                                                     dispatcher tasks
                                                              │
                                                              ▼
                                            WorkerSupervisor (slots)

Every accepted job terminates in a typed state — that is the contract
the chaos drill enforces.  The moving parts:

* **bounded queue + dispatchers** — one dispatcher task per worker slot
  pulls records off an :class:`asyncio.Queue` whose size bound is the
  explicit backpressure limit (overflow is a typed rejection, not an
  unbounded backlog);
* **in-flight dedupe** — a submission whose key (job kind + content
  key) matches a job already queued or running becomes a *follower* of
  that primary: no second execution, no second store write, one shared
  terminal state;
* **poison-job quarantine** — a key that has killed
  ``quarantine_threshold`` workers is refused further workers; new and
  retried submissions for it terminate ``quarantined``;
* **circuit breaker** — *engine-side* failures (crashes, deadlines,
  undecodable results) feed the breaker; deterministic pipeline
  failures do not (a benchmark dividing by zero is the engine working
  exactly as designed).  While open, submissions shed as typed
  rejections;
* **crash redispatch** — the same :class:`~repro.harness.retry.RetryPolicy`
  spine the batch runners use, configured for worker-crash retries with
  exponential backoff.

Execution is the harness's one execution core: every order runs
:func:`repro.harness.parallel.run_shard` (compile orders stop after its
compile step) inside a supervised slot, so the service shares the serial
runner's artifact cache (here lease-guarded), negative caching,
transient-fuel retries, run keys, and chaos seams.  A job's dedupe and
quarantine key is its kind plus that core's content key (the compile key
for compile jobs, the run key otherwise), so a ``predict`` job never
follows a ``simulate`` job over the same run.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass
from time import perf_counter

from repro import telemetry as _telemetry
from repro.telemetry import flight as _flight
from repro.telemetry import tracing as _tracing
from repro.telemetry.export import slo_summary
from repro.bench.suite import get
from repro.errors import (
    JobDeadlineError, JobQuarantinedError, JobRejectedError, ReproError,
    WorkerCrashError, WorkerResultError,
)
from repro.harness.cache import ArtifactCache
from repro.harness.parallel import (
    ShardJob, ShardResult, _job_compile_key, _job_run_key, run_shard,
)
from repro.harness.retry import RetryPolicy
from repro.core.evaluation import evaluate_predictor
from repro.core.predictors import (
    BTFNTPredictor, HeuristicPredictor, LoopRandomPredictor,
)
from repro.service.breaker import CircuitBreaker
from repro.service.jobs import JobKind, JobRecord, JobRequest, JobState
from repro.service.supervisor import WorkerSupervisor

__all__ = ["ServiceConfig", "ServiceOrder", "JobEngine", "execute_order",
           "build_payload"]

#: default per-run instruction budget (mirrors the serial harness)
_DEFAULT_FUEL = 100_000_000


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one :class:`JobEngine` instance."""

    workers: int = 2                    #: supervised worker slots
    queue_limit: int = 64               #: bounded backlog (overflow rejects)
    deadline_s: float | None = 60.0     #: per-attempt service deadline
    cache_dir: str | None = None        #: shared artifact store root
    fuel_budget: int = _DEFAULT_FUEL
    retry_fuel_factor: int = 4          #: transient-fuel retry (in-worker)
    crash_retries: int = 1              #: redispatches after a worker crash
    quarantine_threshold: int = 2       #: worker deaths per key before poison
    breaker_failure_threshold: int = 5
    breaker_window_s: float = 30.0
    breaker_cooldown_s: float = 5.0
    breaker_half_open_probes: int = 1
    health_interval_s: float = 5.0      #: 0 disables the background loop
    health_timeout_s: float = 10.0
    lease_wait_s: float = 10.0          #: lock-aware read wait in workers
    start_method: str | None = None
    max_records: int = 4096             #: finished-record retention bound
    #: simulator execution engine for every job this service runs
    #: (``None``: resolve via REPRO_CHAOS_FORCE_TIER0 / REPRO_SIM_ENGINE,
    #: else tier1); folded into dedupe/cache keys so tiers never alias
    engine: str | None = None


@dataclass
class ServiceOrder:
    """Picklable work order shipped to a supervised worker."""

    kind: str          #: a :class:`JobKind` value
    shard: ShardJob


def execute_order(order: ServiceOrder) -> ShardResult:
    """Worker entry point for service jobs (module-level so it pickles):
    the pool's shard worker, which stops after the compile step for
    compile orders."""
    return run_shard(order.shard,
                     compile_only=order.kind == JobKind.COMPILE.value)


def _rates(result) -> dict:
    return {"miss_rate": round(result.miss_rate, 6),
            "perfect_rate": round(result.perfect_rate, 6),
            "cd": result.cd()}


def build_payload(request: JobRequest, result: ShardResult) -> dict:
    """Wire-format result body for a successful execution.

    A pure function of (request, result) — the smoke drill recomputes it
    from a chaos-free serial run to assert byte-identity with what the
    service returned under fault injection.
    """
    out: dict = {"benchmark": result.benchmark,
                 "kind": request.kind.value}
    analysis = result.analysis
    if analysis is not None:
        loop = sum(1 for b in analysis.branches.values()
                   if b.is_loop_branch)
        out["branches"] = {"total": len(analysis.branches),
                           "loop": loop,
                           "non_loop": len(analysis.branches) - loop}
    if request.kind is JobKind.COMPILE:
        return out
    out["dataset"] = result.dataset
    out["instr_count"] = result.instr_count
    out["output"] = result.output[-2000:]
    if result.profile is not None:
        out["executed_branches"] = len(result.profile.executed_branches())
    if (request.kind is JobKind.PREDICT and analysis is not None
            and result.profile is not None):
        out["prediction"] = {
            "heuristic": _rates(evaluate_predictor(
                HeuristicPredictor(analysis), result.profile)),
            "btfnt": _rates(evaluate_predictor(
                BTFNTPredictor(analysis), result.profile)),
            "loop_rand": _rates(evaluate_predictor(
                LoopRandomPredictor(analysis), result.profile)),
        }
    return out


class JobEngine:
    """Accepts :class:`JobRequest`\\ s; guarantees each a typed ending."""

    def __init__(self, config: ServiceConfig | None = None,
                 exec_fn=execute_order) -> None:
        self.config = config or ServiceConfig()
        cfg = self.config
        self.supervisor = WorkerSupervisor(
            workers=cfg.workers, exec_fn=exec_fn,
            start_method=cfg.start_method,
            health_interval_s=cfg.health_interval_s,
            health_timeout_s=cfg.health_timeout_s)
        self.breaker = CircuitBreaker(
            failure_threshold=cfg.breaker_failure_threshold,
            window_s=cfg.breaker_window_s,
            cooldown_s=cfg.breaker_cooldown_s,
            half_open_probes=cfg.breaker_half_open_probes)
        self.cache = (ArtifactCache(cfg.cache_dir)
                      if cfg.cache_dir else None)
        self.records: dict[str, JobRecord] = {}
        self.counts = {state.value: 0 for state in JobState
                       if state.value not in ("queued", "running")}
        self.counts["submitted"] = 0
        self.counts["deduped"] = 0
        self._events: dict[str, asyncio.Event] = {}
        self._primary: dict[str, JobRecord] = {}     # key -> in-flight job
        self._followers: dict[str, list[JobRecord]] = {}
        self._crashes: dict[str, int] = {}           # key -> worker deaths
        self._queue: asyncio.Queue[JobRecord] | None = None
        self._dispatchers: list[asyncio.Task] = []
        self._seq = itertools.count(1)
        self._started_at = time.time()
        self.started = False

    # -- life cycle ------------------------------------------------------------

    async def start(self) -> None:
        if self.started:
            return
        self._queue = asyncio.Queue(maxsize=self.config.queue_limit)
        await self.supervisor.start()
        self._dispatchers = [
            asyncio.create_task(self._dispatch_loop(), name=f"dispatch-{i}")
            for i in range(self.config.workers)]
        self.started = True

    async def stop(self) -> None:
        if not self.started:
            return
        self.started = False
        for task in self._dispatchers:
            task.cancel()
        await asyncio.gather(*self._dispatchers, return_exceptions=True)
        self._dispatchers = []
        await self.supervisor.stop()

    # -- submission ------------------------------------------------------------

    def submit(self, request: JobRequest,
               trace: _tracing.TraceContext | None = None) -> JobRecord:
        """Accept (or shed) one request; returns its record immediately.

        *trace* is the distributed-trace identity minted (or continued
        from an inbound ``traceparent``) at ingress; ``None`` leaves the
        job untraced.  The record may already be terminal (malformed
        request, breaker open, queue full, quarantined key); otherwise
        it is queued and :meth:`wait` resolves it.  Must run on the
        engine's event loop.
        """
        assert self._queue is not None, "engine not started"
        cfg = self.config
        tm = _telemetry.get()
        tm.counter("service.jobs_submitted").inc()
        self.counts["submitted"] += 1
        jid = f"job-{next(self._seq)}"
        _flight.record("job.submitted",
                       trace_id=trace.trace_id if trace else "",
                       job=jid, job_kind=request.kind.value,
                       benchmark=request.benchmark)
        try:
            key = self._key_for(self._order_for(request))
        except ReproError as exc:
            record = JobRecord(id=jid, request=request, key="",
                               trace=trace)
            self._remember(record)
            record.finish(JobState.FAILED, error=exc)
            self._finalize(record)
            return record
        record = JobRecord(id=jid, request=request, key=key, trace=trace)
        self._remember(record)

        if self._crashes.get(key, 0) >= cfg.quarantine_threshold:
            record.finish(JobState.QUARANTINED, error=JobQuarantinedError(
                f"key has crashed {self._crashes[key]} workers; "
                f"quarantined as a poison job",
                benchmark=request.benchmark,
                dataset=request.dataset).attach_flight(_flight.dump()))
            self._finalize(record)
            return record

        primary = self._primary.get(key)
        if primary is not None and not primary.finished:
            record.deduped_into = primary.id
            self._followers.setdefault(primary.id, []).append(record)
            tm.counter("service.jobs_deduped").inc()
            self.counts["deduped"] += 1
            return record

        if self._queue.full():
            record.finish(JobState.REJECTED, error=JobRejectedError(
                f"queue full ({self._queue.qsize()} jobs backed up); "
                f"resubmit later",
                benchmark=request.benchmark, dataset=request.dataset))
            self._finalize(record)
            return record

        if not self.breaker.allow():
            record.finish(JobState.REJECTED, error=JobRejectedError(
                f"circuit breaker {self.breaker.state}: engine shedding "
                f"load; resubmit after cooldown",
                benchmark=request.benchmark, dataset=request.dataset))
            self._finalize(record)
            return record

        self._primary[key] = record
        self._queue.put_nowait(record)
        tm.gauge("service.queue_depth").set(self._queue.qsize())
        return record

    async def wait(self, job_id: str,
                   timeout_s: float | None = None) -> JobRecord:
        """Block until *job_id* reaches a terminal state."""
        record = self.records[job_id]
        event = self._events.get(job_id)
        if event is not None and not record.finished:
            await asyncio.wait_for(event.wait(), timeout_s)
        return record

    async def submit_and_wait(self, request: JobRequest,
                              timeout_s: float | None = None) -> JobRecord:
        record = self.submit(request)
        if record.finished:
            return record
        return await self.wait(record.id, timeout_s)

    # -- bookkeeping -----------------------------------------------------------

    def _remember(self, record: JobRecord) -> None:
        self.records[record.id] = record
        self._events[record.id] = asyncio.Event()
        if len(self.records) > self.config.max_records:
            for jid, old in list(self.records.items()):
                if old.finished:
                    del self.records[jid]
                    self._events.pop(jid, None)
                    self._followers.pop(jid, None)
                    break

    def _finalize(self, record: JobRecord) -> None:
        """Terminal bookkeeping: counters, dedupe propagation, wakeups."""
        self.counts[record.state.value] = (
            self.counts.get(record.state.value, 0) + 1)
        _telemetry.get().counter(
            f"service.jobs_{record.state.value}").inc()
        _flight.record(
            "job.finished",
            trace_id=record.trace.trace_id if record.trace else "",
            job=record.id, state=record.state.value)
        event = self._events.get(record.id)
        if event is not None:
            event.set()
        if self._primary.get(record.key) is record:
            del self._primary[record.key]
        for follower in self._followers.pop(record.id, []):
            follower.result = record.result
            follower.error = record.error
            follower.cache_hit = record.cache_hit
            follower.retried = record.retried
            follower.finished_at = time.time()
            follower.state = record.state
            self._finalize(follower)

    def stats(self) -> dict:
        """Live service snapshot (the ``/stats`` endpoint body)."""
        cfg = self.config
        tm = _telemetry.get()
        # refresh the SLO denominators the derived rates divide by:
        # lifetime so far, and the breaker's running OPEN episode
        tm.gauge("service.uptime_s").set(
            max(time.time() - self._started_at, 1e-9))
        tm.gauge("service.breaker_open_s").set(self.breaker.open_total_s())
        return {
            "jobs": dict(self.counts),
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "inflight": len(self._primary),
            "workers": len(self.supervisor.slots),
            "worker_respawns": self.supervisor.respawns,
            "breaker": self.breaker.snapshot(),
            "quarantined_keys": sum(
                1 for n in self._crashes.values()
                if n >= cfg.quarantine_threshold),
            "cache": (self.cache.stats()
                      if self.cache is not None else None),
            "slo": slo_summary(tm.counters(), tm.gauges()),
        }

    # -- execution -------------------------------------------------------------

    def _order_for(self, request: JobRequest) -> ServiceOrder:
        """The worker order for *request*; raises the typed lookup error
        for an unknown benchmark (or dataset, for run jobs)."""
        cfg = self.config
        try:
            benchmark = get(request.benchmark)
            inputs = (() if request.kind is JobKind.COMPILE
                      else tuple(benchmark.dataset(request.dataset).inputs))
        except KeyError as exc:
            raise ReproError(f"unknown benchmark or dataset: {exc}",
                             benchmark=request.benchmark,
                             dataset=request.dataset,
                             phase="service") from exc
        shard = ShardJob(
            benchmark=request.benchmark, dataset=request.dataset,
            inputs=inputs,
            fuel_budget=request.fuel_budget or cfg.fuel_budget,
            retry_fuel_factor=cfg.retry_fuel_factor,
            optimize=request.optimize,
            engine=cfg.engine,
            cache_dir=(str(self.cache.root)
                       if self.cache is not None else None),
            lease_wait_s=cfg.lease_wait_s,
            collect_telemetry=True)
        return ServiceOrder(kind=request.kind.value, shard=shard)

    @staticmethod
    def _key_for(order: ServiceOrder) -> str:
        """In-flight dedupe and quarantine key: the job kind plus the
        content key its result is stored under."""
        content = (_job_compile_key if order.kind == JobKind.COMPILE.value
                   else _job_run_key)(order.shard)
        return f"{order.kind}:{content}"

    async def _dispatch_loop(self) -> None:
        assert self._queue is not None
        tm = _telemetry.get()
        while True:
            record = await self._queue.get()
            tm.gauge("service.queue_depth").set(self._queue.qsize())
            try:
                await self._run_record(record)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # defensive: the loop must survive
                record.finish(JobState.FAILED, error=ReproError(
                    f"internal service fault: {type(exc).__name__}: {exc}",
                    benchmark=record.request.benchmark, phase="service"))
            finally:
                if not record.finished:
                    record.finish(JobState.FAILED, error=ReproError(
                        "job fell through the dispatcher without a "
                        "terminal state", phase="service"))
                self._finalize(record)
                self._queue.task_done()

    def _trace_attempt(self, record: JobRecord, exec_ctx, attempt: int,
                       dispatch_start: float, dispatched_at: float | None,
                       slot: int | None, end: float) -> None:
        """Append this attempt's ``dispatch`` and ``exec`` segment spans.

        The ``exec`` span reuses *exec_ctx*'s span id — the same id the
        worker parented its own spans on — so the stitched timeline
        forms one tree even though the two sides never spoke.
        """
        tm = _telemetry.get()
        if dispatched_at is None:
            dispatched_at = end
        tm.histogram("service.dispatch_s").observe(
            max(0.0, dispatched_at - dispatch_start))
        tm.histogram("service.exec_s").observe(max(0.0, end - dispatched_at))
        trace = record.trace
        if trace is None or exec_ctx is None:
            return
        record.trace_spans.append(_tracing.manual_span(
            trace, "dispatch", "service", dispatch_start, dispatched_at,
            attempt=attempt))
        args = {"attempt": attempt}
        if slot is not None:
            args["slot"] = slot
        record.trace_spans.append(_tracing.TraceSpan(
            name="exec", tier="service", trace_id=trace.trace_id,
            span_id=exec_ctx.span_id, parent_id=exec_ctx.parent_id,
            start_s=dispatched_at,
            duration_s=max(0.0, end - dispatched_at),
            process="service", args=args))

    async def _run_record(self, record: JobRecord) -> None:
        cfg = self.config
        tm = _telemetry.get()
        record.state = JobState.RUNNING
        record.started_at = time.time()
        trace = record.trace
        queue_wait = record.started_at - record.created_at
        tm.histogram("service.queue_wait_s").observe(max(0.0, queue_wait))
        if trace is not None:
            record.trace_spans.append(_tracing.manual_span(
                trace, "queue_wait", "queue", record.created_at,
                record.started_at))
        order = self._order_for(record.request)
        policy = RetryPolicy(max_attempts=1 + max(0, cfg.crash_retries),
                             retry_worker_crashes=True,
                             backoff_base_s=0.05, backoff_max_s=1.0)
        start = perf_counter()
        attempt = 0
        while True:
            attempt += 1
            record.attempts = attempt
            exec_ctx = None
            if trace is not None:
                # pre-mint the attempt's exec span id and ship it across
                # the fork: the worker parents its spans on it
                exec_ctx = trace.child()
                order.shard.trace_id = exec_ctx.trace_id
                order.shard.trace_parent = exec_ctx.span_id
            dispatch_start = time.time()
            handoff: dict = {"at": None, "slot": None}

            def _on_dispatch(slot_index: int, _h: dict = handoff) -> None:
                _h["at"] = time.time()
                _h["slot"] = slot_index

            try:
                result = await self.supervisor.run_job(
                    order, cfg.deadline_s, on_dispatch=_on_dispatch)
                self._trace_attempt(record, exec_ctx, attempt,
                                    dispatch_start, handoff["at"],
                                    handoff["slot"], time.time())
                break
            except WorkerCrashError as exc:
                self._trace_attempt(record, exec_ctx, attempt,
                                    dispatch_start, handoff["at"],
                                    handoff["slot"], time.time())
                record.crashes += 1
                crashes = self._crashes[record.key] = (
                    self._crashes.get(record.key, 0) + 1)
                self.breaker.record_failure()
                exc.with_context(benchmark=record.request.benchmark,
                                 dataset=record.request.dataset)
                if crashes >= cfg.quarantine_threshold:
                    tm.counter("service.jobs_poisoned").inc()
                    record.finish(JobState.QUARANTINED,
                                  error=JobQuarantinedError(
                        f"job crashed {crashes} workers "
                        f"(threshold {cfg.quarantine_threshold}); "
                        f"quarantined as a poison job",
                        benchmark=record.request.benchmark,
                        dataset=record.request.dataset,
                    ).attach_flight(_flight.dump()))
                    return
                if not policy.should_retry(exc, attempt):
                    exc.attach_flight(_flight.dump())
                    record.finish(JobState.FAILED, error=exc)
                    return
                tm.counter("service.job_redispatches").inc()
                _flight.record(
                    "job.redispatch",
                    trace_id=trace.trace_id if trace else "",
                    job=record.id, attempt=attempt, crashes=crashes)
                backoff_start = time.time()
                await asyncio.sleep(policy.backoff_s(attempt))
                if trace is not None:
                    record.trace_spans.append(_tracing.manual_span(
                        trace, "retry_backoff", "service", backoff_start,
                        time.time(), attempt=attempt))
            except (JobDeadlineError, WorkerResultError) as exc:
                self._trace_attempt(record, exec_ctx, attempt,
                                    dispatch_start, handoff["at"],
                                    handoff["slot"], time.time())
                self.breaker.record_failure()
                exc.with_context(benchmark=record.request.benchmark,
                                 dataset=record.request.dataset)
                exc.attach_flight(_flight.dump())
                record.finish(JobState.FAILED, error=exc)
                return
        # engine-side success (the pipeline may still have failed — that
        # is a healthy engine reporting a deterministic result)
        self.breaker.record_success()
        tm.histogram("service.job_duration_s").observe(
            perf_counter() - start)
        record.retried = result.retried
        record.cache_hit = result.cache_stats.get("hits", 0) > 0
        # re-stitch what the worker observed: its wall-clock trace spans
        # join the record's timeline, its telemetry snapshot folds into
        # the service sink (trace_id span tags survive the merge)
        record.trace_spans.extend(result.trace or [])
        if result.telemetry is not None:
            tm.merge_snapshot(result.telemetry)
        if result.ok:
            record.finish(JobState.DONE,
                          result=build_payload(record.request, result))
        else:
            record.finish(JobState.FAILED, error=result.error)
