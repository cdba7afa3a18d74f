"""The execution core and the process-pool engine of the harness.

:func:`execute` is the one definition of a suite run: compile the
benchmark (or adopt a pre-seeded artifact), consult the run cache,
simulate under the shared :class:`~repro.harness.retry.RetryPolicy` and
store, and on request run the Graphs 4-11 :func:`sequence_pass`.  It never
raises for pipeline failures; they come back as a classified
:class:`ShardResult`.  Three callers share it:

* the serial :class:`~repro.harness.runner.SuiteRunner` calls it inline
  with its own cache and compiled artifact;
* :class:`ParallelEngine` maps :func:`run_shard` over a fork-based
  :class:`concurrent.futures.ProcessPoolExecutor` (Ball & Larus's
  methodology is embarrassingly parallel: every (benchmark, dataset) edge
  profile is independent of every other);
* the prediction service (:mod:`repro.service`) submits the same
  :func:`run_shard` to its supervised worker slots.

:func:`run_shard` adds only what a worker needs around the core: the
chaos seams, a private telemetry sink whose snapshot the parent merges,
the job's distributed trace, and the traffic of the cache it built from
``job.cache_dir``.  Each :class:`ShardJob` is a fully self-describing,
picklable work order (effective inputs/limits after chaos overrides,
optimization level, cache directory, optionally a pre-seeded or sabotaged
executable).

The engine collects results **in submission order** regardless of
completion order, so downstream table/graph output is byte-identical to a
serial run (the determinism suite in ``tests/test_parallel_runner.py``
enforces this), and converts a worker process that dies without returning
(killed, OOM, broken pool) into a typed
:class:`~repro.errors.WorkerCrashError` outcome rather than aborting the
whole report.

Chaos seam: setting the environment variable
``REPRO_CHAOS_WORKER_CRASH=<benchmark>`` makes any worker handed that
benchmark die immediately via ``os._exit`` — how the fault-injection
tests exercise the crash taxonomy without a real segfault.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from time import perf_counter, sleep

from repro import telemetry as _telemetry
from repro._version import __version__
from repro.telemetry import flight as _flight
from repro.telemetry import tracing as _tracing
from repro.bench.suite import Benchmark, get
from repro.core.classify import ProgramAnalysis, classify_branches
from repro.core.sequences import sequence_experiment, sequence_predictions
from repro.errors import (
    ReproError, SimulationTimeout, WorkerCrashError, WorkerError,
    WorkerResultError,
)
from repro.harness.cache import (
    ArtifactCache, compile_key, run_key, sequence_key,
)
from repro.harness.resilience import RunStatus, classify_failure
from repro.harness.retry import RetryPolicy
from repro.isa.program import Executable
from repro.sim import Machine, SequenceAnalyzer, resolve_engine_name
from repro.sim.profile import EdgeProfile
from repro.telemetry.core import Telemetry, TelemetrySnapshot

__all__ = [
    "ShardJob", "ShardResult", "ParallelEngine", "execute", "run_shard",
    "compile_artifact", "sequence_pass", "CHAOS_WORKER_CRASH_ENV",
    "CHAOS_SLOW_WORKER_ENV",
]

#: environment variable naming a benchmark whose shard worker must die
CHAOS_WORKER_CRASH_ENV = "REPRO_CHAOS_WORKER_CRASH"

#: ``<benchmark>:<seconds>`` (or ``*:<seconds>`` for every benchmark):
#: the matching shard worker sleeps before executing, simulating a
#: wedged / overloaded worker for deadline and supervision tests
CHAOS_SLOW_WORKER_ENV = "REPRO_CHAOS_SLOW_WORKER"


def _chaos_slow_delay(benchmark: str) -> float:
    """Injected pre-execution delay for *benchmark* (0 when none)."""
    spec = os.environ.get(CHAOS_SLOW_WORKER_ENV, "")
    if not spec:
        return 0.0
    target, _, seconds = spec.partition(":")
    if target not in ("*", benchmark):
        return 0.0
    try:
        return max(0.0, float(seconds))
    except ValueError:
        return 0.0


# --------------------------------------------------------------------------
# work orders and results
# --------------------------------------------------------------------------

@dataclass
class ShardJob:
    """One self-contained (benchmark, dataset) compile+simulate order."""

    benchmark: str
    dataset: str
    #: effective input vector (after any chaos/operator truncation)
    inputs: tuple
    #: effective instruction-fuel budget (after overrides)
    fuel_budget: int
    #: 1 disables the transient-fuel retry (strict mode never retries)
    retry_fuel_factor: int = 1
    wall_clock_deadline: float | None = None
    max_memory_bytes: int | None = None
    pc_sample_interval: int | None = None
    optimize: bool = True
    #: execution engine (``"tier0"`` / ``"tier1"`` / ``None`` = resolve
    #: via the chaos/env seams inside the worker)
    engine: str | None = None
    cache_dir: str | None = None
    collect_telemetry: bool = False
    #: pre-compiled (executable, analysis) — skips the compile phase,
    #: and the result does not echo it back
    preseeded: tuple[Executable, ProgramAnalysis] | None = None
    #: True when *preseeded* is a sabotaged artifact: bypass the cache
    #: entirely (its content does not correspond to the source key)
    poisoned: bool = False
    #: >0: when another tenant holds the writer lease for this run key,
    #: wait up to this long for their entry instead of recomputing
    #: (lock-aware read; the service sets this, batch runs leave it 0)
    lease_wait_s: float = 0.0
    #: distributed-trace identity: non-empty when this shard is one hop
    #: of a service job's trace — the worker activates the context so
    #: its spans (and its telemetry snapshot's span args) join the trace
    trace_id: str = ""
    #: span id of the engine-side exec span this shard parents under
    trace_parent: str = ""
    #: also run the Graphs 4-11 :func:`sequence_pass` over the profile
    sequences: bool = False


@dataclass
class ShardResult:
    """What :func:`execute` returns: a run, or a classified failure
    (:func:`run_shard` adds the worker's cache traffic, telemetry and
    trace)."""

    benchmark: str
    dataset: str
    status: RunStatus
    executable: Executable | None = None
    analysis: ProgramAnalysis | None = None
    profile: EdgeProfile | None = None
    output: str = ""
    instr_count: int = 0
    error: ReproError | None = None
    retried: bool = False
    telemetry: TelemetrySnapshot | None = None
    cache_stats: dict[str, int] = field(default_factory=dict)
    #: wall-clock trace spans recorded inside the worker (compile,
    #: simulate, cache lease-wait) when the job carried a trace_id
    trace: list = field(default_factory=list)
    #: the sequence analyzers when the job asked for them and the pass
    #: succeeded (a failed pass is left for the parent to re-run)
    sequences: dict[str, SequenceAnalyzer] | None = None

    @property
    def ok(self) -> bool:
        return self.status is RunStatus.OK


# --------------------------------------------------------------------------
# compile, keys, and the sequence pass
# --------------------------------------------------------------------------

def compile_artifact(benchmark: Benchmark, optimize: bool = True,
                     cache: ArtifactCache | None = None,
                     ) -> tuple[Executable, ProgramAnalysis]:
    """Compile + classify *benchmark*, consulting the artifact cache.

    Raises the typed error on failure (annotated ``phase="compile"``);
    deterministic compile failures are negative-cached on disk so a
    broken benchmark costs one compile per cache lifetime, not one per
    invocation.
    """
    tm = _telemetry.get()
    key = None
    if cache is not None:
        key = compile_key(benchmark.name, benchmark.source(), optimize,
                          version=cache.version)
        entry = cache.get(key, "compile")
        if entry is not None:
            if entry.get("ok"):
                return entry["artifact"]
            raise entry["error"]
    try:
        with tm.span("compile", category="harness",
                     benchmark=benchmark.name, optimize=optimize):
            executable = benchmark.compile(optimize=optimize)
            with tm.span("analyze", category="harness",
                         benchmark=benchmark.name):
                analysis = classify_branches(executable)
    except ReproError as exc:
        exc.with_context(benchmark=benchmark.name, phase="compile")
        if cache is not None:
            cache.put(key, "compile", {"ok": False, "error": exc})
        raise
    except Exception as exc:
        wrapped = ReproError(
            f"compile failed: {type(exc).__name__}: {exc}",
            benchmark=benchmark.name, phase="compile")
        if cache is not None:
            cache.put(key, "compile", {"ok": False, "error": wrapped})
        raise wrapped from exc
    if cache is not None:
        cache.put(key, "compile", {"ok": True,
                                   "artifact": (executable, analysis)})
    return executable, analysis


def _job_compile_key(job: ShardJob, version: str = __version__) -> str:
    """The persistent compile key of *job*'s benchmark."""
    return compile_key(job.benchmark, get(job.benchmark).source(),
                       job.optimize, version=version)


def _job_run_key(job: ShardJob, version: str = __version__) -> str:
    """The persistent run key of *job*'s (benchmark, dataset) execution."""
    return run_key(_job_compile_key(job, version), job.dataset, job.inputs,
                   job.fuel_budget, job.max_memory_bytes,
                   job.retry_fuel_factor, version=version,
                   engine=resolve_engine_name(job.engine))


def sequence_pass(job: ShardJob, executable: Executable,
                  analysis: ProgramAnalysis, profile: EdgeProfile,
                  cache: ArtifactCache | None = None,
                  ) -> dict[str, SequenceAnalyzer]:
    """The Graphs 4-11 sequence analyzers of *job*'s profiled run (see
    :func:`~repro.core.sequences.sequence_experiment`); the serial runner
    and :func:`execute` both call this.

    The run is re-simulated under the job's effective inputs, memory cap,
    deadline and engine, with the fuel its last permitted retry would get
    (budget x ``fuel_scale(max_attempts)``), so a run that fit its
    profile pass fits this one.  With a *cache* the analyzers are stored
    under :func:`~repro.harness.cache.sequence_key` and a warm rerun
    simulates nothing.  Failures raise and are never stored.
    """
    if cache is not None:
        key = sequence_key(_job_run_key(job, cache.version),
                           sequence_predictions(analysis, profile),
                           version=cache.version)
        analyzers = cache.get(key, "sequences")
        if analyzers is not None:
            return analyzers
    policy = RetryPolicy.from_fuel_factor(job.retry_fuel_factor)
    try:
        with _telemetry.get().span("simulate", category="harness",
                                   benchmark=job.benchmark,
                                   dataset=job.dataset, kind="sequences"):
            analyzers = sequence_experiment(
                executable, profile, inputs=list(job.inputs),
                analysis=analysis,
                max_instructions=job.fuel_budget * policy.fuel_scale(
                    policy.max_attempts),
                engine=job.engine, max_memory_bytes=job.max_memory_bytes,
                wall_clock_deadline=job.wall_clock_deadline)
    except ReproError as exc:
        raise exc.with_context(benchmark=job.benchmark, dataset=job.dataset)
    if cache is not None:
        cache.put(key, "sequences", analyzers)
    return analyzers


def _cacheable_failure(error: ReproError) -> bool:
    """Deterministic failures only: wall-clock timeouts and engine-side
    worker errors are functions of the machine, not of the key."""
    return not isinstance(error, (SimulationTimeout, WorkerError))


# --------------------------------------------------------------------------
# the execution core
# --------------------------------------------------------------------------

def _failure(job: ShardJob, error: ReproError,
             retried: bool = False) -> ShardResult:
    # every failure ships the process's black box (no-op if a deeper
    # layer — e.g. the simulator's crash snapshot — already did)
    error.attach_flight(_flight.dump())
    return ShardResult(benchmark=job.benchmark, dataset=job.dataset,
                       status=classify_failure(error), error=error,
                       retried=retried)


def _compile_step(job: ShardJob, cache: ArtifactCache | None
                  ) -> ShardResult:
    """:func:`execute`'s first step, and all of a service compile order:
    adopt the pre-seeded (or sabotaged) artifact or compile the
    benchmark.  An OK result carries the (executable, analysis) pair."""
    try:
        with _tracing.span("worker.compile", "worker",
                           benchmark=job.benchmark):
            executable, analysis = job.preseeded or compile_artifact(
                get(job.benchmark), optimize=job.optimize, cache=cache)
    except ReproError as exc:
        return _failure(job, exc)
    except Exception as exc:  # unknown benchmark, etc.
        return _failure(job, ReproError(
            f"shard setup failed: {type(exc).__name__}: {exc}",
            benchmark=job.benchmark, dataset=job.dataset, phase="compile"))
    return ShardResult(benchmark=job.benchmark, dataset=job.dataset,
                       status=RunStatus.OK, executable=executable,
                       analysis=analysis)


def execute(job: ShardJob, cache: ArtifactCache | None) -> ShardResult:
    """Execute one (benchmark, dataset) run: the one definition of a
    suite run, whether the serial runner calls it inline, a pool worker
    runs it (:func:`run_shard`), or the service submits it.

    Compiles the benchmark (or adopts ``job.preseeded``), consults the
    run cache, simulates under :class:`~repro.harness.retry.RetryPolicy`
    and stores the result, then runs the Graphs 4-11
    :func:`sequence_pass` when ``job.sequences`` asks for it.  Never
    raises for pipeline failures: they come back classified (and
    deterministic ones are negative-cached).  The caller owns *cache*,
    its ``cache_stats`` and the ``run:`` span.
    """
    compiled = _compile_step(job, cache)
    if not compiled.ok:
        return compiled
    executable, analysis = compiled.executable, compiled.analysis
    tm = _telemetry.get()

    # -- consult the run cache -----------------------------------------------
    rkey = entry = None
    if cache is not None:
        rkey = _job_run_key(job, cache.version)
        if job.lease_wait_s > 0:
            with _tracing.span("cache.lease_wait", "cache",
                               benchmark=job.benchmark, dataset=job.dataset):
                entry = cache.get_or_wait(rkey, "run",
                                          timeout_s=job.lease_wait_s)
        else:
            entry = cache.get(rkey, "run")
    if entry is not None:
        if not entry.get("ok"):
            return ShardResult(
                benchmark=job.benchmark, dataset=job.dataset,
                status=classify_failure(entry["error"]),
                error=entry["error"], retried=entry.get("retried", False))
        profile, output = entry["profile"], entry["output"]
        instr_count = entry["instr_count"]
        retried = entry.get("retried", False)
    else:
        # -- simulate, retrying transient failures, and store ---------------
        policy = RetryPolicy.from_fuel_factor(job.retry_fuel_factor)
        attempt = 1
        while True:
            profile = EdgeProfile()
            try:
                # construction can fault too (e.g. the data image exceeds
                # an injected memory budget), so it sits inside the try
                with _tracing.span("worker.simulate", "worker",
                                   benchmark=job.benchmark,
                                   dataset=job.dataset, attempt=attempt), \
                        tm.span("simulate", category="harness",
                                benchmark=job.benchmark, dataset=job.dataset):
                    status = Machine(
                        executable, inputs=list(job.inputs),
                        observers=[profile],
                        max_instructions=(job.fuel_budget
                                          * policy.fuel_scale(attempt)),
                        wall_clock_deadline=job.wall_clock_deadline,
                        max_memory_bytes=job.max_memory_bytes,
                        pc_sample_interval=job.pc_sample_interval,
                        engine=job.engine).run()
                break
            except ReproError as exc:
                exc.with_context(benchmark=job.benchmark, dataset=job.dataset)
                if not policy.should_retry(exc, attempt):
                    failure = _failure(job, exc, retried=attempt > 1)
                    if rkey is not None and _cacheable_failure(exc):
                        cache.put(rkey, "run", {"ok": False, "error": exc,
                                                "retried": attempt > 1})
                    return failure
                attempt += 1
                tm.counter("harness.retries").inc()
                _flight.record("shard.retry", benchmark=job.benchmark,
                               dataset=job.dataset, attempt=attempt,
                               error=exc.code)
        output, instr_count = status.output, status.instr_count
        retried = attempt > 1
        if rkey is not None:
            cache.put(rkey, "run", {
                "ok": True, "profile": profile, "output": output,
                "instr_count": instr_count, "retried": retried})

    analyzers = None
    if job.sequences:
        # a failed pass is dropped: the caller re-runs it, so it raises
        # or renders FAILED exactly as a serial pass does
        with contextlib.suppress(ReproError):
            analyzers = sequence_pass(job, executable, analysis, profile,
                                      cache)
    shipped = job.preseeded is not None
    return ShardResult(
        benchmark=job.benchmark, dataset=job.dataset, status=RunStatus.OK,
        executable=None if shipped else executable,
        analysis=None if shipped else analysis,
        profile=profile, output=output, instr_count=instr_count,
        retried=retried, sequences=analyzers)


def run_shard(job: ShardJob, compile_only: bool = False) -> ShardResult:
    """Pool and service worker entry: :func:`execute` one shard (or, with
    *compile_only*, just its compile step) inside a private telemetry
    sink, under the job's distributed trace, over a cache built from
    ``job.cache_dir``; the result carries the cache's traffic and the
    sink's snapshot."""
    if os.environ.get(CHAOS_WORKER_CRASH_ENV) == job.benchmark:
        # chaos seam: simulate a hard worker death (no cleanup, no result)
        os._exit(17)
    delay = _chaos_slow_delay(job.benchmark)
    if delay > 0:
        sleep(delay)
    # Re-join the distributed trace on this side of the fork: spans the
    # worker records (and the trace_id tags on its telemetry snapshot's
    # spans) parent under the engine-side exec span named by the job.
    ctx = None
    if job.trace_id:
        ctx = _tracing.TraceContext(trace_id=job.trace_id,
                                    span_id=job.trace_parent)
    sink = Telemetry(enabled=job.collect_telemetry)
    with _telemetry.use(sink), \
            _tracing.activate(ctx, process=f"worker:{os.getpid()}") as spans:
        cache = (ArtifactCache(job.cache_dir)
                 if job.cache_dir and not job.poisoned else None)
        with sink.span(f"run:{job.benchmark}/{job.dataset}",
                       category="harness", benchmark=job.benchmark,
                       dataset=job.dataset, shard=True):
            result = (_compile_step if compile_only else execute)(job, cache)
    if cache is not None:
        result.cache_stats = cache.stats()
    if job.collect_telemetry:
        result.telemetry = sink.snapshot()
    result.trace = spans
    return result


# --------------------------------------------------------------------------
# the engine
# --------------------------------------------------------------------------

class ParallelEngine:
    """Shards :class:`ShardJob` orders across a process pool.

    Parameters
    ----------
    jobs:
        Worker-process count (capped at the job count per batch).
    start_method:
        Multiprocessing start method; defaults to ``fork`` where
        available (instant workers, no re-import) and falls back to the
        platform default otherwise.

    Determinism: :meth:`execute` returns results in **submission order**
    regardless of completion order, so callers that merge sequentially
    observe the same ordering a serial runner would produce.
    """

    def __init__(self, jobs: int, start_method: str | None = None) -> None:
        self.jobs = max(1, int(jobs))
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self.start_method = start_method

    def execute(self, shard_jobs: list[ShardJob]) -> list[ShardResult]:
        """Run every job; one :class:`ShardResult` per job, in order.

        A worker that dies without returning produces a
        ``WORKER_FAILED`` result wrapping
        :class:`~repro.errors.WorkerCrashError`; an undecodable result
        produces one wrapping :class:`~repro.errors.WorkerResultError`.
        """
        if not shard_jobs:
            return []
        tm = _telemetry.get()
        context = multiprocessing.get_context(self.start_method)
        workers = min(self.jobs, len(shard_jobs))
        start = perf_counter()
        results: list[ShardResult] = []
        with tm.span("parallel:pool", category="harness",
                     jobs=len(shard_jobs), workers=workers,
                     start_method=self.start_method):
            with ProcessPoolExecutor(max_workers=workers,
                                     mp_context=context) as pool:
                futures = [pool.submit(run_shard, job) for job in shard_jobs]
                for job, future in zip(shard_jobs, futures):
                    results.append(self._collect(job, future, tm))
            # Crash isolation: one worker dying abruptly breaks the whole
            # ProcessPoolExecutor, poisoning every sibling future with
            # BrokenProcessPool.  Retry each crashed shard in its own
            # single-worker pool so innocent shards recover and only the
            # true culprit reports WORKER_FAILED.
            crashed = [i for i, r in enumerate(results)
                       if r.status is RunStatus.WORKER_FAILED
                       and isinstance(r.error, WorkerCrashError)]
            if crashed:
                for i in crashed:
                    results[i] = self._run_isolated(shard_jobs[i], context,
                                                    tm)
        for result in results:
            if (result.status is RunStatus.WORKER_FAILED
                    and isinstance(result.error, WorkerCrashError)):
                tm.counter("harness.parallel.worker_crashes").inc()
        tm.gauge("harness.parallel.batch_seconds").set(
            perf_counter() - start)
        tm.counter("harness.parallel.shards").inc(len(shard_jobs))
        return results

    def _run_isolated(self, job: ShardJob, context, tm) -> ShardResult:
        """Re-run one crashed shard in a dedicated single-worker pool."""
        with tm.span("parallel:isolate", category="harness",
                     benchmark=job.benchmark, dataset=job.dataset):
            with ProcessPoolExecutor(max_workers=1,
                                     mp_context=context) as pool:
                return self._collect(job, pool.submit(run_shard, job), tm)

    @staticmethod
    def _collect(job: ShardJob, future, tm) -> ShardResult:
        try:
            result = future.result()
        except (BrokenProcessPool, OSError) as exc:
            error = WorkerCrashError(
                f"worker process died before returning "
                f"{job.benchmark}/{job.dataset}: "
                f"{type(exc).__name__}: {exc}",
                benchmark=job.benchmark, dataset=job.dataset)
            return ShardResult(benchmark=job.benchmark, dataset=job.dataset,
                               status=RunStatus.WORKER_FAILED, error=error)
        except Exception as exc:
            tm.counter("harness.parallel.result_errors").inc()
            error = WorkerResultError(
                f"worker result for {job.benchmark}/{job.dataset} "
                f"could not be retrieved: {type(exc).__name__}: {exc}",
                benchmark=job.benchmark, dataset=job.dataset)
            return ShardResult(benchmark=job.benchmark, dataset=job.dataset,
                               status=RunStatus.WORKER_FAILED, error=error)
        if (not isinstance(result, ShardResult)
                or result.benchmark != job.benchmark
                or result.dataset != job.dataset):
            tm.counter("harness.parallel.result_errors").inc()
            error = WorkerResultError(
                f"worker returned a malformed result for "
                f"{job.benchmark}/{job.dataset}",
                benchmark=job.benchmark, dataset=job.dataset)
            return ShardResult(benchmark=job.benchmark, dataset=job.dataset,
                               status=RunStatus.WORKER_FAILED, error=error)
        return result
