"""The execution core and the process-pool engine of the harness.

:func:`execute` is the one definition of a suite run: compile the
benchmark (or adopt a pre-seeded artifact), consult the run cache,
simulate under the shared :class:`~repro.harness.retry.RetryPolicy` and
store, and on request compute the Graphs 4-11 sequence analyzers — from
the profile run's own log when it simulated, else through
:func:`sequence_pass`.  It never raises for pipeline failures; they come
back as a classified :class:`ShardResult`.  Two callers share it:

* the serial :class:`~repro.harness.runner.SuiteRunner` calls it inline
  with its own cache and compiled artifact;
* :class:`ParallelEngine` submits one :func:`run_task` per benchmark to a
  fork-based :class:`concurrent.futures.ProcessPoolExecutor` (Ball &
  Larus's methodology is embarrassingly parallel: every (benchmark,
  dataset) edge profile is independent of every other).  A task runs its
  benchmark's shards in order through :func:`run_shard`, compiling once
  and reusing that executable, so its superblock specs are formed once.

:func:`run_shard` adds only what a worker needs around the core: the
crash seam, a private telemetry sink whose snapshot the parent merges,
and the traffic of the cache it built from ``job.cache_dir``.  Each
:class:`ShardJob` is a fully self-describing, picklable work order
(effective inputs/limits after chaos overrides, optimization level, cache
directory, optionally a pre-seeded or sabotaged executable).

The engine collects results **in submission order** regardless of
completion order, so downstream table/graph output is byte-identical to a
serial run (the determinism suite in ``tests/test_parallel_runner.py``
enforces this), and converts a worker process that dies without returning
(killed, OOM, broken pool) into a typed
:class:`~repro.errors.WorkerCrashError` outcome for the culprit shard
alone rather than aborting the whole report.

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
from dataclasses import dataclass, field, replace
from time import perf_counter

from repro import telemetry as _telemetry
from repro.bench.suite import Benchmark, get
from repro.core.classify import ProgramAnalysis, classify_branches
from repro.core.predictors import HeuristicPredictor
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
from repro.sim import (
    Machine, SequenceAnalyzer, SequenceLog, resolve_engine_name,
    sequence_analyzers,
)
from repro.sim.profile import EdgeProfile
from repro.sim.traces import drop_specs
from repro.telemetry.core import Telemetry, TelemetrySnapshot

__all__ = [
    "ShardJob", "ShardResult", "ParallelEngine", "execute", "run_shard",
    "run_task", "compile_artifact", "logged_sequences", "sequence_pass",
    "CHAOS_WORKER_CRASH_ENV",
]

#: environment variable naming a benchmark whose shard worker must die
CHAOS_WORKER_CRASH_ENV = "REPRO_CHAOS_WORKER_CRASH"


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
    #: also compute the Graphs 4-11 sequence analyzers: the profile run
    #: records its log (or, served from the run cache, the result comes
    #: from :func:`sequence_pass`)
    sequences: bool = False


@dataclass
class ShardResult:
    """What :func:`execute` returns: a run, or a classified failure
    (:func:`run_shard` adds the worker's cache traffic and telemetry)."""

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
    #: the sequence analyzers when the job asked for them and they were
    #: computed (a failed pass is left for the caller to re-run)
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


def _job_run_key(job: ShardJob, version: str) -> str:
    """The persistent run key of *job*'s (benchmark, dataset) execution."""
    ckey = compile_key(job.benchmark, get(job.benchmark).source(),
                       job.optimize, version=version)
    return run_key(ckey, job.dataset, job.inputs, job.fuel_budget,
                   job.max_memory_bytes, job.retry_fuel_factor,
                   version=version, engine=resolve_engine_name(job.engine))


def _sequence_key(job: ShardJob, predictions, cache: ArtifactCache) -> str:
    return sequence_key(_job_run_key(job, cache.version), predictions,
                        version=cache.version)


def logged_sequences(job: ShardJob, log: SequenceLog,
                     analysis: ProgramAnalysis, profile: EdgeProfile,
                     cache: ArtifactCache | None = None,
                     ) -> dict[str, SequenceAnalyzer]:
    """The Graphs 4-11 sequence analyzers of *job*'s profile run, from the
    *log* that run recorded (:func:`~repro.sim.trace.sequence_analyzers`);
    with a *cache* they are stored under the same
    :func:`~repro.harness.cache.sequence_key` a re-simulation uses."""
    predictions = sequence_predictions(analysis, profile)
    analyzers = sequence_analyzers(log, predictions)
    if cache is not None:
        cache.put(_sequence_key(job, predictions, cache), "sequences",
                  analyzers)
    return analyzers


def sequence_pass(job: ShardJob, executable: Executable,
                  analysis: ProgramAnalysis, profile: EdgeProfile,
                  cache: ArtifactCache | None = None,
                  ) -> dict[str, SequenceAnalyzer]:
    """The Graphs 4-11 sequence analyzers of a profiled run that kept no
    log (see :func:`~repro.core.sequences.sequence_experiment`): a run
    served from the run cache, or one whose caller declared no demand.

    With a *cache* the analyzers come from
    :func:`~repro.harness.cache.sequence_key` when stored there, so a
    warm rerun simulates nothing.  Otherwise the run is re-simulated
    under the job's effective inputs, memory cap, deadline and engine,
    with the fuel its last permitted retry would get (budget x
    ``fuel_scale(max_attempts)``), so a run that fit its profile pass
    fits this one, and the result is stored.  Failures raise and are
    never stored.
    """
    if cache is not None:
        key = _sequence_key(job, sequence_predictions(analysis, profile),
                            cache)
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
    return ShardResult(benchmark=job.benchmark, dataset=job.dataset,
                       status=classify_failure(error), error=error,
                       retried=retried)


def execute(job: ShardJob, cache: ArtifactCache | None) -> ShardResult:
    """Execute one (benchmark, dataset) run: the one definition of a
    suite run, whether the serial runner calls it inline or a pool worker
    runs it (:func:`run_shard`).

    Compiles the benchmark (or adopts ``job.preseeded``), consults the
    run cache, simulates under :class:`~repro.harness.retry.RetryPolicy`
    and stores the result.  When ``job.sequences`` asks for the Graphs
    4-11 analyzers, a simulated run records its :class:`~repro.sim.
    SequenceLog` and :func:`logged_sequences` computes them once its
    profile is complete; a run served from the cache goes through
    :func:`sequence_pass` instead.  Never
    raises for pipeline failures: they come back classified (and
    deterministic ones are negative-cached).  The caller owns *cache*,
    its ``cache_stats`` and the ``run:`` span.
    """
    try:
        executable, analysis = job.preseeded or compile_artifact(
            get(job.benchmark), optimize=job.optimize, cache=cache)
    except ReproError as exc:
        return _failure(job, exc)
    except Exception as exc:  # unknown benchmark, etc.
        return _failure(job, ReproError(
            f"shard setup failed: {type(exc).__name__}: {exc}",
            benchmark=job.benchmark, dataset=job.dataset, phase="compile"))
    tm = _telemetry.get()

    # -- consult the run cache -----------------------------------------------
    rkey = entry = log = None
    if cache is not None:
        rkey = _job_run_key(job, cache.version)
        entry = cache.get(rkey, "run")
    if entry is not None:
        if not entry.get("ok"):
            return _failure(job, entry["error"],
                            retried=entry.get("retried", False))
        profile, output = entry["profile"], entry["output"]
        instr_count = entry["instr_count"]
        retried = entry.get("retried", False)
    else:
        # -- simulate, retrying transient failures, and store ---------------
        policy = RetryPolicy.from_fuel_factor(job.retry_fuel_factor)
        # superblocks follow the paper's own prediction (fewer side exits;
        # the profile is the same under any layout)
        layout = HeuristicPredictor(analysis).prediction_map()
        attempt = 1
        while True:
            profile = EdgeProfile()
            # the Graphs 4-11 trace rides in the profile run: one log,
            # analyzed once the run's profile is complete
            log = SequenceLog() if job.sequences else None
            try:
                # construction can fault too (e.g. the data image exceeds
                # an injected memory budget), so it sits inside the try
                with tm.span("simulate", category="harness",
                             benchmark=job.benchmark, dataset=job.dataset):
                    status = Machine(
                        executable, inputs=list(job.inputs),
                        observers=[profile] if log is None
                        else [profile, log],
                        max_instructions=(job.fuel_budget
                                          * policy.fuel_scale(attempt)),
                        wall_clock_deadline=job.wall_clock_deadline,
                        max_memory_bytes=job.max_memory_bytes,
                        pc_sample_interval=job.pc_sample_interval,
                        engine=job.engine, layout=layout).run()
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
            if log is not None:
                analyzers = logged_sequences(job, log, analysis, profile,
                                             cache)
            else:
                analyzers = sequence_pass(job, executable, analysis,
                                          profile, cache)
    shipped = job.preseeded is not None
    return ShardResult(
        benchmark=job.benchmark, dataset=job.dataset, status=RunStatus.OK,
        executable=None if shipped else executable,
        analysis=None if shipped else analysis,
        profile=profile, output=output, instr_count=instr_count,
        retried=retried, sequences=analyzers)


def run_shard(job: ShardJob) -> ShardResult:
    """Pool worker entry: :func:`execute` one shard inside a private
    telemetry sink, over a cache built from ``job.cache_dir``; the result
    carries the cache's traffic and the sink's snapshot."""
    if os.environ.get(CHAOS_WORKER_CRASH_ENV) == job.benchmark:
        # chaos seam: simulate a hard worker death (no cleanup, no result)
        os._exit(17)
    sink = Telemetry(enabled=job.collect_telemetry)
    with _telemetry.use(sink):
        cache = (ArtifactCache(job.cache_dir)
                 if job.cache_dir and not job.poisoned else None)
        with sink.span(f"run:{job.benchmark}/{job.dataset}",
                       category="harness", benchmark=job.benchmark,
                       dataset=job.dataset, shard=True):
            result = execute(job, cache)
    if cache is not None:
        result.cache_stats = cache.stats()
    if job.collect_telemetry:
        result.telemetry = sink.snapshot()
    return result


def run_task(jobs: list[ShardJob]) -> list[ShardResult]:
    """Pool task entry: one benchmark's shards, in order, through
    :func:`run_shard`.  Once a run returns the artifact, the remaining
    jobs are preseeded with it: one compile, one echo to the parent, and
    one set of superblock specs, dropped when the task ends.  A compile
    failure answers every remaining job."""
    results: list[ShardResult] = []
    artifact = compile_error = None
    for job in jobs:
        if compile_error is not None:
            results.append(_failure(job, compile_error))
            continue
        if artifact is not None:
            job = replace(job, preseeded=artifact)
        result = run_shard(job)
        results.append(result)
        if not isinstance(result, ShardResult):
            continue  # the parent fails it as malformed
        if result.status is RunStatus.COMPILE_FAILED:
            compile_error = result.error
        elif result.ok and result.executable is not None:
            artifact = (result.executable, result.analysis)
    for seeded in (artifact, *(job.preseeded for job in jobs)):
        if seeded is not None:
            drop_specs(seeded[0])
    return results


# --------------------------------------------------------------------------
# the engine
# --------------------------------------------------------------------------

class ParallelEngine:
    """Shards :class:`ShardJob` orders across a process pool, one
    :func:`run_task` per benchmark.

    Parameters
    ----------
    jobs:
        Worker-process count (capped at the task count per batch).
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

        The jobs are grouped by benchmark, in first-appearance order, and
        each group is one pool task (:func:`run_task`).  A worker that
        dies without returning produces a ``WORKER_FAILED`` result
        wrapping :class:`~repro.errors.WorkerCrashError`; an undecodable
        result produces one wrapping
        :class:`~repro.errors.WorkerResultError`.
        """
        if not shard_jobs:
            return []
        tm = _telemetry.get()
        context = multiprocessing.get_context(self.start_method)
        by_benchmark: dict[str, list[int]] = {}
        for index, job in enumerate(shard_jobs):
            by_benchmark.setdefault(job.benchmark, []).append(index)
        tasks = [(indices, [shard_jobs[i] for i in indices])
                 for indices in by_benchmark.values()]
        workers = min(self.jobs, len(tasks))
        start = perf_counter()
        results: list[ShardResult] = [None] * len(shard_jobs)
        with tm.span("parallel:pool", category="harness",
                     jobs=len(shard_jobs), tasks=len(tasks),
                     workers=workers, start_method=self.start_method):
            with ProcessPoolExecutor(max_workers=workers,
                                     mp_context=context) as pool:
                futures = [(indices, jobs, pool.submit(run_task, jobs))
                           for indices, jobs in tasks]
                for indices, jobs, future in futures:
                    for index, result in zip(
                            indices, self._collect(jobs, future, tm)):
                        results[index] = result
            # Crash isolation: one worker dying abruptly breaks the whole
            # ProcessPoolExecutor, poisoning every sibling future with
            # BrokenProcessPool, and a dead task loses all its jobs.
            # Retry each crashed shard in its own single-worker pool so
            # innocent shards recover and only the true culprit reports
            # WORKER_FAILED.
            for index, result in enumerate(results):
                if (result.status is RunStatus.WORKER_FAILED
                        and isinstance(result.error, WorkerCrashError)):
                    results[index] = self._run_isolated(shard_jobs[index],
                                                        context, tm)
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
                (result,) = self._collect(
                    [job], pool.submit(run_task, [job]), tm)
                return result

    @staticmethod
    def _collect(jobs: list[ShardJob], future, tm) -> list[ShardResult]:
        """One task's results, one per job in order, each checked to be
        that job's :class:`ShardResult`."""
        try:
            results = future.result()
        except (BrokenProcessPool, OSError) as exc:
            return [_failure(job, WorkerCrashError(
                f"worker process died before returning "
                f"{job.benchmark}/{job.dataset}: "
                f"{type(exc).__name__}: {exc}",
                benchmark=job.benchmark, dataset=job.dataset))
                for job in jobs]
        except Exception as exc:
            tm.counter("harness.parallel.result_errors").inc(len(jobs))
            return [_failure(job, WorkerResultError(
                f"worker result for {job.benchmark}/{job.dataset} "
                f"could not be retrieved: {type(exc).__name__}: {exc}",
                benchmark=job.benchmark, dataset=job.dataset))
                for job in jobs]
        checked = []
        for job, result in zip(jobs, results):
            if (not isinstance(result, ShardResult)
                    or result.benchmark != job.benchmark
                    or result.dataset != job.dataset):
                tm.counter("harness.parallel.result_errors").inc()
                result = _failure(job, WorkerResultError(
                    f"worker returned a malformed result for "
                    f"{job.benchmark}/{job.dataset}",
                    benchmark=job.benchmark, dataset=job.dataset))
            checked.append(result)
        return checked
