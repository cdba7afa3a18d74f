"""Suite execution and caching for the experiment harness.

A :class:`BenchmarkRun` bundles everything the table/graph generators need
about one (benchmark, dataset) execution: the compiled executable, the
static :class:`~repro.core.classify.ProgramAnalysis`, and the dynamic
:class:`~repro.sim.profile.EdgeProfile`. :class:`SuiteRunner` memoizes
compilations (per benchmark) and runs (per benchmark x dataset) so that
regenerating all seven tables costs one pass over the suite.

Every run goes through one execution core,
:func:`repro.harness.parallel.execute`: :meth:`SuiteRunner._execute`
calls it in-process with the runner's compiled artifact and cache, and a
:meth:`SuiteRunner.prefetch` batch maps it over a process pool.  Either
way the :class:`~repro.harness.parallel.ShardResult` reaches
:meth:`SuiteRunner._adopt`, the one place a result becomes a memo entry or
a negative-cached failure.

Fault isolation: in the default ``strict=True`` mode any failure propagates
immediately (the historical behavior).  With ``strict=False`` the runner
degrades gracefully instead: each (benchmark, dataset) failure is captured
as a classified :class:`~repro.harness.resilience.RunOutcome`,
negative-cached so later tables don't re-pay for it, retried once at a
raised fuel budget when the failure was a (possibly transient)
instruction-limit, and rendered by the table/graph generators as explicit
``FAILED`` cells.  Failed attempts can never leak partial state: the
:class:`EdgeProfile` and :class:`BenchmarkRun` for an attempt are built
fresh per execution and only published to the memo cache on success.

Scale-out (see docs/performance.md):

``parallelism=N``
    :meth:`SuiteRunner.prefetch` executes a batch of missing (benchmark,
    dataset) shards, optionally with their Graphs 4-11 sequence analyzers,
    through :class:`~repro.harness.parallel.ParallelEngine`, whose
    workers run the same core and whose results are adopted in
    submission order — table/graph output is byte-identical to a serial
    run.  ``python -m repro.harness`` runs one batch for the whole
    report; :meth:`SuiteRunner.all_outcomes` prefetches the ``ref`` runs
    of callers that skip it.  Worker telemetry snapshots are folded into
    the parent sink under per-shard ``parallel:shard`` spans.

``cache_dir=PATH``
    Every compile, run, and Graphs 4-11 sequence pass additionally
    consults a persistent content-addressed
    :class:`~repro.harness.cache.ArtifactCache`, so a warm repeat
    invocation (same sources, same pipeline, same limits, same version)
    costs unpickling instead of simulation.  Sabotaged
    artifacts (chaos ``poison_*`` seams) bypass the cache entirely, and
    wall-clock timeouts are never cached.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass
from functools import cached_property
from time import perf_counter

from repro import telemetry as _telemetry
from repro.bench.suite import Benchmark, Dataset, get, suite
from repro.core.classify import ProgramAnalysis
from repro.errors import ReproError
from repro.harness.cache import ArtifactCache
from repro.harness.retry import RetryPolicy
from repro.isa.program import Executable
from repro.sim import SequenceAnalyzer
from repro.sim.profile import EdgeProfile

__all__ = ["BenchmarkRun", "SuiteRunner"]

_MAX_INSTRUCTIONS = 100_000_000


@dataclass
class BenchmarkRun:
    """One profiled execution plus its static analysis."""

    benchmark: Benchmark
    dataset: Dataset
    executable: Executable
    analysis: ProgramAnalysis
    profile: EdgeProfile
    output: str
    instr_count: int

    @property
    def name(self) -> str:
        return self.benchmark.name

    @cached_property
    def loop_addresses(self) -> list[int]:
        """Addresses of loop branches (static)."""
        return [b.address for b in self.analysis.loop_branches()]

    @cached_property
    def non_loop_addresses(self) -> list[int]:
        """Addresses of non-loop branches (static)."""
        return [b.address for b in self.analysis.non_loop_branches()]

    @cached_property
    def executed_non_loop(self) -> list[int]:
        return [a for a in self.non_loop_addresses
                if self.profile.execution_count(a) > 0]

    @property
    def dynamic_total(self) -> int:
        return self.profile.total_dynamic_branches

    def dynamic_count(self, addresses) -> int:
        return sum(self.profile.execution_count(a) for a in addresses)

    @property
    def non_loop_fraction(self) -> float:
        """Fraction of dynamic branches that are non-loop (Table 2's %All)."""
        if self.dynamic_total == 0:
            return 0.0
        return self.dynamic_count(self.non_loop_addresses) / self.dynamic_total


class SuiteRunner:
    """Compiles and profiles suite benchmarks on demand, with memoization.

    Parameters
    ----------
    benchmarks:
        Subset of suite benchmark names (default: the whole suite).
    max_instructions:
        Per-run instruction-fuel budget.
    strict:
        ``True`` (default): any failure propagates immediately.
        ``False``: failures are captured per (benchmark, dataset) as
        :class:`~repro.harness.resilience.RunOutcome` values, negative-cached,
        and reported as ``FAILED`` cells by the table/graph generators.
    wall_clock_deadline:
        Optional per-run watchdog deadline in seconds (see
        :class:`~repro.sim.Machine`).
    retry_fuel_factor:
        In degraded mode, a run that dies of :class:`SimulationLimitExceeded`
        (fuel, not wall clock) is retried once with this multiple of the
        fuel budget before being declared a timeout.
    pc_sample_interval:
        Forwarded to every :class:`~repro.sim.Machine`: when set, the
        simulator samples a hot-PC histogram at this instruction period
        (off by default).
    optimize:
        ``False`` compiles every benchmark at ``-O0`` (empty pass
        pipeline) — the harness's ``-O0`` smoke mode for checking that
        results are not an artifact of the optimizer.
    parallelism:
        Worker-process count for :meth:`prefetch` batches (``1`` =
        serial, the historical behavior).  :meth:`run`, :meth:`outcome`
        and :meth:`sequences` serve what a batch memoized and simulate
        in-process whatever it did not cover.
    cache_dir:
        Directory for the persistent content-addressed artifact cache
        (``None`` disables persistence).
    engine:
        Execution engine for every simulation this runner performs:
        ``"tier0"`` (pre-decoded dispatch), ``"tier1"`` (superblock trace
        cache), or ``None`` (resolve per run via the chaos/env seams —
        see :func:`repro.sim.resolve_engine_name`).  The resolved name is
        folded into every persistent run key so tier artifacts never
        alias.

    Telemetry: each fresh (benchmark, dataset) execution is wrapped in a
    ``run:<benchmark>/<dataset>`` span containing ``compile``/``analyze``
    and ``simulate`` child spans (a :meth:`sequences` pass is one more
    ``simulate`` span, tagged ``kind="sequences"``); memo-cache hits and
    misses, retries, and per-status failures are counted under
    ``harness.*``, artifact-cache traffic under
    ``harness.artifact_cache.*``, and parallel prefetches produce
    ``parallel:pool`` / ``parallel:shard`` spans (all no-ops unless a
    telemetry sink is installed via :func:`repro.telemetry.install`).
    """

    def __init__(self, benchmarks: list[str] | None = None,
                 max_instructions: int = _MAX_INSTRUCTIONS,
                 strict: bool = True,
                 wall_clock_deadline: float | None = None,
                 retry_fuel_factor: int = 4,
                 pc_sample_interval: int | None = None,
                 optimize: bool = True,
                 parallelism: int = 1,
                 cache_dir=None,
                 engine: str | None = None) -> None:
        self.benchmark_names = benchmarks or [b.name for b in suite()]
        self.max_instructions = max_instructions
        self.strict = strict
        self.wall_clock_deadline = wall_clock_deadline
        self.retry_fuel_factor = retry_fuel_factor
        self.pc_sample_interval = pc_sample_interval
        self.optimize = optimize
        self.parallelism = max(1, int(parallelism))
        self.engine = engine
        self.cache = ArtifactCache(cache_dir) if cache_dir else None
        self._compiled: dict[str, tuple[Executable, ProgramAnalysis]] = {}
        self._runs: dict[tuple[str, str], BenchmarkRun] = {}
        self._sequences: dict[tuple[str, str],
                              dict[str, SequenceAnalyzer]] = {}
        #: runs whose sequence analyzers will be read: their profile runs
        #: record a log (see :meth:`declare_sequences`)
        self._sequence_demand: set[tuple[str, str]] = set()
        # negative caches (degraded mode): compile failures per benchmark,
        # run failures per (benchmark, dataset, limits-fingerprint) — the
        # fingerprint keeps a fault injected under one set of limits from
        # poisoning reruns under different limits
        self._compile_failures: dict[str, ReproError] = {}
        self._run_failures: dict[tuple, "RunOutcome"] = {}
        # chaos / operator overrides, keyed (benchmark, dataset-or-None);
        # a None dataset applies to every dataset of the benchmark
        self._fuel_overrides: dict[tuple[str, str | None], int] = {}
        self._input_overrides: dict[tuple[str, str | None], int] = {}
        self._memory_overrides: dict[tuple[str, str | None], int] = {}
        self._skipped: dict[str, str] = {}
        #: benchmarks whose compiled artifact was replaced by chaos — the
        #: persistent cache must never be consulted or fed for these
        self._poisoned: set[str] = set()

    # -- limits / keys ---------------------------------------------------------

    @property
    def _effective_retry_factor(self) -> int:
        """Strict mode never retries (the historical behavior)."""
        return self.retry_fuel_factor if not self.strict else 1

    @property
    def retry_policy(self) -> RetryPolicy:
        """The transient-retry policy this runner executes under
        (shared classification with the parallel shard worker — see
        :mod:`repro.harness.retry`)."""
        return RetryPolicy.from_fuel_factor(self._effective_retry_factor)

    @staticmethod
    def _override(table: dict, name: str, dataset: str):
        value = table.get((name, dataset))
        if value is None:
            value = table.get((name, None))
        return value

    def _effective_limits(self, name: str, dataset: str
                          ) -> tuple[int, int | None, int | None]:
        """(fuel budget, input truncation, memory cap) after overrides."""
        budget = self._override(self._fuel_overrides, name, dataset)
        if budget is None:
            budget = self.max_instructions
        keep = self._override(self._input_overrides, name, dataset)
        memory = self._override(self._memory_overrides, name, dataset)
        return budget, keep, memory

    def _limits_fingerprint(self, name: str, dataset: str) -> tuple:
        budget, keep, memory = self._effective_limits(name, dataset)
        return (budget, keep, memory, self._effective_retry_factor)

    def _failure_key(self, name: str, dataset: str) -> tuple:
        """Negative-cache key: benchmark + dataset + limits fingerprint."""
        return (name, dataset, self._limits_fingerprint(name, dataset))

    def _disk_cache_for(self, name: str) -> ArtifactCache | None:
        """The persistent cache, unless *name*'s artifact was sabotaged."""
        if self.cache is None or name in self._poisoned:
            return None
        return self.cache

    # -- compilation -----------------------------------------------------------

    def compiled(self, name: str) -> tuple[Executable, ProgramAnalysis]:
        """The (executable, analysis) pair for *name*, compiled once.

        Raises the (negative-cached) typed error on a broken benchmark —
        degraded-mode callers catch it and render a FAILED cell.
        """
        from repro.harness.parallel import compile_artifact
        tm = _telemetry.get()
        if name in self._compile_failures:
            raise self._compile_failures[name]
        if name not in self._compiled:
            tm.counter("harness.compile_cache.miss").inc()
            try:
                self._compiled[name] = compile_artifact(
                    get(name), optimize=self.optimize,
                    cache=self._disk_cache_for(name))
            except ReproError as exc:
                self._compile_failures[name] = exc
                tm.counter("harness.compile_failures").inc()
                raise
        else:
            tm.counter("harness.compile_cache.hit").inc()
        return self._compiled[name]

    # -- execution -------------------------------------------------------------

    def _execute(self, name: str, dataset: str):
        """One execution of (*name*, *dataset*) through
        :func:`~repro.harness.parallel.execute`, in-process, with this
        runner's compiled artifact and cache; returns its
        :class:`~repro.harness.parallel.ShardResult` (a compile failure or
        an unknown name comes back classified too)."""
        from repro.harness.parallel import ShardResult, execute
        from repro.harness.resilience import classify_failure
        job = self._shard_job(name, dataset)
        try:
            if job is None:
                raise ReproError(
                    f"unknown benchmark or dataset: {name!r}/{dataset!r}",
                    benchmark=name, dataset=dataset, phase="setup")
            job.preseeded = self.compiled(name)
        except ReproError as exc:
            return ShardResult(benchmark=name, dataset=dataset,
                               status=classify_failure(exc), error=exc)
        return execute(job, self._disk_cache_for(name))

    def _adopt(self, result) -> "RunOutcome":
        """Memoize one :func:`~repro.harness.parallel.execute` result, run
        here or in a pool worker: a run (with any sequence analyzers), or
        a negative-cached failure.  A strict runner records no degraded
        failure: :meth:`outcome` raises it instead."""
        from repro.harness.resilience import RunOutcome, RunStatus
        tm = _telemetry.get()
        name, dataset = result.benchmark, result.dataset
        if result.ok:
            executable, analysis = self._compiled.setdefault(
                name, (result.executable, result.analysis))
            benchmark = get(name)
            run = BenchmarkRun(
                benchmark=benchmark, dataset=benchmark.dataset(dataset),
                executable=executable, analysis=analysis,
                profile=result.profile, output=result.output,
                instr_count=result.instr_count)
            self._runs[(name, dataset)] = run
            if result.sequences is not None:
                self._sequences[(name, dataset)] = result.sequences
            return RunOutcome(name, dataset, RunStatus.OK, run=run,
                              retried=result.retried)
        if (result.status is RunStatus.COMPILE_FAILED
                and name not in self._compile_failures):
            self._compile_failures[name] = result.error
            tm.counter("harness.compile_failures").inc()
        if not self.strict:
            tm.counter("harness.degraded_failures").inc()
            tm.labeled_counter("harness.failures_by_status").inc(
                result.status.value)
        outcome = RunOutcome(name, dataset, result.status,
                             error=result.error, retried=result.retried)
        self._run_failures[self._failure_key(name, dataset)] = outcome
        return outcome

    # -- outcomes --------------------------------------------------------------

    def outcome(self, name: str, dataset: str = "ref") -> "RunOutcome":
        """Run (memoized) and wrap the result in a
        :class:`~repro.harness.resilience.RunOutcome`.

        In strict mode failures propagate; in degraded mode they come back
        as classified, negative-cached failure outcomes.
        """
        from repro.harness.resilience import RunOutcome, RunStatus
        tm = _telemetry.get()
        run = self._runs.get((name, dataset))
        if run is not None:
            tm.counter("harness.run_cache.hit").inc()
            return RunOutcome(name, dataset, RunStatus.OK, run=run)
        if name in self._skipped:
            tm.counter("harness.skipped").inc()
            outcome = RunOutcome(name, dataset, RunStatus.SKIPPED)
            if self.strict:
                outcome.require()  # raises
            return outcome
        cached = self._run_failures.get(self._failure_key(name, dataset))
        if cached is not None:
            tm.counter("harness.run_cache.negative_hit").inc()
            if self.strict:
                raise cached.error
            return cached
        tm.counter("harness.run_cache.miss").inc()
        with tm.span(f"run:{name}/{dataset}", category="harness",
                     benchmark=name, dataset=dataset):
            outcome = self._adopt(self._execute(name, dataset))
            if self.strict:
                outcome.require()  # raises a failure
        return outcome

    def run(self, name: str, dataset: str = "ref") -> BenchmarkRun:
        """Profile one benchmark execution (memoized); raises on failure."""
        return self.outcome(name, dataset).require()

    def declare_sequences(self, pairs: Collection[tuple[str, str]]) -> None:
        """Declare the (benchmark, dataset) runs whose :meth:`sequences`
        will be read, before they run: each such profile run records its
        event log and yields its analyzers itself, so the sequence pass
        simulates nothing more."""
        self._sequence_demand.update(pairs)

    def sequences(self, name: str, dataset: str = "ref"
                  ) -> dict[str, SequenceAnalyzer]:
        """The Graphs 4-11 sequence analyzers of one run, memoized per
        (benchmark, dataset that ran).  A run declared beforehand
        (:meth:`declare_sequences`) computed them from its own log; any
        other run goes through :func:`~repro.harness.parallel.
        sequence_pass` — its persistent cache entry, else a
        re-simulation under the run's limits.  Failures raise and are
        never memoized."""
        from repro.harness.parallel import sequence_pass
        run = self.run(name, dataset)
        key = (name, run.dataset.name)
        analyzers = self._sequences.get(key)
        if analyzers is None:
            analyzers = sequence_pass(
                self._shard_job(*key), run.executable, run.analysis,
                run.profile, self._disk_cache_for(name))
            self._sequences[key] = analyzers
        return analyzers

    # -- parallel prefetch -----------------------------------------------------

    def _needs_run(self, name: str, dataset: str) -> bool:
        return ((name, dataset) not in self._runs
                and name not in self._skipped
                and name not in self._compile_failures
                and self._failure_key(name, dataset)
                not in self._run_failures)

    def _shard_job(self, name: str, dataset: str):
        from repro.harness.parallel import ShardJob
        budget, keep, memory = self._effective_limits(name, dataset)
        try:
            ds = get(name).dataset(dataset)
        except (KeyError, ValueError):
            return None  # let the serial path raise the typed error
        inputs = tuple(ds.inputs)
        if keep is not None:
            inputs = inputs[:keep]
        poisoned = name in self._poisoned
        return ShardJob(
            benchmark=name, dataset=dataset, inputs=inputs,
            sequences=(name, dataset) in self._sequence_demand,
            fuel_budget=budget,
            retry_fuel_factor=self._effective_retry_factor,
            wall_clock_deadline=self.wall_clock_deadline,
            max_memory_bytes=memory,
            pc_sample_interval=self.pc_sample_interval,
            optimize=self.optimize,
            engine=self.engine,
            cache_dir=(str(self.cache.root)
                       if self.cache is not None and not poisoned else None),
            collect_telemetry=_telemetry.get().enabled,
            preseeded=self._compiled.get(name),
            poisoned=poisoned)

    def prefetch(self, pairs: list[tuple[str, str]],
                 with_sequences: Collection[tuple[str, str]] = ()) -> int:
        """Execute every missing (benchmark, dataset) shard of *pairs* in
        one parallel batch; returns the shard count.

        Populates the memo caches so the subsequent serial walk (tables,
        graphs, :meth:`outcome`) is all hits.  *with_sequences* is
        declared (:meth:`declare_sequences`), so those shards compute
        their sequence analyzers in the worker; a pass that fails there
        is not memoized, so :meth:`sequences` re-runs it and raises or
        renders it exactly as a serial run does.  Runs no batch when
        ``parallelism`` is 1 or fewer than two shards are missing (pool
        overhead would exceed the win).
        """
        self.declare_sequences(with_sequences)
        if self.parallelism <= 1:
            return 0
        from repro.harness.parallel import ParallelEngine
        jobs = []
        for name, dataset in dict.fromkeys(pairs):
            job = (self._shard_job(name, dataset)
                   if self._needs_run(name, dataset) else None)
            if job is not None:
                jobs.append(job)
        if len(jobs) < 2:
            return 0
        tm = _telemetry.get()
        offset_us = (int((perf_counter() - tm.epoch) * 1e6)
                     if tm.enabled else 0)
        results = ParallelEngine(self.parallelism).execute(jobs)
        for result in results:
            if self.cache is not None:
                # fold worker-side cache traffic into the parent's
                # counters so stats()/CLI footers reflect the whole batch
                for field_name in ("hits", "misses", "corrupt", "stores",
                                   "tmp_swept"):
                    setattr(self.cache, field_name,
                            getattr(self.cache, field_name)
                            + result.cache_stats.get(field_name, 0))
            if result.telemetry is not None and tm.enabled:
                with tm.span("parallel:shard", category="harness",
                             benchmark=result.benchmark,
                             dataset=result.dataset,
                             status=result.status.value):
                    tm.merge_snapshot(result.telemetry,
                                      start_offset_us=offset_us)
            self._adopt(result)
        return len(results)

    def all_outcomes(self, dataset: str = "ref") -> list["RunOutcome"]:
        """Outcomes for every benchmark, in suite order (degraded mode:
        failures come back as FAILED outcomes instead of raising).

        With ``parallelism > 1`` the missing shards are executed by the
        process-pool engine first; the serial walk below then merely
        replays the memo caches, preserving strict-mode raise order and
        degraded-mode FAILED classification exactly.
        """
        if self.parallelism > 1:
            self.prefetch([(name, dataset) for name in self.benchmark_names])
        return [self.outcome(name, dataset) for name in self.benchmark_names]

    def all_runs(self, dataset: str = "ref") -> list[BenchmarkRun]:
        """Profiled runs for every benchmark, in suite order."""
        return [self.run(name, dataset) for name in self.benchmark_names]

    # -- chaos / operator hooks ------------------------------------------------
    # Seams used by repro.testing.chaos (and operators) to inject faults or
    # bound pathological benchmarks without touching suite definitions.
    # The limit seams take an optional dataset: ``None`` (the default)
    # applies the override to every dataset of the benchmark.

    def poison_compile(self, name: str, error: ReproError) -> None:
        """Force *name* to fail compilation with *error*."""
        self._compile_failures[name] = error
        self._compiled.pop(name, None)
        self._poisoned.add(name)

    def poison_executable(self, name: str, executable: Executable,
                          analysis: ProgramAnalysis) -> None:
        """Replace *name*'s compiled artifact (e.g. with a corrupted one).

        The persistent artifact cache is bypassed for *name* from here
        on: a sabotaged artifact must never be served under (or stored
        at) the honest source-derived key.
        """
        self._compiled[name] = (executable, analysis)
        self._compile_failures.pop(name, None)
        self._poisoned.add(name)

    def limit_fuel(self, name: str, budget: int,
                   dataset: str | None = None) -> None:
        """Override the instruction budget for one benchmark (optionally
        for a single dataset only)."""
        self._fuel_overrides[(name, dataset)] = budget

    def limit_inputs(self, name: str, keep: int,
                     dataset: str | None = None) -> None:
        """Truncate the dataset inputs to the first *keep* values."""
        self._input_overrides[(name, dataset)] = keep

    def limit_memory(self, name: str, max_bytes: int,
                     dataset: str | None = None) -> None:
        """Cap the data-memory budget for one benchmark."""
        self._memory_overrides[(name, dataset)] = max_bytes

    def clear_limits(self, name: str, dataset: str | None = None) -> None:
        """Drop every fuel/input/memory override for *name* (or for one
        (benchmark, dataset) pair when *dataset* is given)."""
        for table in (self._fuel_overrides, self._input_overrides,
                      self._memory_overrides):
            if dataset is None:
                for key in [k for k in table if k[0] == name]:
                    del table[key]
            else:
                table.pop((name, dataset), None)

    def skip(self, name: str, reason: str = "") -> None:
        """Mark *name* as skipped (renders as FAILED:skipped cells)."""
        self._skipped[name] = reason

    def is_skipped(self, name: str) -> bool:
        return name in self._skipped
