"""Determinism suite for the parallel engine and the artifact cache.

The whole point of ``SuiteRunner(parallelism=N, cache_dir=...)`` is that
it is *invisible* in the output: every table and graph must be
byte-identical across

* a serial run (``parallelism=1``, no cache),
* a parallel run (``parallelism=2``, cold cache),
* a cache-warm run (``parallelism=2``, second runner on the same cache),

including degraded-mode FAILED cells under injected chaos faults.  The
tier-1 tests here cover the 3-benchmark MINI_SUITE; the tier-2 tests
(run with ``pytest -m tier2``) repeat the comparison over the full
22-benchmark suite, all seven tables and both graph families.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from repro import telemetry
from repro.core import orders
from repro.errors import (
    ReproError, SimulationLimitExceeded, WorkerCrashError, WorkerError,
)
from repro.harness import (
    SEQUENCE_BENCHMARKS, RunStatus, SuiteRunner,
    graph1, graph13, graphs2_3, graphs4_11,
    table1, table2, table3, table4, table5, table6, table7,
)
from repro.harness import parallel
from repro.harness.__main__ import main as harness_main, report_demand
from repro.harness.parallel import (
    CHAOS_WORKER_CRASH_ENV, run_shard, run_task,
)
from repro.sim import Machine, traces
from repro.telemetry import Telemetry
from repro.testing.chaos import sabotage

from conftest import MINI_SUITE

#: sha256 per blank-line block of the default report over MINI_SUITE
MINI_GOLDEN = Path(__file__).parent / "golden_report_mini.json"
#: sha256 per blank-line block of the default full-suite report, keyed by
#: section in print order: the benchmark's golden (perf/run.py), read only
FULL_GOLDEN = Path(__file__).parents[1] / "perf" / "golden" / "report.json"


def mini_report(runner: SuiteRunner) -> str:
    """A representative slice of the report: three tables + Graph 1."""
    return "\n".join([
        table1(runner).render(),
        table2(runner).render(),
        table5(runner).render(),
        graph1(runner).describe(),
    ])


def full_report(runner: SuiteRunner) -> str:
    """Every table and graph family the CLI can emit."""
    parts = [t(runner).render() for t in
             (table1, table2, table3, table4, table5, table6, table7)]
    parts.append(graph1(runner).describe())
    parts.append(graphs2_3(runner).describe())
    parts.extend(sg.describe() for sg in
                 graphs4_11(runner, benchmarks=SEQUENCE_BENCHMARKS))
    parts.append(graph13(runner).describe())
    return "\n".join(parts)


# -- tier 1: mini-suite determinism -------------------------------------------


class TestMiniSuiteDeterminism:

    @pytest.fixture(scope="class")
    def serial_report(self):
        return mini_report(SuiteRunner(MINI_SUITE))

    def test_parallel_is_byte_identical(self, serial_report):
        runner = SuiteRunner(MINI_SUITE, parallelism=2)
        assert mini_report(runner) == serial_report

    def test_cold_then_warm_cache_is_byte_identical(self, serial_report,
                                                    tmp_path):
        cache_dir = tmp_path / "cache"
        cold = SuiteRunner(MINI_SUITE, parallelism=2, cache_dir=cache_dir)
        assert mini_report(cold) == serial_report
        assert cold.cache.stores > 0, "cold run must populate the cache"

        warm = SuiteRunner(MINI_SUITE, parallelism=2, cache_dir=cache_dir)
        assert mini_report(warm) == serial_report
        assert warm.cache.hits > 0, "warm run must hit the cache"
        assert warm.cache.misses == 0, (
            "every artifact of an identical rerun must be served from "
            f"cache (stats: {warm.cache.stats()})")

    def test_serial_warm_cache_matches_parallel_warm(self, serial_report,
                                                     tmp_path):
        cache_dir = tmp_path / "cache"
        mini_report(SuiteRunner(MINI_SUITE, parallelism=2,
                                cache_dir=cache_dir))
        warm_serial = SuiteRunner(MINI_SUITE, cache_dir=cache_dir)
        assert mini_report(warm_serial) == serial_report
        assert warm_serial.cache.hits > 0

    def test_all_outcomes_order_and_instr_counts_match(self):
        serial = SuiteRunner(MINI_SUITE).all_outcomes("ref")
        parallel = SuiteRunner(MINI_SUITE, parallelism=2).all_outcomes("ref")
        assert [(o.benchmark, o.dataset) for o in parallel] \
            == [(o.benchmark, o.dataset) for o in serial]
        for a, b in zip(parallel, serial):
            assert a.ok and b.ok
            assert a.run.instr_count == b.run.instr_count
            assert a.run.output == b.run.output
            assert list(a.run.profile.items()) == list(b.run.profile.items())


def sequence_report(runner: SuiteRunner) -> str:
    """Graphs 4-11 over the mini suite."""
    return "\n".join(sg.describe() for sg in
                     graphs4_11(runner, benchmarks=tuple(MINI_SUITE)))


def log_cache_traffic(cache) -> list[tuple[str, str, str]]:
    """Record every ``(op, kind, key)`` *cache* serves from now on."""
    log = []
    get, put = cache.get, cache.put

    def logged_get(key, kind):
        log.append(("get", kind, key))
        return get(key, kind)

    def logged_put(key, kind, payload):
        log.append(("put", kind, key))
        return put(key, kind, payload)

    cache.get, cache.put = logged_get, logged_put
    return log


@pytest.fixture(scope="module")
def serial_sequences():
    return sequence_report(SuiteRunner(MINI_SUITE))


class TestSequenceCache:
    """Graphs 4-11 sequence passes are cached run artifacts."""

    def test_warm_rerun_simulates_nothing(self, serial_sequences, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = SuiteRunner(MINI_SUITE, cache_dir=cache_dir)
        assert sequence_report(cold) == serial_sequences
        sink = Telemetry()
        with telemetry.use(sink):
            warm = SuiteRunner(MINI_SUITE, cache_dir=cache_dir)
            assert sequence_report(warm) == serial_sequences
        assert sink.counters().get("sim.runs", 0) == 0
        assert warm.cache.misses == 0
        assert warm.cache.hits == 3 * len(MINI_SUITE)  # compile, run, seq

    def test_corrupt_entry_is_recomputed(self, serial_sequences, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = SuiteRunner(MINI_SUITE, cache_dir=cache_dir)
        log = log_cache_traffic(cold.cache)
        sequence_report(cold)
        keys = [key for op, kind, key in log
                if op == "put" and kind == "sequences"]
        assert len(keys) == len(MINI_SUITE)
        for key in keys:
            cold.cache.path_for(key).write_bytes(b"junk")
        again = SuiteRunner(MINI_SUITE, cache_dir=cache_dir)
        assert sequence_report(again) == serial_sequences
        assert again.cache.corrupt == len(MINI_SUITE)
        assert again.cache.stores == len(MINI_SUITE)

    def test_failed_placeholder_never_touches_an_entry(self, tmp_path):
        runner = SuiteRunner(MINI_SUITE, strict=False,
                             cache_dir=tmp_path / "cache")
        sabotage(runner, "fields", "fuel")
        log = log_cache_traffic(runner.cache)
        graphs = graphs4_11(runner, benchmarks=tuple(MINI_SUITE))
        assert [sg.name for sg in graphs if sg.failed] == ["fields"]
        ops = [op for op, kind, _ in log if kind == "sequences"]
        # one lookup and one store per healthy run, none for fields
        assert sorted(ops) == ["get", "get", "put", "put"]


# -- tier 1: the report's one batch -------------------------------------------


def spy_machine_runs(patch) -> list:
    """Every ``Machine.run`` call made in *this* process from now on;
    forked workers inherit the spy, but their calls stay in the worker."""
    calls = []
    run = Machine.run

    def spy(self, *args, **kwargs):
        calls.append(self)
        return run(self, *args, **kwargs)

    patch.setattr(Machine, "run", spy)
    return calls


def spy_subset_sweeps(patch) -> list:
    """The *k* of every subset sweep run in this process from now on,
    starting from an empty sweep memo, so no earlier sweep answers."""
    sweeps = []
    sweep = orders._subset_sweep

    def spy(*args):
        sweeps.append(args[2])
        return sweep(*args)

    patch.setattr(orders, "_last_sweep", {})
    patch.setattr(orders, "_subset_sweep", spy)
    return sweeps


def cli_report(*argv: str) -> str:
    """stdout of ``python -m repro.harness`` over the mini suite (a later
    ``--benchmarks`` wins)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert harness_main(["--benchmarks", ",".join(MINI_SUITE),
                             *argv]) == 0
    return out.getvalue()


def span_events(bundle) -> list[dict]:
    lines = (bundle / "events.jsonl").read_text().splitlines()
    return [e for e in map(json.loads, lines) if e["event"] == "span"]


class TestReportBatch:
    """``--jobs 2`` runs every simulation of the report in one pool batch
    and prints exactly what ``--jobs 1`` prints (default selection: all
    seven tables and Graphs 1, 2, 4, 12 and 13)."""

    @pytest.fixture(scope="class")
    def reports(self, tmp_path_factory):
        out = {}
        for jobs in ("1", "2"):
            bundle = tmp_path_factory.mktemp(f"jobs{jobs}")
            with pytest.MonkeyPatch.context() as patch:
                calls = spy_machine_runs(patch)
                sweeps = spy_subset_sweeps(patch)
                text = cli_report("--jobs", jobs, "--telemetry", str(bundle))
            out[jobs] = (text, calls, bundle, sweeps)
        return out

    def test_stdout_is_byte_identical(self, reports):
        assert reports["2"][0] == reports["1"][0]
        assert "Graph 13" in reports["1"][0]

    def test_serial_report_matches_the_mini_golden(self, reports):
        golden = json.loads(MINI_GOLDEN.read_text())["blocks"]
        digests = {}
        for block in reports["1"][0].strip("\n").split("\n\n"):
            title = block.strip("\n").splitlines()[0].split(":")[0]
            digests[title] = hashlib.sha256(block.encode()).hexdigest()
        assert list(digests) == list(golden), "report blocks changed"
        moved = [title for title in golden if digests[title] != golden[title]]
        assert not moved, f"report blocks moved: {moved}"

    def test_parent_simulates_nothing(self, reports):
        assert len(reports["1"][1]) == 3 * len(MINI_SUITE)
        assert reports["2"][1] == []

    def test_one_pool_batch_of_every_run(self, reports):
        bundle = reports["2"][2]
        events = span_events(bundle)
        pools = [e for e in events if e["name"] == "parallel:pool"]
        assert [e["args"]["jobs"] for e in pools] == [3 * len(MINI_SUITE)]
        # every benchmark compiles once, in the worker task that runs its
        # shards: under a merged shard span, none in the parent
        by_id = {e["span_id"]: e for e in events}

        def ancestors(event):
            while event["parent_id"] in by_id:
                event = by_id[event["parent_id"]]
                yield event["name"]

        compiles = [e for e in events if e["name"] == "compile"]
        assert sorted(e["args"]["benchmark"] for e in compiles) \
            == sorted(MINI_SUITE)
        for event in compiles:
            names = list(ancestors(event))
            assert "parallel:shard" in names
            assert names[0] != "prefetch"
        counters = json.loads(
            (bundle / "telemetry.json").read_text())["counters"]
        assert counters["harness.parallel.shards"] == 3 * len(MINI_SUITE)
        assert counters["sim.runs"] == 3 * len(MINI_SUITE)
        # one task per benchmark forms its superblocks once, as serial
        serial = json.loads(
            (reports["1"][2] / "telemetry.json").read_text())["counters"]
        assert counters["sim.tier1.superblocks_formed"] \
            == serial["sim.tier1.superblocks_formed"] > 0

    def test_every_section_has_a_span_under_report(self, reports):
        sections = ["table1", "table2", "table3", "table4", "table5",
                    "table6", "table7", "graph1", "graphs2_3",
                    "graphs4_11", "graph12", "graph13"]
        for jobs in ("1", "2"):
            events = span_events(reports[jobs][2])
            (report,) = [e for e in events if e["name"] == "report"]
            children = [e["name"] for e in events
                        if e["parent_id"] == report["span_id"]]
            batch = ["prefetch"] if jobs == "2" else []
            assert children == batch + sections
            names = [e["name"] for e in events]
            # Table 4 and Graphs 2-3 each call the subset experiment;
            # the second call returns the first call's sweep
            assert names.count("orders.subset") == 2
            assert names.count("orders.pairwise") == 1

    def test_table4_and_graphs2_3_share_one_sweep(self, reports):
        for jobs in ("1", "2"):
            assert reports[jobs][3] == [len(MINI_SUITE) // 2]

    def test_sequence_passes_ride_in_the_batch(self, monkeypatch):
        argv = ["--benchmarks", "quad,scc", "--tables", "", "--graphs", "4"]
        calls = spy_machine_runs(monkeypatch)
        serial = cli_report(*argv)
        # each simulation runs once: the ref profile runs log the traces
        assert len(calls) == 2
        del calls[:]
        assert cli_report(*argv, "--jobs", "2") == serial
        assert "Graph (sequences) quad" in serial
        assert calls == []

    def test_demand_covers_what_each_section_reads(self):
        names = ["cg", "queens"]
        refs = [("cg", "ref"), ("queens", "ref")]
        assert report_demand(names, {1}, {12}) == ([], [])
        assert report_demand(names, {4}, set()) == (refs, [])
        assert report_demand(names, set(), {5}) == ([("cg", "ref")],
                                                    [("cg", "ref")])
        pairs, sequences = report_demand(names, {2}, {4, 13})
        assert pairs == refs + [("cg", "small"), ("cg", "alt"),
                                ("queens", "small"), ("queens", "alt")]
        assert sequences == [("cg", "ref")]

    def test_preseeded_shards_do_not_echo_the_artifact(self):
        """A task that compiles echoes the artifact on its first OK result
        only; a preseeded task echoes none."""
        runner = SuiteRunner(["queens"])
        datasets = ("small", "alt")
        jobs = [runner._shard_job("queens", ds) for ds in datasets]
        assert all(job.preseeded is None for job in jobs)
        fresh = run_task(jobs)
        assert all(result.ok for result in fresh)
        assert [result.executable is not None for result in fresh] \
            == [True, False]
        assert [result.analysis is not None for result in fresh] \
            == [True, False]
        runner.compiled("queens")
        seeded = run_task([runner._shard_job("queens", ds)
                           for ds in datasets])
        assert all(result.ok and result.executable is None
                   and result.analysis is None for result in seeded)
        assert [r.instr_count for r in seeded] \
            == [r.instr_count for r in fresh]


class TestPoolTask:
    """One pool task per benchmark: one compile, one set of superblock
    specs, nothing left behind, and a one-benchmark batch stays serial."""

    @staticmethod
    def task_jobs(*datasets: str) -> list:
        """queens shards that record telemetry into their results."""
        with telemetry.use(Telemetry()):
            runner = SuiteRunner(["queens"])
            return [runner._shard_job("queens", ds) for ds in datasets]

    @staticmethod
    def formed(results) -> int:
        return sum(result.telemetry.counters.get(
            "sim.tier1.superblocks_formed", 0) for result in results)

    def test_a_task_leaves_no_superblock_specs(self):
        results = run_task(self.task_jobs("small", "alt"))
        assert self.formed(results) > 0
        executable = results[0].executable
        assert executable is not None
        assert executable not in traces._SHARED_SPECS

    def test_a_task_forms_its_superblocks_once(self):
        """The task's second run re-binds the first run's specs, so the
        task forms what one serial runner forms for both runs."""
        results = run_task(self.task_jobs("small", "alt"))
        assert all(result.ok for result in results)
        sink = Telemetry()
        with telemetry.use(sink):
            runner = SuiteRunner(["queens"])
            runner.run("queens", "small")
            runner.run("queens", "alt")
        assert self.formed(results) \
            == sink.counters()["sim.tier1.superblocks_formed"] > 0

    def test_a_compile_failure_answers_every_job_once(self, monkeypatch):
        calls = []

        def broken(benchmark, **kwargs):
            calls.append(benchmark.name)
            raise ReproError("injected compile failure",
                             benchmark=benchmark.name, phase="compile")

        monkeypatch.setattr(parallel, "compile_artifact", broken)
        runner = SuiteRunner(["queens"])
        results = run_task([runner._shard_job("queens", ds)
                            for ds in ("ref", "small", "alt")])
        assert calls == ["queens"]
        assert [r.dataset for r in results] == ["ref", "small", "alt"]
        assert all(r.status is RunStatus.COMPILE_FAILED
                   and r.error is results[0].error for r in results)

    @pytest.mark.parametrize("strict", [True, False])
    def test_a_compile_failure_in_a_worker_surfaces_like_serial(
            self, monkeypatch, strict):
        """A benchmark that fails to compile in its task is memoized by
        the parent: strict raises and degraded renders FAILED exactly
        where a serial report does."""
        real = parallel.compile_artifact

        def broken(benchmark, **kwargs):
            if benchmark.name == "fields":
                raise ReproError("injected compile failure",
                                 benchmark="fields", phase="compile")
            return real(benchmark, **kwargs)

        monkeypatch.setattr(parallel, "compile_artifact", broken)
        pairs = [(name, ds) for name in MINI_SUITE
                 for ds in ("ref", "small")]
        reports = []
        for parallelism in (1, 2):
            runner = SuiteRunner(MINI_SUITE, strict=strict,
                                 parallelism=parallelism)
            if parallelism > 1:
                assert runner.prefetch(pairs) == len(pairs)
                assert runner._compile_failures["fields"].phase \
                    == "compile"
            if strict:
                with pytest.raises(ReproError) as info:
                    mini_report(runner)
                reports.append(info.value.oneline())
            else:
                reports.append(mini_report(runner))
        assert reports[0] == reports[1]
        assert "fields" in reports[0]

    def test_one_benchmark_forks_no_pool(self, tmp_path):
        argv = ["--benchmarks", "queens", "--tables", "", "--graphs", "13"]
        serial = cli_report(*argv)
        assert cli_report(*argv, "--jobs", "2", "--telemetry",
                          str(tmp_path)) == serial
        names = [e["name"] for e in span_events(tmp_path)]
        assert "prefetch" in names and "parallel:pool" not in names
        assert "Graph 13" in serial


class TestBatchSequencePass:
    """The sequence pass rides in its run's shard; a pass that fails in a
    worker is re-run by the parent, exactly as a serial pass."""

    PAIRS = [(name, "ref") for name in MINI_SUITE]

    def batch_runner(self, **kwargs) -> SuiteRunner:
        """A runner prefetched the way ``python -m repro.harness`` does it."""
        runner = SuiteRunner(MINI_SUITE, parallelism=2, **kwargs)
        for name in MINI_SUITE:
            runner.compiled(name)
        assert runner.prefetch(self.PAIRS, with_sequences=self.PAIRS) \
            == len(self.PAIRS)
        return runner

    @staticmethod
    def fail_pass(patch, in_parent: bool) -> None:
        """Make every sequence pass in a worker (and, with *in_parent*,
        in this process too) fail; workers inherit the patch.  A pass is
        the analysis of a profile run's own log
        (``sequence_analyzers``) or a re-simulation
        (``sequence_experiment``); both fail."""
        parent = os.getpid()
        for name in ("sequence_analyzers", "sequence_experiment"):
            real = getattr(parallel, name)

            def failing(*args, real=real, **kwargs):
                if in_parent or os.getpid() != parent:
                    raise SimulationLimitExceeded(
                        "injected sequence failure")
                return real(*args, **kwargs)

            patch.setattr(parallel, name, failing)

    def test_batch_fills_the_sequence_memo(self, serial_sequences,
                                           monkeypatch):
        calls = spy_machine_runs(monkeypatch)
        runner = self.batch_runner()
        assert sequence_report(runner) == serial_sequences
        assert calls == []

    def test_pass_failed_in_a_worker_is_rerun_in_the_parent(
            self, serial_sequences, monkeypatch):
        self.fail_pass(monkeypatch, in_parent=False)
        calls = spy_machine_runs(monkeypatch)
        runner = self.batch_runner()
        assert sequence_report(runner) == serial_sequences
        assert len(calls) == len(MINI_SUITE)

    def test_strict_raises_the_serial_error(self, monkeypatch):
        self.fail_pass(monkeypatch, in_parent=True)
        errors = []
        for runner in (SuiteRunner(MINI_SUITE), self.batch_runner()):
            with pytest.raises(SimulationLimitExceeded) as info:
                sequence_report(runner)
            errors.append(info.value.oneline())
        assert errors[0] == errors[1]
        assert "benchmark=queens" in errors[0]

    def test_degraded_renders_the_serial_placeholder(self, monkeypatch):
        self.fail_pass(monkeypatch, in_parent=True)
        serial = sequence_report(SuiteRunner(MINI_SUITE, strict=False))
        assert serial.count("FAILED") == len(MINI_SUITE)
        assert sequence_report(self.batch_runner(strict=False)) == serial

    def test_cold_batch_stores_and_warm_batch_simulates_nothing(
            self, serial_sequences, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        calls = spy_machine_runs(monkeypatch)
        cold = self.batch_runner(cache_dir=cache_dir)
        assert sequence_report(cold) == serial_sequences
        assert calls == []  # every run and pass was stored by a worker
        # compile entries from the parent, run and sequences entries
        # folded in from the workers' stats
        assert cold.cache.stores == 3 * len(MINI_SUITE)
        sink = Telemetry()
        with telemetry.use(sink):
            warm = self.batch_runner(cache_dir=cache_dir)
            assert sequence_report(warm) == serial_sequences
        assert sink.counters().get("sim.runs", 0) == 0
        assert warm.cache.misses == 0
        assert warm.cache.hits == 3 * len(MINI_SUITE)


# -- tier 1: degraded-mode chaos determinism ----------------------------------


class TestDegradedChaosDeterminism:

    #: faults whose FAILED cells must render identically serial vs parallel
    CHAOS_FAULTS = ("compile", "opcode", "fuel", "inputs", "skip")

    @pytest.mark.parametrize("fault", CHAOS_FAULTS)
    def test_failed_cells_identical_serial_vs_parallel(self, fault):
        reports = []
        for parallelism in (1, 2):
            runner = SuiteRunner(MINI_SUITE, strict=False,
                                 parallelism=parallelism)
            sabotage(runner, "fields", fault)
            reports.append(mini_report(runner))
        assert reports[0] == reports[1]
        assert "FAILED" in reports[0] or fault == "skip"

    def test_poisoned_artifact_never_touches_the_cache(self, tmp_path):
        """A sabotaged executable must not be stored under (or served
        from) the honest source-derived key."""
        cache_dir = tmp_path / "cache"
        poisoned = SuiteRunner(MINI_SUITE, strict=False, parallelism=2,
                               cache_dir=cache_dir)
        sabotage(poisoned, "queens", "opcode")
        poisoned_report = mini_report(poisoned)
        assert "FAILED" in poisoned_report

        healthy = SuiteRunner(MINI_SUITE, strict=False, parallelism=2,
                              cache_dir=cache_dir)
        healthy_report = mini_report(healthy)
        assert "FAILED" not in healthy_report
        assert healthy_report == mini_report(SuiteRunner(MINI_SUITE,
                                                         strict=False))


# -- tier 1: worker-crash taxonomy --------------------------------------------


class TestWorkerCrash:

    def test_degraded_renders_worker_failed_cell(self, monkeypatch):
        monkeypatch.setenv(CHAOS_WORKER_CRASH_ENV, "fields")
        runner = SuiteRunner(MINI_SUITE, strict=False, parallelism=2)
        outcomes = runner.all_outcomes("ref")
        by_name = {o.benchmark: o for o in outcomes}
        assert by_name["fields"].status is RunStatus.WORKER_FAILED
        assert isinstance(by_name["fields"].error, WorkerCrashError)
        assert by_name["fields"].error.phase == "parallel"
        assert "FAILED:worker-failed" in by_name["fields"].failure_label()
        # the other shards are unaffected
        assert by_name["queens"].ok and by_name["gauss"].ok

    def test_strict_raises_typed_worker_error(self, monkeypatch):
        monkeypatch.setenv(CHAOS_WORKER_CRASH_ENV, "queens")
        runner = SuiteRunner(MINI_SUITE, strict=True, parallelism=2)
        with pytest.raises(WorkerError):
            runner.all_outcomes("ref")

    def test_worker_crash_is_never_negative_cached_on_disk(self, tmp_path,
                                                           monkeypatch):
        """A crashed worker is a machine fault, not a property of the
        inputs: a later run with the same cache must re-execute and
        succeed."""
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv(CHAOS_WORKER_CRASH_ENV, "fields")
        crashed = SuiteRunner(MINI_SUITE, strict=False, parallelism=2,
                              cache_dir=cache_dir)
        outcomes = {o.benchmark: o for o in crashed.all_outcomes("ref")}
        assert outcomes["fields"].status is RunStatus.WORKER_FAILED

        monkeypatch.delenv(CHAOS_WORKER_CRASH_ENV)
        recovered = SuiteRunner(MINI_SUITE, strict=False, parallelism=2,
                                cache_dir=cache_dir)
        outcomes = {o.benchmark: o for o in recovered.all_outcomes("ref")}
        assert outcomes["fields"].ok


def _garbage_shard(job):
    """A pool worker that returns garbage: a plain object for queens, a
    result naming another benchmark for fields, the real result else."""
    if job.benchmark == "queens":
        return object()
    result = run_shard(job)
    if job.benchmark == "fields":
        result.benchmark = "gauss"
    return result


class TestMalformedWorkerResult:
    """The "worker returns garbage" row of docs/robustness.md: a result
    that is not this job's :class:`ShardResult` fails typed, and its
    siblings are unaffected."""

    def test_garbage_results_fail_typed(self, monkeypatch):
        from repro.errors import WorkerResultError
        # forked workers inherit the patch; the engine looks the name up
        # when it submits
        monkeypatch.setattr(parallel, "run_shard", _garbage_shard)
        runner = SuiteRunner(MINI_SUITE)
        jobs = [runner._shard_job(name, "small") for name in MINI_SUITE]
        sink = Telemetry()
        with telemetry.use(sink):
            results = parallel.ParallelEngine(2).execute(jobs)
        assert [r.benchmark for r in results] == MINI_SUITE
        for result in results[:2]:
            assert result.status is RunStatus.WORKER_FAILED
            assert isinstance(result.error, WorkerResultError)
            assert "malformed result" in str(result.error)
        assert results[2].ok and results[2].profile is not None
        counters = sink.counters()
        assert counters["harness.parallel.result_errors"] == 2
        assert counters.get("harness.parallel.worker_crashes", 0) == 0


# -- tier 2: full-suite determinism -------------------------------------------


@pytest.mark.tier2
class TestFullSuiteDeterminism:

    @pytest.fixture(scope="class")
    def serial_full_report(self):
        return full_report(SuiteRunner())

    def test_parallel4_is_byte_identical(self, serial_full_report):
        assert full_report(SuiteRunner(parallelism=4)) == serial_full_report

    def test_cache_warm_is_byte_identical(self, serial_full_report,
                                          tmp_path_factory):
        cache_dir = tmp_path_factory.mktemp("full-cache")
        cold = SuiteRunner(parallelism=4, cache_dir=cache_dir)
        assert full_report(cold) == serial_full_report
        warm = SuiteRunner(parallelism=4, cache_dir=cache_dir)
        assert full_report(warm) == serial_full_report
        assert warm.cache.misses == 0
        assert warm.cache.hits > 0

    def test_degraded_chaos_full_suite(self):
        reports = []
        for parallelism in (1, 4):
            runner = SuiteRunner(strict=False, parallelism=parallelism)
            sabotage(runner, "fields", "fuel")
            sabotage(runner, "hanoi", "compile")
            reports.append(full_report(runner))
        assert reports[0] == reports[1]
        assert "FAILED" in reports[0]


@pytest.mark.tier2
def test_full_report_matches_the_benchmark_golden():
    """The default 22-benchmark report, block by block. ``--jobs 2``
    keeps it short; TestReportBatch pins ``--jobs 2`` to the serial
    report."""
    golden = json.loads(FULL_GOLDEN.read_text())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert harness_main(["--jobs", "2"]) == 0
    blocks = out.getvalue().strip("\n").split("\n\n")
    assert len(blocks) == len(golden), "report blocks changed"
    moved = [name for name, block in zip(golden, blocks)
             if hashlib.sha256(block.encode()).hexdigest() != golden[name]]
    assert not moved, f"report blocks moved: {moved}"
