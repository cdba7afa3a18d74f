"""Tests for the repro.telemetry subsystem: core registry, spans,
exporters, manifests, baselines, and pipeline instrumentation."""

import json
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.telemetry import (
    MalformedReport, Telemetry, diff_reports, load_report, run_manifest,
    summary_dict, summary_table, to_chrome_trace, to_jsonl, to_prometheus,
    write_report,
)


@pytest.fixture
def sink():
    return Telemetry()


@pytest.fixture(autouse=True)
def _reset_seam():
    yield
    telemetry.install(None)


class TestMetrics:
    def test_counter_inc(self, sink):
        sink.counter("a.b").inc()
        sink.counter("a.b").inc(4)
        assert sink.counters() == {"a.b": 5}

    def test_counter_identity(self, sink):
        assert sink.counter("x") is sink.counter("x")

    def test_gauge_set(self, sink):
        sink.gauge("speed").set(123.5)
        sink.gauge("speed").set(99)
        assert sink.gauges() == {"speed": 99.0}

    def test_histogram_stats(self, sink):
        h = sink.histogram("sizes")
        for v in (1, 2, 4, 100):
            h.observe(v)
        assert h.count == 4
        assert h.sum == 107
        assert h.min == 1 and h.max == 100
        assert h.mean == pytest.approx(26.75)

    def test_labeled_counter_top(self, sink):
        fam = sink.labeled_counter("hot")
        fam.inc("0x10", 5)
        fam.inc("0x20", 9)
        fam.inc("0x10", 1)
        assert fam.top(1) == [("0x20", 9)]
        assert fam.values["0x10"] == 6

    def test_thread_safety(self, sink):
        counter = sink.counter("n")

        def work():
            for _ in range(10_000):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 40_000


class TestSpans:
    def test_nesting_and_depth(self, sink):
        with sink.span("outer"):
            with sink.span("inner"):
                pass
        by_name = {s.name: s for s in sink.spans}
        assert by_name["outer"].depth == 1
        assert by_name["inner"].depth == 2
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert sink.max_span_depth() == 2

    def test_span_survives_exception(self, sink):
        with pytest.raises(ValueError):
            with sink.span("boom"):
                raise ValueError("x")
        assert [s.name for s in sink.spans] == ["boom"]
        # the stack unwound: a new span is a root again
        with sink.span("after"):
            pass
        assert sink.spans[-1].depth == 1

    def test_span_args_recorded(self, sink):
        with sink.span("s", benchmark="queens"):
            pass
        assert sink.spans[0].args == {"benchmark": "queens"}

    def test_aggregates(self, sink):
        for _ in range(3):
            with sink.span("phase"):
                pass
        agg = sink.span_aggregates()["phase"]
        assert agg["count"] == 3
        assert agg["total_s"] >= 0
        assert agg["mean_s"] == pytest.approx(agg["total_s"] / 3)

    def test_max_spans_bound(self):
        small = Telemetry(max_spans=2)
        for _ in range(5):
            with small.span("s"):
                pass
        assert len(small.spans) == 2
        assert small.spans_dropped == 3

    def test_per_thread_stacks(self, sink):
        done = threading.Event()

        def worker():
            with sink.span("worker-root"):
                done.set()

        with sink.span("main-root"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        roots = [s for s in sink.spans if s.name == "worker-root"]
        # a span on another thread is a root there, not a child of ours
        assert roots[0].depth == 1
        assert roots[0].parent_id == 0


class TestMergeSnapshot:
    @given(n=st.integers(min_value=1, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_merge_keeps_every_workers_spans_verbatim(self, n):
        """n worker snapshots merged into a parent keep every worker's
        spans, with their args verbatim, under the open parent span."""
        parent = Telemetry()
        with parent.span("parallel:pool", category="harness"):
            for worker in range(n):
                sink = Telemetry()
                with sink.span(f"run:{worker}", category="harness",
                               benchmark="queens", shard=True):
                    with sink.span("simulate", category="harness",
                                   worker=worker):
                        pass
                parent.merge_snapshot(sink.snapshot())
        pool = next(s for s in parent.spans if s.name == "parallel:pool")
        runs = {s.name: s for s in parent.spans if s.name.startswith("run:")}
        assert sorted(runs) == sorted(f"run:{w}" for w in range(n))
        for run in runs.values():
            assert run.args == {"benchmark": "queens", "shard": True}
            assert (run.parent_id, run.depth) == (pool.span_id, 2)
        simulated = [s.args for s in parent.spans if s.name == "simulate"]
        assert sorted(simulated, key=lambda args: args["worker"]) == [
            {"worker": w} for w in range(n)]
        assert len({s.span_id for s in parent.spans}) == 2 * n + 1


class TestSeam:
    def test_default_disabled(self):
        assert telemetry.get().enabled is False

    def test_disabled_is_noop(self):
        disabled = Telemetry(enabled=False)
        disabled.counter("x").inc()
        disabled.gauge("y").set(1)
        disabled.histogram("z").observe(1)
        disabled.labeled_counter("w").inc("a")
        with disabled.span("s"):
            pass
        assert disabled.counters() == {}
        assert disabled.spans == []

    def test_install_and_use(self):
        sink = Telemetry()
        with telemetry.use(sink):
            assert telemetry.get() is sink
            telemetry.get().counter("c").inc()
        assert telemetry.get().enabled is False
        assert sink.counters() == {"c": 1}


class TestExporters:
    def _populated(self):
        sink = Telemetry()
        with sink.span("suite", category="harness"):
            with sink.span("benchmark", benchmark="queens"):
                with sink.span("phase"):
                    with sink.span("sub-phase"):
                        pass
        sink.counter("sim.instructions").inc(1000)
        sink.gauge("sim.instructions_per_sec").set(2.5e6)
        sink.histogram("h").observe(3)
        sink.labeled_counter("sim.hot_pc").inc("0x400100", 7)
        return sink

    def test_chrome_trace_roundtrip(self):
        trace = to_chrome_trace(self._populated())
        parsed = json.loads(json.dumps(trace))
        events = [e for e in parsed["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in events} == \
            {"suite", "benchmark", "phase", "sub-phase"}
        assert max(e["args"]["depth"] for e in events) == 4
        for e in events:
            assert e["ts"] >= 0 and e["dur"] >= 0 and e["pid"] == 1

    def test_jsonl_lines_parse(self):
        text = to_jsonl(self._populated())
        lines = [json.loads(line) for line in text.splitlines()]
        kinds = {line["event"] for line in lines}
        assert kinds == {"span", "counter", "gauge", "histogram",
                         "labeled_counter"}

    def test_prometheus_format(self):
        text = to_prometheus(self._populated())
        assert "# TYPE repro_sim_instructions_total counter" in text
        assert "repro_sim_instructions_total 1000" in text
        assert "repro_sim_instructions_per_sec 2500000.0" in text
        assert 'repro_sim_hot_pc_total{key="0x400100"} 7' in text
        # every non-comment line is "name[{labels}] value"
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            name, value = line.rsplit(" ", 1)
            float(value)
            assert name[0].isalpha()

    def test_summary_table_mentions_everything(self):
        text = summary_table(self._populated())
        for needle in ("suite", "sim.instructions", "0x400100",
                       "sim.instructions_per_sec"):
            assert needle in text

    def test_write_report_bundle(self, tmp_path):
        paths = write_report(self._populated(), tmp_path,
                             config={"k": 1}, seed=7)
        assert set(paths) == {"trace.json", "events.jsonl", "metrics.prom",
                              "summary.txt", "manifest.json",
                              "telemetry.json"}
        for path in paths.values():
            assert path.exists() and path.stat().st_size > 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["config"] == {"k": 1}
        payload = load_report(tmp_path / "telemetry.json")
        assert payload["max_span_depth"] == 4


class TestManifest:
    def test_fields(self):
        manifest = run_manifest({"a": 1}, seed=3)
        assert manifest["python"]
        assert manifest["platform"]
        assert manifest["seed"] == 3
        assert len(manifest["config_hash"]) == 16

    def test_config_hash_stable_and_sensitive(self):
        a = run_manifest({"x": 1})["config_hash"]
        b = run_manifest({"x": 1})["config_hash"]
        c = run_manifest({"x": 2})["config_hash"]
        assert a == b and a != c


class TestDiff:
    def _report(self, sim_total=1.0, ips=1e6):
        return {
            "schema": "repro.telemetry.bench/v1",
            "manifest": run_manifest({"k": 1}),
            "counters": {"sim.instructions": 1000},
            "gauges": {"sim.instructions_per_sec": ips},
            "spans": {"simulate": {"count": 1, "total_s": sim_total,
                                   "mean_s": sim_total, "max_s": sim_total}},
        }

    def test_identical_ok(self):
        result = diff_reports(self._report(), self._report())
        assert result.ok

    def test_20pct_slowdown_flagged(self):
        result = diff_reports(self._report(1.0), self._report(1.25),
                              threshold=0.20)
        assert not result.ok
        assert result.regressions[0].name == "simulate"

    def test_throughput_drop_flagged(self):
        result = diff_reports(self._report(ips=1e6),
                              self._report(ips=0.7e6), threshold=0.20)
        assert any(r.kind == "gauge" for r in result.regressions)

    def test_improvement_not_a_regression(self):
        result = diff_reports(self._report(1.0), self._report(0.5))
        assert result.ok and result.improvements

    def test_tiny_spans_ignored(self):
        result = diff_reports(self._report(0.001), self._report(0.004),
                              threshold=0.20, min_seconds=0.005)
        assert result.ok and result.compared_spans == 0

    def test_malformed_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(MalformedReport):
            load_report(bad)
        bad.write_text(json.dumps({"schema": "wrong"}))
        with pytest.raises(MalformedReport):
            load_report(bad)
        bad.write_text(json.dumps({
            "schema": "repro.telemetry.bench/v1", "manifest": {},
            "counters": {}, "gauges": {},
            "spans": {"s": {"count": 1}}}))  # missing total_s
        with pytest.raises(MalformedReport):
            load_report(bad)


class TestPipelineInstrumentation:
    """The instrumented layers actually report through the seam."""

    def test_compile_spans_and_counters(self):
        from repro.bcc.driver import compile_and_link
        sink = Telemetry()
        with telemetry.use(sink):
            compile_and_link("int main() { return 0; }")
        names = {s.name for s in sink.spans}
        assert {"bcc.lex", "bcc.parse", "bcc.sema", "bcc.irgen",
                "bcc.opt", "bcc.codegen", "bcc.regalloc",
                "isa.assemble"} <= names
        counters = sink.counters()
        assert counters["asm.instructions"] > 0
        assert counters["bcc.regalloc.functions"] > 0
        assert counters["bcc.tokens"] > 0

    def test_machine_counters_and_hot_pc(self):
        from repro.bcc.driver import compile_and_link
        from repro.sim import Machine
        executable = compile_and_link(
            "int main() { int i; int s = 0; "
            "for (i = 0; i < 2000; i++) { s += i; } "
            "print_int(s); return 0; }")
        sink = Telemetry()
        machine = Machine(executable, telemetry=sink, pc_sample_interval=64)
        status = machine.run()
        counters = sink.counters()
        assert counters["sim.instructions"] == status.instr_count
        assert counters["sim.branches"] == status.dynamic_branches
        assert counters["sim.syscalls"] >= 1
        assert counters["sim.runs"] == 1
        assert counters["sim.hot_pc_samples"] > 0
        assert machine.hot_pc_samples
        assert sink.gauges()["sim.instructions_per_sec"] > 0
        assert sink.labeled_counters()["sim.hot_pc"].top(1)

    def test_machine_publishes_on_fault(self):
        from repro.bcc.driver import compile_and_link
        from repro.sim import Machine, SimulationLimitExceeded
        executable = compile_and_link(
            "int main() { while (1) { } return 0; }")
        sink = Telemetry()
        machine = Machine(executable, telemetry=sink, max_instructions=5000)
        with pytest.raises(SimulationLimitExceeded):
            machine.run()
        counters = sink.counters()
        assert counters["sim.runs_faulted"] == 1
        assert counters["sim.instructions"] > 0

    def test_suite_runner_cache_counters(self):
        from repro.harness.runner import SuiteRunner
        sink = Telemetry()
        with telemetry.use(sink):
            runner = SuiteRunner(["queens"])
            runner.run("queens", "small")
            runner.run("queens", "small")  # memo hit
        counters = sink.counters()
        assert counters["harness.run_cache.miss"] == 1
        assert counters["harness.run_cache.hit"] == 1
        assert counters["harness.compile_cache.miss"] == 1
        names = {s.name for s in sink.spans}
        assert "run:queens/small" in names
        assert "simulate" in names and "compile" in names
        assert sink.max_span_depth() >= 4  # run > compile > parse > lex

    def test_degraded_failure_counters(self):
        from repro.harness.runner import SuiteRunner
        sink = Telemetry()
        with telemetry.use(sink):
            runner = SuiteRunner(["queens"], strict=False,
                                 retry_fuel_factor=2)
            runner.limit_fuel("queens", 100)
            outcome = runner.outcome("queens", "small")
        assert outcome.failed and outcome.retried
        counters = sink.counters()
        assert counters["harness.retries"] == 1
        assert counters["harness.degraded_failures"] == 1
        fam = sink.labeled_counters()["harness.failures_by_status"]
        assert fam.values.get("timeout") == 1
