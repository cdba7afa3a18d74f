"""Tier-0 vs Tier-1 execution engine differentials (PR 8).

The tiered engine contract: Tier-1 (superblock trace cache) must be
observationally identical to Tier-0 (pre-decoded interpreter) — same
exit status, output, architectural state, edge profiles, and branch
traces — while batching watchdog/sampling housekeeping at superblock
boundaries.  These tests pin that contract on hand-written programs
that force each superblock rendering mode (looped run-length, looped
with rejoin folds, straight-line), on side-exit-heavy branch patterns,
and on the full benchmark suite; plus the engine-selection seams, the
run-key engine fingerprint, shared block specs across machines, and
the deadline-overshoot / tick-accounting bounds of both tiers.

Every differential also checks count mode (an edge profile as the only
observer, so branch events are recorded as bare ids, ``S = 0``) against
a run that also logs the ordered stream (``S > 0``, each id carrying its
count): same profile, branch count and crash history.

The mode, mini-suite and fault differentials run under three superblock
layouts: none (backward-taken/forward-not-taken), the program's
Ball–Larus prediction, and that prediction inverted — the last forces
forward-taken and backward-not-taken assumptions through every
side-exit and crash-recovery path.
"""

from __future__ import annotations

import contextlib
import dataclasses

import pytest

from repro import telemetry
from repro.bcc import compile_and_link
from repro.core.classify import classify_branches
from repro.core.predictors import HeuristicPredictor
from repro.errors import ReproError, SimulationTimeout
from repro.harness.cache import run_key
from repro.sim import FORCE_TIER0_ENV, Machine, resolve_engine_name
from repro.sim import traces
from repro.sim.profile import EdgeProfile
from repro.sim.decode import build_handlers
from repro.sim.trace import BranchTrace, SequenceLog
from repro.sim.traces import HOT_THRESHOLD, MAX_BLOCK_LEN, _specs_for
from repro.testing.chaos import chaos_env

TIERS = ("tier0", "tier1")

#: a single hot back-edge, no internal control flow: the run-length mode
HOT_LOOP = """
int main() {
    int i, s = 0;
    for (i = 0; i < 500; i++) { s = s + i; }
    print_int(s);
    return 0;
}
"""

#: if/else diamond rejoining inside a hot loop: the fold-compressed mode
DIAMOND = """
int main() {
    int i, s = 0;
    for (i = 0; i < 400; i++) {
        if (i % 3 == 0) { s = s + i; } else { s = s - 1; }
        s = s ^ i;
    }
    print_int(s);
    return 0;
}
"""

#: the inner branch flips direction mid-run, after the superblock has
#: been compiled assuming the majority arm: exercises side exits
SIDE_EXIT = """
int main() {
    int i, s = 0;
    for (i = 0; i < 300; i++) {
        if (i < 200) { s = s + 1; } else { s = s + i; }
    }
    print_int(s);
    return 0;
}
"""

#: a hot callee reached from a loop: call inlining / non-looped blocks
CALLS = """
int f(int x) { return x * 3 + 1; }
int main() {
    int i, s = 0;
    for (i = 0; i < 200; i++) { s = s + f(i); }
    print_int(s);
    return 0;
}
"""

SPIN = "int main() { while (1) { } return 0; }"

#: the opcodes whose handlers record events
BRANCH_OPS = frozenset(["beq", "bne", "blez", "bgtz", "bltz", "bgez",
                        "bc1t", "bc1f", "jr", "jalr"])

MODE_PROGRAMS = [("hot-loop", HOT_LOOP), ("diamond", DIAMOND),
                 ("side-exit", SIDE_EXIT), ("calls", CALLS)]


def ball_larus(executable, analysis=None):
    """The program's Ball–Larus prediction map, as the harness builds it."""
    analysis = analysis or classify_branches(executable)
    return HeuristicPredictor(analysis).prediction_map()


@contextlib.contextmanager
def watched_formations():
    """Record every superblock formation as (head, raised) and fail if
    any raised.

    :meth:`TraceCache.compile` turns a formation exception into a
    blacklisted head, so a bug in the path rule would otherwise show up
    only as lost speed."""
    seen = []
    form = traces._form_superblock

    def spy(machine, head):
        try:
            spec = form(machine, head)
        except Exception as exc:
            seen.append((head, exc))
            raise
        seen.append((head, None))
        return spec

    traces._form_superblock = spy
    try:
        yield seen
    finally:
        traces._form_superblock = form
    assert not [exc for _, exc in seen if exc is not None], seen


@pytest.fixture
def formations():
    """Every superblock formation in the test (see
    :func:`watched_formations`)."""
    with watched_formations() as seen:
        yield seen


def layouts(executable, analysis=None):
    """The superblock layouts under test: none (BTFN), the program's
    Ball–Larus prediction, and that prediction inverted."""
    predicted = ball_larus(executable, analysis)
    return {"btfn": None, "ball-larus": predicted,
            "inverted": {addr: not taken
                         for addr, taken in predicted.items()}}


def run_tier(executable, tier, inputs=None, sink=None, **kw):
    """One instrumented run; returns (status, machine, profile, trace)."""
    profile, trace = EdgeProfile(), BranchTrace()
    machine = Machine(executable, inputs=list(inputs) if inputs else None,
                      observers=[profile, trace], engine=tier,
                      telemetry=sink, **kw)
    return machine.run(), machine, profile, trace


def count_mode_run(executable, tier, inputs=None, **kw):
    """A run whose only observer is an edge profile — count mode; returns
    (status, profile, the machine's branch history)."""
    profile = EdgeProfile()
    machine = Machine(executable, inputs=list(inputs) if inputs else None,
                      observers=[profile], engine=tier, **kw)
    status = machine.run()
    assert machine._count_scale == 0
    return status, profile, list(machine._branch_history)


def profile_fields(profile):
    return (list(profile.items()), profile.total_dynamic_branches,
            profile.total_instructions)


def assert_tiers_agree(executable, inputs=None, **kw):
    s0, m0, p0, t0 = run_tier(executable, "tier0", inputs, **kw)
    s1, m1, p1, t1 = run_tier(executable, "tier1", inputs, **kw)
    assert s1.exit_code == s0.exit_code
    assert s1.instr_count == s0.instr_count
    assert s1.dynamic_branches == s0.dynamic_branches
    assert s1.output == s0.output
    assert m1.regs == m0.regs
    assert m1.fregs == m0.fregs
    assert m1.memory._pages == m0.memory._pages
    assert list(p1.items()) == list(p0.items())
    assert t1.events == t0.events
    # count mode: the same profile, branch count and branch history on
    # both tiers as the ordered stream gives
    for tier in TIERS:
        status, profile, history = count_mode_run(executable, tier, inputs,
                                                  **kw)
        assert profile_fields(profile) == profile_fields(p0), tier
        assert status.dynamic_branches == s0.dynamic_branches, tier
        assert status.output == s0.output, tier
        assert history == list(m0._branch_history), tier
    return s0


# -- behavioral identity ------------------------------------------------------


class TestTierDifferential:
    @pytest.mark.parametrize("name,source",
                             MODE_PROGRAMS, ids=[n for n, _ in MODE_PROGRAMS])
    def test_superblock_modes_agree(self, name, source, formations):
        exe = compile_and_link(source)
        for layout in layouts(exe).values():
            assert_tiers_agree(exe, layout=layout)

    def test_unoptimized_code_agrees(self):
        assert_tiers_agree(compile_and_link(DIAMOND, optimize=False))

    def test_inputs_consumed_identically(self):
        source = """
        int main() {
            int i, n = read_int(), s = 0;
            for (i = 0; i < n; i++) { s = s + read_int(); }
            print_int(s);
            return 0;
        }
        """
        exe = compile_and_link(source)
        assert_tiers_agree(exe, inputs=[60] + list(range(60)))

    @pytest.mark.parametrize("bench_name", ["queens", "fields", "gauss"])
    def test_mini_suite_agrees(self, bench_name, formations):
        from repro.bench.suite import get
        bench = get(bench_name)
        exe = bench.compile()
        for layout in layouts(exe).values():
            assert_tiers_agree(exe, inputs=bench.dataset("small").inputs,
                               layout=layout)

    def test_per_event_observer_subclass_sees_expanded_events(self):
        """An Observer subclass overriding only on_branch (e.g. the
        dynamic predictors) must receive the exact per-event stream on
        both tiers — run markers expand in the base class's on_events.
        """
        from repro.core.dynamic import BimodalPredictor
        from repro.sim import Observer

        class PerEvent(Observer):
            def __init__(self):
                self.seen = []

            def on_branch(self, inst, taken, instr_count):
                self.seen.append((inst.address, taken, instr_count))

        exe = compile_and_link(DIAMOND)
        streams, rates = {}, {}
        for tier in TIERS:
            observer, bimodal = PerEvent(), BimodalPredictor()
            Machine(exe, observers=[observer, bimodal], engine=tier).run()
            streams[tier] = observer.seen
            rates[tier] = (bimodal.n_branches, bimodal.miss_rate)
        assert streams["tier1"] == streams["tier0"]
        assert rates["tier1"] == rates["tier0"]

    @pytest.mark.tier2
    def test_count_mode_profiles_every_dataset(self):
        """Every benchmark x dataset, under the report's layout: the
        count-mode edge profile equals the one of a run that also logs
        (its ids carry counts and are decoded with a mask)."""
        from repro.bench.suite import suite
        for bench in suite():
            exe = bench.compile()
            layout = ball_larus(exe)
            for dataset in bench.datasets:
                logged = EdgeProfile()
                Machine(exe, inputs=list(dataset.inputs),
                        observers=[logged, BranchTrace(limit=0)],
                        layout=layout).run()
                status, counted, _ = count_mode_run(
                    exe, "tier1", dataset.inputs, layout=layout)
                assert profile_fields(counted) == profile_fields(logged), \
                    (bench.name, dataset.name)
                assert status.dynamic_branches == \
                    logged.total_dynamic_branches

    @pytest.mark.tier2
    def test_full_suite_agrees(self, formations):
        """All suite benchmarks, reference datasets, under the report's
        Ball–Larus layout: the golden identity."""
        from repro.bench.suite import suite
        for bench in suite():
            exe = bench.compile()
            status = assert_tiers_agree(exe,
                                        inputs=bench.default_dataset.inputs,
                                        layout=ball_larus(exe))
            assert status.instr_count > 0, bench.name


# -- tier-1 internals: counters, side exits, shared specs ---------------------


class TestTier1Internals:
    def test_hot_loop_compiles_and_hits_trace_cache(self):
        sink = telemetry.Telemetry()
        run_tier(compile_and_link(HOT_LOOP), "tier1", sink=sink)
        counters = sink.counters()
        assert counters["sim.tier1.superblocks_compiled"] >= 1
        assert counters["sim.tier1.trace_cache_hits"] > 0
        assert counters["sim.tier1.trace_cache_misses"] >= \
            counters["sim.tier1.superblocks_compiled"]

    def test_tier0_publishes_no_tier1_counters(self):
        sink = telemetry.Telemetry()
        run_tier(compile_and_link(HOT_LOOP), "tier0", sink=sink)
        assert not any(name.startswith("sim.tier1.")
                       for name in sink.counters())

    def test_flipping_branch_takes_side_exits(self):
        sink = telemetry.Telemetry()
        run_tier(compile_and_link(SIDE_EXIT), "tier1", sink=sink)
        counters = sink.counters()
        assert counters["sim.tier1.superblocks_compiled"] >= 1
        assert counters["sim.tier1.side_exits"] >= 1

    def test_residency_histogram_recorded(self):
        sink = telemetry.Telemetry()
        run_tier(compile_and_link(HOT_LOOP), "tier1", sink=sink)
        hist = sink.histograms()["sim.tier1.superblock_residency"]
        assert hist.count > 0
        quantiles = hist.percentiles()
        # residency counts instructions retired per superblock *entry*
        # (looped blocks run many iterations per entry), so the tail can
        # exceed the static block length — but never drop below one inst
        assert 0 < quantiles["p50"] <= quantiles["p95"]
        assert hist.min >= 1

    def test_block_specs_shared_across_machines(self):
        """A second Machine over the same Executable re-binds the shared
        spec instead of re-forming the superblock, and behaves identically.
        """
        exe = compile_and_link(HOT_LOOP)
        first, second = telemetry.Telemetry(), telemetry.Telemetry()
        s1, m1, *_ = run_tier(exe, "tier1", sink=first)
        specs = _specs_for(exe)
        assert specs, "hot loop never produced a shared block spec"
        formed = dict(specs)
        s2, m2, *_ = run_tier(exe, "tier1", sink=second)
        assert _specs_for(exe) == formed, "second machine re-formed specs"
        assert second.counters()["sim.tier1.superblocks_compiled"] >= 1
        # formations are counted where they happen: the first machine
        # formed every spec (refused heads included), the second none
        assert first.counters()["sim.tier1.superblocks_formed"] \
            == len(formed)
        assert second.counters()["sim.tier1.superblocks_formed"] == 0
        assert s2.output == s1.output
        assert s2.instr_count == s1.instr_count
        assert m2.regs == m1.regs

    def test_logging_machine_reuses_count_mode_code(self, formations):
        """One event encoding: after a count-mode machine (an edge profile
        only), a logging machine (an edge profile and a sequence log) on
        the same executable and layout binds the count-mode machine's
        superblocks and forms none, and both machines' Tier-0 handlers
        run the same code for every branch opcode."""
        exe = compile_and_link(DIAMOND)
        layout = ball_larus(exe)
        runs = []
        for observers in ([EdgeProfile()], [EdgeProfile(), SequenceLog()]):
            sink = telemetry.Telemetry()
            machine = Machine(exe, observers=observers, engine="tier1",
                              telemetry=sink, layout=layout)
            runs.append((machine, machine.run(), observers[0],
                         sink.counters()))
        (m0, s0, p0, c0), (m1, s1, p1, c1) = runs
        assert c0["sim.tier1.superblocks_formed"] > 0
        assert c1["sim.tier1.superblocks_formed"] == 0
        assert c1["sim.tier1.superblocks_compiled"] >= 1
        assert (s1.output, s1.instr_count) == (s0.output, s0.instr_count)
        assert profile_fields(p1) == profile_fields(p0)
        branches = [i for i, inst in enumerate(exe.instructions)
                    if inst.op.name in BRANCH_OPS]
        assert branches
        h0, h1 = build_handlers(m0), build_handlers(m1)
        assert [h1[i].__code__ for i in branches] \
            == [h0[i].__code__ for i in branches]

    def test_block_specs_keyed_by_layout_content(self, formations):
        """Specs formed under one layout are never bound under another:
        after a BTFN machine, a Ball–Larus machine on the same executable
        forms its own blocks and side-exits exactly as on a fresh
        executable; an equal map that is a distinct object re-binds them.
        """
        from repro.bench.suite import get
        bench = get("queens")
        inputs = bench.dataset("small").inputs

        def side_exits(exe, layout):
            sink = telemetry.Telemetry()
            run_tier(exe, "tier1", inputs, sink=sink, layout=layout)
            return sink.counters()["sim.tier1.side_exits"]

        fresh = bench.compile()
        layout = ball_larus(fresh)
        expected = side_exits(fresh, layout)
        exe = bench.compile()
        assert side_exits(exe, None) > expected
        formations.clear()
        assert side_exits(exe, layout) == expected
        assert formations, "the Ball–Larus machine bound BTFN specs"
        formed = dict(_specs_for(exe, layout))
        formations.clear()
        assert side_exits(exe, dict(layout)) == expected
        assert not formations, "an equal map formed its specs again"
        assert _specs_for(exe, dict(layout)) == formed


# -- engine selection seams and fingerprints ----------------------------------


class TestEngineSeams:
    def test_resolution_precedence(self, monkeypatch):
        monkeypatch.delenv(FORCE_TIER0_ENV, raising=False)
        monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
        assert resolve_engine_name(None) == "tier1"
        assert resolve_engine_name("tier0") == "tier0"
        monkeypatch.setenv("REPRO_SIM_ENGINE", "tier0")
        assert resolve_engine_name(None) == "tier0"
        assert resolve_engine_name("tier1") == "tier1"  # explicit wins

    def test_force_tier0_chaos_seam_overrides_everything(self):
        exe = compile_and_link(HOT_LOOP)
        with chaos_env(force_tier0="1"):
            machine = Machine(exe, engine="tier1")
            assert machine.engine == "tier0"
            sink = telemetry.Telemetry()
            _, forced, *_ = run_tier(exe, "tier1", sink=sink)
            assert forced.engine == "tier0"
            assert not any(n.startswith("sim.tier1.")
                           for n in sink.counters())
        assert Machine(exe, engine="tier1").engine == "tier1"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            Machine(compile_and_link(HOT_LOOP), engine="tier9")

    def test_run_key_carries_engine_fingerprint(self):
        base = dict(compile_digest="abc", dataset="ref", inputs=(1, 2),
                    fuel_budget=1000, max_memory_bytes=None,
                    retry_fuel_factor=2)
        tier0 = run_key(**base, engine="tier0")
        tier1 = run_key(**base, engine="tier1")
        assert tier0 != tier1, "tier artifacts would alias in the cache"
        assert run_key(**base) == tier1  # default fingerprint is tier1


# -- watchdog: overshoot bounds and tick accounting ---------------------------


class TestWatchdogAccounting:
    @pytest.mark.parametrize("tier", TIERS)
    def test_expired_deadline_overshoot_is_bounded(self, tier):
        """A deadline that is already past must fault within one tick
        interval (tier0) plus at most one superblock (tier1) — the
        documented overshoot bound of the batched watchdog.
        """
        machine = Machine(compile_and_link(SPIN), engine=tier,
                          wall_clock_deadline=0.0, watchdog_interval=64)
        with pytest.raises(SimulationTimeout) as excinfo:
            machine.run()
        bound = 64 + (MAX_BLOCK_LEN if tier == "tier1" else 0)
        assert excinfo.value.crash_report.instr_count <= bound

    @pytest.mark.parametrize("tier", TIERS)
    def test_hot_loop_still_hits_deadline(self, tier):
        """Compiled superblocks must not starve the watchdog: an infinite
        loop that spends all its time in the trace cache still times out.
        """
        machine = Machine(compile_and_link(SPIN), engine=tier,
                          wall_clock_deadline=0.05)
        with pytest.raises(SimulationTimeout):
            machine.run()

    @pytest.mark.parametrize("tier", TIERS)
    def test_tick_and_sample_accounting_is_exact(self, tier):
        """Batching housekeeping at superblock boundaries must not lose
        ticks: both tiers account exactly one tick per interval crossed,
        and every tick lands one hot-PC sample.
        """
        machine = Machine(compile_and_link(DIAMOND), engine=tier,
                          watchdog_interval=64, pc_sample_interval=64)
        status = machine.run()
        assert machine.watchdog_ticks == status.instr_count // 64
        assert sum(machine.hot_pc_samples.values()) == machine.watchdog_ticks

    def test_tier1_attributes_samples_to_superblock_heads(self):
        machine = Machine(compile_and_link(HOT_LOOP), engine="tier1",
                          pc_sample_interval=64)
        machine.run()
        assert machine.hot_pc_samples
        # the dominant sample site is the hot loop's superblock head
        total = sum(machine.hot_pc_samples.values())
        assert max(machine.hot_pc_samples.values()) > total // 2


# -- fault byte-identity ------------------------------------------------------


def crash_fields(executable, tier, inputs=None, **kw):
    """Run to the fault and return the crash report as a plain dict,
    with the edge profile of the faulted run.

    The run is made in count mode (an edge profile only) and again with
    a branch trace, which makes every id carry its count; both must
    fault identically — the crash history is decoded from the ids."""
    results = []
    for extra in ([], [BranchTrace()]):
        profile = EdgeProfile()
        machine = Machine(executable,
                          inputs=list(inputs) if inputs else None,
                          engine=tier, observers=[profile, *extra], **kw)
        with pytest.raises(ReproError) as excinfo:
            machine.run()
        report = excinfo.value.crash_report
        assert report is not None
        assert (machine._count_scale == 0) == (not extra)
        results.append((type(excinfo.value), dataclasses.asdict(report),
                        profile_fields(profile)))
    assert results[0] == results[1]
    return results[0]


class TestFaultByteIdentity:
    def test_fuel_exhaustion_reports_identical(self, formations):
        exe = compile_and_link(HOT_LOOP)
        for kind, layout in layouts(exe).items():
            assert crash_fields(exe, "tier0", max_instructions=1000,
                                layout=layout) == \
                crash_fields(exe, "tier1", max_instructions=1000,
                             layout=layout), kind

    def test_input_starvation_reports_identical(self, formations):
        exe = compile_and_link("""
        int main() {
            int i, s = 0;
            for (i = 0; i < 100; i++) { s = s + read_int(); }
            print_int(s);
            return 0;
        }
        """)
        inputs = list(range(90))  # starves after the loop is hot
        for kind, layout in layouts(exe).items():
            assert crash_fields(exe, "tier0", inputs=inputs,
                                layout=layout) == \
                crash_fields(exe, "tier1", inputs=inputs, layout=layout), kind

    def test_fault_inside_a_looped_block_reports_identical(self,
                                                           formations):
        """A division by zero mid-iteration of a hot loop: Tier 1 faults
        inside a looped superblock and must rebuild the completed
        iterations and the partial one — as the loop id and
        ``~iterations``, and the partial iteration's ids."""
        exe = compile_and_link("""
        int main() {
            int i, s = 0;
            for (i = 100; i > 0; i--) {
                if (i > 1000) { s = s - 7; }
                if (s >= 0) { s = s + 1; }
                s = s + 1000 / (i - 50);
            }
            print_int(s);
            return 0;
        }
        """)
        for kind, layout in layouts(exe).items():
            assert crash_fields(exe, "tier0", layout=layout) == \
                crash_fields(exe, "tier1", layout=layout), kind

    def test_memory_budget_reports_identical(self, formations):
        exe = compile_and_link("""
        int deep(int n) {
            int pad[200];
            pad[0] = n;
            if (n == 0) { return 0; }
            return pad[0] + deep(n - 1);
        }
        int main() { print_int(deep(100000)); return 0; }
        """)
        budget = 24 * 4096
        for kind, layout in layouts(exe).items():
            assert crash_fields(exe, "tier0", max_memory_bytes=budget,
                                layout=layout) == \
                crash_fields(exe, "tier1", max_memory_bytes=budget,
                             layout=layout), kind

    @pytest.mark.parametrize("fault", ["opcode", "branch-target"])
    def test_corrupted_artifact_reports_identical(self, fault, mini_runner,
                                                  formations):
        from repro.testing.chaos import corrupt_branch_targets, corrupt_opcode
        corrupt = {"opcode": corrupt_opcode,
                   "branch-target": corrupt_branch_targets}[fault]
        executable, analysis = mini_runner.compiled("queens")
        bad = corrupt(executable)
        # the pristine artifact's analysis, as a sabotaged run has
        for kind, layout in layouts(executable, analysis).items():
            assert crash_fields(bad, "tier0", layout=layout) == \
                crash_fields(bad, "tier1", layout=layout), kind
