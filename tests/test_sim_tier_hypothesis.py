"""Property-based Tier-0/Tier-1 differential on random programs (PR 8).

Reuses the random-program generator from the compiler differential
(:mod:`test_differential_compiler`) but wraps every generated body in an
outer repetition loop hot enough to cross the trace cache's compile
threshold, so the superblock machinery — formation, fold compression,
side exits, event replay — is exercised on program shapes nobody
hand-picked.  Both tiers must agree on *everything* observable:
architectural state, memory image, output, edge profiles, branch
traces, and the independently-computed reference result — under an
arbitrary superblock layout drawn per program, and without any
superblock formation raising.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.bcc import compile_and_link
from repro.sim import Machine
from repro.sim.profile import EdgeProfile
from repro.sim.trace import BranchTrace
from repro.sim.traces import HOT_THRESHOLD

from test_differential_compiler import _VARS, statements
from test_sim_tiers import watched_formations

#: outer trip count: comfortably past the compile threshold so random
#: loop bodies become superblocks, not just interpreter fodder
REPS = HOT_THRESHOLD + 16


@st.composite
def hot_programs(draw):
    """Random straight-line/branchy/loopy bodies repeated REPS times.

    Returns (source, expected final variable values) — the expectation
    comes from the same independent reference closures the compiler
    differential trusts, applied REPS times.
    """
    inits = {var: draw(st.integers(-100, 100)) for var in _VARS}
    stmts = draw(st.lists(statements(), min_size=1, max_size=4))
    decls = " ".join(f"int {v} = {inits[v]};" for v in _VARS)
    counters = " ".join(f"int it{i};" for i in range(4))
    body = "\n        ".join(t for t, _ in stmts)
    prints = " ".join(f"print_int({v}); print_char(' ');" for v in _VARS)
    source = f"""
int main() {{
    {decls}
    {counters}
    int rep;
    for (rep = 0; rep < {REPS}; rep++) {{
        {body}
    }}
    {prints}
    return 0;
}}
"""
    state = dict(inits)
    for _ in range(REPS):
        for _, fn in stmts:
            fn(state)
    expected = [state[v] for v in _VARS]
    return source, expected


def layouts(executable):
    """Arbitrary superblock layouts for *executable*: each conditional
    branch is assumed taken, assumed not taken, or left to the
    backward-taken/forward-not-taken fallback."""
    choices = {inst.address: st.sampled_from((None, True, False))
               for _, _, inst in executable.conditional_branches()}
    return st.fixed_dictionaries(choices).map(
        lambda drawn: {a: t for a, t in drawn.items() if t is not None})


def _instrumented_run(executable, tier, layout=None):
    profile, trace = EdgeProfile(), BranchTrace()
    machine = Machine(executable, observers=[profile, trace], engine=tier,
                      max_instructions=20_000_000, layout=layout)
    with watched_formations():
        status = machine.run()
    return status, machine, profile, trace


class TestTierProperty:
    @settings(max_examples=40, deadline=None)
    @given(hot_programs(), st.data())
    def test_tiers_agree_on_random_hot_programs(self, program, data):
        source, expected = program
        executable = compile_and_link(source)
        layout = data.draw(layouts(executable), label="layout")
        s0, m0, p0, t0 = _instrumented_run(executable, "tier0", layout)
        s1, m1, p1, t1 = _instrumented_run(executable, "tier1", layout)
        assert s1.exit_code == s0.exit_code, source
        assert s1.instr_count == s0.instr_count, source
        assert s1.dynamic_branches == s0.dynamic_branches, source
        assert s1.output == s0.output, source
        assert m1.regs == m0.regs, source
        assert m1.fregs == m0.fregs, source
        assert m1.memory._pages == m0.memory._pages, source
        assert list(p1.items()) == list(p0.items()), source
        assert t1.events == t0.events, source
        # ... and both match the independent reference semantics
        assert [int(x) for x in s1.output.split()] == expected, source

    @settings(max_examples=15, deadline=None)
    @given(hot_programs(), st.data())
    def test_tier1_fuel_faults_identically(self, program, data):
        """Cutting the fuel budget mid-superblock must fault at exactly
        the same instruction on both tiers (the trace cache refuses to
        enter a block it cannot finish, then single-steps to the limit).
        """
        import dataclasses

        import pytest

        from repro.errors import SimulationLimitExceeded

        source, _ = program
        executable = compile_and_link(source)
        full = Machine(executable, max_instructions=20_000_000).run()
        budget = full.instr_count // 2
        if budget < 10:
            return  # degenerate program: nothing to cut
        layout = data.draw(layouts(executable), label="layout")
        reports = {}
        for tier in ("tier0", "tier1"):
            machine = Machine(executable, engine=tier,
                              max_instructions=budget, layout=layout)
            with watched_formations(), \
                    pytest.raises(SimulationLimitExceeded) as excinfo:
                machine.run()
            reports[tier] = dataclasses.asdict(excinfo.value.crash_report)
        assert reports["tier0"] == reports["tier1"], source
