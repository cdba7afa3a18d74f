"""The register file's one representation, checked op by op on both tiers.

The integer register file holds the unsigned 32-bit form that Tier-0
handlers and Tier-1 superblocks both compute in; a value reads as signed
only where it leaves the simulator: ``print_int``, the ``sbrk`` amount,
the exit code, :attr:`Machine.regs` and crash reports.  Every
sign-sensitive operation is run here from hand-written assembly, with
its operands loaded from memory (so no superblock folds them into
constants) inside a hot loop (so Tier 1 forms superblocks, and values
cross block entries, exits and side exits).  Each run must print what a
plain Python model of MIPS's signed semantics predicts, and both tiers
must agree on output, exit code and the signed register view.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.errors import ReproError
from repro.isa import assemble
from repro.sim import Machine, engine
from repro.sim.traces import HOT_THRESHOLD, recover_block_fault

TIERS = ("tier0", "tier1")
INT_MIN, INT_MAX = -(1 << 31), (1 << 31) - 1
#: the sign-sensitive corners every table below draws from
CORNERS = [INT_MIN, INT_MIN + 1, -2, -1, 0, 1, 2, INT_MAX]


def s32(value: int) -> int:
    """*value* wrapped to signed 32-bit."""
    value &= 0xFFFF_FFFF
    return value - (1 << 32) if value & (1 << 31) else value


def passes(count: int) -> int:
    """Passes over a *count*-entry table that land on the loop head well
    past the superblock threshold."""
    return 3 * HOT_THRESHOLD // count + 2


def table_program(body: str, a: list[int], b: list[int] | None = None,
                  extra: str = "") -> str:
    """Assembly running *body* once per table entry, ``passes(len(a))``
    times over the table.

    *body* reads ``$t1 = a[k]`` and ``$t2 = b[k]`` and leaves its result
    in ``$t3``.  The loop stores each result and adds it into ``$s5``;
    afterwards the last pass's results are printed, space-separated, and
    the program exits with ``$s5`` as its code.  *extra* is code placed
    after the exit (branch targets the body jumps to)."""
    b = b if b is not None else [0] * len(a)
    assert len(b) == len(a)
    words = ", ".join

    return f"""
.data
A: .word {words(str(v) for v in a)}
B: .word {words(str(v) for v in b)}
R: .space {4 * len(a)}
.text
.ent main
main:
    li $s0, {passes(len(a))}
    li $s5, 0
pass:
    la $s1, A
    la $s2, B
    la $s3, R
    li $s4, {len(a)}
loop:
    lw $t1, 0($s1)
    lw $t2, 0($s2)
{body}
    sw $t3, 0($s3)
    addu $s5, $s5, $t3
    addiu $s1, $s1, 4
    addiu $s2, $s2, 4
    addiu $s3, $s3, 4
    addiu $s4, $s4, -1
    bgtz $s4, loop
    addiu $s0, $s0, -1
    bgtz $s0, pass
    la $s3, R
    li $s4, {len(a)}
print:
    lw $a0, 0($s3)
    li $v0, 1
    syscall
    li $a0, 32
    li $v0, 11
    syscall
    addiu $s3, $s3, 4
    addiu $s4, $s4, -1
    bgtz $s4, print
    move $a0, $s5
    li $v0, 17
    syscall
{extra}
.end main
"""


def run(source: str, tier: str, inputs=None):
    """One run of *source*; returns (status, machine, tier-1 counters)."""
    sink = telemetry.Telemetry()
    machine = Machine(assemble(source), inputs=inputs, engine=tier,
                      telemetry=sink)
    return machine.run(), machine, sink.counters()


def assert_signed(registers) -> None:
    assert len(registers) == 32
    assert all(type(v) is int and INT_MIN <= v <= INT_MAX
               for v in registers), registers


def run_both(source: str, inputs=None):
    """Run *source* on both tiers; they must agree on everything a
    program can observe, Tier 1 must have run superblocks and taken
    side exits, and every register must read as signed 32-bit."""
    s0, m0, _ = run(source, "tier0", inputs)
    s1, m1, counters = run(source, "tier1", inputs)
    assert (s1.output, s1.exit_code, s1.instr_count) == \
        (s0.output, s0.exit_code, s0.instr_count)
    assert m1.regs == m0.regs
    assert m1.fregs == m0.fregs
    assert m1.memory._pages == m0.memory._pages
    for machine in (m0, m1):
        assert_signed(machine.regs)
    assert counters["sim.tier1.trace_cache_hits"] > 0
    assert counters["sim.tier1.side_exits"] > 0
    return s0


def check_table(body: str, a, b, model, extra: str = "", inputs=None):
    """Run a :func:`table_program` on both tiers against *model*, which
    maps ``(a[k], b[k])`` to the signed result."""
    b = b if b is not None else [0] * len(a)
    status = run_both(table_program(body, a, b, extra), inputs)
    results = [model(x, y) for x, y in zip(a, b)]
    assert status.output == "".join(f"{r} " for r in results)
    assert status.exit_code == s32(passes(len(a)) * sum(results))


def every_pair(left, right):
    pairs = [(x, y) for x in left for y in right]
    return [x for x, _ in pairs], [y for _, y in pairs]


def trunc_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


# -- directed: one sign-sensitive op at a time --------------------------------


class TestSignSensitiveOps:
    def test_slt(self):
        a, b = every_pair(CORNERS, CORNERS)
        check_table("    slt $t3, $t1, $t2", a, b,
                    lambda x, y: int(x < y))

    def test_sltu_reads_unsigned(self):
        a, b = every_pair(CORNERS, CORNERS)
        check_table("    sltu $t3, $t1, $t2", a, b,
                    lambda x, y: int(x & 0xFFFF_FFFF < y & 0xFFFF_FFFF))

    @pytest.mark.parametrize("imm", [-32768, -1, 0, 1, 32767])
    def test_slti(self, imm):
        check_table(f"    slti $t3, $t1, {imm}", CORNERS, None,
                    lambda x, _: int(x < imm))

    @pytest.mark.parametrize("shift", [0, 1, 4, 31])
    def test_sra(self, shift):
        check_table(f"    sra $t3, $t1, {shift}", CORNERS, None,
                    lambda x, _: x >> shift)

    def test_srav(self):
        a, b = every_pair(CORNERS, [0, 1, 31, 32, 33, -1])
        check_table("    srav $t3, $t1, $t2", a, b,
                    lambda x, y: x >> (y & 31))

    @pytest.mark.parametrize("op", ["div", "rem"])
    def test_div_rem_every_sign_pair(self, op):
        a, b = every_pair([7, -7, INT_MIN, INT_MAX, -1, 0],
                          [2, -2, 1, -1, INT_MIN, INT_MAX])

        def model(x, y):
            q = trunc_div(x, y)
            return s32(q if op == "div" else x - y * q)
        check_table(f"    {op} $t3, $t1, $t2", a, b, model)

    @pytest.mark.parametrize("op,taken", [
        ("blez", lambda x: x <= 0), ("bgtz", lambda x: x > 0),
        ("bltz", lambda x: x < 0), ("bgez", lambda x: x >= 0),
    ], ids=["blez", "bgtz", "bltz", "bgez"])
    def test_sign_branches(self, op, taken):
        """The taken target lies past the exit, so the branch cannot fold
        into a diamond: one direction is always a side exit."""
        body = f"    {op} $t1, far\n    li $t3, 0\nback:"
        extra = "far:\n    li $t3, 1\n    j back"
        check_table(body, [0, -1, INT_MIN, 1, INT_MAX, -2], None,
                    lambda x, _: int(taken(x)), extra)

    @pytest.mark.parametrize("op", ["lb", "lbu"])
    def test_byte_loads(self, op):
        """``lb`` sign-extends the low byte (little-endian), ``lbu``
        zero-extends it."""
        a = [0x80, 0xFF, 0x7F, 0, 0x1FE, -1, INT_MIN, 0x1234_5681]

        def model(x, _):
            low = x & 0xFF
            return low - 256 if op == "lb" and low & 0x80 else low
        check_table(f"    {op} $t3, 0($s1)", a, None, model)

    def test_mtc1_mfc1_of_negatives(self):
        """A quotient in floating point does not wrap, so it shows whether
        ``mtc1`` moved the signed value; ``mfc1`` truncates it back."""
        a, b = every_pair(CORNERS + [-12345], [2, -3, 1])
        body = ("    mtc1 $t1, $f2\n    mtc1 $t2, $f6\n"
                "    div.d $f4, $f2, $f6\n    mfc1 $t3, $f4")
        check_table(body, a, b, lambda x, y: s32(int(x / y)))


# -- directed: where a value leaves the simulator -----------------------------


class TestValuesLeavingTheSimulator:
    def test_print_int_and_exit_code_are_signed(self):
        check_table("    move $t3, $t1", CORNERS, None, lambda x, _: x)

    def test_negative_exit_code(self):
        status = run_both(table_program("    move $t3, $t1", [-3] * 8))
        assert status.exit_code == -3 * 8 * passes(8)

    def test_read_int_wraps_out_of_range_values(self):
        values = [1 << 31, (1 << 32) + 5, INT_MIN - 1, (1 << 40) + 3, -1,
                  7, INT_MIN, INT_MAX, -(1 << 33) - 9]
        count = passes(len(values))
        inputs = values * count
        # `or` passes the stored value on unmasked, into the final $t3
        body = "    li $v0, 5\n    syscall\n    or $t3, $v0, $zero"
        status = run_both(table_program(body, [0] * len(values)), inputs)
        assert status.output == "".join(f"{s32(v)} " for v in values)
        assert status.exit_code == s32(sum(s32(v) for v in inputs))

    def test_negative_sbrk(self):
        amounts = [64, -32, 16, -8, 0, -16, 40]
        body = "    move $a0, $t1\n    li $v0, 9\n    syscall\n" \
               "    move $t3, $v0"
        source = table_program(body, amounts)
        brk, breaks = assemble(source).heap_start, []
        for _ in range(passes(len(amounts))):
            for amount in amounts:
                breaks.append(brk)
                brk = (brk + amount + 7) & ~7
        status = run_both(source)
        assert status.output == "".join(
            f"{v} " for v in breaks[-len(amounts):])
        assert status.exit_code == s32(sum(breaks))

    def test_regs_is_a_signed_copy(self):
        _, machine, _ = run(table_program("    move $t3, $t1", [-5] * 8),
                            "tier1")
        view = machine.regs
        assert view[9] == -5  # $t1
        view[9] = 123
        assert machine.regs[9] == -5


# -- crash reports ------------------------------------------------------------

#: a fault on the table's last entry: 40 entries land on the loop head
#: past the threshold, so Tier 1 faults inside a superblock
_FAULTS = {
    "division by zero": ("    div $t3, $t1, $t2",
                         [-7 - k for k in range(40)],
                         [-3] * 39 + [0]),
    "misaligned load": ("    sra $t3, $t1, 2\n    addu $t4, $s1, $t2\n"
                        "    lw $t5, 0($t4)",
                        [INT_MIN + k for k in range(40)],
                        [0] * 39 + [1]),
}


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_crash_reports_are_signed_and_identical(fault, monkeypatch):
    body, a, b = _FAULTS[fault]
    source = table_program(body, a, b)
    # Tier 1 must fault inside a superblock, whose locals recovery writes
    # back to the register file
    recovered = []

    def spy(cache, exc, machine):
        recovered.append(recover_block_fault(cache, exc, machine))
        return recovered[-1]
    monkeypatch.setattr(engine, "recover_block_fault", spy)
    reports = {}
    for tier in TIERS:
        with pytest.raises(ReproError) as excinfo:
            Machine(assemble(source), engine=tier).run()
        reports[tier] = excinfo.value.crash_report
    assert recovered and recovered[-1] is not None
    report = reports["tier0"]
    assert reports["tier1"].format() == report.format()
    assert dataclasses.asdict(reports["tier1"]) == dataclasses.asdict(report)
    assert_signed(report.registers)
    # $t1 holds the faulting entry's (negative) operand
    assert report.registers[9] == a[-1] < 0
    assert f"r9={a[-1]}," in report.format()


# -- property: random operands through random bodies --------------------------

#: register-register ops: ``op $rd, $rs, $rt``
_R_OPS = ["addu", "subu", "mul", "and", "or", "xor", "nor", "slt", "sltu",
          "sllv", "srlv", "srav"]
#: register-immediate ops with their immediate range
_I_OPS = {"addiu": (-32768, 32767), "slti": (-32768, 32767),
          "sltiu": (-32768, 32767), "andi": (0, 65535), "ori": (0, 65535),
          "xori": (0, 65535), "sll": (0, 31), "srl": (0, 31),
          "sra": (0, 31)}
_BRANCHES = ["bltz", "blez", "bgtz", "bgez"]
#: the registers a random body reads and writes; $t0-$t3 are reloaded
#: from the table each iteration, $t4-$t7 carry across iterations
_REGS = [f"$t{i}" for i in range(8)]


@st.composite
def _op(draw):
    reg = st.sampled_from(_REGS)
    kind = draw(st.sampled_from(["r", "i", "divrem"]))
    rd, rs, rt = draw(reg), draw(reg), draw(reg)
    if kind == "r":
        return [f"{draw(st.sampled_from(_R_OPS))} {rd}, {rs}, {rt}"]
    if kind == "i":
        op = draw(st.sampled_from(sorted(_I_OPS)))
        return [f"{op} {rd}, {rs}, {draw(st.integers(*_I_OPS[op]))}"]
    # an odd divisor is never zero
    op = draw(st.sampled_from(["div", "rem"]))
    return [f"ori $t8, {rt}, 1", f"{op} {rd}, {rs}, $t8"]


@st.composite
def random_bodies(draw):
    """A straight-line body, or one with forward branches on the sign of
    a register over the next few ops."""
    branchy = draw(st.booleans())
    lines = []
    for k in range(draw(st.integers(1, 8))):
        op = draw(_op())
        if branchy and draw(st.booleans()):
            branch = draw(st.sampled_from(_BRANCHES))
            lines.append(f"    {branch} {draw(st.sampled_from(_REGS))}, "
                         f"skip{k}")
            lines += [f"    {line}" for line in op]
            lines.append(f"skip{k}:")
        else:
            lines += [f"    {line}" for line in op]
    return "\n".join(lines)


def _property_program(body: str, words: list[int]) -> str:
    """Every iteration loads the four table words from the current entry
    on into $t0-$t3 (the last entries read on into the zeros after the
    table), runs *body* and folds $t0-$t7 into the stored result."""
    load = "\n".join(f"    lw $t{i}, {4 * i}($s1)" for i in range(4))
    fold = "\n".join(f"    xor $t3, $t3, $t{i}"
                     for i in (0, 1, 2, 4, 5, 6, 7))
    return table_program(f"{load}\n{body}\n{fold}", words)


class TestRandomOperands:
    @settings(max_examples=40, deadline=None)
    @given(random_bodies(),
           st.lists(st.integers(INT_MIN, INT_MAX), min_size=4, max_size=12))
    def test_tiers_agree(self, body, words):
        source = _property_program(body, words)
        s0, m0, _ = run(source, "tier0")
        s1, m1, counters = run(source, "tier1")
        assert (s1.output, s1.exit_code, s1.instr_count) == \
            (s0.output, s0.exit_code, s0.instr_count), source
        assert m1.regs == m0.regs, source
        assert m1.memory._pages == m0.memory._pages, source
        assert_signed(m0.regs)
        assert counters["sim.tier1.trace_cache_hits"] > 0, source
