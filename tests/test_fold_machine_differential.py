"""Differential property test: constant folding == machine execution.

``repro.bcc.opt._fold_binop`` (used by ``local-propagate``, SCCP, and —
through :mod:`repro.analysis.lattice` — the interval transfer functions)
claims to evaluate integer BinOps with *exact* MIPS semantics.  This test
checks that claim against the simulator itself: for every BLC-reachable
integer operator, a tiny unoptimized program ``print_int(read_int() OP
read_int())`` is compiled once, then hypothesis-drawn operand pairs are
fed through both the fold and the machine — the printed value must equal
the folded constant bit-for-bit, including division truncation toward
zero, negative remainders, two's-complement wrap-around, and the
hardware's shift-amount masking (``sllv``/``srav`` use the low 5 bits).

``sru`` and ``sltu`` have no BLC surface syntax, so they are checked
against oracles transcribed from the simulator's ``srlv`` / ``sltu``
handlers (``repro.sim.decode``), which read the register file's
unsigned form.

Division/remainder by zero: the fold returns ``None`` (no fold) and the
machine raises — both sides must refuse.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.bcc.driver import compile_and_link
from repro.bcc.opt import _fold_binop
from repro.errors import ReproError
from repro.sim import Machine

INT32_MIN, INT32_MAX = -(1 << 31), (1 << 31) - 1

#: IR op -> BLC operator reaching it (see ``irgen`` op table)
_BLC_OPS = {
    "add": "+", "sub": "-", "mul": "*", "div": "/", "rem": "%",
    "and": "&", "or": "|", "xor": "^", "shl": "<<", "shr": ">>",
}

_executables: dict[str, object] = {}


def _binop_executable(op: str):
    """One compiled ``print_int(read_int() OP read_int())`` per operator.

    Compiled with ``optimize=False``: the operands come from syscalls so
    nothing could fold anyway, but -O0 makes the point explicit — the
    machine, not the compiler, evaluates the operator.
    """
    exe = _executables.get(op)
    if exe is None:
        source = f"""
        int main() {{
            int a;
            int b;
            a = read_int();
            b = read_int();
            print_int(a {_BLC_OPS[op]} b);
            return 0;
        }}
        """
        exe = compile_and_link(source, optimize=False)
        _executables[op] = exe
    return exe


def _machine_eval(op: str, a: int, b: int) -> int | None:
    """Run ``a OP b`` on the simulator; ``None`` if the machine faulted."""
    machine = Machine(_binop_executable(op), inputs=[a, b],
                      max_instructions=100_000)
    try:
        status = machine.run()
    except ReproError:
        return None
    return int(status.output.strip())


operands = st.integers(INT32_MIN, INT32_MAX)
# weight interesting boundary values in alongside the uniform draw
boundary = st.sampled_from([0, 1, -1, 2, -2, 31, 32, 33, INT32_MIN,
                            INT32_MAX, INT32_MIN + 1, INT32_MAX - 1])
values = st.one_of(operands, boundary)


@pytest.mark.parametrize("op", sorted(_BLC_OPS))
@given(a=values, b=values)
@settings(max_examples=40, deadline=None)
def test_fold_matches_machine(op, a, b):
    folded = _fold_binop(op, a, b)
    executed = _machine_eval(op, a, b)
    if op in ("div", "rem") and b == 0:
        assert folded is None, f"{op} by zero must not fold"
        assert executed is None, f"{op} by zero must fault on the machine"
        return
    assert folded is not None, f"{op}({a}, {b}) unexpectedly refused to fold"
    assert executed is not None, f"machine faulted on {op}({a}, {b})"
    assert folded == executed, (
        f"{op}({a}, {b}): compiler folds to {folded}, "
        f"machine computes {executed}")
    assert INT32_MIN <= folded <= INT32_MAX


def _u32(v: int) -> int:
    return v & 0xFFFF_FFFF


def _s32(v: int) -> int:
    v &= 0xFFFF_FFFF
    return v - (1 << 32) if v & (1 << 31) else v


@given(a=values, b=values)
@settings(max_examples=60, deadline=None)
def test_fold_sru_matches_srlv_semantics(a, b):
    """``sru`` == the simulator's ``srlv``: logical shift of the u32 view
    by the low five bits of the amount."""
    assert _fold_binop("sru", a, b) == _s32(_u32(a) >> (_u32(b) & 31))


@given(a=values, b=values)
@settings(max_examples=60, deadline=None)
def test_fold_sltu_matches_machine_semantics(a, b):
    """``sltu`` == the simulator's unsigned compare of the u32 views."""
    assert _fold_binop("sltu", a, b) == (1 if _u32(a) < _u32(b) else 0)


@given(a=values, b=values)
@settings(max_examples=60, deadline=None)
def test_fold_slt_is_signed(a, b):
    assert _fold_binop("slt", a, b) == (1 if a < b else 0)
