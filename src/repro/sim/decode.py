"""Tier-0 pre-decoding: one closure per instruction, built once per machine.

The seed interpreter re-dispatched every instruction through a long
``if name == ...`` chain, paying attribute lookups (``inst.op.name``,
``inst.rs``...) on every dynamic instruction.  :func:`build_handlers`
hoists all of that to *decode time*: each static instruction becomes a
small closure whose free variables are plain ints (register numbers,
immediates, precomputed branch-target indices) and whose body is just
the operation's semantics.  The engine loop then runs
``pc = handlers[pc](count)`` with no per-step decoding at all.

Handler protocol
----------------
``handler(count) -> next_pc_index`` where *count* is the retired-
instruction counter *including* this instruction.  Handlers never touch
fuel, ticks, or telemetry — that bookkeeping stays in the engine loop so
Tier-0 and Tier-1 share one definition of it.  Branch and indirect-jump
events are appended to the machine's pending-event list
(``machine._pending``) and flushed in batches by the engine.  A run
records them in one of two instrumentations (see
:mod:`repro.sim.engine`): in *log mode* as ``(inst, taken_or_None,
count)`` tuples (see ``Observer.on_events``), in *count mode* as one
constant integer id per event — ``2*i`` (taken) or ``2*i + 1`` (not
taken) for the conditional branch at instruction index ``i``, ``2*n +
i`` for the indirect jump there (``n`` instructions) — so a handler
builds no tuple and reads no count.

Decode never fails the machine constructor: an instruction whose decode
raises (corrupted operands injected by chaos tooling, unknown opcodes)
gets a *deferred-fault* closure that raises the same error only if and
when that pc actually executes — exactly where the seed interpreter
would have raised it.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.isa.program import TEXT_BASE, WORD_SIZE

__all__ = ["HALT_ADDRESS", "HALT_INDEX", "build_handlers"]

#: Sentinel return address: ``jr $ra`` to this halts the machine (used when
#: a program's ``main`` returns and no exit syscall was made).
HALT_ADDRESS = 0

#: The (negative) instruction index the halt address maps to; engines break
#: out of their dispatch loop when ``pc == HALT_INDEX``.
HALT_INDEX = (HALT_ADDRESS - TEXT_BASE) // WORD_SIZE

_M32 = 0xFFFF_FFFF
_W32 = 1 << 32
_S32 = 1 << 31


def build_handlers(machine) -> list:
    """Pre-decode ``machine._insts`` into a parallel list of closures, in
    the machine's event encoding (``machine._counting``)."""
    counting = machine._counting
    insts = machine._insts
    indirect_base = 2 * len(insts)
    tindex = machine._tindex
    regs = machine.regs
    fregs = machine.fregs
    memory = machine.memory
    pend = machine._pending.append
    call_stack = machine._call_stack
    load_word = memory.load_word
    store_word = memory.store_word
    load_byte = memory.load_byte
    store_byte = memory.store_byte
    load_double = memory.load_double
    store_double = memory.store_double

    def make(inst, i):
        name = inst.op.name
        nxt = i + 1
        rd, rs, rt = inst.rd, inst.rs, inst.rt
        fd, fs, ft = inst.fd, inst.fs, inst.ft
        imm = inst.imm

        if name == "addiu" or name == "addi":
            def h(count, rs=rs, rt=rt, imm=imm, nxt=nxt):
                v = (regs[rs] + imm) & _M32
                regs[rt] = v - _W32 if v & _S32 else v
                return nxt
            return h
        if name == "lw":
            def h(count, rs=rs, rt=rt, imm=imm, nxt=nxt):
                regs[rt] = load_word((regs[rs] & _M32) + imm)
                return nxt
            return h
        if name == "sw":
            def h(count, rs=rs, rt=rt, imm=imm, nxt=nxt):
                store_word((regs[rs] & _M32) + imm, regs[rt])
                return nxt
            return h
        if name == "addu" or name == "add":
            def h(count, rd=rd, rs=rs, rt=rt, nxt=nxt):
                v = (regs[rs] + regs[rt]) & _M32
                regs[rd] = v - _W32 if v & _S32 else v
                return nxt
            return h
        if name == "beq":
            if counting:
                def h(count, rs=rs, rt=rt, t=tindex[i], nxt=nxt, T=2 * i,
                      N=2 * i + 1):
                    if regs[rs] == regs[rt]:
                        pend(T)
                        return t
                    pend(N)
                    return nxt
                return h
            def h(count, inst=inst, rs=rs, rt=rt, t=tindex[i], nxt=nxt):
                if regs[rs] == regs[rt]:
                    pend((inst, True, count))
                    return t
                pend((inst, False, count))
                return nxt
            return h
        if name == "bne":
            if counting:
                def h(count, rs=rs, rt=rt, t=tindex[i], nxt=nxt, T=2 * i,
                      N=2 * i + 1):
                    if regs[rs] != regs[rt]:
                        pend(T)
                        return t
                    pend(N)
                    return nxt
                return h
            def h(count, inst=inst, rs=rs, rt=rt, t=tindex[i], nxt=nxt):
                if regs[rs] != regs[rt]:
                    pend((inst, True, count))
                    return t
                pend((inst, False, count))
                return nxt
            return h
        if name == "slt":
            def h(count, rd=rd, rs=rs, rt=rt, nxt=nxt):
                regs[rd] = 1 if regs[rs] < regs[rt] else 0
                return nxt
            return h
        if name == "slti":
            def h(count, rs=rs, rt=rt, imm=imm, nxt=nxt):
                regs[rt] = 1 if regs[rs] < imm else 0
                return nxt
            return h
        if name == "sltu":
            def h(count, rd=rd, rs=rs, rt=rt, nxt=nxt):
                regs[rd] = 1 if (regs[rs] & _M32) < (regs[rt] & _M32) else 0
                return nxt
            return h
        if name == "sltiu":
            def h(count, rs=rs, rt=rt, uimm=imm & _M32, nxt=nxt):
                regs[rt] = 1 if (regs[rs] & _M32) < uimm else 0
                return nxt
            return h
        if name == "j":
            def h(count, t=tindex[i]):
                return t
            return h
        if name == "jal":
            ra = TEXT_BASE + WORD_SIZE * (i + 1)
            def h(count, inst=inst, t=tindex[i], ra=ra,
                  frame=(inst.address, inst.target_address, ra)):
                regs[31] = ra
                call_stack.append(frame)
                return t
            return h
        if name == "jr":
            if rs == 31:
                def h(count, rs=rs):
                    addr = regs[rs] & _M32
                    if call_stack:
                        call_stack.pop()
                    if addr == HALT_ADDRESS:
                        return HALT_INDEX
                    return (addr - TEXT_BASE) // WORD_SIZE
                return h

            if counting:
                def h(count, rs=rs, ev=indirect_base + i):
                    addr = regs[rs] & _M32
                    pend(ev)
                    if addr == HALT_ADDRESS:
                        return HALT_INDEX
                    return (addr - TEXT_BASE) // WORD_SIZE
                return h
            def h(count, inst=inst, rs=rs):
                addr = regs[rs] & _M32
                pend((inst, None, count))
                if addr == HALT_ADDRESS:
                    return HALT_INDEX
                return (addr - TEXT_BASE) // WORD_SIZE
            return h
        if name == "jalr":
            ra = TEXT_BASE + WORD_SIZE * (i + 1)
            ev = indirect_base + i if counting else None
            def h(count, inst=inst, rd=rd, rs=rs, ra=ra, site=inst.address,
                  ev=ev):
                addr = regs[rs] & _M32
                regs[rd] = ra
                call_stack.append((site, addr, ra))
                pend(ev if ev is not None else (inst, None, count))
                return (addr - TEXT_BASE) // WORD_SIZE
            return h
        if name == "blez":
            if counting:
                def h(count, rs=rs, t=tindex[i], nxt=nxt, T=2 * i,
                      N=2 * i + 1):
                    if regs[rs] <= 0:
                        pend(T)
                        return t
                    pend(N)
                    return nxt
                return h
            def h(count, inst=inst, rs=rs, t=tindex[i], nxt=nxt):
                if regs[rs] <= 0:
                    pend((inst, True, count))
                    return t
                pend((inst, False, count))
                return nxt
            return h
        if name == "bgtz":
            if counting:
                def h(count, rs=rs, t=tindex[i], nxt=nxt, T=2 * i,
                      N=2 * i + 1):
                    if regs[rs] > 0:
                        pend(T)
                        return t
                    pend(N)
                    return nxt
                return h
            def h(count, inst=inst, rs=rs, t=tindex[i], nxt=nxt):
                if regs[rs] > 0:
                    pend((inst, True, count))
                    return t
                pend((inst, False, count))
                return nxt
            return h
        if name == "bltz":
            if counting:
                def h(count, rs=rs, t=tindex[i], nxt=nxt, T=2 * i,
                      N=2 * i + 1):
                    if regs[rs] < 0:
                        pend(T)
                        return t
                    pend(N)
                    return nxt
                return h
            def h(count, inst=inst, rs=rs, t=tindex[i], nxt=nxt):
                if regs[rs] < 0:
                    pend((inst, True, count))
                    return t
                pend((inst, False, count))
                return nxt
            return h
        if name == "bgez":
            if counting:
                def h(count, rs=rs, t=tindex[i], nxt=nxt, T=2 * i,
                      N=2 * i + 1):
                    if regs[rs] >= 0:
                        pend(T)
                        return t
                    pend(N)
                    return nxt
                return h
            def h(count, inst=inst, rs=rs, t=tindex[i], nxt=nxt):
                if regs[rs] >= 0:
                    pend((inst, True, count))
                    return t
                pend((inst, False, count))
                return nxt
            return h
        if name == "sub" or name == "subu":
            def h(count, rd=rd, rs=rs, rt=rt, nxt=nxt):
                v = (regs[rs] - regs[rt]) & _M32
                regs[rd] = v - _W32 if v & _S32 else v
                return nxt
            return h
        if name == "mul":
            def h(count, rd=rd, rs=rs, rt=rt, nxt=nxt):
                v = (regs[rs] * regs[rt]) & _M32
                regs[rd] = v - _W32 if v & _S32 else v
                return nxt
            return h
        if name == "div":
            def h(count, rd=rd, rs=rs, rt=rt, nxt=nxt, addr=inst.address):
                denom = regs[rt]
                if denom == 0:
                    raise SimulationError(
                        f"integer division by zero at 0x{addr:x}")
                num = regs[rs]
                q = abs(num) // abs(denom)
                if (num < 0) != (denom < 0):
                    q = -q
                v = q & _M32
                regs[rd] = v - _W32 if v & _S32 else v
                return nxt
            return h
        if name == "rem":
            def h(count, rd=rd, rs=rs, rt=rt, nxt=nxt, addr=inst.address):
                denom = regs[rt]
                if denom == 0:
                    raise SimulationError(
                        f"integer remainder by zero at 0x{addr:x}")
                num = regs[rs]
                q = abs(num) // abs(denom)
                if (num < 0) != (denom < 0):
                    q = -q
                v = (num - denom * q) & _M32
                regs[rd] = v - _W32 if v & _S32 else v
                return nxt
            return h
        if name in ("and", "or", "xor", "nor"):
            if name == "and":
                def h(count, rd=rd, rs=rs, rt=rt, nxt=nxt):
                    v = regs[rs] & regs[rt] & _M32
                    regs[rd] = v - _W32 if v & _S32 else v
                    return nxt
            elif name == "or":
                def h(count, rd=rd, rs=rs, rt=rt, nxt=nxt):
                    v = (regs[rs] | regs[rt]) & _M32
                    regs[rd] = v - _W32 if v & _S32 else v
                    return nxt
            elif name == "xor":
                def h(count, rd=rd, rs=rs, rt=rt, nxt=nxt):
                    v = (regs[rs] ^ regs[rt]) & _M32
                    regs[rd] = v - _W32 if v & _S32 else v
                    return nxt
            else:
                def h(count, rd=rd, rs=rs, rt=rt, nxt=nxt):
                    v = ~((regs[rs] & _M32) | (regs[rt] & _M32)) & _M32
                    regs[rd] = v - _W32 if v & _S32 else v
                    return nxt
            return h
        if name in ("andi", "ori", "xori"):
            uimm = imm & 0xFFFF
            if name == "andi":
                def h(count, rs=rs, rt=rt, uimm=uimm, nxt=nxt):
                    regs[rt] = regs[rs] & _M32 & uimm
                    return nxt
            elif name == "ori":
                def h(count, rs=rs, rt=rt, uimm=uimm, nxt=nxt):
                    v = (regs[rs] & _M32) | uimm
                    regs[rt] = v - _W32 if v & _S32 else v
                    return nxt
            else:
                def h(count, rs=rs, rt=rt, uimm=uimm, nxt=nxt):
                    v = (regs[rs] & _M32) ^ uimm
                    regs[rt] = v - _W32 if v & _S32 else v
                    return nxt
            return h
        if name in ("sll", "srl", "sra"):
            sh = imm & 31
            if name == "sll":
                def h(count, rs=rs, rt=rt, sh=sh, nxt=nxt):
                    v = ((regs[rs] & _M32) << sh) & _M32
                    regs[rt] = v - _W32 if v & _S32 else v
                    return nxt
            elif name == "srl":
                def h(count, rs=rs, rt=rt, sh=sh, nxt=nxt):
                    v = (regs[rs] & _M32) >> sh
                    regs[rt] = v - _W32 if v & _S32 else v
                    return nxt
            else:
                def h(count, rs=rs, rt=rt, sh=sh, nxt=nxt):
                    v = (regs[rs] >> sh) & _M32
                    regs[rt] = v - _W32 if v & _S32 else v
                    return nxt
            return h
        if name in ("sllv", "srlv", "srav"):
            if name == "sllv":
                def h(count, rd=rd, rs=rs, rt=rt, nxt=nxt):
                    v = ((regs[rs] & _M32) << (regs[rt] & 31)) & _M32
                    regs[rd] = v - _W32 if v & _S32 else v
                    return nxt
            elif name == "srlv":
                def h(count, rd=rd, rs=rs, rt=rt, nxt=nxt):
                    v = (regs[rs] & _M32) >> (regs[rt] & 31)
                    regs[rd] = v - _W32 if v & _S32 else v
                    return nxt
            else:
                def h(count, rd=rd, rs=rs, rt=rt, nxt=nxt):
                    v = (regs[rs] >> (regs[rt] & 31)) & _M32
                    regs[rd] = v - _W32 if v & _S32 else v
                    return nxt
            return h
        if name == "lui":
            v = (imm & 0xFFFF) << 16
            val = v - _W32 if v & _S32 else v
            def h(count, rt=rt, val=val, nxt=nxt):
                regs[rt] = val
                return nxt
            return h
        if name == "lb":
            def h(count, rs=rs, rt=rt, imm=imm, nxt=nxt):
                regs[rt] = load_byte((regs[rs] & _M32) + imm)
                return nxt
            return h
        if name == "lbu":
            def h(count, rs=rs, rt=rt, imm=imm, nxt=nxt):
                regs[rt] = load_byte((regs[rs] & _M32) + imm, signed=False)
                return nxt
            return h
        if name == "sb":
            def h(count, rs=rs, rt=rt, imm=imm, nxt=nxt):
                store_byte((regs[rs] & _M32) + imm, regs[rt])
                return nxt
            return h
        if name == "ldc1":
            def h(count, rs=rs, ft=ft, imm=imm, nxt=nxt):
                fregs[ft] = load_double((regs[rs] & _M32) + imm)
                return nxt
            return h
        if name == "sdc1":
            def h(count, rs=rs, ft=ft, imm=imm, nxt=nxt):
                store_double((regs[rs] & _M32) + imm, fregs[ft])
                return nxt
            return h
        if name == "add.d":
            def h(count, fd=fd, fs=fs, ft=ft, nxt=nxt):
                fregs[fd] = fregs[fs] + fregs[ft]
                return nxt
            return h
        if name == "sub.d":
            def h(count, fd=fd, fs=fs, ft=ft, nxt=nxt):
                fregs[fd] = fregs[fs] - fregs[ft]
                return nxt
            return h
        if name == "mul.d":
            def h(count, fd=fd, fs=fs, ft=ft, nxt=nxt):
                fregs[fd] = fregs[fs] * fregs[ft]
                return nxt
            return h
        if name == "div.d":
            def h(count, fd=fd, fs=fs, ft=ft, nxt=nxt, addr=inst.address):
                if fregs[ft] == 0.0:
                    raise SimulationError(
                        f"FP division by zero at 0x{addr:x}")
                fregs[fd] = fregs[fs] / fregs[ft]
                return nxt
            return h
        if name == "neg.d":
            def h(count, fd=fd, fs=fs, nxt=nxt):
                fregs[fd] = -fregs[fs]
                return nxt
            return h
        if name == "abs.d":
            def h(count, fd=fd, fs=fs, nxt=nxt):
                fregs[fd] = abs(fregs[fs])
                return nxt
            return h
        if name == "mov.d":
            def h(count, fd=fd, fs=fs, nxt=nxt):
                fregs[fd] = fregs[fs]
                return nxt
            return h
        if name == "sqrt.d":
            def h(count, fd=fd, fs=fs, nxt=nxt, addr=inst.address):
                if fregs[fs] < 0:
                    raise SimulationError(
                        f"sqrt of negative at 0x{addr:x}")
                fregs[fd] = fregs[fs] ** 0.5
                return nxt
            return h
        if name == "c.eq.d":
            def h(count, fs=fs, ft=ft, nxt=nxt):
                machine.fp_cond = fregs[fs] == fregs[ft]
                return nxt
            return h
        if name == "c.lt.d":
            def h(count, fs=fs, ft=ft, nxt=nxt):
                machine.fp_cond = fregs[fs] < fregs[ft]
                return nxt
            return h
        if name == "c.le.d":
            def h(count, fs=fs, ft=ft, nxt=nxt):
                machine.fp_cond = fregs[fs] <= fregs[ft]
                return nxt
            return h
        if name == "bc1t":
            if counting:
                def h(count, t=tindex[i], nxt=nxt, T=2 * i, N=2 * i + 1):
                    if machine.fp_cond:
                        pend(T)
                        return t
                    pend(N)
                    return nxt
                return h
            def h(count, inst=inst, t=tindex[i], nxt=nxt):
                if machine.fp_cond:
                    pend((inst, True, count))
                    return t
                pend((inst, False, count))
                return nxt
            return h
        if name == "bc1f":
            if counting:
                def h(count, t=tindex[i], nxt=nxt, T=2 * i, N=2 * i + 1):
                    if machine.fp_cond:
                        pend(N)
                        return nxt
                    pend(T)
                    return t
                return h
            def h(count, inst=inst, t=tindex[i], nxt=nxt):
                if machine.fp_cond:
                    pend((inst, False, count))
                    return nxt
                pend((inst, True, count))
                return t
            return h
        if name == "mtc1":
            def h(count, fs=fs, rt=rt, nxt=nxt):
                fregs[fs] = float(regs[rt])
                return nxt
            return h
        if name == "mfc1":
            def h(count, fs=fs, rt=rt, nxt=nxt):
                v = int(fregs[fs]) & _M32
                regs[rt] = v - _W32 if v & _S32 else v
                return nxt
            return h
        if name == "cvt.d.w":
            def h(count, fd=fd, fs=fs, nxt=nxt):
                fregs[fd] = float(fregs[fs])
                return nxt
            return h
        if name == "cvt.w.d":
            def h(count, fd=fd, fs=fs, nxt=nxt):
                fregs[fd] = float(int(fregs[fs]))  # truncate toward 0
                return nxt
            return h
        if name == "syscall":
            def h(count, inst=inst, nxt=nxt):
                return nxt if machine._syscall(inst) else HALT_INDEX
            return h
        if name == "nop":
            def h(count, nxt=nxt):
                return nxt
            return h

        def h(count, name=name):
            raise SimulationError(f"unimplemented opcode {name}")
        return h

    handlers = []
    for i, inst in enumerate(insts):
        try:
            handlers.append(make(inst, i))
        except Exception as exc:  # corrupted operands: fault at execute time
            def deferred(count, exc=exc):
                raise exc
            handlers.append(deferred)
    return handlers
