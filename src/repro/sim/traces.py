"""Tier-1 superblocks: hot straight-line regions fused into one callable.

A *superblock* starts at a hot landing pc (a branch/jump target the engine
has seen often enough) and follows the statically-likely path: at each
conditional branch the direction the machine's ``layout`` predicts (the
harness passes the program's Ball–Larus prediction), else fall-through for
forward branches and the target for backward ones (the classic
backward-taken/forward-not-taken convention), straight through direct ``j``,
and straight *into* direct calls — ``jal`` is inlined ($ra becomes a block
constant, the shadow call stack is maintained exactly), and a ``jr $ra``
whose value survived the callee continues the trace at the return point,
so a hot call-in-loop still closes back on the head.  Short if/else
diamonds that rejoin are *folded* in (both arms emitted, up to
``MAX_ARM_LEN`` instructions each) rather than ending the block.  It ends
at an indirect call/jump it cannot resolve, a syscall, a pc already in
the block (loop closed), or the length cap.  The path is compiled — once,
never invalidated; instruction memory is immutable — into one Python
function of the shape::

    block(base, stop) -> (next_pc_index, count_after)

where *base* is the retired-instruction count before the block's first
instruction.  Registers live in Python locals for the duration of the
block, and a conditional branch that goes against the assumed direction
takes a *side exit*: it bumps the shared side-exit cell, records the
branch events, writes the live locals back to the register file, and
returns early with the exact count.

When the assumed path closes back on the block's own head — a hot inner
loop — the body becomes a ``for base in range(...)`` over whole
iterations: the block keeps iterating in place (registers stay in locals,
no dispatch, no entry loads) until another full iteration could cross
*stop*, then returns to the engine at the head.  The engine picks *stop*
as the next housekeeping budget (``min(fuel_limit, count + tick
interval)``), so fuel exactness and the watchdog/sampling cadence are
preserved while a single call retires thousands of instructions.  At
least one iteration always runs (the engine's entry guard has already
proven it fits the fuel limit), mirroring tier0's do-then-check order.

Loop iterations emit **no** per-iteration branch events.  Every completed
iteration of a looped block takes the assumed direction at each branch —
anything else side-exits — so its event sequence is statically known.
Exits append one *run marker* to the pending-event list; the flush and
the batched observers expand or aggregate it (``O(1)`` for profiles and
histories instead of ``O(iterations)``), and duck-typed observers see
fully expanded events.

A block records in the run's event encoding (see
:mod:`repro.sim.engine`).  In log mode an event is ``(inst, taken,
base + K)`` and a run marker ``(None, template, base0, iterations,
length)``.  In count mode every event is a constant id baked into the
generated code (``2*p`` taken, ``2*p + 1`` not taken, ``2*n + p`` for an
indirect jump at instruction index ``p`` of ``n``), so recording an
event is one ``append`` of a constant with no tuple and no count, and
a run marker is the block's loop id ``3*n + head`` followed by
``~iterations`` (negative, so it cannot be mistaken for an id, and
defined for zero iterations).
A looped block containing folded diamonds renders in *runs* mode: the
marker counts the run of consecutive all-assumed iterations, a fold whose
test goes the non-assumed way flushes the run, records the iteration's
actual events, and starts a new run — still one append per *divergence*,
not per iteration.

Block compile products are shared across machines.  The
machine-independent :class:`BlockSpec` (generated code object, event
offsets, line map, fold table) is cached per ``Executable``, layout
content and event encoding in a weak-keyed module map (both encodings
render the same block shapes); a fresh :class:`TraceCache` re-binds
specs to its own machine (rebuilding only the machine-bound iteration
events) instead of re-forming superblocks, and negative entries (refused
heads) are shared too.

Registers known to be compile-time constants are folded into the emitted
expressions: ``$zero`` seeds the fold (guarded by a one-line entry check
— if ``regs[0]`` was ever written the block returns without progress and
the engine single-steps), and ``lui``/``addiu``/shift/bitwise chains over
constants collapse to literals.

Crash exactness
---------------
Mid-block faults must produce the same :class:`~repro.errors.CrashReport`
as single-stepping.  Four mechanisms guarantee it, all off the hot path:

* every generated source line is mapped back to its block offset, so the
  faulting pc and retired count are recovered from the traceback's
  ``tb_lineno`` (one instruction never spans a line-map entry boundary);
* the registers written *before* the faulting offset are recovered from
  the generated frame's ``f_locals`` and written back to the machine
  (a faulting statement never assigns its own destination first);
* a fault inside a looped block reconstructs the branch events of its
  completed iterations (run marker, or loop id and ``~iterations``) and
  of the partial iteration up to the fault offset, so event streams,
  counts and crash branch histories match tier0 exactly;
* the engine refuses to enter a block whose full path could cross the
  fuel limit, falling back to single-stepping so
  ``SimulationLimitExceeded`` fires at the exact instruction.

Codegen that cannot represent an instruction (chaos-corrupted operands,
unknown opcodes, writes to ``$zero``) truncates the block just before it
— or refuses the block entirely — so the Tier-0 interpreter path raises
the identical typed error.
"""

from __future__ import annotations

import struct
import weakref

from repro.errors import SimulationError
from repro.isa.program import TEXT_BASE, WORD_SIZE
from repro.sim.decode import HALT_INDEX

__all__ = ["CompiledBlock", "TraceCache", "recover_block_fault",
           "compile_superblock", "MAX_BLOCK_LEN", "HOT_THRESHOLD",
           "MAX_BLOCKS"]

#: Longest path a superblock may cover (also bounds fuel/watchdog overshoot).
MAX_BLOCK_LEN = 128
#: Landings at a pc before the engine compiles a superblock there.
HOT_THRESHOLD = 32
#: Cap on compiled blocks per machine (a runaway-codegen backstop).
MAX_BLOCKS = 512

_M32 = 0xFFFF_FFFF

#: bound struct codecs for the inline memory fast paths (a bound
#: ``Struct.unpack_from`` is ~3x cheaper than slice+``int.from_bytes``)
_U32_STRUCT = struct.Struct("<I")
_F64_STRUCT = struct.Struct("<d")

#: control ops an if/else arm may not contain (jal/jr can continue a block
#: at the top level but never nest inside a folded diamond arm)
_TERMINAL = frozenset(["jal", "jalr", "jr", "syscall"])

#: longest if/else arm folded into a block as a *diamond* (both successor
#: paths compiled under a runtime test instead of a side exit)
MAX_ARM_LEN = 48

#: conditions over the unsigned operand strings: equality is
#: representation-independent, and the sign tests read the top bit
_BRANCH_COND = {
    "beq": "{a} == {b}",
    "bne": "{a} != {b}",
    "blez": "{a} == 0 or {a} >= 2147483648",
    "bgtz": "0 < {a} < 2147483648",
    "bltz": "{a} >= 2147483648",
    "bgez": "{a} < 2147483648",
    "bc1t": "fc",
    "bc1f": "not fc",
}


class _Truncate(Exception):
    """Internal: this instruction cannot be compiled — end the block here."""


class CompiledBlock:
    """One compiled superblock; see the module docstring for the contract."""

    __slots__ = ("head", "head_addr", "fn", "code", "max_len", "offsets",
                 "line_map", "prefix_defs", "looped", "iter_events", "slen",
                 "loop_id")

    def __init__(self, head, head_addr, fn, max_len, offsets, line_map,
                 prefix_defs, looped, iter_events, slen, loop_id=None):
        self.head = head
        self.head_addr = head_addr
        self.fn = fn
        self.code = fn.__code__
        self.max_len = max_len
        self.offsets = offsets
        self.line_map = line_map
        self.prefix_defs = prefix_defs
        self.looped = looped
        #: per-iteration (event, assumed_taken, count_offset) branch events
        #: of an all-assumed iteration of a looped block — the run-marker
        #: template (empty for straight blocks); *event* is the branch's
        #: instruction in log mode and its constant id in count mode
        self.iter_events = iter_events
        #: instructions an all-assumed iteration retires (== max_len unless
        #: the loop contains folds whose assumed direction skips offsets)
        self.slen = slen
        #: count mode: the id a completed run of this looped block is
        #: recorded under (followed by ``~iterations``); ``None`` in log
        #: mode
        self.loop_id = loop_id


class BlockSpec:
    """The machine-independent compile product of one superblock: the
    bytecode object plus all recovery metadata.  Instruction memory is
    immutable, so specs are shared across every :class:`Machine` running
    the same executable (see :data:`_SHARED_SPECS`) — repeated passes over
    a benchmark skip trace formation and ``compile()`` entirely and only
    re-``exec`` the code object against their own register file, memory,
    and event sinks."""

    __slots__ = ("head", "head_addr", "code", "max_len", "offsets",
                 "line_map", "prefix_defs", "looped", "iter_idx",
                 "slen", "loop_id")


#: executable → {(layout key, counting): {head: BlockSpec | None}} — the
#: cross-machine spec cache (``None`` records an uncompilable head so
#: repeat machines skip the formation attempt too); entries die with
#: their executable.  The layout key is the map's *content*, so a block
#: shape — and with it the side-exit count — never depends on which
#: machine formed it first; the two event encodings render the same
#: shapes into different code.
_SHARED_SPECS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _specs_for(executable, layout=None, counting: bool = False) -> dict:
    by_layout = _SHARED_SPECS.get(executable)
    if by_layout is None:
        by_layout = {}
        try:
            _SHARED_SPECS[executable] = by_layout
        except TypeError:  # not weak-referenceable: private per-cache dict
            pass
    key = frozenset(layout.items()) if layout else None
    return by_layout.setdefault((key, counting), {})


def _bind_block(spec: BlockSpec, machine) -> CompiledBlock:
    """Instantiate a shared :class:`BlockSpec` for one machine: rebuild
    the run-marker template against the machine's instruction list and
    ``exec`` the code object with the machine's state bound as defaults."""
    insts = machine._insts
    if spec.loop_id is None:
        iter_events = tuple(
            (insts[p], assumed, K) for p, assumed, K in spec.iter_idx)
    else:
        iter_events = tuple((2 * p + (not assumed), assumed, K)
                            for p, assumed, K in spec.iter_idx)
    mem = machine.memory
    env = {
        "RG": machine.regs,
        "FG": machine.fregs,
        "PD": machine._pending.append,
        "CS": machine._call_stack,
        "IN": insts,
        "SEC": machine._side_exit_cell,
        "LW": mem.load_word,
        "SW": mem.store_word,
        "LB": mem.load_byte,
        "SB": mem.store_byte,
        "LD": mem.load_double,
        "SD": mem.store_double,
        "MM": machine,
        "PG_": mem._pages.get,
        "UW_": _U32_STRUCT.unpack_from,
        "P4_": _U32_STRUCT.pack_into,
        "UD_": _F64_STRUCT.unpack_from,
        "P8_": _F64_STRUCT.pack_into,
        "RT_": iter_events,
        "ERR": SimulationError,
    }
    exec(spec.code, env)
    return CompiledBlock(spec.head, spec.head_addr, env["_b"], spec.max_len,
                         spec.offsets, spec.line_map, spec.prefix_defs,
                         spec.looped, iter_events, spec.slen,
                         spec.loop_id)


def compile_superblock(machine, head) -> CompiledBlock | None:
    """Form, compile, and bind the superblock starting at *head* for one
    machine (the uncached path; :meth:`TraceCache.compile` goes through
    the shared spec cache instead)."""
    spec = _form_superblock(machine, head)
    if spec is None:
        return None
    return _bind_block(spec, machine)


def _need_int(*values):
    for v in values:
        if type(v) is not int:
            raise _Truncate
    return values


def _form_superblock(machine, head) -> BlockSpec | None:
    """Form the superblock starting at instruction index *head* and compile
    it to a :class:`BlockSpec`.

    Returns ``None`` when no useful block can be built (the head itself is
    uncompilable); the cache blacklists the head and the engine keeps
    single-stepping there.
    """
    insts = machine._insts
    tindex = machine._tindex
    layout = machine.layout or {}
    n = len(insts)
    #: count mode (see :mod:`repro.sim.engine`): events are constant ids
    counting = machine._counting
    loop_id = 3 * n + head

    body: list[tuple[str, int | None]] = []   # (line text, block offset)
    offsets: list[int] = []
    visited: set[int] = set()
    ref_r: set[int] = set()
    ref_f: set[int] = set()
    ref_fc = [False]
    defs_order: list[tuple[str, int]] = []    # ordered unique (kind, idx)
    defs_set: set[tuple[str, int]] = set()
    prefix_defs: list[tuple[tuple[str, int], ...]] = []
    #: registers with a compile-time-known unsigned value; seeded by $zero
    const: dict[int, int] = {0: 0}
    #: the $zero fold is only sound while regs[0] == 0; any use arms a
    #: one-line entry guard that bounces the block if it ever isn't
    need_guard = [False]
    #: branch sites in side-exit form:
    #: (p, K, cond, assume_taken, side_target, ae_idx, in_tail)
    branches: list = []
    #: fold (diamond / loop-tail) sites: (p, K, assumed_taken, ae_idx)
    folds: list = []
    #: the assumed-path branch events in order: (p, K_eff, assumed_taken),
    #: where K_eff is the retired-count offset *on the assumed path* —
    #: this becomes the looped block's run-marker template
    assumed_events: list[tuple[int, int, bool]] = []
    #: set once a fold is emitted: retired counts become path-dependent
    #: (tracked by the runtime skip counter ``ex``)
    dyn = [False]
    #: static retired-count shortfall of the all-assumed path (offsets the
    #: assumed direction of each fold skips); the assumed-path stride of a
    #: looped block is ``length - ex_asm``
    ex_asm = [0]

    def cnt(K: int) -> str:
        """Placeholder for a retired-count expression, resolved at assembly:
        ``base + K`` normally, ``base + K - ex`` once the block contains a
        diamond (offsets of the untaken arm are skipped at runtime)."""
        return f"\x05{K}\x05"

    def render_cnt(text: str, dyn_: bool) -> str:
        while "\x05" in text:
            a = text.index("\x05")
            b = text.index("\x05", a + 1)
            K = int(text[a + 1:b])
            expr = f"base + {K} - ex" if dyn_ else f"base + {K}"
            text = text[:a] + expr + text[b + 1:]
        return text

    def use_r(i):
        c = const.get(i)
        if c is not None:
            need_guard[0] = True
            return str(c)
        ref_r.add(i)
        return f"r{i}"

    def use_f(i):
        ref_f.add(i)
        return f"f{i}"

    def def_r(i, value=None):
        if i == 0:
            # a write to $zero would break the constant fold; end the block
            # before it and let the interpreter apply its real semantics
            raise _Truncate
        if value is None:
            const.pop(i, None)
        else:
            need_guard[0] = True
            const[i] = value
        ref_r.add(i)
        if ("r", i) not in defs_set:
            defs_set.add(("r", i))
            defs_order.append(("r", i))
        return f"r{i}"

    def def_f(i):
        ref_f.add(i)
        if ("f", i) not in defs_set:
            defs_set.add(("f", i))
            defs_order.append(("f", i))
        return f"f{i}"

    def def_fc():
        ref_fc[0] = True
        if ("c", 0) not in defs_set:
            defs_set.add(("c", 0))
            defs_order.append(("c", 0))
        return "fc"

    def writeback() -> str:
        """Placeholder for a register write-back, resolved at assembly.

        A straight-line block writes back the defs emitted *so far* (later
        offsets never executed).  In a looped block every offset executes
        each iteration, so from the second iteration on the locals of
        later-offset defs hold the previous (already-committed) iteration's
        values — every exit must then write back the *full* def set.  Loop
        detection only completes at the end of formation, so the choice is
        deferred via a marker recording the defs count at emission time."""
        return f"\x00{len(defs_order)}\x00"

    def render_writeback(text: str, looped: bool) -> str:
        while "\x00" in text:
            a = text.index("\x00")
            b = text.index("\x00", a + 1)
            cnt = int(text[a + 1:b])
            sel = defs_order if looped else defs_order[:cnt]
            parts = []
            for kind, idx in sel:
                if kind == "r":
                    # locals hold the unsigned form; the register file is
                    # signed, so exits convert back
                    parts.append(f"regs[{idx}] = r{idx} - 4294967296 "
                                 f"if r{idx} & 2147483648 else r{idx}")
                elif kind == "f":
                    parts.append(f"fregs[{idx}] = f{idx}")
                else:
                    parts.append("M.fp_cond = fc")
            wb = "; ".join(parts)
            text = text[:a] + (wb + "; " if wb else "") + text[b + 1:]
        return text

    def event(q: int, taken, count: str) -> str:
        """Append the event of the branch at *q*: *taken* is a constant
        outcome or the name of the local holding it; *count* the
        retired-count expression (unused in count mode)."""
        if not counting:
            return f"pend((I[{q}], {taken}, {count}))"
        if isinstance(taken, bool):
            return f"pend({2 * q + (not taken)})"
        return f"pend({2 * q} if {taken} else {2 * q + 1})"

    def marker(b0: str, iterations: str, stride) -> list[str]:
        """Append a run marker: *iterations* completed all-assumed
        iterations of *stride* instructions from retired count *b0*."""
        if counting:
            return [f"pend({loop_id})", f"pend(~({iterations}))"]
        return [f"pend((None, RT, {b0}, {iterations}, {stride}))"]

    def _partials(upto: int) -> list[str]:
        """Event appends for the assumed-path branches before assumed-event
        index *upto* in the current iteration; their counts are static
        offsets from ``base`` (on the assumed path the runtime ``ex``
        equals the static assumed skip at every point)."""
        return [event(q, a, f"base + {ke}")
                for q, ke, a in assumed_events[:upto]]

    def render_branch(text: str, mode: str, dyn_: bool,
                      length: int, slen: int) -> str | None:
        """Resolve the branch markers; ``None`` drops the line entirely.

        ``flat`` (straight-line) blocks record each branch event as it
        executes (``\\x02`` markers).  Looped blocks — ``rle`` when every
        iteration is statically identical, ``runs`` when folds make paths
        diverge — drop the per-iteration recording for assumed-path
        branches and reconstruct events at the side exit (``\\x04``
        marker): one run marker for the completed all-assumed iterations,
        the assumed outcomes of earlier branches in the current iteration,
        then the exiting branch's actual outcome.  Branches inside a fold
        tail run *after* the divergence point already flushed the run and
        the current iteration's earlier events, so they render flat."""
        if text.startswith("\x02"):
            m = int(text[1:text.index("\x02", 1)])
            p, K, cond, assume_taken, _side, ae, in_tail = branches[m]
            compressed = mode != "flat" and not in_tail
            # a site after the first fold can execute with the current
            # iteration already diverged (``im`` set): the run no longer
            # covers this iteration, so its event must be pended live
            post = compressed and folds and ae > folds[0][3]
            kind = text[text.index("\x02", 1) + 1]
            if kind == "t":  # the test
                if compressed and not post:
                    neg = "not " if assume_taken else ""
                    return f"if {neg}({cond}):"
                return f"t = {cond}"
            if kind == "p":  # the event append
                if compressed:
                    if post:
                        return "if im: " + event(p, "t", f"base + {K} - ex")
                    return None
                c = f"base + {K} - ex" if dyn_ else f"base + {K}"
                return event(p, "t", c)
            # kind == "i": the side-exit guard
            if compressed and not post:
                return None
            return "if not t:" if assume_taken else "if t:"
        if "\x04" in text:  # the side-exit body
            a = text.index("\x04")
            b = text.index("\x04", a + 1)
            m = int(text[a + 1:b])
            p, K, _cond, assumed, _side, ae, in_tail = branches[m]
            if mode == "flat" or in_tail:
                # the event was already pended above (or at the divergence)
                return text[:a] + text[b + 1:]
            ke = assumed_events[ae][1]
            if mode == "runs" and folds and ae > folds[0][3]:
                # post-fold exit: in a diverged iteration everything up to
                # and including this branch was already pended live; on
                # the pure path flush the run, replay the iteration's
                # assumed events, then this branch's actual outcome
                exprs = marker("rb0", "runs", slen)
                exprs += _partials(ae)
                exprs.append(event(p, not assumed, f"base + {K} - ex"))
                joined = ", ".join(exprs)
                return text[:a] + f"im or ({joined},); " + text[b + 1:]
            if mode == "rle":
                parts = marker("b0", f"(base - b0) // {length}", length)
            else:  # runs-compressed: the counter tracks completed runs
                parts = marker("rb0", "runs", slen)
            parts += _partials(ae)
            parts.append(event(p, not assumed, f"base + {ke}"))
            return text[:a] + "; ".join(parts) + "; " + text[b + 1:]
        return text

    def render_fold(text: str, mode: str, slen: int) -> str | None:
        """Resolve a fold (``\\x07``) marker; ``None`` drops the line.

        ``p`` is the unconditional event append right after the fold's
        test: emitted for flat blocks, dropped under run compression.
        ``d`` is the divergence bookkeeping at the head of the fold's
        non-assumed suite: dropped for flat blocks; under run compression
        it flushes the completed run, replays the current iteration's
        assumed-path events, records this branch's actual (non-assumed)
        outcome, and flags the iteration impure (``im``) so the loop
        epilogue restarts the run after it."""
        f = int(text[1:text.index("\x07", 1)])
        p, K, assumed, ae = folds[f]
        kind = text[text.index("\x07", 1) + 1]
        if kind == "p":
            if mode == "runs":
                return None
            return event(p, "t", f"base + {K} - ex")
        if kind == "a":
            # assumed side of a fold after the first: if the iteration
            # already diverged, the template no longer covers this event
            if mode != "runs":
                return None
            return "im and " + event(p, assumed, f"base + {K} - ex")
        # kind == "d"
        if mode != "runs":
            return None
        ke = assumed_events[ae][1]
        if f > 0:
            # an earlier fold may already have diverged this iteration —
            # then everything up to here was pended live already
            exprs = marker("rb0", "runs", slen)
            exprs += _partials(ae)
            joined = ", ".join(exprs)
            parts = [f"im or ({joined},)",
                     event(p, not assumed, f"base + {K} - ex"),
                     "im = 1", "runs = 0"]
            return "; ".join(parts)
        parts = marker("rb0", "runs", slen) + ["runs = 0", "im = 1"]
        parts += _partials(ae)
        parts.append(event(p, not assumed, f"base + {ke}"))
        return "; ".join(parts)

    def indirect(q: int, K: int) -> str:
        """Append the indirect-jump event of the instruction at *q*."""
        if counting:
            return f"pend({2 * n + q})"
        return f"pend((I[{q}], None, {cnt(K)}))"

    def emit_exit(out, k_lines, indent, target, executed):
        ret = f"return {target}, {cnt(executed)}"
        out.append((indent + writeback() + ret, k_lines))

    def addr_expr(rs, imm, out, k):
        """Address operand: reuse the register local (or a folded literal)
        directly for zero displacements, else compute the usual temp."""
        u = use_r(rs)
        if imm == 0:
            return u
        c = const.get(rs)
        if c is not None:
            need_guard[0] = True
            return str(c + imm)
        out.append((f"a = {u} + {imm}", k))
        return "a"

    def emit_one(inst, p, k):
        """Emit code for one instruction; return the next pc index to
        extend the block with, ``"terminal"``, or ``"branch"`` (handled by
        the caller).  Raises :class:`_Truncate` when uncompilable.

        Integer register locals hold the *unsigned* 32-bit value (entry
        loads mask, exits sign-convert back), which makes most ALU ops a
        single arithmetic expression: bitwise ops, right shifts, ``sltu``
        and addresses need no wrap at all, and signed comparisons map to
        unsigned ones by flipping the sign bit (``x ^ 0x80000000``
        order-preserves two's complement)."""
        out = []
        name = inst.op.name
        K = k + 1

        if name in ("addiu", "addi"):
            rs, rt, imm = _need_int(inst.rs, inst.rt, inst.imm)
            c = const.get(rs)
            if c is not None:
                need_guard[0] = True
                v = (c + imm) & _M32
                out.append((f"{def_r(rt, v)} = {v}", k))
            elif imm == 0:
                u = use_r(rs)
                out.append((f"{def_r(rt)} = {u}", k))
            else:
                u = use_r(rs)
                out.append((f"{def_r(rt)} = ({u} + {imm}) & 4294967295", k))
        elif name == "lw":
            rs, rt, imm = _need_int(inst.rs, inst.rt, inst.imm)
            A = addr_expr(rs, imm, out, k)
            out.append((f"pg = PG({A} >> 12)", k))
            out.append((f"if pg is None or {A} & 3:", k))
            out.append((f" {def_r(rt)} = lw({A}) & 4294967295", k))
            out.append(("else:", k))
            out.append((f" r{rt} = UW(pg, {A} & 4095)[0]", k))
        elif name == "sw":
            rs, rt, imm = _need_int(inst.rs, inst.rt, inst.imm)
            A = addr_expr(rs, imm, out, k)
            u = use_r(rt)
            out.append((f"pg = PG({A} >> 12)", k))
            out.append((f"if pg is None or {A} & 3:", k))
            out.append((f" sw({A}, {u})", k))
            out.append(("else:", k))
            out.append((f" P4(pg, {A} & 4095, {u})", k))
        elif name in ("addu", "add"):
            rd, rs, rt = _need_int(inst.rd, inst.rs, inst.rt)
            ca, cb = const.get(rs), const.get(rt)
            if ca is not None and cb is not None:
                need_guard[0] = True
                v = (ca + cb) & _M32
                out.append((f"{def_r(rd, v)} = {v}", k))
            else:
                ua, ub = use_r(rs), use_r(rt)
                out.append((f"{def_r(rd)} = ({ua} + {ub}) & 4294967295", k))
        elif name in ("sub", "subu"):
            rd, rs, rt = _need_int(inst.rd, inst.rs, inst.rt)
            ua, ub = use_r(rs), use_r(rt)
            out.append((f"{def_r(rd)} = ({ua} - {ub}) & 4294967295", k))
        elif name == "mul":
            rd, rs, rt = _need_int(inst.rd, inst.rs, inst.rt)
            ua, ub = use_r(rs), use_r(rt)
            out.append((f"{def_r(rd)} = ({ua} * {ub}) & 4294967295", k))
        elif name in ("div", "rem"):
            rd, rs, rt = _need_int(inst.rd, inst.rs, inst.rt)
            what = "division" if name == "div" else "remainder"
            ua, ub = use_r(rs), use_r(rt)
            out.append((f"if {ub} == 0: raise SimulationError("
                        f"'integer {what} by zero at 0x{inst.address:x}')",
                        k))
            out.append((f"sa = {ua} - 4294967296 "
                        f"if {ua} & 2147483648 else {ua}", k))
            out.append((f"sb_ = {ub} - 4294967296 "
                        f"if {ub} & 2147483648 else {ub}", k))
            out.append(("t = abs(sa) // abs(sb_)", k))
            out.append(("if (sa < 0) != (sb_ < 0): t = -t", k))
            if name == "div":
                out.append((f"{def_r(rd)} = t & 4294967295", k))
            else:
                out.append((f"{def_r(rd)} = (sa - sb_ * t) & 4294967295", k))
        elif name == "slt":
            rd, rs, rt = _need_int(inst.rd, inst.rs, inst.rt)
            ua, ub = use_r(rs), use_r(rt)
            out.append((f"{def_r(rd)} = 1 if ({ua} ^ 2147483648) < "
                        f"({ub} ^ 2147483648) else 0", k))
        elif name == "slti":
            rs, rt, imm = _need_int(inst.rs, inst.rt, inst.imm)
            flipped = (imm & _M32) ^ 0x8000_0000
            u = use_r(rs)
            out.append((f"{def_r(rt)} = 1 if ({u} ^ 2147483648) < "
                        f"{flipped} else 0", k))
        elif name == "sltu":
            rd, rs, rt = _need_int(inst.rd, inst.rs, inst.rt)
            ua, ub = use_r(rs), use_r(rt)
            out.append((f"{def_r(rd)} = 1 if {ua} < {ub} else 0", k))
        elif name == "sltiu":
            rs, rt, imm = _need_int(inst.rs, inst.rt, inst.imm)
            u = use_r(rs)
            out.append((f"{def_r(rt)} = 1 if {u} < {imm & _M32} else 0", k))
        elif name == "and":
            rd, rs, rt = _need_int(inst.rd, inst.rs, inst.rt)
            ua, ub = use_r(rs), use_r(rt)
            out.append((f"{def_r(rd)} = {ua} & {ub}", k))
        elif name == "or":
            rd, rs, rt = _need_int(inst.rd, inst.rs, inst.rt)
            ca, cb = const.get(rs), const.get(rt)
            if ca is not None and cb is not None:
                need_guard[0] = True
                v = ca | cb
                out.append((f"{def_r(rd, v)} = {v}", k))
            else:
                ua, ub = use_r(rs), use_r(rt)
                out.append((f"{def_r(rd)} = {ua} | {ub}", k))
        elif name == "xor":
            rd, rs, rt = _need_int(inst.rd, inst.rs, inst.rt)
            ua, ub = use_r(rs), use_r(rt)
            out.append((f"{def_r(rd)} = {ua} ^ {ub}", k))
        elif name == "nor":
            rd, rs, rt = _need_int(inst.rd, inst.rs, inst.rt)
            ua, ub = use_r(rs), use_r(rt)
            out.append((f"{def_r(rd)} = ({ua} | {ub}) ^ 4294967295", k))
        elif name == "andi":
            rs, rt, imm = _need_int(inst.rs, inst.rt, inst.imm)
            u = use_r(rs)
            out.append((f"{def_r(rt)} = {u} & {imm & 0xFFFF}", k))
        elif name == "ori":
            rs, rt, imm = _need_int(inst.rs, inst.rt, inst.imm)
            c = const.get(rs)
            if c is not None:
                need_guard[0] = True
                v = c | (imm & 0xFFFF)
                out.append((f"{def_r(rt, v)} = {v}", k))
            else:
                u = use_r(rs)
                out.append((f"{def_r(rt)} = {u} | {imm & 0xFFFF}", k))
        elif name == "xori":
            rs, rt, imm = _need_int(inst.rs, inst.rt, inst.imm)
            u = use_r(rs)
            out.append((f"{def_r(rt)} = {u} ^ {imm & 0xFFFF}", k))
        elif name == "sll":
            rs, rt, imm = _need_int(inst.rs, inst.rt, inst.imm)
            s = imm & 31
            c = const.get(rs)
            if c is not None:
                need_guard[0] = True
                v = (c << s) & _M32
                out.append((f"{def_r(rt, v)} = {v}", k))
            elif s == 0:
                u = use_r(rs)
                out.append((f"{def_r(rt)} = {u}", k))
            else:
                u = use_r(rs)
                out.append((f"{def_r(rt)} = ({u} << {s}) & 4294967295", k))
        elif name == "srl":
            rs, rt, imm = _need_int(inst.rs, inst.rt, inst.imm)
            u = use_r(rs)
            out.append((f"{def_r(rt)} = {u} >> {imm & 31}", k))
        elif name == "sra":
            rs, rt, imm = _need_int(inst.rs, inst.rt, inst.imm)
            s = imm & 31
            u = use_r(rs)
            if s == 0:
                out.append((f"{def_r(rt)} = {u}", k))
            else:
                fill = (_M32 >> s) ^ _M32
                out.append((f"{def_r(rt)} = {u} >> {s} | {fill} "
                            f"if {u} & 2147483648 else {u} >> {s}", k))
        elif name == "sllv":
            rd, rs, rt = _need_int(inst.rd, inst.rs, inst.rt)
            ua, ub = use_r(rs), use_r(rt)
            out.append((f"{def_r(rd)} = ({ua} << ({ub} & 31)) "
                        "& 4294967295", k))
        elif name == "srlv":
            rd, rs, rt = _need_int(inst.rd, inst.rs, inst.rt)
            ua, ub = use_r(rs), use_r(rt)
            out.append((f"{def_r(rd)} = {ua} >> ({ub} & 31)", k))
        elif name == "srav":
            rd, rs, rt = _need_int(inst.rd, inst.rs, inst.rt)
            ua, ub = use_r(rs), use_r(rt)
            out.append((f"s = {ub} & 31", k))
            out.append((f"{def_r(rd)} = {ua} >> s | "
                        f"((4294967295 >> s) ^ 4294967295) "
                        f"if {ua} & 2147483648 else {ua} >> s", k))
        elif name == "lui":
            rt, imm = _need_int(inst.rt, inst.imm)
            v = (imm & 0xFFFF) << 16
            out.append((f"{def_r(rt, v)} = {v}", k))
        elif name in ("lb", "lbu"):
            rs, rt, imm = _need_int(inst.rs, inst.rt, inst.imm)
            A = addr_expr(rs, imm, out, k)
            out.append((f"pg = PG({A} >> 12)", k))
            out.append(("if pg is None:", k))
            if name == "lb":
                out.append((f" {def_r(rt)} = lb({A}) & 4294967295", k))
                out.append(("else:", k))
                out.append((f" t = pg[{A} & 4095]", k))
                out.append((f" r{rt} = t | 4294967040 if t & 128 else t", k))
            else:
                out.append((f" {def_r(rt)} = lb({A}, False)", k))
                out.append(("else:", k))
                out.append((f" r{rt} = pg[{A} & 4095]", k))
        elif name == "sb":
            rs, rt, imm = _need_int(inst.rs, inst.rt, inst.imm)
            A = addr_expr(rs, imm, out, k)
            u = use_r(rt)
            out.append((f"pg = PG({A} >> 12)", k))
            out.append(("if pg is None:", k))
            out.append((f" sb({A}, {u})", k))
            out.append(("else:", k))
            out.append((f" pg[{A} & 4095] = {u} & 255", k))
        elif name == "ldc1":
            rs, ft, imm = _need_int(inst.rs, inst.ft, inst.imm)
            A = addr_expr(rs, imm, out, k)
            out.append((f"pg = PG({A} >> 12)", k))
            out.append((f"if pg is None or {A} & 7:", k))
            out.append((f" {def_f(ft)} = ld({A})", k))
            out.append(("else:", k))
            out.append((f" f{ft} = UD(pg, {A} & 4095)[0]", k))
        elif name == "sdc1":
            rs, ft, imm = _need_int(inst.rs, inst.ft, inst.imm)
            A = addr_expr(rs, imm, out, k)
            out.append((f"pg = PG({A} >> 12)", k))
            out.append((f"if pg is None or {A} & 7:", k))
            out.append((f" sd({A}, {use_f(ft)})", k))
            out.append(("else:", k))
            out.append((f" P8(pg, {A} & 4095, f{ft})", k))
        elif name == "add.d":
            fd, fs, ft = _need_int(inst.fd, inst.fs, inst.ft)
            out.append((f"{def_f(fd)} = {use_f(fs)} + {use_f(ft)}", k))
        elif name == "sub.d":
            fd, fs, ft = _need_int(inst.fd, inst.fs, inst.ft)
            out.append((f"{def_f(fd)} = {use_f(fs)} - {use_f(ft)}", k))
        elif name == "mul.d":
            fd, fs, ft = _need_int(inst.fd, inst.fs, inst.ft)
            out.append((f"{def_f(fd)} = {use_f(fs)} * {use_f(ft)}", k))
        elif name == "div.d":
            fd, fs, ft = _need_int(inst.fd, inst.fs, inst.ft)
            out.append((f"if {use_f(ft)} == 0.0: raise SimulationError("
                        f"'FP division by zero at 0x{inst.address:x}')", k))
            out.append((f"{def_f(fd)} = {use_f(fs)} / f{ft}", k))
        elif name == "neg.d":
            fd, fs = _need_int(inst.fd, inst.fs)
            out.append((f"{def_f(fd)} = -{use_f(fs)}", k))
        elif name == "abs.d":
            fd, fs = _need_int(inst.fd, inst.fs)
            out.append((f"{def_f(fd)} = abs({use_f(fs)})", k))
        elif name == "mov.d":
            fd, fs = _need_int(inst.fd, inst.fs)
            out.append((f"{def_f(fd)} = {use_f(fs)}", k))
        elif name == "sqrt.d":
            fd, fs = _need_int(inst.fd, inst.fs)
            out.append((f"if {use_f(fs)} < 0: raise SimulationError("
                        f"'sqrt of negative at 0x{inst.address:x}')", k))
            out.append((f"{def_f(fd)} = f{fs} ** 0.5", k))
        elif name == "c.eq.d":
            fs, ft = _need_int(inst.fs, inst.ft)
            out.append((f"{def_fc()} = {use_f(fs)} == {use_f(ft)}", k))
        elif name == "c.lt.d":
            fs, ft = _need_int(inst.fs, inst.ft)
            out.append((f"{def_fc()} = {use_f(fs)} < {use_f(ft)}", k))
        elif name == "c.le.d":
            fs, ft = _need_int(inst.fs, inst.ft)
            out.append((f"{def_fc()} = {use_f(fs)} <= {use_f(ft)}", k))
        elif name == "mtc1":
            fs, rt = _need_int(inst.fs, inst.rt)
            u = use_r(rt)
            out.append((f"{def_f(fs)} = float({u} - 4294967296 "
                        f"if {u} & 2147483648 else {u})", k))
        elif name == "mfc1":
            fs, rt = _need_int(inst.fs, inst.rt)
            out.append((f"{def_r(rt)} = int({use_f(fs)}) & 4294967295", k))
        elif name == "cvt.d.w":
            fd, fs = _need_int(inst.fd, inst.fs)
            out.append((f"{def_f(fd)} = float({use_f(fs)})", k))
        elif name == "cvt.w.d":
            fd, fs = _need_int(inst.fd, inst.fs)
            # truncate toward 0, matching the interpreter
            out.append((f"{def_f(fd)} = float(int({use_f(fs)}))", k))
        elif name == "nop":
            pass
        elif name == "j":
            (t,) = _need_int(tindex[p])
            body.extend(out)
            return t
        elif name == "jal":
            ra = TEXT_BASE + WORD_SIZE * (p + 1)
            (t,) = _need_int(tindex[p])
            # inline the call: $ra becomes a block constant, the shadow
            # call stack is maintained exactly as tier0 would, and the
            # matching `jr $ra` (if $ra survives the callee) continues the
            # trace at the return point — hot call-in-loop paths then close
            # back on the head and iterate in place
            out.append((f"{def_r(31, ra)} = {ra}", k))
            out.append((f"cs.append(({inst.address}, {inst.target_address}, "
                        f"{ra}))", k))
            body.extend(out)
            return t
        elif name == "jalr":
            rd, rs = _need_int(inst.rd, inst.rs)
            ra = TEXT_BASE + WORD_SIZE * (p + 1)
            u = use_r(rs)
            out.append((f"{writeback()}a = {u}", k))
            out.append((f"regs[{rd}] = {ra}", k))
            out.append((f"cs.append(({inst.address}, a, {ra}))", k))
            out.append((indirect(p, K), k))
            out.append((f"return (a - {TEXT_BASE}) // {WORD_SIZE}, "
                        f"{cnt(K)}", k))
            body.extend(out)
            return "terminal"
        elif name == "jr":
            (rs,) = _need_int(inst.rs)
            if rs == 31:
                ra = const.get(31)
                if ra is not None and (ra - TEXT_BASE) % WORD_SIZE == 0 \
                        and 0 <= (ra - TEXT_BASE) // WORD_SIZE < n:
                    # the return address is a block constant (set by an
                    # inlined jal and not clobbered by the callee): pop the
                    # shadow stack and continue the trace at the return
                    # point — the call disappears into the superblock
                    out.append(("if cs:", k))
                    out.append((" cs.pop()", k))
                    body.extend(out)
                    return (ra - TEXT_BASE) // WORD_SIZE
            u = use_r(rs)
            out.append((f"{writeback()}a = {u}", k))
            if rs == 31:
                out.append(("if cs:", k))
                out.append((" cs.pop()", k))
            else:
                out.append((indirect(p, K), k))
            out.append((f"return (a - {TEXT_BASE}) // {WORD_SIZE}, "
                        f"{cnt(K)}", k))
            body.extend(out)
            return "terminal"
        elif name == "syscall":
            out.append((f"{writeback()}t = M._syscall(I[{p}])", k))
            out.append(("if t:", k))
            out.append((f" return {p + 1}, {cnt(K)}", k))
            out.append((f"return {HALT_INDEX}, {cnt(K)}", k))
            body.extend(out)
            return "terminal"
        elif name in _BRANCH_COND:
            return "branch"
        else:
            raise _Truncate
        body.extend(out)
        return p + 1

    def _branch_cond(inst):
        """The Python test expression for a conditional branch."""
        name = inst.op.name
        if name in ("bc1t", "bc1f"):
            ref_fc[0] = True
            return _BRANCH_COND[name]
        if name in ("beq", "bne"):
            rs, rt = _need_int(inst.rs, inst.rt)
            return _BRANCH_COND[name].format(a=use_r(rs), b=use_r(rt))
        (rs,) = _need_int(inst.rs)
        return _BRANCH_COND[name].format(a=use_r(rs))

    def _emit_side_branch(inst, p, k, cond, in_tail=False):
        """Emit a conditional branch in side-exit form (the non-assumed
        direction leaves the block) and return the assumed continuation."""
        K = k + 1
        t_idx = tindex[p]
        (t_idx,) = _need_int(t_idx)
        fall = p + 1
        # the layout's predicted direction, else backward-taken/forward-
        # not-taken; any choice is exact (the other direction side-exits),
        # only the side-exit rate depends on it
        assume_taken = layout.get(inst.address)
        if assume_taken is None:
            assume_taken = 0 <= inst.target_address <= inst.address
        side = fall if assume_taken else t_idx
        m = len(branches)
        if in_tail:
            ae = -1  # post-divergence: not part of the assumed path
        else:
            ae = len(assumed_events)
            assumed_events.append((p, K - ex_asm[0], assume_taken))
        branches.append((p, K, cond, assume_taken, side, ae, in_tail))
        body.append((f"\x02{m}\x02t", k))
        body.append((f"\x02{m}\x02p", k))
        body.append((f"\x02{m}\x02i", k))
        body.append((f" SE[0] += 1; \x04{m}\x04{writeback()}"
                     f"return {side}, {cnt(K)}", k))
        return t_idx if assume_taken else fall

    def _arm_ok(lo, hi):
        """pcs ``lo..hi-1`` qualify as a diamond arm: short, in range, not
        yet in the block, and free of control flow."""
        if hi - lo > MAX_ARM_LEN:
            return False
        for q in range(lo, hi):
            if q in visited or not 0 <= q < n:
                return False
            nm = insts[q].op.name
            if nm in _TERMINAL or nm == "j" or nm in _BRANCH_COND:
                return False
        return True

    def _emit_arm(lo, hi):
        """Emit pcs ``lo..hi-1`` indented one level (inside an if/else
        suite), claiming their offsets/visited/prefix slots."""
        for q in range(lo, hi):
            kq = len(offsets)
            prefix_defs.append(tuple(defs_order))
            offsets.append(q)
            visited.add(q)
            mk = len(body)
            if emit_one(insts[q], q, kq) != q + 1:
                raise _Truncate  # pragma: no cover - pre-screened by _arm_ok
            for i in range(mk, len(body)):
                body[i] = (" " + body[i][0], body[i][1])

    def _fold_rejoin(p2):
        """Mini-formation of a loop-rejoin path, emitted one level deep
        (inside an else-suite): follow the path — simple ops, direct
        jumps/calls, conditional branches in side-exit form — until it
        reaches the block head.  Anything else (indirects, syscalls,
        revisits, the length cap) raises :class:`_Truncate` so the caller
        abandons the fold."""
        while p2 != head:
            if p2 in visited or not 0 <= p2 < n \
                    or len(offsets) >= MAX_BLOCK_LEN:
                raise _Truncate
            inst2 = insts[p2]
            nm = inst2.op.name
            if nm in ("jalr", "syscall"):
                raise _Truncate
            kq = len(offsets)
            prefix_defs.append(tuple(defs_order))
            offsets.append(p2)
            visited.add(p2)
            mk = len(body)
            if nm in _BRANCH_COND:
                p2 = _emit_side_branch(inst2, p2, kq, _branch_cond(inst2),
                                       in_tail=True)
            else:
                p2 = emit_one(inst2, p2, kq)
                if type(p2) is not int:
                    raise _Truncate
            for i in range(mk, len(body)):
                body[i] = (" " + body[i][0], body[i][1])

    def try_diamond(inst, p, k, cond):
        """Fold a forward if/else (or if-then hammock) into the block.

        Both successor paths are compiled under a runtime test instead of
        making the non-assumed one a side exit; the runtime skip counter
        ``ex`` keeps retired counts exact (offsets of the untaken arm are
        skipped).  The branch event is recorded per execution with its
        actual outcome, which forces the block out of run-marker (RLE)
        event mode — worth it exactly when the branch alternates, the case
        that otherwise side-exits every few iterations.  Returns the join
        pc to continue formation at, or ``None`` (no foldable shape, or an
        arm instruction turned out uncompilable)."""
        t_idx = tindex[p]
        if type(t_idx) is not int:
            return None
        fall = p + 1
        K = k + 1
        if t_idx <= p:
            # backward branch: fold the *loop tail* — when the target is
            # the block's own head and the fall-through path eventually
            # rejoins it (a `continue`-style loop, possibly through an
            # outer backedge and nested side-exiting branches), both
            # outcomes continue the loop instead of side-exiting every
            # time the tail runs
            if t_idx != head:
                return None
            s_body, s_off = len(body), len(offsets)
            s_pref, s_defs = len(prefix_defs), len(defs_order)
            s_branches, s_ae = len(branches), len(assumed_events)
            s_folds = len(folds)
            s_const = dict(const)
            f = len(folds)
            ae = len(assumed_events)
            assumed_events.append((p, K - ex_asm[0], True))
            folds.append((p, K, True, ae))
            try:
                body.append((f"t = {cond}", k))
                body.append((f"\x07{f}\x07p", k))
                body.append(("if t:", k))
                if f > 0:
                    body.append((f" \x07{f}\x07a", k))
                bump = len(body)
                body.append((" ex += 0", k))  # patched once the tail is laid
                body.append(("else:", k))
                body.append((f" \x07{f}\x07d", k))
                c_entry = dict(const)
                _fold_rejoin(fall)
                # taking the backedge skips every tail slot; the tail path
                # itself runs them all, so its own ex stays untouched
                body[bump] = (f" ex += {len(offsets) - (k + 1)}", k)
                merged = {r: v for r, v in c_entry.items()
                          if const.get(r) == v}
            except _Truncate:
                del body[s_body:]
                for pc_ in offsets[s_off:]:
                    visited.discard(pc_)
                del offsets[s_off:]
                del prefix_defs[s_pref:]
                defs_set.difference_update(defs_order[s_defs:])
                del defs_order[s_defs:]
                del branches[s_branches:]
                del assumed_events[s_ae:]
                del folds[s_folds:]
                const.clear()
                const.update(s_const)
                return None
            const.clear()
            const.update(merged)
            dyn[0] = True
            # the assumed (taken) direction skips the whole tail
            ex_asm[0] += len(offsets) - (k + 1)
            return head
        q = t_idx - 1  # candidate arm-terminating `j` of an if/else
        if 0 <= q < n and insts[q].op.name == "j" and type(tindex[q]) is int \
                and tindex[q] > t_idx and q not in visited \
                and _arm_ok(fall, q) and _arm_ok(t_idx, tindex[q]):
            join = tindex[q]
            then_len = q - fall           # fall-through arm, its `j` apart
            else_len = join - t_idx       # taken arm
            total = then_len + 1 + else_len
        elif t_idx - fall >= 1 and _arm_ok(fall, t_idx):
            join = t_idx
            then_len = t_idx - fall       # fall-through arm; taken skips it
            else_len = -1                 # sentinel: hammock, no else arm
            total = then_len
        else:
            return None
        if len(offsets) + total + 2 > MAX_BLOCK_LEN:
            return None
        s_body, s_off = len(body), len(offsets)
        s_pref, s_defs = len(prefix_defs), len(defs_order)
        s_ae, s_folds = len(assumed_events), len(folds)
        s_const = dict(const)
        f = len(folds)
        ae = len(assumed_events)
        # forward branch: the assumed (not-taken) direction runs the
        # fall-through arm
        assumed_events.append((p, K - ex_asm[0], False))
        folds.append((p, K, False, ae))
        try:
            body.append((f"t = {cond}", k))
            body.append((f"\x07{f}\x07p", k))
            if else_len < 0:
                # hammock: taken skips the fall-through arm
                body.append(("if t:", k))
                body.append((f" \x07{f}\x07d", k))
                body.append((f" ex += {then_len}", k))
                body.append(("else:", k))
                if f > 0:
                    body.append((f" \x07{f}\x07a", k))
                c_entry = dict(const)
                mk = len(body)
                _emit_arm(fall, t_idx)
                if len(body) == mk:  # all-nop arm: keep the suite valid
                    body.append((" pass", None))
                c_arm = const
                merged = {r: v for r, v in c_entry.items()
                          if c_arm.get(r) == v}
            else:
                # if/else: the *taken* (else) arm claims the offset slots
                # right after the branch, then the fall-through arm and its
                # terminating `j`; each path's ex bump skips the other's
                # slots (before its own arm on the fall path, after it on
                # the taken path — so a mid-arm fault sees the right ex)
                body.append(("if t:", k))
                body.append((f" \x07{f}\x07d", k))
                c_entry = dict(const)
                _emit_arm(t_idx, join)
                body.append((f" ex += {then_len + 1}", k))
                c_else = dict(const)
                const.clear()
                const.update(c_entry)
                body.append(("else:", k))
                if f > 0:
                    body.append((f" \x07{f}\x07a", k))
                body.append((f" ex += {else_len}", k))
                _emit_arm(fall, q)
                # the arm's `j` occupies a count slot but emits no code
                prefix_defs.append(tuple(defs_order))
                offsets.append(q)
                visited.add(q)
                merged = {r: v for r, v in c_else.items()
                          if const.get(r) == v}
        except _Truncate:
            del body[s_body:]
            for pc_ in offsets[s_off:]:
                visited.discard(pc_)
            del offsets[s_off:]
            del prefix_defs[s_pref:]
            defs_set.difference_update(defs_order[s_defs:])
            del defs_order[s_defs:]
            del assumed_events[s_ae:]
            del folds[s_folds:]
            const.clear()
            const.update(s_const)
            return None
        # only constants that survive *both* paths stay folded
        const.clear()
        const.update(merged)
        dyn[0] = True
        if else_len >= 0:
            # the assumed (fall) direction skips the taken arm's slots
            ex_asm[0] += else_len
        return join

    def emit_branch(inst, p, k):
        """Emit a conditional branch and return the assumed continuation pc.

        The non-assumed direction becomes a side exit; if the assumed
        continuation turns out to be unusable (already in the block, out
        of range, length cap) the main loop closes the block with a plain
        exit to it, so a loop-closing backward branch keeps its hot
        direction off the side-exit path.

        The concrete shape (test + event + guard) is decided at assembly
        time via the ``\\x02``/``\\x03``/``\\x04`` markers — see
        :func:`render_branch` — because whether the block loops is only
        known once formation completes."""
        cond = _branch_cond(inst)
        nxt = try_diamond(inst, p, k, cond)
        if nxt is not None:
            return nxt
        return _emit_side_branch(inst, p, k, cond)

    p = head
    looped = False
    while True:
        if p == head and offsets:
            # the assumed path closed back on the head: hot inner loops
            # iterate in place (see the module docstring for the budget
            # contract encoded in the for-range driver below)
            looped = True
            break
        if len(offsets) >= MAX_BLOCK_LEN or p in visited or not 0 <= p < n:
            emit_exit(body, None, "", p, len(offsets))
            break
        inst = insts[p]
        k = len(offsets)
        mark_defs = len(defs_order)
        mark_branches = len(branches)
        mark_ae, mark_folds = len(assumed_events), len(folds)
        const_before = dict(const)
        prefix_defs.append(tuple(defs_order))
        offsets.append(p)
        visited.add(p)
        mark = len(body)
        try:
            nxt = emit_one(inst, p, k)
            if nxt == "branch":
                nxt = emit_branch(inst, p, k)
        except _Truncate:
            del body[mark:]
            defs_set.difference_update(defs_order[mark_defs:])
            del defs_order[mark_defs:]
            del branches[mark_branches:]
            del assumed_events[mark_ae:]
            del folds[mark_folds:]
            const.clear()
            const.update(const_before)
            prefix_defs.pop()
            offsets.pop()
            visited.discard(p)
            if not offsets:
                return None
            emit_exit(body, None, "", p, len(offsets))
            break
        if nxt == "terminal":
            break
        p = nxt

    # -- assemble and compile ------------------------------------------------
    # Out-of-range register numbers (corrupted operands) must fault at the
    # offending instruction with interpreter-identical errors, not at block
    # entry: refuse the block and let the engine single-step it.
    if any(not 0 <= i < 32 for i in ref_r) or \
            any(not 0 <= i < 32 for i in ref_f):
        return None
    length = len(offsets)
    entry = []
    loads = [f"r{i} = regs[{i}] & 4294967295" for i in sorted(ref_r)]
    loads += [f"f{i} = fregs[{i}]" for i in sorted(ref_f)]
    if ref_fc[0]:
        loads.append("fc = M.fp_cond")
    for j in range(0, len(loads), 8):
        entry.append("; ".join(loads[j:j + 8]))

    header = ("def _b(base, stop, regs=RG, fregs=FG, pend=PD, cs=CS, I=IN, "
              "SE=SEC, lw=LW, sw=SW, lb=LB, sb=SB, ld=LD, sd=SD, M=MM, "
              "PG=PG_, UW=UW_, P4=P4_, UD=UD_, P8=P8_, RT=RT_, "
              "SimulationError=ERR):")
    lines = [header]
    line_map: dict[int, int] = {}
    if need_guard[0]:
        # the constant fold assumed regs[0] == 0; bounce (zero progress)
        # to the interpreter in the pathological case where it isn't
        lines.append(f" if regs[0]: return {head}, base")
    for text in entry:
        lines.append(" " + text)
    indent = " "
    slen = length - ex_asm[0]
    if looped:
        mode = "rle" if not dyn[0] else "runs"
    else:
        mode = "flat"
    if mode == "rle":
        # whole-iteration driver: at least one iteration (the engine's
        # entry guard proved it fits the fuel limit), then as many more as
        # fit the *stop* budget
        lines.append(" b0 = base")
        lines.append(f" end = stop - {length - 1}")
        lines.append(" if end <= base: end = base + 1")
        lines.append(f" for base in range(b0, end, {length}):")
        indent = "  "
    elif mode == "runs":
        # fold loop: iterations retire a path-dependent count, so the
        # stride is applied explicitly (length minus the skipped offsets).
        # `runs` counts consecutive all-assumed iterations since `rb0` —
        # they pend nothing and are flushed as one run marker at the next
        # divergence or exit; `im` flags an iteration that diverged (its
        # events were pended exactly) so the epilogue restarts the run.
        lines.append(" rb0 = base; runs = 0; im = 0")
        lines.append(" while True:")
        lines.append("  ex = 0")
        indent = "  "
    elif dyn[0]:
        lines.append(" ex = 0")
    for text, k in body:
        # lines emitted inside a fold suite carry their own leading
        # indent; strip it so the marker renders see a clean prefix
        stripped = text.lstrip(" ")
        pad = text[:len(text) - len(stripped)]
        if stripped.startswith("\x07"):
            stripped = render_fold(stripped, mode, slen)
        else:
            stripped = render_branch(stripped, mode, dyn[0], length, slen)
        if stripped is None:
            continue
        lines.append(indent + pad +
                     render_cnt(render_writeback(stripped, looped), dyn[0]))
        if k is not None:
            line_map[len(lines)] = k
    if mode == "rle":
        # range exhausted: the iteration at `base` completed — record the
        # whole run and hand the head back to the engine for housekeeping
        lines.extend(" " + part for part in marker(
            "b0", f"(base - b0) // {length} + 1", length))
        lines.append(" " + render_writeback(writeback(), True) +
                     f"return {head}, base + {length}")
    elif mode == "runs":
        # iteration complete: advance by what actually retired; a pure
        # (all-assumed) iteration extends the run, a diverged one already
        # pended its events and restarts the run after itself.  Run again
        # only if a whole worst-case iteration still fits the budget.
        lines.append(f"  base += {length} - ex")
        lines.append("  if im:")
        lines.append("   im = 0; rb0 = base")
        lines.append("  else:")
        lines.append("   runs += 1")
        lines.append(f"  if base + {length} > stop:")
        lines.extend("   " + part for part in marker("rb0", "runs", slen))
        lines.append("   " + render_writeback(writeback(), True) +
                     f"return {head}, base")

    head_addr = insts[head].address
    source = "\n".join(lines) + "\n"
    if looped:
        # In iterations after the first, locals for registers defined at
        # *later* offsets hold the previous iteration's (already-committed)
        # values, so fault recovery must write back the full def set, not
        # just the prefix.  In the first iteration those locals still hold
        # the entry-loaded values (defs are always entry-loaded because
        # def_r/def_f add to the ref sets), making the writeback a no-op.
        prefix = (tuple(defs_order),) * len(offsets)
    else:
        prefix = tuple(prefix_defs)
    spec = BlockSpec()
    spec.head = head
    spec.head_addr = head_addr
    spec.code = compile(source, f"<superblock 0x{head_addr:x}>", "exec")
    spec.max_len = length
    spec.offsets = tuple(offsets)
    spec.line_map = line_map
    spec.prefix_defs = prefix
    spec.looped = looped
    spec.iter_idx = tuple(
        (p, assumed, K) for p, K, assumed in assumed_events
    ) if looped else ()
    spec.slen = slen
    spec.loop_id = loop_id if counting else None
    return spec


class TraceCache:
    """Per-machine cache of compiled superblocks (immutable code, so blocks
    are never invalidated).  Hit/miss/side-exit counters feed the
    ``sim.tier1.*`` telemetry series.

    Formation and bytecode compilation go through the per-executable
    :class:`BlockSpec` cache, so a fresh machine over an already-traced
    executable (the common pipeline shape: one profiling pass per
    dataset) pays only a cheap re-bind per block
    instead of recompiling."""

    def __init__(self, machine):
        self.machine = machine
        self.blocks: dict[int, CompiledBlock] = {}
        self.code_map: dict = {}
        self.blacklist: set[int] = set()
        self.compiled = 0
        self._specs = _specs_for(machine.executable, machine.layout,
                                 machine._counting)

    def compile(self, head) -> CompiledBlock | None:
        if self.compiled >= MAX_BLOCKS or head in self.blacklist:
            return None
        specs = self._specs
        if head in specs:
            spec = specs[head]
        else:
            try:
                spec = _form_superblock(self.machine, head)
            except Exception:
                spec = None
            specs[head] = spec
        if spec is not None:
            try:
                block = _bind_block(spec, self.machine)
            except Exception:
                block = None
        else:
            block = None
        if block is None:
            self.blacklist.add(head)
            return None
        self.blocks[head] = block
        self.code_map[block.code] = block
        self.compiled += 1
        return block


def recover_block_fault(cache: TraceCache, exc: BaseException,
                        machine) -> tuple[int, int] | None:
    """Map a fault raised inside a compiled superblock back to the exact
    (pc_index, retired_count) and write the pre-fault register state back
    to the machine.  For looped blocks the branch events of the completed
    iterations (as one run marker) and of the partial final iteration are
    reconstructed into the pending-event list, exactly as tier0 would have
    recorded them.  Returns ``None`` if *exc* did not originate in one of
    *cache*'s blocks."""
    tb = exc.__traceback__
    hit = None
    while tb is not None:
        block = cache.code_map.get(tb.tb_frame.f_code)
        if block is not None:
            hit = (block, tb.tb_frame, tb.tb_lineno)
        tb = tb.tb_next
    if hit is None:
        return None
    block, frame, lineno = hit
    locs = frame.f_locals
    base = locs.get("base")
    if not isinstance(base, int):
        return None
    k = block.line_map.get(lineno)
    if k is None:
        # fault in the entry loads (should not happen): nothing executed
        return block.head, base
    # fold blocks skip the untaken arm's offsets; `ex` holds the skip
    ex = locs.get("ex")
    if type(ex) is not int:
        ex = 0
    if block.looped and block.iter_events:
        pending = machine._pending
        lid = block.loop_id

        def run(b0, iterations, stride):
            if lid is None:
                pending.append(
                    (None, block.iter_events, b0, iterations, stride))
            else:
                pending.append(lid)
                pending.append(~iterations)

        def partial(upto):
            for ev, assumed, K in block.iter_events:
                if K <= upto:
                    pending.append(ev if lid is not None
                                   else (ev, assumed, base + K))

        b0 = locs.get("b0")
        if isinstance(b0, int):
            # RLE loop: completed iterations derive from the range driver
            run(b0, (base - b0) // block.max_len, block.max_len)
            partial(k)
        else:
            # runs-compressed loop: the generated code tracks the run
            rb0, runs = locs.get("rb0"), locs.get("runs")
            if isinstance(rb0, int) and isinstance(runs, int):
                run(rb0, runs, block.slen)
                if not locs.get("im"):
                    # fault on the assumed path: replay its events up to
                    # the fault (a diverged iteration pended them already)
                    partial(k - ex)
    for kind, idx in block.prefix_defs[k]:
        if kind == "r":
            v = locs.get(f"r{idx}")
            if v is not None:
                # block locals hold the unsigned form; the register file
                # is signed
                machine.regs[idx] = v - 4294967296 \
                    if v & 2147483648 else v
        elif kind == "f":
            v = locs.get(f"f{idx}")
            if v is not None:
                machine.fregs[idx] = v
        else:
            v = locs.get("fc")
            if v is not None:
                machine.fp_cond = v
    return block.offsets[k], base + k + 1 - ex
