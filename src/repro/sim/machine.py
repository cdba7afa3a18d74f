"""The ISA simulator facade.

This is our stand-in for running a QPT-instrumented binary: instead of
rewriting the executable, the simulator raises events at exactly the points
QPT's instrumentation counted — conditional-branch outcomes (for edge
profiles) and breaks in control (for trace analysis). Observers implementing
:class:`Observer` subscribe to those events; execution itself has no timing
model (the paper measures prediction accuracy, not cycles).

Execution is tiered (see :mod:`repro.sim.engine`): the instruction stream
is pre-decoded once into per-opcode closures (:mod:`repro.sim.decode`,
"tier0"), and by default hot straight-line regions are further compiled
into fused superblock handlers (:mod:`repro.sim.traces`, "tier1") with
watchdog/telemetry/observer housekeeping batched at superblock boundaries.
Both tiers retire identical architectural state, output, branch-event
streams, and crash reports, recording one int per event that serves
both per-branch counters and the ordered stream; ``Machine`` is the
stable facade over them —
it owns all simulated state (registers, memory, syscalls, call-stack and
branch-history shadows) while the engines own only dispatch.

Arithmetic follows MIPS semantics: 32-bit two's-complement wraparound,
truncating division, logical/arithmetic shifts. Doubles are IEEE 754 via the
host.  The integer register file (``Machine._regs``) holds one format, the
unsigned 32-bit form ``value & 0xFFFF_FFFF``, which both tiers compute in,
so a superblock copies plain ints in and out.  A value reads as signed only
where it leaves the simulator: ``print_int``, the ``sbrk`` amount, the exit
code, and :attr:`Machine.regs`, the signed view that crash reports show.

Robustness: the simulator enforces two independent resource limits — an
instruction-fuel budget (:class:`SimulationLimitExceeded`) and an optional
wall-clock watchdog deadline (:class:`SimulationTimeout`, checked every
``watchdog_interval`` instructions) — and on *any* fault attaches a
:class:`~repro.errors.CrashReport` snapshot (pc, faulting instruction,
register file, call stack reconstructed from ``jal``/``jalr`` history, last
N branch outcomes) to the raised :class:`~repro.errors.ReproError`.
Unexpected builtin exceptions escaping the dispatch loop are converted into
:class:`SimulationError` so callers never see a bare ``KeyError``.
"""

from __future__ import annotations

import struct
from collections import deque
from collections.abc import Mapping
from itertools import islice
from dataclasses import dataclass, field
from time import perf_counter

from repro import telemetry as _telemetry
from repro.errors import (
    CallFrame, CrashReport, InputExhausted, MemoryError_, ReproError,
    SimulationError, SimulationLimitExceeded, SimulationTimeout,
)
from repro.isa.instructions import Instruction
from repro.isa.program import Executable, GP_VALUE, STACK_TOP, TEXT_BASE, WORD_SIZE
from repro.sim.decode import HALT_ADDRESS
from repro.sim.engine import (
    INDIRECT, TAKEN, create_engine, resolve_engine_name,
)
from repro.sim.memory import PAGE_SIZE, Memory

__all__ = [
    "Machine",
    "Observer",
    "ExitStatus",
    "SimulationError",
    "SimulationLimitExceeded",
    "SimulationTimeout",
    "InputExhausted",
    "CrashReport",
    "HALT_ADDRESS",
]

_M32 = 0xFFFF_FFFF
_SIGN = 1 << 31


def _s32(value: int) -> int:
    """Read a register's unsigned 32-bit *value* as signed."""
    return (value ^ _SIGN) - _SIGN


#: Builtin exceptions that the dispatch loop converts into typed
#: :class:`SimulationError` internal faults (with crash report) instead of
#: letting them escape bare.
_INTERNAL_FAULTS = (KeyError, IndexError, ValueError, TypeError,
                    AttributeError, ZeroDivisionError, OverflowError,
                    struct.error)


class Observer:
    """Subscriber to execution events. Subclass and override what you need.

    Every run records one int per event (see :mod:`repro.sim.engine`)
    and folds them into per-branch counts, which observers that set
    :attr:`takes_counts` get once at run end (:meth:`on_counts`).  Every
    other observer gets the ordered events in *batches*
    (:meth:`on_events`), decoded once per flush — at housekeeping ticks,
    superblock boundaries, faults, and run end.  The default
    :meth:`on_events` replays a batch through the per-event hooks, so
    subclasses overriding only :meth:`on_branch`/:meth:`on_indirect`
    see the exact Tier-0 stream; :class:`~repro.sim.trace.SequenceLog`
    keeps the batch's columns instead.  Event order is always execution
    order."""

    #: whether this observer needs only per-branch counts; a machine
    #: whose observers all say so records no instruction counts
    takes_counts = False

    def on_branch(self, inst: Instruction, taken: bool, instr_count: int) -> None:
        """A conditional branch executed; *taken* is its outcome and
        *instr_count* the number of instructions executed so far (including
        this branch)."""

    def on_indirect(self, inst: Instruction, instr_count: int) -> None:
        """An indirect jump (non-return ``jr``) or indirect call (``jalr``)
        executed — always a break in control under any static predictor."""

    def on_events(self, batch) -> None:
        """One flush's events (an :class:`~repro.sim.engine.EventBatch`),
        replayed through :meth:`on_branch` and :meth:`on_indirect`.  A
        run marker (the completed iterations of a looped superblock, see
        :mod:`repro.sim.traces`) expands through its template into the
        exact calls Tier 0 makes.  The engine calls this unbound on
        observers that define no ``on_events``."""
        insts = batch.insts
        events = zip(batch.index.tolist(), batch.kind.tolist(),
                     batch.count.tolist())
        done = 0
        # a zero-iteration marker at the end flushes the trailing events
        for pos, template, base, iterations, stride in (
                *batch.markers, (len(batch.kind), (), 0, 0, 0)):
            for i, kind, count in islice(events, pos - done):
                if kind == INDIRECT:
                    self.on_indirect(insts[i], count)
                else:
                    self.on_branch(insts[i], kind == TAKEN, count)
            done = pos
            for k in range(iterations):
                at = base + k * stride
                for inst, taken, offset in template:
                    self.on_branch(inst, taken, at + offset)

    def on_counts(self, addresses: list[int], taken: list[int],
                  not_taken: list[int]) -> None:
        """For observers that take counts: the run's per-branch outcome
        counts, once at run end (also after a fault) — parallel lists
        over the branches that executed, in address order."""

    def on_finish(self, instr_count: int) -> None:
        """Execution finished normally."""


@dataclass
class ExitStatus:
    """Result of a completed run."""

    exit_code: int
    instr_count: int
    dynamic_branches: int
    output: str
    machine: "Machine | None" = field(repr=False, default=None)


class Machine:
    """Simulator facade for a linked :class:`Executable`.

    Parameters
    ----------
    executable:
        The program to run.
    inputs:
        Values consumed, in order, by the ``read_int`` / ``read_double`` /
        ``read_char`` syscalls — this is how datasets are fed to benchmarks.
    observers:
        Event subscribers (edge profilers, sequence logs, tracers).
        Unless every observer takes counts
        (:attr:`Observer.takes_counts`, as an
        :class:`~repro.sim.profile.EdgeProfile` does), each recorded
        event carries its instruction count — see :class:`Observer`.
    max_instructions:
        Fuel limit; :class:`SimulationLimitExceeded` is raised beyond it.
    wall_clock_deadline:
        Optional watchdog budget in *seconds of wall time* for the whole
        run; :class:`SimulationTimeout` is raised once it passes. Checked
        every *watchdog_interval* instructions (tier1 may defer the check
        to the end of the current superblock, bounding overshoot by the
        block length cap on top of the interval).
    watchdog_interval:
        How many instructions between periodic housekeeping ticks
        (rounded down to a power of two).  The wall-clock deadline is
        checked at least this often; the hot-PC sampler may tighten the
        tick interval (see *pc_sample_interval*).
    max_memory_bytes:
        Optional cap on simulated memory actually allocated (rounded up to
        whole 4 KiB pages); :class:`~repro.errors.MemoryError_` beyond it.
    branch_history_limit:
        How many recent conditional-branch outcomes to keep for the crash
        report's ``branch_history`` ring.
    pc_sample_interval:
        Off by default (``None``).  When set to *N*, one pc sample is
        taken per *N* executed instructions (rounded down to a power of
        two) into ``hot_pc_samples`` — a statistical profile of where
        simulated execution time goes — and published to the telemetry
        sink as the ``sim.hot_pc`` labeled counter.  Tier1 attributes the
        samples of a superblock's instructions to the block's head pc.
    telemetry:
        Explicit telemetry sink override; default is the process-wide
        seam (:func:`repro.telemetry.get`), a no-op unless installed.
        The dispatch loop itself never calls the sink — per-run counters
        are accumulated as local integers and published once at the end
        of :meth:`run` (success or fault), keeping disabled-mode
        overhead on the hot loop at zero telemetry calls.
    engine:
        ``"tier0"`` (pre-decoded dispatch only) or ``"tier1"`` (adds the
        superblock trace cache).  ``None`` resolves via
        :func:`repro.sim.engine.resolve_engine_name`: the
        ``REPRO_CHAOS_FORCE_TIER0`` chaos seam, then ``REPRO_SIM_ENGINE``,
        then the default ``tier1``.
    layout:
        Optional map of conditional-branch address to "assume taken",
        typically the program's Ball–Larus prediction.  Tier 1 lays each
        superblock out along that direction at every branch it does not
        fold; ``None``, and any address the map lacks, fall back to
        backward-taken/forward-not-taken.  Only the side-exit rate
        depends on it — every observable is identical under any map —
        and Tier 0 ignores it.
    """

    def __init__(
        self,
        executable: Executable,
        inputs: list | None = None,
        observers: list[Observer] | None = None,
        max_instructions: int = 200_000_000,
        wall_clock_deadline: float | None = None,
        watchdog_interval: int = 16384,
        max_memory_bytes: int | None = None,
        branch_history_limit: int = 32,
        pc_sample_interval: int | None = None,
        telemetry: "_telemetry.Telemetry | None" = None,
        engine: str | None = None,
        layout: Mapping[int, bool] | None = None,
    ) -> None:
        self.executable = executable
        self.layout = layout
        max_pages = None
        if max_memory_bytes is not None:
            max_pages = max(1, -(-max_memory_bytes // PAGE_SIZE))
        self.memory = Memory(max_pages=max_pages)
        if executable.data:
            self.memory.write_bytes(0x1000_0000, executable.data)
        #: the integer register file, each value in unsigned 32-bit form
        self._regs = regs = [0] * 32
        self.fregs = [0.0] * 32
        self.fp_cond = False
        regs[28] = GP_VALUE & _M32
        regs[29] = regs[30] = STACK_TOP & ~7
        regs[31] = HALT_ADDRESS
        self.inputs = deque(inputs or [])
        self.observers = list(observers or [])
        #: ``S`` of the event encoding ``count * S + id`` (see
        #: :mod:`repro.sim.engine`): 0 when every observer takes counts
        #: (vacuously so for none), else a power of two above every id;
        #: fixed here, like the observers
        self._count_scale = 0 if all(
            getattr(ob, "takes_counts", False) for ob in self.observers
        ) else 1 << (4 * len(executable.instructions)).bit_length()
        self.max_instructions = max_instructions
        self.wall_clock_deadline = wall_clock_deadline
        self.telemetry = telemetry if telemetry is not None \
            else _telemetry.get()
        self.engine = resolve_engine_name(engine)
        # housekeeping ticks happen when (count & mask) == 0; force the
        # interval to a power of two.  The hot-PC sampler shares the tick,
        # so an enabled sampler tightens the interval to its own period.
        interval = max(1, watchdog_interval)
        self.pc_sample_interval = pc_sample_interval
        if pc_sample_interval is not None:
            interval = min(interval, max(1, pc_sample_interval))
        self._tick_mask = (1 << (interval.bit_length() - 1)) - 1
        #: sampled pc -> sample count (only populated when
        #: *pc_sample_interval* is set)
        self.hot_pc_samples: dict[int, int] = {}
        self.watchdog_ticks = 0
        self.syscall_count = 0
        self.output_parts: list[str] = []
        self.instr_count = 0
        self.dynamic_branches = 0
        self.exit_code = 0
        self._inputs_consumed = 0
        self._fault_pc = -1
        #: (call_site_addr, callee_addr, return_addr) — best-effort shadow
        #: stack maintained from jal/jalr/jr-$ra history for crash reports.
        self._call_stack: list[tuple[int, int, int]] = []
        #: ring of recent (branch_address, taken) outcomes for crash reports
        self._branch_history: deque[tuple[int, bool]] = deque(
            maxlen=max(1, branch_history_limit))
        #: batched events awaiting a flush, shared by the pre-decoded
        #: handlers and compiled superblocks: one int per event
        self._pending: list[int] = []
        #: shared mutable counter cell bumped by superblock side exits
        self._side_exit_cell = [0]
        self._brk = executable.heap_start
        self._insts = executable.instructions
        # precomputed branch/jump target indices
        self._tindex = [
            (i.target_address - TEXT_BASE) // WORD_SIZE if i.target_address >= 0
            else -1
            for i in self._insts
        ]
        self._engine_obj = None

    # -- public API --------------------------------------------------------------

    @property
    def output(self) -> str:
        """Everything the program printed so far."""
        return "".join(self.output_parts)

    @property
    def regs(self) -> list[int]:
        """The integer registers as signed 32-bit values (a fresh list)."""
        return [_s32(v) for v in self._regs]

    def run(self, entry: int | None = None) -> ExitStatus:
        """Execute from *entry* (default: the executable's entry point) until
        exit, and return an :class:`ExitStatus`.

        Any fault — typed or an unexpected builtin exception from the
        dispatch loop — surfaces as a :class:`~repro.errors.ReproError`
        carrying a :class:`~repro.errors.CrashReport` snapshot.
        """
        pc = ((entry if entry is not None else self.executable.entry)
              - TEXT_BASE) // WORD_SIZE
        try:
            return self._engine().run_loop(pc)
        except ReproError as exc:
            raise exc.attach_crash_report(self.crash_snapshot(self._fault_pc))
        except _INTERNAL_FAULTS as exc:
            fault = SimulationError(
                f"internal simulator fault: {type(exc).__name__}: {exc}")
            fault.attach_crash_report(self.crash_snapshot(self._fault_pc))
            raise fault from exc

    def _engine(self):
        """The lazily-created execution engine (decode happens here)."""
        eng = self._engine_obj
        if eng is None:
            eng = self._engine_obj = create_engine(self)
        return eng

    # -- engine accounting seam --------------------------------------------------

    def _finish_run(self, count: int, new_branches: int, ticks: int,
                    hot_pc: dict[int, int], start: tuple, faulted: bool,
                    tier_stats: dict | None = None) -> None:
        """Fold one run's engine-local accounting back into the machine and
        publish telemetry; called exactly once per run on both the success
        and the fault path."""
        start_count, start_branches, start_syscalls, start_wall = start
        self.instr_count = count
        self.dynamic_branches = start_branches + new_branches
        self.watchdog_ticks += ticks
        self._merge_samples(hot_pc)
        self._publish_telemetry(count - start_count, new_branches,
                                self.syscall_count - start_syscalls,
                                ticks, perf_counter() - start_wall,
                                hot_pc, faulted, tier_stats)

    def _exit_status(self, count: int) -> ExitStatus:
        return ExitStatus(self.exit_code, count, self.dynamic_branches,
                          self.output, self)

    def _merge_samples(self, hot_pc: dict[int, int]) -> None:
        """Fold one run's hot-PC samples into the machine-lifetime dict."""
        for addr, hits in hot_pc.items():
            self.hot_pc_samples[addr] = \
                self.hot_pc_samples.get(addr, 0) + hits

    def _publish_telemetry(self, executed: int, branches: int,
                           syscalls: int, ticks: int, elapsed: float,
                           hot_pc: dict[int, int], faulted: bool,
                           tier_stats: dict | None = None) -> None:
        """Flush this run's locally-accumulated counters to the sink.

        Called exactly once per :meth:`run` (on both the success and the
        fault path); a disabled sink returns immediately.
        """
        tm = self.telemetry
        if not tm.enabled:
            return
        tm.counter("sim.runs").inc()
        if faulted:
            tm.counter("sim.runs_faulted").inc()
        tm.counter("sim.instructions").inc(executed)
        tm.counter("sim.branches").inc(branches)
        tm.counter("sim.syscalls").inc(syscalls)
        tm.counter("sim.watchdog_ticks").inc(ticks)
        tm.gauge("sim.memory_pages").set(self.memory.pages_allocated)
        if elapsed > 0 and executed > 0:
            tm.gauge("sim.instructions_per_sec").set(executed / elapsed)
            tm.histogram("sim.run_instructions").observe(executed)
        if hot_pc:
            family = tm.labeled_counter("sim.hot_pc")
            for addr, hits in hot_pc.items():
                family.inc(f"0x{addr:x}", hits)
            tm.counter("sim.hot_pc_samples").inc(sum(hot_pc.values()))
        if tier_stats is not None:
            tm.counter("sim.tier1.superblocks_compiled").inc(
                tier_stats["compiled"])
            tm.counter("sim.tier1.superblocks_formed").inc(
                tier_stats["formed"])
            tm.counter("sim.tier1.trace_cache_hits").inc(tier_stats["hits"])
            tm.counter("sim.tier1.trace_cache_misses").inc(
                tier_stats["misses"])
            tm.counter("sim.tier1.side_exits").inc(tier_stats["side_exits"])
            residency = tier_stats["residency"]
            if residency:
                hist = tm.histogram("sim.tier1.superblock_residency")
                for length, times in residency.items():
                    hist.observe(length, times)

    # -- post-mortem -----------------------------------------------------------

    def crash_snapshot(self, pc_index: int = -1) -> CrashReport:
        """Snapshot the machine state for post-mortem debugging.

        *pc_index* is an index into the instruction list (``pc`` in the run
        loop); out-of-range values are reported as such rather than failing.
        """
        addr = TEXT_BASE + WORD_SIZE * pc_index
        if 0 <= pc_index < len(self._insts):
            inst = self._insts[pc_index]
            try:
                text = inst.render()
            except Exception:  # corrupted instruction: still report something
                text = f"<unrenderable {inst.op.name} instruction>"
        else:
            text = "<pc outside text segment>"
        frames = [CallFrame(self._proc_name(callee), call_site, ret)
                  for call_site, callee, ret in self._call_stack]
        return CrashReport(
            pc=addr, instruction=text, instr_count=self.instr_count,
            registers=self.regs, fp_registers=list(self.fregs),
            call_stack=frames, branch_history=list(self._branch_history),
            output_tail=self.output[-200:])

    def _proc_name(self, addr: int) -> str:
        """Resolve a text address to its procedure name (best effort)."""
        try:
            return self.executable.procedure_containing(addr).name
        except (IndexError, TypeError):
            return f"0x{addr:x}"

    # -- syscalls ------------------------------------------------------------

    def _syscall(self, inst: Instruction | None = None) -> bool:
        """Execute a syscall; return False to halt.

        *inst* (the ``syscall`` instruction itself) is used to name the
        faulting pc in error messages.
        """
        pc = inst.address if inst is not None else -1
        self.syscall_count += 1
        regs = self._regs
        service = regs[2]
        if service == 1:  # print_int
            self.output_parts.append(str(_s32(regs[4])))
        elif service == 3:  # print_double
            self.output_parts.append(repr(self.fregs[12]))
        elif service == 4:  # print_string
            self.output_parts.append(self.memory.load_cstring(regs[4]))
        elif service == 5:  # read_int
            if not self.inputs:
                raise InputExhausted(
                    f"read_int (syscall 5) starved at pc 0x{pc:x} after "
                    f"consuming {self._inputs_consumed} input values", pc=pc)
            self._inputs_consumed += 1
            regs[2] = int(self.inputs.popleft()) & _M32
        elif service == 7:  # read_double
            if not self.inputs:
                raise InputExhausted(
                    f"read_double (syscall 7) starved at pc 0x{pc:x} after "
                    f"consuming {self._inputs_consumed} input values", pc=pc)
            self._inputs_consumed += 1
            self.fregs[0] = float(self.inputs.popleft())
        elif service == 9:  # sbrk
            regs[2] = self._brk & _M32
            self._brk = (self._brk + _s32(regs[4]) + 7) & ~7
        elif service == 10:  # exit
            self.exit_code = 0
            return False
        elif service == 11:  # print_char
            self.output_parts.append(chr(regs[4] & 0xFF))
        elif service == 17:  # exit with code
            self.exit_code = _s32(regs[4])
            return False
        else:
            raise SimulationError(
                f"unknown syscall {_s32(service)} at pc 0x{pc:x}", pc=pc)
        return True
