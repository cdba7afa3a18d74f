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
streams, and crash reports, in either instrumentation — per-branch
counters (count mode) or the ordered event stream (log mode), chosen
from the observers; ``Machine`` is the stable facade over them —
it owns all simulated state (registers, memory, syscalls, call-stack and
branch-history shadows) while the engines own only dispatch.

Arithmetic follows MIPS semantics: 32-bit two's-complement wraparound,
truncating division, logical/arithmetic shifts. Doubles are IEEE 754 via the
host.

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
from repro.sim.engine import create_engine, resolve_engine_name
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

_INT_MIN = -(1 << 31)
_WRAP = 1 << 32
_SIGN = 1 << 31


def _s32(value: int) -> int:
    """Wrap *value* to signed 32-bit."""
    value &= 0xFFFF_FFFF
    return value - _WRAP if value & _SIGN else value


#: Builtin exceptions that the dispatch loop converts into typed
#: :class:`SimulationError` internal faults (with crash report) instead of
#: letting them escape bare.
_INTERNAL_FAULTS = (KeyError, IndexError, ValueError, TypeError,
                    AttributeError, ZeroDivisionError, OverflowError,
                    struct.error)


class Observer:
    """Subscriber to execution events. Subclass and override what you need.

    A machine's runs record in one of two instrumentations (see
    :mod:`repro.sim.engine`), picked from the observers it is built
    with.  If every observer sets :attr:`takes_counts`, the runs are in
    *count mode*: they keep per-branch counters only and call
    :meth:`on_counts` once at run end.  Otherwise they are in *log
    mode*: the engines deliver the ordered events in *batches*
    (:meth:`on_events`) flushed at housekeeping ticks, superblock
    boundaries, faults, and run end.  The
    default :meth:`on_events` replays a batch through the per-event
    hooks, so subclasses overriding only :meth:`on_branch`/
    :meth:`on_indirect` keep working unchanged; throughput-sensitive
    observers override :meth:`on_events` instead.  Event order is always
    execution order, and the batch list is only valid for the duration
    of the call."""

    #: whether this observer needs only per-branch counts; a run whose
    #: observers all say so records in count mode
    takes_counts = False

    def on_branch(self, inst: Instruction, taken: bool, instr_count: int) -> None:
        """A conditional branch executed; *taken* is its outcome and
        *instr_count* the number of instructions executed so far (including
        this branch)."""

    def on_indirect(self, inst: Instruction, instr_count: int) -> None:
        """An indirect jump (non-return ``jr``) or indirect call (``jalr``)
        executed — always a break in control under any static predictor."""

    def on_events(self, events) -> None:
        """A batch of ``(inst, taken_or_None, instr_count)`` tuples in
        execution order; ``taken is None`` marks an indirect event.
        Tier-1 run markers (``inst is None``: the completed iterations
        of a looped superblock, see :mod:`repro.sim.traces`) are
        expanded here into the exact per-event calls tier0 would make,
        so subclasses overriding only the per-event hooks stay
        tier-agnostic."""
        for ev in events:
            inst = ev[0]
            if inst is None:
                _, template, base, iterations, length = ev
                for i in range(iterations):
                    count = base + i * length
                    for binst, taken, offset in template:
                        self.on_branch(binst, taken, count + offset)
                continue
            taken = ev[1]
            if taken is None:
                self.on_indirect(inst, ev[2])
            else:
                self.on_branch(inst, taken, ev[2])

    def on_counts(self, addresses: list[int], taken: list[int],
                  not_taken: list[int]) -> None:
        """Count mode only: the run's per-branch outcome counts, once at
        run end (also after a fault) — parallel lists over the branches
        that executed, in address order."""

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
        Event subscribers (edge profilers, sequence analyzers, tracers).
        They pick the run's instrumentation: count mode when every
        observer takes counts (:attr:`Observer.takes_counts`, as an
        :class:`~repro.sim.profile.EdgeProfile` does), else log mode —
        see :class:`Observer`.
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
        self.regs = [0] * 32
        self.fregs = [0.0] * 32
        self.fp_cond = False
        self.regs[28] = _s32(GP_VALUE)
        self.regs[29] = STACK_TOP & ~7
        self.regs[30] = self.regs[29]
        self.regs[31] = HALT_ADDRESS
        self.inputs = deque(inputs or [])
        self.observers = list(observers or [])
        #: whether this machine's runs record in count mode: every
        #: observer takes counts (vacuously so for none); fixed here,
        #: like the observers, so the engine decodes one event encoding
        self._counting = all(getattr(ob, "takes_counts", False)
                             for ob in self.observers)
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
        #: handlers and compiled superblocks: (inst, taken_or_None, count)
        #: tuples in log mode, integer ids in count mode
        self._pending: list = []
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
            registers=list(self.regs), fp_registers=list(self.fregs),
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
        service = self.regs[2]
        if service == 1:  # print_int
            self.output_parts.append(str(self.regs[4]))
        elif service == 3:  # print_double
            self.output_parts.append(repr(self.fregs[12]))
        elif service == 4:  # print_string
            self.output_parts.append(self.memory.load_cstring(_u32(self.regs[4])))
        elif service == 5:  # read_int
            if not self.inputs:
                raise InputExhausted(
                    f"read_int (syscall 5) starved at pc 0x{pc:x} after "
                    f"consuming {self._inputs_consumed} input values", pc=pc)
            self._inputs_consumed += 1
            self.regs[2] = _s32(int(self.inputs.popleft()))
        elif service == 7:  # read_double
            if not self.inputs:
                raise InputExhausted(
                    f"read_double (syscall 7) starved at pc 0x{pc:x} after "
                    f"consuming {self._inputs_consumed} input values", pc=pc)
            self._inputs_consumed += 1
            self.fregs[0] = float(self.inputs.popleft())
        elif service == 9:  # sbrk
            amount = self.regs[4]
            self.regs[2] = _s32(self._brk)
            self._brk = (self._brk + amount + 7) & ~7
        elif service == 10:  # exit
            self.exit_code = 0
            return False
        elif service == 11:  # print_char
            self.output_parts.append(chr(self.regs[4] & 0xFF))
        elif service == 17:  # exit with code
            self.exit_code = self.regs[4]
            return False
        else:
            raise SimulationError(
                f"unknown syscall {service} at pc 0x{pc:x}", pc=pc)
        return True


def _u32(value: int) -> int:
    """View a signed 32-bit value as unsigned."""
    return value & 0xFFFF_FFFF
