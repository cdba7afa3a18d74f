"""Tiered execution engines behind the :class:`~repro.sim.Machine` facade.

Two engines share the pre-decoded handler table from
:mod:`repro.sim.decode` and one definition of the housekeeping that used
to live inline in the interpreter loop (fuel, watchdog ticks, hot-PC
sampling, batched observer flushes):

* **tier0** — straight dispatch: ``pc = handlers[pc](count)`` with
  per-instruction fuel/tick checks.  The behavioral baseline.
* **tier1** — tier0 plus a :class:`~repro.sim.traces.TraceCache`: landing
  pcs (branch/jump targets) are counted, and once one crosses
  ``HOT_THRESHOLD`` the straight-line region starting there is compiled
  into a superblock.  Watchdog/telemetry/observer work is batched at
  superblock boundaries; the fuel limit is respected exactly by refusing
  to enter a block whose full path could cross it.

Both engines retire identical architectural state, outputs, branch-event
streams, and crash reports — the Tier-0-vs-Tier-1 differential suite
holds over every benchmark.

One event encoding (the compact trace of QPT, expanded off the hot
path): Tier-0 handlers and Tier-1 superblocks append one int per branch
event to ``machine._pending``, ``count * S + id``.  For ``n``
instructions *id* is ``2*i`` (taken) or ``2*i + 1`` (not taken) for the
conditional branch at index ``i`` and ``2*n + i`` for the indirect jump
there; a looped superblock's completed run appends ``b0 * S + (3*n +
head)`` followed by ``~iterations`` (negative, so it cannot be mistaken
for an event, and defined for zero iterations).  ``S``
(``machine._count_scale``) is 0 when every observer takes counts — the
append is the bare id — and otherwise a power of two above ``4*n``, so
``& (S - 1)`` recovers the id and ``>> log2(S)`` the retired count.

One :class:`_Recorder` per run flushes the batch at each housekeeping
tick: it folds the ids into the run's per-id counts with one
``np.bincount`` and, when ``S > 0``, decodes the batch once into an
:class:`EventBatch` of columns for the observers that do not take
counts (``SequenceLog`` keeps the columns; every other observer replays
them through ``on_branch``/``on_indirect``, see
:meth:`~repro.sim.machine.Observer.on_events`).  At run end the ids
become per-branch taken/not-taken counts for ``on_counts`` and the crash
history is decoded from the last batches kept.

Engine selection (:func:`resolve_engine_name`): an explicit request
(constructor argument / CLI ``--engine``) wins, then the
``REPRO_SIM_ENGINE`` environment variable, then the default ``tier1``.
The chaos seam ``REPRO_CHAOS_FORCE_TIER0`` overrides everything — it
exists so fault-injection harnesses can pin the baseline engine without
threading configuration through every layer.
"""

from __future__ import annotations

import os
from collections import deque
from functools import partial
from time import monotonic, perf_counter

import numpy as np

from repro.errors import (
    SimulationError, SimulationLimitExceeded, SimulationTimeout,
)
from repro.isa.program import TEXT_BASE, WORD_SIZE
from repro.sim.decode import HALT_INDEX, build_handlers
from repro.sim.traces import HOT_THRESHOLD, TraceCache, recover_block_fault

__all__ = ["DEFAULT_ENGINE", "ENGINES", "ENGINE_ENV", "FORCE_TIER0_ENV",
           "resolve_engine_name", "create_engine", "Tier0Engine",
           "Tier1Engine", "EventBatch", "NOT_TAKEN", "TAKEN", "INDIRECT"]

DEFAULT_ENGINE = "tier1"
ENGINES = ("tier0", "tier1")

#: Environment override for the default engine (lowest priority).
ENGINE_ENV = "REPRO_SIM_ENGINE"
#: Chaos seam: any non-empty value pins every new Machine to tier0,
#: regardless of explicit requests (highest priority).
FORCE_TIER0_ENV = "REPRO_CHAOS_FORCE_TIER0"


def resolve_engine_name(requested: str | None = None) -> str:
    """Resolve the engine to use: chaos seam > explicit > env > default."""
    if os.environ.get(FORCE_TIER0_ENV, ""):
        return "tier0"
    name = requested or os.environ.get(ENGINE_ENV, "") or DEFAULT_ENGINE
    if name not in ENGINES:
        raise ValueError(
            f"unknown sim engine {name!r}; expected one of {ENGINES}")
    return name


def create_engine(machine):
    """Instantiate the engine named by ``machine.engine``."""
    if machine.engine == "tier0":
        return Tier0Engine(machine)
    return Tier1Engine(machine)


#: event kinds of an :class:`EventBatch` (and of a ``SequenceLog``)
NOT_TAKEN, TAKEN, INDIRECT = 0, 1, 2


class EventBatch:
    """One flush's events in execution order, decoded once for every
    observer that does not take counts.

    Parallel columns over the batch's branch events: ``index`` (into
    ``insts``, the machine's instruction list), ``address``, ``kind``
    (:data:`NOT_TAKEN`, :data:`TAKEN` or :data:`INDIRECT`) and ``count``
    (instructions retired up to and including the event).  ``markers``
    holds each looped-superblock run as ``(events before it in the
    batch, template, base, iterations, stride)``: iteration ``k`` of the
    run took each ``(inst, taken, offset)`` of the template at count
    ``base + k * stride + offset``."""

    __slots__ = ("insts", "index", "address", "kind", "count", "markers")

    def __init__(self, insts, index, address, kind, count, markers):
        self.insts = insts
        self.index = index
        self.address = address
        self.kind = kind
        self.count = count
        self.markers = markers

    def __len__(self) -> int:
        return len(self.kind) + len(self.markers)


class _Recorder:
    """The event bookkeeping of one run: the flush, and the run-end
    conversion of ids into per-branch counts and crash history.

    *cache* is the run's :class:`~repro.sim.traces.TraceCache` (``None``
    on Tier 0, which never records loop runs)."""

    def __init__(self, machine, observers, cache=None):
        from repro.sim.machine import Observer  # machine imports this module
        self.machine = machine
        self.cache = cache
        n = len(machine._insts)
        self.n = n
        self.counters = [ob for ob in observers
                         if getattr(ob, "takes_counts", False)]
        #: the ordered observers' batch hooks (duck types replay through
        #: the base class's)
        self.sinks = [getattr(ob, "on_events", None)
                      or partial(Observer.on_events, ob)
                      for ob in observers
                      if not getattr(ob, "takes_counts", False)]
        #: ``S`` of the encoding: an event is ``count * S + id``
        self.scale = machine._count_scale
        if self.sinks:
            self.addresses = np.array([inst.address
                                       for inst in machine._insts],
                                      dtype=np.int64)
            #: head -> the run template in instructions, for the markers
            self.templates: dict[int, tuple] = {}
        self.ids = np.zeros(4 * n, dtype=np.int64)
        self.iterations = np.zeros(n, dtype=np.int64)
        #: the latest batches as (ids, conditional ids among them), back
        #: far enough to hold the crash history's last events
        self.kept: deque = deque()
        self.kept_events = 0
        self.keep = machine._branch_history.maxlen

    def flush(self):
        """Fold the pending batch, then hand it to the ordered observers:
        the pending list is cleared and the counts, branch count and
        crash history include the batch before any observer sees it, so
        a raising observer can neither lose events nor get them twice."""
        pending = self.machine._pending
        if not pending:
            return
        raw = np.array(pending, dtype=np.int64)
        del pending[:]
        negative = raw < 0
        runs = np.flatnonzero(negative)
        if self.scale:
            ids = raw & (self.scale - 1)
            ids[runs] = raw[runs]
        else:
            ids = raw
        if runs.size:
            np.add.at(self.iterations, ids[runs - 1] - 3 * self.n,
                      ~ids[runs])
            counts = np.bincount(ids[~negative])
        else:
            counts = np.bincount(ids)
        self.ids[:len(counts)] += counts
        conditional = int(counts[:2 * self.n].sum())
        kept = self.kept
        kept.append((ids, conditional))
        self.kept_events += conditional
        while self.kept_events - kept[0][1] >= self.keep:
            self.kept_events -= kept.popleft()[1]
        if self.sinks:
            batch = self._decode(raw, ids, runs)
            for sink in self.sinks:
                sink(batch)

    def _decode(self, raw, ids, runs) -> EventBatch:
        """The batch as columns: each event's instruction, kind and
        count, and each loop run as a marker."""
        n = self.n
        shift = self.scale.bit_length() - 1
        markers = []
        if runs.size:
            loops = runs - 1
            blocks = self.cache.blocks
            # events before a run: its loop id's position less the two
            # entries of each earlier run
            for pos, head, base, iterations in zip(
                    (loops - 2 * np.arange(runs.size)).tolist(),
                    (ids[loops] - 3 * n).tolist(),
                    (raw[loops] >> shift).tolist(), (~raw[runs]).tolist()):
                markers.append((pos, self._template(head), base,
                                iterations, blocks[head].spec.slen))
            events = np.ones(len(raw), dtype=bool)
            events[runs] = events[loops] = False
            raw, ids = raw[events], ids[events]
        indirect = ids >= 2 * n
        index = np.where(indirect, ids - 2 * n, ids >> 1)
        kind = np.where(indirect, INDIRECT, 1 - (ids & 1)).astype(np.int8)
        return EventBatch(self.machine._insts, index, self.addresses[index],
                          kind, raw >> shift, markers)

    def _template(self, head):
        """The looped block at *head*'s run template as ``(inst, taken,
        offset)``."""
        template = self.templates.get(head)
        if template is None:
            insts = self.machine._insts
            template = self.templates[head] = tuple(
                (insts[ev >> 1], assumed, offset)
                for ev, assumed, offset
                in self.cache.blocks[head].spec.iter_events)
        return template

    def _run_ids(self, head) -> list[int]:
        """The looped block at *head*'s run template as ids."""
        return [ev for ev, _, _ in self.cache.blocks[head].spec.iter_events]

    def close(self) -> int:
        """Fold loop runs into per-branch counts, decode the crash
        history, hand the counts to the observers that take them; returns
        the run's conditional-branch count."""
        n = self.n
        counts = self.ids[:2 * n].copy()
        for head in np.flatnonzero(self.iterations).tolist():
            times = self.iterations[head]
            for ev in self._run_ids(head):
                counts[ev] += times
        self.machine._branch_history.extend(self._history())
        taken, not_taken = counts[0::2], counts[1::2]
        executed = np.flatnonzero(taken + not_taken)
        if self.counters and executed.size:
            insts = self.machine._insts
            addresses = [insts[i].address for i in executed.tolist()]
            taken_list = taken[executed].tolist()
            not_taken_list = not_taken[executed].tolist()
            for ob in self.counters:
                ob.on_counts(addresses, taken_list, not_taken_list)
        return int(counts.sum())

    def _history(self) -> list[tuple[int, bool]]:
        """The run's last ``keep`` conditional outcomes, oldest first,
        decoded from the kept batches (a loop id expands through its
        template)."""
        n, keep = self.n, self.keep
        insts = self.machine._insts
        out: list[tuple[int, bool]] = []
        for batch, _ in reversed(self.kept):
            ids = batch.tolist()
            j = len(ids) - 1
            while j >= 0 and len(out) < keep:
                ev = ids[j]
                if ev < 0:
                    template = self._run_ids(ids[j - 1] - 3 * n)
                    if template:
                        for _ in range(min(~ev, keep // len(template) + 1)):
                            for tev in reversed(template):
                                out.append((insts[tev >> 1].address,
                                            not tev & 1))
                    j -= 2
                    continue
                if ev < 2 * n:
                    out.append((insts[ev >> 1].address, not ev & 1))
                j -= 1
            if len(out) >= keep:
                break
        del out[keep:]
        out.reverse()
        return out


class _EngineBase:
    """Shared setup: the pre-decoded handler table and the run's
    recorder."""

    name = "?"

    def __init__(self, machine):
        self.machine = machine
        self.handlers = build_handlers(machine)

    def _recorder(self, observers, cache=None):
        """``(flush, close)`` for one run: *close* runs once at run end
        (success or fault) and returns the run's conditional-branch
        count."""
        recorder = _Recorder(self.machine, observers, cache)
        return recorder.flush, recorder.close


def _drain(flush, close) -> int:
    """The fault path's flush and close: an observer that raises here
    cannot mask the fault being reported; returns the branch count."""
    try:
        flush()
    except Exception:
        pass
    try:
        return close()
    except Exception:
        return 0


class Tier0Engine(_EngineBase):
    """Pre-decoded dispatch with per-instruction housekeeping."""

    name = "tier0"

    def run_loop(self, pc):
        m = self.machine
        handlers = self.handlers
        insts = m._insts
        n = len(handlers)
        count = m.instr_count
        limit = m.max_instructions
        observers = list(m.observers)
        flush, close = self._recorder(observers)
        deadline = None
        if m.wall_clock_deadline is not None:
            deadline = monotonic() + m.wall_clock_deadline
        tick_mask = m._tick_mask
        sampling = m.pc_sample_interval is not None
        hot_pc: dict[int, int] = {}
        ticks = 0
        start = (count, m.dynamic_branches, m.syscall_count, perf_counter())
        m._fault_pc = pc

        try:
            while True:
                if 0 <= pc < n:
                    count += 1
                    if count > limit:
                        raise SimulationLimitExceeded(
                            f"exceeded fuel budget of {limit} instructions "
                            f"at 0x{insts[pc].address:x}")
                    if not count & tick_mask:
                        # periodic housekeeping (cold path, every 2^k
                        # instrs): watchdog + sampler + event flush
                        ticks += 1
                        if deadline is not None and monotonic() > deadline:
                            raise SimulationTimeout(
                                f"watchdog: exceeded wall-clock deadline of "
                                f"{m.wall_clock_deadline:.3f}s after {count} "
                                f"instructions at 0x{insts[pc].address:x}")
                        if sampling:
                            addr = insts[pc].address
                            hot_pc[addr] = hot_pc.get(addr, 0) + 1
                        flush()
                    pc = handlers[pc](count)
                    continue
                if pc == HALT_INDEX:
                    break
                raise SimulationError(
                    f"pc out of range: 0x{TEXT_BASE + WORD_SIZE * pc:x}")
        except BaseException:
            m._fault_pc = pc
            m._finish_run(count, _drain(flush, close), ticks, hot_pc, start,
                          faulted=True)
            raise

        flush()
        m._finish_run(count, close(), ticks, hot_pc, start, faulted=False)
        for ob in observers:
            ob.on_finish(count)
        return m._exit_status(count)


class Tier1Engine(_EngineBase):
    """Tier-0 dispatch plus hot-PC superblock compilation."""

    name = "tier1"

    def __init__(self, machine):
        super().__init__(machine)
        self.cache = TraceCache(machine)
        self.heat: dict[int, int] = {}

    def run_loop(self, pc):
        m = self.machine
        handlers = self.handlers
        insts = m._insts
        n = len(handlers)
        count = m.instr_count
        limit = m.max_instructions
        observers = list(m.observers)
        cache = self.cache
        flush, close = self._recorder(observers, cache)
        deadline = None
        if m.wall_clock_deadline is not None:
            deadline = monotonic() + m.wall_clock_deadline
        tick_mask = m._tick_mask
        tick_shift = (tick_mask + 1).bit_length() - 1
        # per-dispatch budget for looped superblocks: one call may retire at
        # most one tick interval's worth of instructions (and never past the
        # fuel limit), bounding watchdog-check latency, sampling granularity
        # and pending-event memory exactly like tier0's tick cadence
        chunk = tick_mask + 1
        sampling = m.pc_sample_interval is not None
        hot_pc: dict[int, int] = {}
        ticks = 0
        ticks_done = count >> tick_shift
        start = (count, m.dynamic_branches, m.syscall_count, perf_counter())
        m._fault_pc = pc

        blocks = cache.blocks
        blocks_get = blocks.get
        heat = self.heat
        heat_get = heat.get
        side_cell = m._side_exit_cell
        se_start = side_cell[0]
        compiled_start = cache.compiled
        formed_start = cache.formed
        hits = 0
        misses = 0
        residency: dict[int, int] = {}
        track = m.telemetry.enabled  # only a live sink publishes residency
        landed = True  # run entry is a landing

        def tier_stats():
            return {
                "compiled": cache.compiled - compiled_start,
                "formed": cache.formed - formed_start,
                "hits": hits,
                "misses": misses,
                "side_exits": side_cell[0] - se_start,
                "residency": residency,
            }

        try:
            while True:
                if 0 <= pc < n:
                    block = blocks_get(pc)
                    progressed = False
                    if block is not None and count + block.max_len <= limit:
                        before = count
                        stop = count + chunk
                        if stop > limit:
                            stop = limit
                        npc, count = block.fn(count, stop)
                        # a zero-progress return is the $zero-guard bounce:
                        # fall through and single-step instead
                        progressed = count != before
                    if progressed:
                        pc = npc
                        hits += 1
                        if track:
                            length = count - before
                            residency[length] = residency.get(length, 0) + 1
                        nt = count >> tick_shift
                        if nt != ticks_done:
                            # batched housekeeping at the block boundary
                            crossed = nt - ticks_done
                            ticks_done = nt
                            ticks += crossed
                            if deadline is not None and pc != HALT_INDEX \
                                    and monotonic() > deadline:
                                addr = insts[pc].address if 0 <= pc < n \
                                    else block.head_addr
                                raise SimulationTimeout(
                                    f"watchdog: exceeded wall-clock deadline "
                                    f"of {m.wall_clock_deadline:.3f}s after "
                                    f"{count} instructions at 0x{addr:x}")
                            if sampling:
                                addr = block.head_addr
                                hot_pc[addr] = hot_pc.get(addr, 0) + crossed
                            flush()
                        landed = True
                        continue
                    if landed:
                        misses += 1
                        h = heat_get(pc, 0) + 1
                        heat[pc] = h
                        if h == HOT_THRESHOLD and block is None:
                            if cache.compile(pc) is not None:
                                landed = False
                                continue
                    # interpret one instruction (cold pc, or a block held
                    # back by the fuel guard so the limit faults exactly)
                    count += 1
                    if count > limit:
                        raise SimulationLimitExceeded(
                            f"exceeded fuel budget of {limit} instructions "
                            f"at 0x{insts[pc].address:x}")
                    if not count & tick_mask:
                        ticks += 1
                        ticks_done = count >> tick_shift
                        if deadline is not None and monotonic() > deadline:
                            raise SimulationTimeout(
                                f"watchdog: exceeded wall-clock deadline of "
                                f"{m.wall_clock_deadline:.3f}s after {count} "
                                f"instructions at 0x{insts[pc].address:x}")
                        if sampling:
                            addr = insts[pc].address
                            hot_pc[addr] = hot_pc.get(addr, 0) + 1
                        flush()
                    npc = handlers[pc](count)
                    landed = npc != pc + 1
                    pc = npc
                    continue
                if pc == HALT_INDEX:
                    break
                raise SimulationError(
                    f"pc out of range: 0x{TEXT_BASE + WORD_SIZE * pc:x}")
        except BaseException as exc:
            recovered = recover_block_fault(cache, exc, m)
            if recovered is not None:
                pc, count = recovered
            m._fault_pc = pc
            m._finish_run(count, _drain(flush, close), ticks, hot_pc, start,
                          faulted=True, tier_stats=tier_stats())
            raise

        flush()
        m._finish_run(count, close(), ticks, hot_pc, start, faulted=False,
                      tier_stats=tier_stats())
        for ob in observers:
            ob.on_finish(count)
        return m._exit_status(count)
