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

Two instrumentations, chosen per machine from what its observers consume
(QPT's split between edge counters and traces):

* **count mode** — every observer declares ``takes_counts`` (an
  :class:`~repro.sim.profile.EdgeProfile`, or no observer at all).
  Handlers and superblocks append one constant integer id per branch
  event (see :mod:`repro.sim.decode`; a looped superblock appends its
  loop id ``3*n + head`` followed by ``~iterations``); each flush folds
  its batch into the run's id counts with one ``np.bincount``; at run
  end the ids become per-branch taken/not-taken counts for the
  observers' ``on_counts`` and the crash history is decoded from the
  last batches kept.
* **log mode** — anything else: the ordered ``(inst, taken, count)``
  stream, delivered batch by batch to ``on_events`` (or replayed through
  ``on_branch``/``on_indirect`` for duck-typed observers).

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
           "Tier1Engine"]

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


def _replay_sink(ob):
    """Adapt an observer without ``on_events`` to the batched API.

    Run markers from looped superblocks (``(None, template, base0,
    iterations, length)``) are expanded into the exact per-event calls
    tier0 would have made."""
    on_branch = getattr(ob, "on_branch", None)
    on_indirect = getattr(ob, "on_indirect", None)

    def replay(batch):
        for ev in batch:
            inst = ev[0]
            if inst is None:
                if on_branch is not None:
                    _, tmpl, b0, iters, ln = ev
                    for i in range(iters):
                        cb = b0 + i * ln
                        for binst, taken, off in tmpl:
                            on_branch(binst, taken, cb + off)
                continue
            taken = ev[1]
            if taken is None:
                if on_indirect is not None:
                    on_indirect(inst, ev[2])
            elif on_branch is not None:
                on_branch(inst, taken, ev[2])
    return replay


class _IdCounter:
    """Count-mode bookkeeping of one run: the flush, and the run-end
    conversion of ids into per-branch counts and crash history.

    *cache* is the run's :class:`~repro.sim.traces.TraceCache` (``None``
    on Tier 0, which never records loop ids)."""

    def __init__(self, machine, observers, cache=None):
        self.machine = machine
        self.observers = observers
        self.cache = cache
        n = len(machine._insts)
        self.n = n
        self.ids = np.zeros(4 * n, dtype=np.int64)
        self.iterations = np.zeros(n, dtype=np.int64)
        #: the latest batches as (ids, conditional ids among them), back
        #: far enough to hold the crash history's last events
        self.kept: deque = deque()
        self.kept_events = 0
        self.keep = machine._branch_history.maxlen

    def flush(self):
        pending = self.machine._pending
        if not pending:
            return
        batch = np.array(pending, dtype=np.int64)
        del pending[:]
        negative = batch < 0
        if negative.any():
            at = np.flatnonzero(negative)
            np.add.at(self.iterations, batch[at - 1] - 3 * self.n,
                      ~batch[at])
            counts = np.bincount(batch[~negative])
        else:
            counts = np.bincount(batch)
        self.ids[:len(counts)] += counts
        conditional = int(counts[:2 * self.n].sum())
        kept = self.kept
        kept.append((batch, conditional))
        self.kept_events += conditional
        while self.kept_events - kept[0][1] >= self.keep:
            self.kept_events -= kept.popleft()[1]

    def _template(self, head):
        return [ev for ev, _, _ in self.cache.blocks[head].iter_events]

    def close(self) -> int:
        """Fold loop runs into per-branch counts, decode the crash
        history, hand the counts to the observers; returns the run's
        conditional-branch count."""
        n = self.n
        counts = self.ids[:2 * n].copy()
        for head in np.flatnonzero(self.iterations).tolist():
            times = self.iterations[head]
            for ev in self._template(head):
                counts[ev] += times
        self.machine._branch_history.extend(self._history())
        taken, not_taken = counts[0::2], counts[1::2]
        executed = np.flatnonzero(taken + not_taken)
        if self.observers and executed.size:
            insts = self.machine._insts
            addresses = [insts[i].address for i in executed.tolist()]
            taken_list = taken[executed].tolist()
            not_taken_list = not_taken[executed].tolist()
            for ob in self.observers:
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
                    template = self._template(ids[j - 1] - 3 * n)
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
    """Shared setup: the pre-decoded handler table (in the machine's event
    encoding) and event batching."""

    name = "?"

    def __init__(self, machine):
        self.machine = machine
        self.handlers = build_handlers(machine)

    def _recorder(self, observers, cache=None):
        """``(flush, close)`` for one run: *close* runs once at run end
        (success or fault) and returns the run's conditional-branch
        count."""
        if self.machine._counting:
            counter = _IdCounter(self.machine, observers, cache)
            return counter.flush, counter.close
        flush, counted = self._make_flush(observers)
        return flush, lambda: counted[0]

    def _make_flush(self, observers):
        """Build the batched event flush for one run.

        Copy-then-clear so a raising observer can never cause events to be
        re-delivered by the fault-path drain; the crash-report branch
        history and the dynamic-branch count are updated before observers
        see the batch, so counts survive observer faults.

        Run markers (``ev[0] is None``) summarize the completed iterations
        of a looped superblock; the history and the count aggregate them
        in ``O(template)`` rather than ``O(iterations)`` — the bounded
        history deque only ever needs its last ``maxlen`` events."""
        machine = self.machine
        pending = machine._pending
        history = machine._branch_history
        hist_append = history.append
        hist_extend = history.extend
        hist_max = history.maxlen
        counted = [0]
        # duck-typed observers (tests) may lack on_events; replay the batch
        # through their per-event hooks instead
        sinks = []
        for ob in observers:
            batched = getattr(ob, "on_events", None)
            if batched is None:
                batched = _replay_sink(ob)
            sinks.append(batched)

        def flush():
            if not pending:
                return
            batch = pending[:]
            del pending[:]
            n = 0
            for ev in batch:
                if ev[0] is None:
                    _, tmpl, _b0, iters, _ln = ev
                    if iters > 0 and tmpl:
                        n += len(tmpl) * iters
                        pairs = [(t[0].address, t[1]) for t in tmpl]
                        reps = min(iters, hist_max // len(pairs) + 1)
                        hist_extend(pairs * reps)
                    continue
                taken = ev[1]
                if taken is not None:
                    hist_append((ev[0].address, taken))
                    n += 1
            counted[0] += n
            for sink in sinks:
                sink(batch)
        return flush, counted


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
