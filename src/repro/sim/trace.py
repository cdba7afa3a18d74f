"""Trace-based sequence-length analysis (Section 6 of the paper).

A *break in control* is a mispredicted conditional branch, an indirect jump
other than a procedure return, or an indirect call. Each break ``B`` ends a
sequence running from (but not including) the previous break up to and
including ``B``; these sequences partition the instruction trace.

The paper buckets sequence lengths into intervals ``[10j, 10j+9]`` for
``0 <= j < 999`` with a final overflow bucket for lengths >= 9990, recording
both the number of sequences per bucket and the total instructions they
contain — enough to plot the cumulative distributions of Graphs 4-11 and to
compute the IPBC average and the *dividing length* (the sequence length at
which 50% of executed instructions are accounted for).

A run records its trace once, as a compact :class:`SequenceLog` (branch
address, outcome or indirect mark, and instruction count per event; the
run markers of looped superblocks stay run-length encoded), and
:meth:`SequenceAnalyzer.analyze` computes one predictor's distribution
from a log in one vectorized pass — so one log serves every prediction
map, including the perfect predictor, whose map exists only once the
run's own profile is complete.  The log is dropped after the pass: the
distributions are aggregated per sequence, not kept per event, which is
the paper's point about traces vs. profiles.
"""

from __future__ import annotations

import logging

import numpy as np

from repro import telemetry as _telemetry
from repro.isa.instructions import Instruction
from repro.sim.machine import Observer

_log = logging.getLogger("repro.sim.trace")

__all__ = ["SequenceAnalyzer", "SequenceLog", "BranchTrace",
           "sequence_analyzers", "NUM_BUCKETS", "BUCKET_WIDTH"]

NUM_BUCKETS = 1000
BUCKET_WIDTH = 10
_OVERFLOW = NUM_BUCKETS - 1

#: event kinds in a :class:`SequenceLog`
_NOT_TAKEN, _TAKEN, _INDIRECT = 0, 1, 2
#: events buffered as Python lists before they are packed into arrays
#: (small, so the transient lists never outweigh the packed log)
_CHUNK = 4096


class SequenceLog(Observer):
    """The ordered branch events of one run, recorded compactly.

    Per conditional or indirect event the log keeps the branch address,
    the kind (taken, not taken, indirect) and the instruction count; a
    Tier-1 run marker is kept as is, with its position among the events.
    It is a log-mode observer (the order and the counts matter), and it
    does no analysis itself: :meth:`SequenceAnalyzer.analyze` reads it.
    """

    def __init__(self) -> None:
        self._chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._packed = 0
        self._addr: list[int] = []
        self._kind: list[int] = []
        self._count: list[int] = []
        #: (events before it, template, base, iterations, stride)
        self.markers: list[tuple] = []
        self.total_instructions = 0

    def on_branch(self, inst: Instruction, taken: bool, instr_count: int) -> None:
        self._addr.append(inst.address)
        self._kind.append(_TAKEN if taken else _NOT_TAKEN)
        self._count.append(instr_count)

    def on_indirect(self, inst: Instruction, instr_count: int) -> None:
        self._addr.append(inst.address)
        self._kind.append(_INDIRECT)
        self._count.append(instr_count)

    def on_events(self, events) -> None:
        addr, kind, count = self._addr, self._kind, self._count
        add_addr, add_kind, add_count = addr.append, kind.append, count.append
        for ev in events:
            inst = ev[0]
            if inst is None:
                self.markers.append((self._packed + len(addr),) + ev[1:])
                continue
            taken = ev[1]
            add_addr(inst.address)
            add_kind(_INDIRECT if taken is None else taken)
            add_count(ev[2])
        if len(addr) >= _CHUNK:
            self._pack()

    def on_finish(self, instr_count: int) -> None:
        self.total_instructions = instr_count

    def _pack(self) -> None:
        if self._addr:
            self._chunks.append((np.array(self._addr, dtype=np.int64),
                                 np.array(self._kind, dtype=np.int8),
                                 np.array(self._count, dtype=np.int64)))
            self._packed += len(self._addr)
            self._addr, self._kind, self._count = [], [], []

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(addresses, kinds, counts)`` of every event, in order."""
        self._pack()
        if len(self._chunks) != 1:
            columns = list(zip(*self._chunks)) or [[], [], []]
            self._chunks = [tuple(
                np.concatenate(col) if col else np.zeros(0, dtype)
                for col, dtype in zip(columns,
                                      (np.int64, np.int8, np.int64)))]
            self._branches = None
        return self._chunks[0]

    _branches = None

    def branches(self) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                np.ndarray]:
        """The conditional events, computed once for every map that reads
        the log: ``(positions, distinct addresses, index of each event's
        address among them, taken)``."""
        addr, kind, _ = self.arrays()
        if self._branches is None:
            where = np.flatnonzero(kind != _INDIRECT)
            unique, inverse = np.unique(addr[where], return_inverse=True)
            self._branches = (where, unique, inverse, kind[where] == _TAKEN)
        return self._branches


class SequenceAnalyzer(Observer):
    """The sequence-length distribution of one static predictor.

    As an observer it records the run's :class:`SequenceLog` and runs
    :meth:`analyze` over it in :meth:`on_finish`; the harness records one
    log per run instead and analyzes it once per prediction map.

    Parameters
    ----------
    predictions:
        Map from conditional-branch address to the predicted direction
        (True = taken edge). Must cover every branch that executes; a
        missing branch raises ``KeyError`` (predictors always provide a
        default).
    include_trailing:
        Whether the final, break-less run of instructions at program exit is
        counted as one more sequence (default True so that every executed
        instruction is accounted for).
    """

    def __init__(self, predictions: dict[int, bool],
                 include_trailing: bool = True) -> None:
        self.predictions = predictions
        self.include_trailing = include_trailing
        self.seq_counts = [0] * NUM_BUCKETS
        self.seq_instr_sums = [0] * NUM_BUCKETS
        self.n_breaks = 0
        self.n_branches = 0
        self.n_mispredicts = 0
        self.total_instructions = 0
        self._last_break_count = 0

    #: the log of the run being observed (an instance attribute only
    #: while one is recorded, so it is never pickled)
    _log: SequenceLog | None = None

    # -- observer hooks -----------------------------------------------------------

    def _recording(self) -> SequenceLog:
        log = self._log
        if log is None:
            log = self._log = SequenceLog()
        return log

    def on_branch(self, inst: Instruction, taken: bool, instr_count: int) -> None:
        self._recording().on_branch(inst, taken, instr_count)

    def on_indirect(self, inst: Instruction, instr_count: int) -> None:
        self._recording().on_indirect(inst, instr_count)

    def on_events(self, events) -> None:
        self._recording().on_events(events)

    def on_finish(self, instr_count: int) -> None:
        log = self.__dict__.pop("_log", None)
        if log is None:
            log = SequenceLog()
        log.on_finish(instr_count)
        self.analyze(log)

    # -- the pass -------------------------------------------------------------------

    def analyze(self, log: SequenceLog) -> "SequenceAnalyzer":
        """Fold a finished run's *log* into this analyzer, as if its
        events had arrived one by one; returns ``self``.

        One vectorized pass: the breaks among the logged events are the
        mispredicted conditional branches and the indirect events, and a
        run marker whose template this map mispredicts somewhere
        contributes its first and last break plus a closed form for the
        gaps between — ``iterations`` copies of each gap inside an
        iteration and ``iterations - 1`` wrap-around gaps.  A branch the
        map does not cover raises ``KeyError``.  Bucket sums stay
        integers."""
        predictions = self.predictions
        _, kind, count = log.arrays()
        where, unique, inverse, taken = log.branches()
        breaks = kind == _INDIRECT
        n_branches = len(where)
        n_mispredicts = 0
        if n_branches:
            predicted = np.array([predictions[a] for a in unique.tolist()],
                                 dtype=bool)
            missed = predicted[inverse] != taken
            breaks[where[missed]] = True
            n_mispredicts = int(np.count_nonzero(missed))
        positions = np.flatnonzero(breaks)
        points = count[positions]
        n_breaks = len(points)
        # run markers: insert each one's first (and last) break in stream
        # order; the gaps inside a run are added in closed form
        at: list[int] = []
        values: list[int] = []
        skip: list[int] = []
        inner: dict[int, int] = {}
        for pos, template, base, iterations, stride in log.markers:
            if iterations <= 0 or not template:
                continue
            n_branches += len(template) * iterations
            offsets = [off for inst, taken, off in template
                       if predictions[inst.address] != taken]
            if not offsets:
                continue
            n_mispredicts += len(offsets) * iterations
            n_breaks += len(offsets) * iterations
            index = int(np.searchsorted(positions, pos))
            at.append(index)
            values.append(base + offsets[0])
            if len(offsets) * iterations > 1:
                skip.append(index + len(at))
                at.append(index)
                values.append(base + (iterations - 1) * stride + offsets[-1])
                for a, b in zip(offsets, offsets[1:]):
                    inner[b - a] = inner.get(b - a, 0) + iterations
                wrap = stride - offsets[-1] + offsets[0]
                inner[wrap] = inner.get(wrap, 0) + iterations - 1
        if at:
            points = np.insert(points, at, values)
        lengths = np.diff(points, prepend=self._last_break_count)
        if skip:
            lengths = np.delete(lengths, skip)
        last = int(points[-1]) if len(points) else self._last_break_count
        self.total_instructions = log.total_instructions
        if self.include_trailing and log.total_instructions > last:
            lengths = np.append(lengths, log.total_instructions - last)
            last = log.total_instructions
            n_breaks += 1
        buckets = np.minimum(lengths // BUCKET_WIDTH, _OVERFLOW)
        seq_counts = np.bincount(buckets, minlength=NUM_BUCKETS)
        seq_sums = np.zeros(NUM_BUCKETS, dtype=np.int64)
        np.add.at(seq_sums, buckets, lengths)
        seq_counts, seq_sums = seq_counts.tolist(), seq_sums.tolist()
        for length, times in inner.items():
            bucket = min(length // BUCKET_WIDTH, _OVERFLOW)
            seq_counts[bucket] += times
            seq_sums[bucket] += length * times
        self.seq_counts[:] = [a + b for a, b in
                              zip(self.seq_counts, seq_counts)]
        self.seq_instr_sums[:] = [a + b for a, b in
                                  zip(self.seq_instr_sums, seq_sums)]
        self.n_breaks += n_breaks
        self.n_branches += n_branches
        self.n_mispredicts += n_mispredicts
        self._last_break_count = last
        return self

    # -- derived metrics -----------------------------------------------------------

    @property
    def miss_rate(self) -> float:
        """Fraction of dynamic conditional branches mispredicted."""
        if self.n_branches == 0:
            return 0.0
        return self.n_mispredicts / self.n_branches

    @property
    def ipbc_average(self) -> float:
        """The profile-based metric: instructions executed per break in
        control. (This is what Fisher & Freudenberger computed; the paper
        shows it misrepresents the true sequence-length distribution.)"""
        if self.n_breaks == 0:
            return float(self.total_instructions)
        return self.total_instructions / self.n_breaks

    def cumulative_instructions(self) -> list[tuple[int, float]]:
        """Points ``(x, pct)`` where *pct* is the percentage of executed
        instructions accounted for by sequences of length < x; x ranges over
        bucket upper edges (10, 20, ..., 9990), and the last point, x =
        10000, closes the overflow bucket of every length >= 9990 at
        100%."""
        total = sum(self.seq_instr_sums)
        if total == 0:
            return []
        points = []
        running = 0
        for j in range(NUM_BUCKETS):
            running += self.seq_instr_sums[j]
            x = (j + 1) * BUCKET_WIDTH
            points.append((x, 100.0 * running / total))
        return points

    def cumulative_breaks(self) -> list[tuple[int, float]]:
        """Points ``(x, pct)`` where *pct* is the percentage of breaks in
        control accounted for by sequences of length < x (Graph 5)."""
        total = sum(self.seq_counts)
        if total == 0:
            return []
        points = []
        running = 0
        for j in range(NUM_BUCKETS):
            running += self.seq_counts[j]
            x = (j + 1) * BUCKET_WIDTH
            points.append((x, 100.0 * running / total))
        return points

    @property
    def dividing_length(self) -> int:
        """The sequence length at which 50% of executed instructions are
        accounted for (bucket upper edge containing the median instruction)."""
        total = sum(self.seq_instr_sums)
        if total == 0:
            return 0
        running = 0
        for j in range(NUM_BUCKETS):
            running += self.seq_instr_sums[j]
            if 2 * running >= total:
                return (j + 1) * BUCKET_WIDTH
        return NUM_BUCKETS * BUCKET_WIDTH  # pragma: no cover


def sequence_analyzers(log: SequenceLog,
                       predictions_by_name: dict[str, dict[int, bool]],
                       ) -> dict[str, SequenceAnalyzer]:
    """One :class:`SequenceAnalyzer` per prediction map of
    *predictions_by_name*, each computed from the finished run's *log*,
    keyed alike."""
    return {name: SequenceAnalyzer(preds).analyze(log)
            for name, preds in predictions_by_name.items()}


class BranchTrace(Observer):
    """Records the raw sequence of (branch address, taken) events.

    Intended for tests and small programs — memory grows with the dynamic
    branch count, capped at *limit* events (older events are NOT discarded;
    recording simply stops).  Truncation is *never silent*: the first
    dropped event logs a one-line warning, every dropped event is counted
    in ``dropped`` (and in the ``trace.truncated`` telemetry counter), and
    ``truncated`` stays set for callers to test.
    """

    def __init__(self, limit: int = 1_000_000) -> None:
        self.events: list[tuple[int, bool]] = []
        self.limit = limit
        self.truncated = False
        self.dropped = 0

    def on_events(self, events) -> None:
        # batched fast path: bulk-extend below the limit, fall back to the
        # per-event hook (which owns the truncation accounting) otherwise.
        # Run markers expand to `iters` repetitions of their template.
        conditional: list[tuple[int, bool]] = []
        for e in events:
            if e[0] is None:
                tmpl, iters = e[1], e[3]
                if iters > 0 and tmpl:
                    conditional.extend(
                        [(b.address, t) for b, t, _off in tmpl] * iters)
            elif e[1] is not None:
                conditional.append((e[0].address, e[1]))
        if len(self.events) + len(conditional) <= self.limit:
            self.events.extend(conditional)
            return
        for e in events:
            if e[0] is None:
                _, tmpl, b0, iters, ln = e
                for i in range(iters):
                    cb = b0 + i * ln
                    for binst, taken, off in tmpl:
                        self.on_branch(binst, taken, cb + off)
            elif e[1] is not None:
                self.on_branch(e[0], e[1], e[2])

    def on_branch(self, inst: Instruction, taken: bool, instr_count: int) -> None:
        if len(self.events) < self.limit:
            self.events.append((inst.address, taken))
            return
        if not self.truncated:
            self.truncated = True
            _log.warning(
                "BranchTrace limit of %d events reached at instruction "
                "%d (branch 0x%x); further events are dropped — raise "
                "limit= or use SequenceAnalyzer for online aggregation",
                self.limit, instr_count, inst.address)
        self.dropped += 1
        _telemetry.get().counter("trace.truncated").inc()

    def on_finish(self, instr_count: int) -> None:
        if self.truncated:
            _log.warning(
                "BranchTrace truncated: kept %d events, dropped %d",
                len(self.events), self.dropped)
