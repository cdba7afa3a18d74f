"""Edge profiling — what QPT's instrumented executions produced.

An :class:`EdgeProfile` records, for each conditional branch (identified by
its text address), how many times control passed to the target successor
(taken) and to the fall-through successor (not taken). It is the ground
truth for miss rates and for the *perfect static predictor*, which predicts
each branch's more frequently executed outgoing edge.
"""

from __future__ import annotations

from repro.isa.instructions import Instruction
from repro.sim.machine import Observer

__all__ = ["EdgeProfile"]


class EdgeProfile(Observer):
    """Per-branch taken / not-taken counts collected during a run.

    It takes counts (:attr:`~repro.sim.machine.Observer.takes_counts`): a
    run whose only observers are edge profiles records in count mode and
    fills each profile once at run end (:meth:`on_counts`); next to a
    log-mode observer it aggregates the event batches instead."""

    takes_counts = True

    def __init__(self) -> None:
        self._counts: dict[int, list[int]] = {}
        self.total_dynamic_branches = 0
        self.total_instructions = 0

    # -- observer hooks ----------------------------------------------------------

    def on_branch(self, inst: Instruction, taken: bool, instr_count: int) -> None:
        counts = self._counts.get(inst.address)
        if counts is None:
            counts = [0, 0]
            self._counts[inst.address] = counts
        counts[0 if taken else 1] += 1
        self.total_dynamic_branches += 1

    def on_events(self, events) -> None:
        # batched fast path: identical aggregation to on_branch, without a
        # method call per event.  A run marker (ev[0] is None) stands for
        # `iters` identical loop iterations; aggregate it per template
        # entry instead of expanding.
        get = self._counts.get
        counts_map = self._counts
        n = 0
        for ev in events:
            inst = ev[0]
            if inst is None:
                tmpl, iters = ev[1], ev[3]
                if iters <= 0:
                    continue
                for binst, taken, _off in tmpl:
                    counts = get(binst.address)
                    if counts is None:
                        counts = [0, 0]
                        counts_map[binst.address] = counts
                    counts[0 if taken else 1] += iters
                    n += iters
                continue
            taken = ev[1]
            if taken is None:
                continue
            counts = get(inst.address)
            if counts is None:
                counts = [0, 0]
                counts_map[inst.address] = counts
            counts[0 if taken else 1] += 1
            n += 1
        self.total_dynamic_branches += n

    def on_counts(self, addresses, taken, not_taken) -> None:
        counts_map = self._counts
        for addr, t, nt in zip(addresses, taken, not_taken):
            counts = counts_map.get(addr)
            if counts is None:
                counts_map[addr] = [t, nt]
            else:
                counts[0] += t
                counts[1] += nt
        self.total_dynamic_branches += sum(taken) + sum(not_taken)

    def on_finish(self, instr_count: int) -> None:
        self.total_instructions = instr_count

    # -- queries -------------------------------------------------------------------

    def taken_count(self, addr: int) -> int:
        """How many times the branch at *addr* was taken."""
        counts = self._counts.get(addr)
        return counts[0] if counts else 0

    def not_taken_count(self, addr: int) -> int:
        """How many times the branch at *addr* fell through."""
        counts = self._counts.get(addr)
        return counts[1] if counts else 0

    def execution_count(self, addr: int) -> int:
        """Total executions of the branch at *addr*."""
        counts = self._counts.get(addr)
        return counts[0] + counts[1] if counts else 0

    def executed_branches(self) -> list[int]:
        """Addresses of all branches that executed at least once."""
        return sorted(self._counts)

    def items(self):
        """Iterate ``(addr, taken_count, not_taken_count)`` tuples."""
        for addr in sorted(self._counts):
            taken, not_taken = self._counts[addr]
            yield addr, taken, not_taken

    def __contains__(self, addr: int) -> bool:
        return addr in self._counts

    def __len__(self) -> int:
        return len(self._counts)

    # -- derived -----------------------------------------------------------------

    def perfect_predictions(self) -> dict[int, bool]:
        """The perfect static predictor's choice for every executed branch:
        True (predict taken) iff the taken count is at least the fall-through
        count. Ties go to taken (either choice gives the same miss count)."""
        return {addr: taken >= not_taken
                for addr, taken, not_taken in self.items()}

    def perfect_miss_count(self, addr: int) -> int:
        """Misses of the perfect static predictor on the branch at *addr*
        (the smaller of its two edge counts)."""
        counts = self._counts.get(addr)
        return min(counts) if counts else 0

    def merged_with(self, other: "EdgeProfile") -> "EdgeProfile":
        """Pointwise sum of two profiles (e.g. across datasets)."""
        merged = EdgeProfile()
        for profile in (self, other):
            for addr, taken, not_taken in profile.items():
                counts = merged._counts.setdefault(addr, [0, 0])
                counts[0] += taken
                counts[1] += not_taken
            merged.total_dynamic_branches += profile.total_dynamic_branches
            merged.total_instructions += profile.total_instructions
        return merged
