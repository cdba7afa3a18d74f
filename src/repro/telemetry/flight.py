"""Flight recorder: an always-on, lock-free black box of recent events.

Metrics tell you *how often* things happen; the flight recorder tells
you *what just happened* — the last-N structured events (job state
transitions, crash redispatches, retries, breaker flips, worker
respawns) leading up to a failure.  When a worker dies, a job is
quarantined, or a deadline kill fires, the ring is dumped into the
:class:`~repro.errors.CrashReport` / error context so every failure
ships its own black box.

Design constraints, in order:

1. **Always on.**  Unlike :mod:`repro.telemetry.core` (opt-in sink),
   the recorder defaults to a live 256-slot ring.  That only works if
   recording is near-free, hence:
2. **Lock-free.**  One ``itertools.count()`` draw (a single atomic C
   call under the GIL) claims a sequence number; ``slots[seq % cap]``
   stores the event.  No lock, no allocation beyond the event tuple,
   no I/O.  Concurrent writers may interleave arbitrarily — :func:`dump`
   reorders by sequence number, and a torn slot (overwritten while
   dumping) is simply dropped rather than blocking a writer.
3. **Bounded.**  The ring never grows; old events fall off the end.
   ``capacity=0`` disables recording entirely (used by the overhead
   guard-rail test as the baseline arm).

Like the telemetry sink, the recorder is per-process: forked workers
get a copy-on-write ring that diverges from the parent's, which is what
you want — a worker's black box describes *that worker's* last moments,
and :class:`~repro.errors.ReproError` carries the dump back across the
process boundary as plain dicts.
"""

from __future__ import annotations

import itertools
import time
from typing import Any

from repro.telemetry import tracing

__all__ = ["FlightRecorder", "FlightEvent", "get", "install", "record", "dump"]

DEFAULT_CAPACITY = 256

#: events attached to an error are trimmed to this many (wire-size cap)
ATTACH_LIMIT = 32


class FlightEvent:
    """One recorded event: ``(seq, ts, kind, trace_id, fields)``.

    A plain ``__slots__`` class (not a dataclass) to keep the record
    path allocation-light.
    """

    __slots__ = ("seq", "ts", "kind", "trace_id", "fields")

    def __init__(self, seq: int, ts: float, kind: str, trace_id: str,
                 fields: dict[str, Any]):
        self.seq = seq
        self.ts = ts
        self.kind = kind
        self.trace_id = trace_id
        self.fields = fields

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"seq": self.seq, "ts": round(self.ts, 6),
                               "kind": self.kind}
        if self.trace_id:
            out["trace_id"] = self.trace_id
        if self.fields:
            out.update(self.fields)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlightEvent({self.to_dict()!r})"


class FlightRecorder:
    """Bounded lock-free ring of :class:`FlightEvent`."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._seq = itertools.count()
        self._slots: list[FlightEvent | None] = [None] * capacity

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def record(self, kind: str, trace_id: str = "", **fields: Any) -> None:
        """Record one event.  Lock-free: safe from any thread; callers
        never block on each other.  When *trace_id* is empty the active
        :mod:`~repro.telemetry.tracing` context (if any) is used, so
        call sites inside a traced job need not thread the id through.
        """
        if self.capacity == 0:
            return
        if not trace_id:
            ctx = tracing.current()
            if ctx is not None:
                trace_id = ctx.trace_id
        seq = next(self._seq)
        self._slots[seq % self.capacity] = FlightEvent(
            seq, time.time(), kind, trace_id, fields)

    def dump(self) -> list[dict[str, Any]]:
        """The ring's current contents as dicts, oldest first.

        Reads race with writers by design: an event overwritten
        mid-dump shows up as its replacement (higher seq) or not at
        all — never as a torn record, because slot stores are atomic
        list-item assignments.
        """
        events = [e for e in self._slots if e is not None]
        events.sort(key=lambda e: e.seq)
        return [e.to_dict() for e in events]

    def clear(self) -> None:
        self._slots = [None] * self.capacity
        self._seq = itertools.count()

    def __len__(self) -> int:
        return sum(1 for e in self._slots if e is not None)


# --------------------------------------------------------------------------
# module seam (mirrors repro.telemetry.get/install, but default-enabled)
# --------------------------------------------------------------------------

_recorder = FlightRecorder()


def get() -> FlightRecorder:
    """The process-wide flight recorder (always-on by default)."""
    return _recorder


def install(recorder: FlightRecorder) -> FlightRecorder:
    """Replace the process-wide recorder; returns the previous one."""
    global _recorder
    previous = _recorder
    _recorder = recorder
    return previous


def record(kind: str, trace_id: str = "", **fields: Any) -> None:
    """Record on the process-wide ring (module-level convenience)."""
    _recorder.record(kind, trace_id=trace_id, **fields)


def dump() -> list[dict[str, Any]]:
    """Dump the process-wide ring (module-level convenience)."""
    return _recorder.dump()
