"""Simulator substrate: the QPT stand-in.

Runs linked executables (:class:`~repro.sim.machine.Machine`) under QPT's
two instrumentations: per-branch counters for edge profiles
(:class:`~repro.sim.profile.EdgeProfile`, count mode) and one ordered
event log per traced run (:class:`~repro.sim.trace.SequenceLog`, log mode)
for trace-based sequence analysis (:class:`~repro.sim.trace.SequenceAnalyzer`).
"""

from repro.errors import CallFrame, CrashReport
from repro.isa.program import Executable
from repro.sim.engine import (
    DEFAULT_ENGINE, ENGINES, FORCE_TIER0_ENV, resolve_engine_name,
)
from repro.sim.machine import (
    ExitStatus, HALT_ADDRESS, InputExhausted, Machine, Observer,
    SimulationError, SimulationLimitExceeded, SimulationTimeout,
)
from repro.sim.memory import Memory, MemoryError_
from repro.sim.profile import EdgeProfile
from repro.sim.trace import (
    BranchTrace, SequenceAnalyzer, SequenceLog, sequence_analyzers,
)

__all__ = [
    "Machine",
    "Observer",
    "DEFAULT_ENGINE",
    "ENGINES",
    "FORCE_TIER0_ENV",
    "resolve_engine_name",
    "ExitStatus",
    "HALT_ADDRESS",
    "SimulationError",
    "SimulationLimitExceeded",
    "SimulationTimeout",
    "InputExhausted",
    "CrashReport",
    "CallFrame",
    "Memory",
    "MemoryError_",
    "EdgeProfile",
    "SequenceAnalyzer",
    "SequenceLog",
    "sequence_analyzers",
    "BranchTrace",
    "run_with_profile",
    "run_with_sequences",
]


def run_with_profile(
    executable: Executable,
    inputs: list | None = None,
    max_instructions: int = 200_000_000,
    engine: str | None = None,
) -> EdgeProfile:
    """Run *executable* to completion and return its edge profile."""
    profile = EdgeProfile()
    machine = Machine(executable, inputs=inputs, observers=[profile],
                      max_instructions=max_instructions, engine=engine)
    machine.run()
    return profile


def run_with_sequences(
    executable: Executable,
    predictions_by_name: dict[str, dict[int, bool]],
    inputs: list | None = None,
    max_instructions: int = 200_000_000,
    engine: str | None = None,
    max_memory_bytes: int | None = None,
    wall_clock_deadline: float | None = None,
    layout: dict[int, bool] | None = None,
) -> dict[str, SequenceAnalyzer]:
    """Run *executable* once while measuring the sequence-length distribution
    of several static predictors simultaneously.

    *predictions_by_name* maps a label (e.g. ``"perfect"``) to a full
    prediction map (branch address -> predict-taken). Returns the analyzers
    keyed by the same labels, each computed from the run's one
    :class:`SequenceLog`.  *layout* is forwarded to the :class:`Machine`
    (the superblock path; no observable depends on it).
    """
    log = SequenceLog()
    machine = Machine(executable, inputs=inputs, observers=[log],
                      max_instructions=max_instructions, engine=engine,
                      max_memory_bytes=max_memory_bytes,
                      wall_clock_deadline=wall_clock_deadline,
                      layout=layout)
    machine.run()
    return sequence_analyzers(log, predictions_by_name)
