"""Fault injection for the experiment pipeline.

The chaos helpers fabricate the failure modes a long-running reproduction
actually meets — corrupted artifacts, starved inputs, runaway executions,
memory exhaustion — without touching the benchmark definitions. They
operate through the public sabotage seams on
:class:`~repro.harness.runner.SuiteRunner` (``poison_compile``,
``poison_executable``, ``limit_fuel``, ``limit_inputs``, ``limit_memory``,
``skip``), so the runner under test exercises exactly the code paths a
real fault would.

Guarantees the fault-injection test suite checks against:

* every injected fault surfaces as a typed
  :class:`~repro.errors.ReproError` (never a bare ``KeyError`` /
  ``IndexError`` / hang), and simulator-phase faults carry a populated
  :class:`~repro.errors.CrashReport`;
* corruption never aliases healthy state: executables are deep-cloned
  before mutation (:func:`clone_executable`), so the pristine compiled
  artifact memoized elsewhere is untouched.
"""

from __future__ import annotations

import dataclasses
import os
from contextlib import contextmanager

from repro.errors import ReproError
from repro.harness.parallel import CHAOS_WORKER_CRASH_ENV
from repro.harness.runner import SuiteRunner
from repro.isa.instructions import Instruction, Kind, Opcode
from repro.isa.program import Executable, Procedure, TEXT_BASE, WORD_SIZE
from repro.sim.engine import FORCE_TIER0_ENV

__all__ = [
    "FAULTS", "ENV_SEAMS", "chaos_env", "clone_executable",
    "corrupt_branch_targets", "corrupt_opcode", "sabotage",
    "CHAOS_WORKER_CRASH_ENV", "FORCE_TIER0_ENV",
]

#: fault names accepted by :func:`sabotage` (parametrize tests over these)
FAULTS = ("compile", "opcode", "branch-target", "inputs", "fuel", "memory",
          "skip")

#: the process-level chaos seams, by short name.  These are injected via
#: environment variables (not runner seams) because their blast radius is
#: a *process*: worker death and a forced interpreter tier.  Forked
#: workers inherit them, which is exactly the point.
ENV_SEAMS = {
    "worker-crash": CHAOS_WORKER_CRASH_ENV,    # <benchmark>
    "force-tier0": FORCE_TIER0_ENV,            # any non-empty value:
                                               # every Machine in the
                                               # process (and forked
                                               # workers) runs tier0
}


@contextmanager
def chaos_env(**seams: str | float | None):
    """Set process-level chaos seams for the duration of a block.

    Keyword names are :data:`ENV_SEAMS` keys with ``-`` spelled ``_``
    (``worker_crash="queens"``, ``force_tier0="1"``); values are coerced
    to strings, ``None`` unsets the seam.  Previous values are restored
    on exit even when the block raises — chaos must never leak between
    tests.

    Note that already-forked worker processes keep the environment they
    were born with; arm seams *before* starting pools/engines when the
    fault must fire inside workers.
    """
    saved: dict[str, str | None] = {}
    try:
        for name, value in seams.items():
            env = ENV_SEAMS.get(name.replace("_", "-"))
            if env is None:
                raise ValueError(
                    f"unknown chaos seam {name!r} (expected one of "
                    f"{', '.join(k.replace('-', '_') for k in ENV_SEAMS)})")
            saved[env] = os.environ.get(env)
            if value is None:
                os.environ.pop(env, None)
            else:
                os.environ[env] = str(value)
        yield
    finally:
        for env, value in saved.items():
            if value is None:
                os.environ.pop(env, None)
            else:
                os.environ[env] = value

#: opcode that no dispatch arm implements — executing it must raise a typed
#: SimulationError, not corrupt state silently
_UNDEFINED_OPCODE = Opcode("ud2", Kind.NOP)


def clone_executable(executable: Executable) -> Executable:
    """A structurally independent copy of *executable*.

    The instruction list and procedure table are rebuilt so mutations to
    the clone can never leak into the original (which the
    :class:`SuiteRunner` may have memoized).  Instructions themselves are
    frozen dataclasses, so sharing them is safe until a corruptor replaces
    one wholesale.
    """
    procedures = [Procedure(p.name, p.start_index, p.end_index)
                  for p in executable.procedures]
    return Executable(
        instructions=list(executable.instructions),
        procedures=procedures,
        data=executable.data,
        symbols=dict(executable.symbols),
        entry=executable.entry,
    )


def _entry_index(executable: Executable) -> int:
    return (executable.entry - TEXT_BASE) // WORD_SIZE


def corrupt_opcode(executable: Executable,
                   index: int | None = None) -> Executable:
    """Clone *executable* and replace one instruction's opcode with an
    undefined one (default: the entry instruction, so the fault fires on
    the very first dispatch)."""
    corrupted = clone_executable(executable)
    if index is None:
        index = _entry_index(corrupted)
    inst = corrupted.instructions[index]
    corrupted.instructions[index] = dataclasses.replace(
        inst, op=_UNDEFINED_OPCODE)
    return corrupted


def corrupt_branch_targets(executable: Executable) -> Executable:
    """Clone *executable* and point every branch/jump/call target one page
    past the end of the text segment.

    The first taken transfer of control then lands outside the text
    segment, which the simulator must report as a typed ``pc out of
    range`` fault (with crash report), never an ``IndexError``.
    """
    corrupted = clone_executable(executable)
    bad_target = TEXT_BASE + WORD_SIZE * (len(corrupted.instructions) + 64)
    insts = corrupted.instructions
    for i, inst in enumerate(insts):
        if inst.target_address >= 0:
            insts[i] = dataclasses.replace(inst, target_address=bad_target)
    return corrupted


def sabotage(runner: SuiteRunner, name: str, fault: str,
             dataset: str | None = None) -> None:
    """Inject *fault* into benchmark *name* through *runner*'s chaos seams.

    *dataset* scopes the resource-limit faults (``inputs`` / ``fuel`` /
    ``memory``) to one dataset of the benchmark; ``None`` (the default)
    applies them to every dataset.  Artifact faults (``compile`` /
    ``opcode`` / ``branch-target``) and ``skip`` are inherently
    per-benchmark and ignore it.

    Worker-process faults are injected differently: set the
    ``REPRO_CHAOS_WORKER_CRASH`` environment variable to a benchmark name
    and any parallel shard for that benchmark kills its own worker
    process (``os._exit``) before running — exercising the
    :class:`~repro.errors.WorkerCrashError` path without a real segfault.

    Supported faults (see :data:`FAULTS`):

    ``compile``
        Poison the compilation cache with a typed compile-phase error.
    ``opcode``
        Replace the compiled artifact with an undefined-opcode clone
        (static analysis stays pristine, execution faults immediately).
    ``branch-target``
        Replace the compiled artifact with one whose transfers of control
        all point past the text segment.
    ``inputs``
        Truncate the dataset to zero inputs, starving the first read
        syscall (:class:`~repro.errors.InputExhausted`).
    ``fuel``
        Cap the instruction budget at 1 000 instructions, forcing
        :class:`~repro.errors.SimulationLimitExceeded`.
    ``memory``
        Cap data memory at a single 4 KiB page, forcing
        :class:`~repro.errors.MemoryError_` on the first stack access.
    ``skip``
        Mark the benchmark operator-skipped.
    """
    if fault == "compile":
        runner.poison_compile(name, ReproError(
            "chaos: injected compile failure", benchmark=name,
            phase="compile"))
    elif fault in ("opcode", "branch-target"):
        executable, analysis = runner.compiled(name)
        corruptor = (corrupt_opcode if fault == "opcode"
                     else corrupt_branch_targets)
        runner.poison_executable(name, corruptor(executable), analysis)
    elif fault == "inputs":
        runner.limit_inputs(name, 0, dataset=dataset)
    elif fault == "fuel":
        runner.limit_fuel(name, 1_000, dataset=dataset)
    elif fault == "memory":
        runner.limit_memory(name, 4096, dataset=dataset)
    elif fault == "skip":
        runner.skip(name, reason="chaos")
    else:
        raise ValueError(f"unknown chaos fault {fault!r} "
                         f"(expected one of {', '.join(FAULTS)})")
