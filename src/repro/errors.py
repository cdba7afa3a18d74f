"""Unified error taxonomy for the reproduction pipeline.

Every failure anywhere in the compile -> analyze -> simulate -> report
pipeline is (or is converted into) a :class:`ReproError`.  The base class
carries *structured* diagnostic context — which benchmark and dataset were
running, which pipeline phase failed, the faulting pc and instruction count —
so the harness can classify failures by machine instead of by parsing
message strings.  Simulator-side errors additionally carry a
:class:`CrashReport` snapshot (registers, reconstructed call stack, recent
branch outcomes) for post-mortem debugging.

Hierarchy::

    ReproError                      # base; every pipeline failure
    ├── CompileError                # repro.bcc front/back-end (phase=compile)
    ├── AssemblerError              # repro.isa assembler (phase=assemble)
    ├── SimulationError             # repro.sim faults (phase=simulate)
    │   ├── SimulationLimitExceeded # instruction-fuel budget exhausted
    │   ├── SimulationTimeout       # wall-clock watchdog deadline passed
    │   ├── InputExhausted          # a read syscall starved
    │   └── MemoryError_            # bad/misaligned access, page budget
    └── WorkerError                 # parallel harness (phase=parallel)
        ├── WorkerCrashError        # shard process died without a result
        └── WorkerResultError       # shard returned an unusable result

``CompileError`` and ``AssemblerError`` keep their historical homes
(:mod:`repro.bcc.errors`, :mod:`repro.isa.assembler`) and subclass
:class:`ReproError` from there; the simulator errors are defined here and
re-exported from :mod:`repro.sim` for backwards compatibility.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

__all__ = [
    "ReproError",
    "CrashReport",
    "CallFrame",
    "SimulationError",
    "SimulationLimitExceeded",
    "SimulationTimeout",
    "InputExhausted",
    "MemoryError_",
    "WorkerError",
    "WorkerCrashError",
    "WorkerResultError",
    "PHASES",
]

#: Pipeline phases a failure can be attributed to.
PHASES = ("compile", "verify", "assemble", "link", "analyze", "simulate",
          "parallel", "report")

#: Structured context slots every ReproError carries.
CONTEXT_FIELDS = ("benchmark", "dataset", "phase", "pc", "instr_count")


@dataclass
class CallFrame:
    """One reconstructed frame of the simulated call stack."""

    callee: str           #: procedure name (or hex address if unresolvable)
    call_site: int        #: address of the ``jal``/``jalr`` instruction
    return_address: int   #: where the callee will return to

    def format(self) -> str:
        return (f"{self.callee} (called from 0x{self.call_site:x}, "
                f"returns to 0x{self.return_address:x})")


@dataclass
class CrashReport:
    """Post-mortem snapshot of a :class:`~repro.sim.Machine` at fault time.

    Attached to the raised :class:`ReproError` by ``Machine.run`` so that a
    harness catching the error can log *where* and *in what state* the
    simulated program died without re-running it.
    """

    pc: int                                   #: faulting pc (text address)
    instruction: str                          #: disassembly of the faulting inst
    instr_count: int                          #: instructions retired at fault
    registers: list[int] = field(default_factory=list)
    fp_registers: list[float] = field(default_factory=list)
    call_stack: list[CallFrame] = field(default_factory=list)
    #: last N conditional-branch outcomes, oldest first: (address, taken)
    branch_history: list[tuple[int, bool]] = field(default_factory=list)
    output_tail: str = ""                     #: tail of program output at fault

    def format(self) -> str:
        """Multi-line human-readable rendering."""
        lines = [
            f"crash at pc=0x{self.pc:x}: {self.instruction}",
            f"  instructions retired: {self.instr_count}",
        ]
        if self.call_stack:
            lines.append("  call stack (innermost first):")
            for frame in reversed(self.call_stack):
                lines.append(f"    {frame.format()}")
        if self.branch_history:
            hist = " ".join(f"0x{a:x}:{'T' if t else 'N'}"
                            for a, t in self.branch_history[-8:])
            lines.append(f"  recent branches: {hist}")
        if self.registers:
            regs = ", ".join(f"r{i}={v}" for i, v in
                             enumerate(self.registers) if v)
            lines.append(f"  registers: {regs or '(all zero)'}")
        if self.output_tail:
            lines.append(f"  output tail: {self.output_tail!r}")
        return "\n".join(lines)


_CAMEL_RE = re.compile(r"(?<!^)(?=[A-Z])")


class ReproError(Exception):
    """Base class for every pipeline failure, with structured context.

    Parameters other than *message* are keyword-only structured context;
    any of them may be left ``None`` and filled in later (e.g. the harness
    annotates ``benchmark``/``dataset`` when it catches an error raised deep
    inside the simulator) via :meth:`with_context`.
    """

    #: default pipeline phase, overridden per subclass / instance
    phase: str | None = None

    def __init__(self, message: str, *, benchmark: str | None = None,
                 dataset: str | None = None, phase: str | None = None,
                 pc: int | None = None,
                 instr_count: int | None = None) -> None:
        super().__init__(message)
        self.message = message
        self.benchmark = benchmark
        self.dataset = dataset
        if phase is not None:
            self.phase = phase
        self.pc = pc
        self.instr_count = instr_count
        self.crash_report: CrashReport | None = None

    # -- classification --------------------------------------------------------

    @property
    def code(self) -> str:
        """Stable machine-readable identifier, e.g. ``simulation-timeout``."""
        name = type(self).__name__.rstrip("_")
        return _CAMEL_RE.sub("-", name).lower()

    # -- context ---------------------------------------------------------------

    def with_context(self, **context) -> "ReproError":
        """Fill in any *unset* context fields (never overwrites) and return
        ``self`` so callers can ``raise exc.with_context(...)``."""
        for key, value in context.items():
            if key not in CONTEXT_FIELDS:
                raise TypeError(f"unknown context field {key!r}")
            if value is not None and getattr(self, key, None) is None:
                setattr(self, key, value)
        return self

    def attach_crash_report(self, report: CrashReport) -> "ReproError":
        """Attach a post-mortem snapshot (first one wins) and absorb its
        pc / instruction count into the structured context."""
        if self.crash_report is None:
            self.crash_report = report
            self.with_context(pc=report.pc, instr_count=report.instr_count)
        return self

    # -- rendering -------------------------------------------------------------

    def oneline(self) -> str:
        """One-line structured rendering for CLI stderr output."""
        parts = [f"error[{self.code}]"]
        for key in ("benchmark", "dataset", "phase"):
            value = getattr(self, key, None)
            if value is not None:
                parts.append(f"{key}={value}")
        if self.pc is not None:
            parts.append(f"pc=0x{self.pc:x}")
        if self.instr_count is not None:
            parts.append(f"n={self.instr_count}")
        return f"{' '.join(parts)}: {self.message}"


# -- simulator-side errors ---------------------------------------------------


class SimulationError(ReproError):
    """Raised on invalid execution (bad pc, bad syscall, internal fault...)."""

    phase = "simulate"


class SimulationLimitExceeded(SimulationError):
    """Raised when the instruction-fuel budget is exhausted."""


class SimulationTimeout(SimulationLimitExceeded):
    """Raised when the watchdog's wall-clock deadline passes.

    Subclasses :class:`SimulationLimitExceeded` because both are resource
    limits, but the harness treats timeouts as *non*-transient (retrying
    with more fuel will not beat a wall clock).
    """


class InputExhausted(SimulationError):
    """Raised when a read syscall finds no more input."""


class MemoryError_(SimulationError):
    """Raised on misaligned / invalid memory access or page-budget
    exhaustion.  (Trailing underscore avoids shadowing the builtin.)"""


# -- parallel-harness errors --------------------------------------------------


class WorkerError(ReproError):
    """A parallel-harness shard failed outside the simulated pipeline.

    These wrap failures of the *execution engine itself* (the pool, the
    worker process, result transport) rather than of the benchmark under
    test, so the degraded-mode tables can render them as a distinct
    ``FAILED:worker-failed`` bucket and operators know to look at the
    machine, not the program.
    """

    phase = "parallel"


class WorkerCrashError(WorkerError):
    """A shard's worker process died before returning a result (killed,
    segfaulted interpreter, OOM-killed, broken pool)."""


class WorkerResultError(WorkerError):
    """A shard returned a result the parent could not decode or that
    failed validation (pickling error, schema drift between versions)."""
