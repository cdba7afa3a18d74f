"""Compiler driver: BLC source -> linked Executable.

The pipeline is parse -> sema -> IR gen -> optimize -> codegen -> assemble.
The BLC runtime library is compiled together with the user program (one
translation unit, like static linking), and the assembly syscall wrappers
are appended before assembling, so the final executable is
self-contained — every procedure the program can execute is in it and gets
analyzed, exactly as QPT saw whole MIPS executables. The runtime is parsed
once per process (:func:`runtime_decls`); each compile gets its own copy
of the declarations, because sema annotates AST nodes in place.

Every phase is wrapped in a :mod:`repro.telemetry` span (``bcc.parse``,
``bcc.sema``, ``bcc.irgen``, ``bcc.opt``, ``bcc.codegen``; the parser adds
``bcc.lex`` and the allocator ``bcc.regalloc`` beneath these), so a
telemetry-enabled run shows exactly where compile wall-clock goes.  With
the default disabled telemetry the spans are shared no-op context
managers.

Two hooks into the static-analysis subsystem (:mod:`repro.analysis`):

* *verify_each* runs the IR verifier after IR generation and around every
  optimizer pass (the ``--verify-each`` CLI flag; also the test suite's
  always-on mode via :func:`repro.bcc.opt.set_verify_each`);
* :func:`compile_and_link` ``attach_evidence=True`` classifies every
  conditional branch with SCCP + interval ranges and exports the facts on
  the executable (``executable.branch_evidence``) for the registered
  ``Range`` prediction heuristic.
"""

from __future__ import annotations

import functools
import pickle

from repro import telemetry
from repro.bcc import ast_nodes as A
from repro.bcc.codegen import generate_assembly
from repro.bcc.errors import CompileError
from repro.bcc.irgen import generate_ir
from repro.bcc.opt import optimize_program, verify_each_enabled
from repro.bcc.parser import parse
from repro.bcc.runtime import RUNTIME_ASM, RUNTIME_BLC
from repro.bcc.sema import SemanticInfo, analyze
from repro.isa.assembler import assemble
from repro.isa.program import Executable

__all__ = ["compile_to_asm", "compile_and_link", "compile_to_ir",
           "analyze_source", "runtime_decls"]


@functools.cache
def _runtime_template() -> bytes:
    """The parsed runtime, pickled: built on the first compile, not at
    import. Loading a pickle is cheaper than parsing or deep-copying."""
    decls = parse(RUNTIME_BLC, "<runtime>").decls
    return pickle.dumps(decls, protocol=pickle.HIGHEST_PROTOCOL)


def runtime_decls() -> list[A.Node]:
    """A fresh, unannotated copy of the BLC runtime's declarations; no two
    calls share a node."""
    return pickle.loads(_runtime_template())


def _merged_program(source: str, filename: str,
                    include_runtime: bool) -> A.Program:
    decls: list[A.Node] = []
    with telemetry.get().span("bcc.parse", category="compile",
                              file=filename):
        if include_runtime:
            decls.extend(runtime_decls())
        decls.extend(parse(source, filename).decls)
    return A.Program(decls)


def analyze_source(source: str, filename: str = "<input>",
                   include_runtime: bool = True) -> SemanticInfo:
    """Parse and type-check; returns the annotated program metadata."""
    program = _merged_program(source, filename, include_runtime)
    with telemetry.get().span("bcc.sema", category="compile",
                              file=filename):
        return analyze(program)


def _verify_ir(program, where: str) -> None:
    # lazy import: repro.analysis layers above repro.bcc
    from repro.analysis.verify import assert_valid

    assert_valid(program, where=where)


def compile_to_ir(source: str, filename: str = "<input>",
                  optimize: bool = True, include_runtime: bool = True,
                  rotate_loops: bool = True, passes=None, after_pass=None,
                  verify_each: bool | None = None):
    """Compile to (optimized) IR. Mainly for tests and debugging.

    *passes* is an optimizer pipeline spec (see
    :func:`repro.bcc.opt.pipeline_spec`); *after_pass* is invoked after
    every pass execution (the ``--emit-ir-after`` hook); *verify_each*
    runs the IR verifier after IR generation and around every pass.
    """
    tm = telemetry.get()
    info = analyze_source(source, filename, include_runtime)
    with tm.span("bcc.irgen", category="compile", file=filename):
        program = generate_ir(info, rotate_loops=rotate_loops)
    if verify_each or (verify_each is None and verify_each_enabled()):
        _verify_ir(program, where="after IR generation")
    with tm.span("bcc.opt", category="compile", file=filename):
        return optimize_program(program, enabled=optimize, passes=passes,
                                after_pass=after_pass,
                                verify_each=verify_each)


def _compile_module(source: str, filename: str, optimize: bool,
                    include_runtime: bool, rotate_loops: bool, passes,
                    after_pass, verify_each: bool | None):
    """Common back half of :func:`compile_to_asm` / :func:`compile_and_link`.

    Returns ``(IRProgram, asm_text)`` — the optimized IR is needed by
    callers that run the branch-evidence analysis over exactly the program
    the assembly was generated from.
    """
    tm = telemetry.get()
    info = analyze_source(source, filename, include_runtime)
    if "main" not in info.function_symbols \
            or not info.function_symbols["main"].defined:
        raise CompileError("program has no main function", filename=filename)
    with tm.span("bcc.irgen", category="compile", file=filename):
        program = generate_ir(info, rotate_loops=rotate_loops)
    if verify_each or (verify_each is None and verify_each_enabled()):
        _verify_ir(program, where="after IR generation")
    with tm.span("bcc.opt", category="compile", file=filename):
        program = optimize_program(program, enabled=optimize, passes=passes,
                                   after_pass=after_pass,
                                   verify_each=verify_each)
    with tm.span("bcc.codegen", category="compile", file=filename):
        asm = generate_assembly(program)
    tm.counter("bcc.modules_compiled").inc()
    if include_runtime:
        asm = asm + "\n" + RUNTIME_ASM
    return program, asm


def compile_to_asm(source: str, filename: str = "<input>",
                   optimize: bool = True, include_runtime: bool = True,
                   rotate_loops: bool = True, passes=None,
                   after_pass=None, verify_each: bool | None = None) -> str:
    """Compile BLC source to a complete assembly module (text)."""
    _, asm = _compile_module(source, filename, optimize, include_runtime,
                             rotate_loops, passes, after_pass, verify_each)
    return asm


def compile_and_link(source: str, filename: str = "<input>",
                     optimize: bool = True, include_runtime: bool = True,
                     rotate_loops: bool = True, passes=None,
                     after_pass=None, verify_each: bool | None = None,
                     attach_evidence: bool = False) -> Executable:
    """Compile BLC source all the way to a runnable :class:`Executable`.

    With *attach_evidence* the SCCP + range branch classification runs over
    the final IR and the resulting always/never-taken facts are exported on
    the executable (see :mod:`repro.analysis.branches`).
    """
    program, asm = _compile_module(source, filename, optimize,
                                   include_runtime, rotate_loops, passes,
                                   after_pass, verify_each)
    executable = assemble(asm)
    if attach_evidence:
        # lazy import: repro.analysis layers above repro.bcc
        from repro.analysis.branches import (
            analyze_branch_evidence, attach_evidence as _attach)

        with telemetry.get().span("bcc.evidence", category="analyze",
                                  file=filename):
            _attach(executable, analyze_branch_evidence(program))
    return executable
