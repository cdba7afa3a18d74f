"""Two-pass assembler for the MIPS-like target ISA.

Turns textual assembly (as produced by the BLC code generator, or written by
hand in tests and examples) into a linked :class:`~repro.isa.program.Executable`.

Supported syntax::

            .data
    msg:    .asciiz "hello\\n"
    tab:    .word 1, 2, -3, 0x10
    pi:     .double 3.14159
    buf:    .space 400
            .align 3
            .text
            .ent main
    main:   addiu $sp, $sp, -32
            lw    $t0, tab($gp)      # gp-relative symbolic addressing
            la    $t1, buf           # expands to lui+ori
            beq   $t0, $zero, L2
    L1:     ...
            .end main

Pseudo-instructions expanded here: ``move``, ``li``, ``la``, ``b``, ``not``,
``neg``, ``l.d``/``s.d`` (aliases for ``ldc1``/``sdc1``).

Procedures are delimited by ``.ent name`` / ``.end name`` — the unit QPT
analyzed — and every instruction must be inside one.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass

from repro.errors import ReproError
from repro.isa.instructions import Instruction, Kind, Opcode, OPCODES_BY_NAME
from repro.isa.program import (
    DATA_BASE, GP_VALUE, TEXT_BASE, WORD_SIZE, Executable, Procedure,
)
from repro.isa.registers import (
    GP, RA, ZERO, is_fp_register_name, parse_fp_register, parse_register,
)

__all__ = ["AssemblerError", "assemble"]


class AssemblerError(ReproError):
    """Raised for any syntax or semantic error in assembly input.

    Part of the unified :class:`~repro.errors.ReproError` taxonomy
    (phase ``assemble``)."""

    phase = "assemble"

    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):")
_ESCAPES = {"n": "\n", "t": "\t", "0": "\0", "\\": "\\", '"': '"', "r": "\r", "'": "'"}


def _unescape(body: str, line: int) -> bytes:
    out = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            i += 1
            if i >= len(body):
                raise AssemblerError("dangling escape in string", line)
            esc = body[i]
            if esc not in _ESCAPES:
                raise AssemblerError(f"unknown escape \\{esc}", line)
            out.append(_ESCAPES[esc])
        else:
            out.append(ch)
        i += 1
    return "".join(out).encode("latin-1")


def _parse_int(text: str, line: int) -> int:
    text = text.strip()
    try:
        if len(text) >= 3 and text[0] == "'" and text[-1] == "'":
            body = _unescape(text[1:-1], line)
            if len(body) != 1:
                raise AssemblerError(f"bad char literal {text}", line)
            return body[0]
        return int(text, 0)
    except ValueError:
        raise AssemblerError(f"bad integer literal {text!r}", line) from None


@dataclass
class _Line:
    number: int
    label: str | None
    mnemonic: str | None
    operands: list[str]
    directive_arg: str | None = None


def _split_operands(rest: str) -> list[str]:
    """Split an operand string on commas that are not inside quotes."""
    if '"' not in rest:
        ops = [op.strip() for op in rest.split(",")]
        if not ops[-1]:
            ops.pop()
        return ops
    ops: list[str] = []
    depth_quote = False
    cur = []
    i = 0
    while i < len(rest):
        ch = rest[i]
        if ch == '"' and (i == 0 or rest[i - 1] != "\\"):
            depth_quote = not depth_quote
        if ch == "," and not depth_quote:
            ops.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
        i += 1
    tail = "".join(cur).strip()
    if tail:
        ops.append(tail)
    return ops


def _tokenize(source: str) -> list[_Line]:
    lines: list[_Line] = []
    for number, raw in enumerate(source.splitlines(), start=1):
        # strip comments (# to end of line, respecting string quotes)
        text = raw
        if "#" in raw:
            in_quote = False
            for i, ch in enumerate(raw):
                if ch == '"' and (i == 0 or raw[i - 1] != "\\"):
                    in_quote = not in_quote
                if ch == "#" and not in_quote:
                    text = raw[:i]
                    break
        text = text.strip()
        if not text:
            continue
        label = None
        m = _LABEL_RE.match(text)
        if m:
            label = m.group(1)
            text = text[m.end():].strip()
        if not text:
            lines.append(_Line(number, label, None, []))
            continue
        parts = text.split(None, 1)
        mnemonic = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        lines.append(_Line(number, label, mnemonic, _split_operands(rest)))
    return lines


_MEM_OPERAND_RE = re.compile(r"^(-?[\w.$'\\]*(?:[+-]\d+)?)\((\$\w+)\)$")
_SYM_PLUS_RE = re.compile(r"^([A-Za-z_.$][\w.$]*)([+-]\d+)?$")


def _pseudo_size(mnemonic: str, operands: list[str], line: int) -> int:
    """Number of real instructions a (pseudo-)instruction expands to."""
    if mnemonic == "la":
        return 2
    if mnemonic == "li" and len(operands) > 1:
        value = _parse_int(operands[1], line)
        return 1 if -32768 <= value <= 32767 else 2
    return 1


def _operand(ln) -> str:
    """The first operand of directive line *ln*."""
    if not ln.operands:
        raise AssemblerError(f"missing operand for {ln.mnemonic}", ln.number)
    return ln.operands[0]


class _Assembler:
    def __init__(self, source: str) -> None:
        self.lines = _tokenize(source)
        self.symbols: dict[str, int] = {}
        self.data = bytearray()
        self.instructions: list[Instruction] = []
        self.procedures: list[Procedure] = []
        #: (data offset, symbol, line) for `.word <label>` entries
        self._word_patches: list[tuple[int, str, int]] = []

    # -- pass 1: addresses & symbols ---------------------------------------

    def _pass1(self) -> None:
        segment = "text"
        text_index = 0
        for ln in self.lines:
            if ln.label is not None:
                addr = (TEXT_BASE + WORD_SIZE * text_index if segment == "text"
                        else DATA_BASE + len(self.data))
                if ln.label in self.symbols:
                    raise AssemblerError(f"duplicate label {ln.label!r}", ln.number)
                self.symbols[ln.label] = addr
            if ln.mnemonic is None:
                continue
            m = ln.mnemonic
            if m.startswith("."):
                if m == ".data":
                    segment = "data"
                elif m == ".text":
                    segment = "text"
                elif m in (".ent", ".end", ".globl"):
                    pass
                elif segment != "data":
                    raise AssemblerError(f"directive {m} outside .data", ln.number)
                elif m == ".word":
                    self._align(4)
                    if ln.label is not None:
                        self.symbols[ln.label] = DATA_BASE + len(self.data)
                    for op in ln.operands:
                        op = op.strip()
                        if op and (op[0].isalpha() or op[0] in "_.$"):
                            # symbolic word: patched after all symbols known
                            self._word_patches.append(
                                (len(self.data), op, ln.number))
                            self.data += b"\0\0\0\0"
                        else:
                            value = _parse_int(op, ln.number) & 0xFFFFFFFF
                            self.data += value.to_bytes(4, "little")
                elif m == ".double":
                    self._align(8)
                    if ln.label is not None:
                        self.symbols[ln.label] = DATA_BASE + len(self.data)
                    for op in ln.operands:
                        try:
                            self.data += struct.pack("<d", float(op))
                        except ValueError:
                            raise AssemblerError(f"bad double {op!r}", ln.number) from None
                elif m == ".byte":
                    for op in ln.operands:
                        self.data += struct.pack("<b", _parse_int(op, ln.number))
                elif m == ".space":
                    self.data += bytes(_parse_int(_operand(ln), ln.number))
                elif m == ".asciiz":
                    op = _operand(ln)
                    if not (op.startswith('"') and op.endswith('"')):
                        raise AssemblerError(".asciiz needs a quoted string", ln.number)
                    self.data += _unescape(op[1:-1], ln.number) + b"\0"
                elif m == ".align":
                    self._align(1 << _parse_int(_operand(ln), ln.number))
                else:
                    raise AssemblerError(f"unknown directive {m}", ln.number)
                continue
            if segment != "text":
                raise AssemblerError("instruction in .data segment", ln.number)
            text_index += _pseudo_size(m, ln.operands, ln.number)

    def _align(self, n: int) -> None:
        while len(self.data) % n:
            self.data.append(0)

    # -- pass 2: encode ------------------------------------------------------

    def _pass2(self) -> None:
        segment = "text"
        current_proc: str | None = None
        proc_start = 0
        for ln in self.lines:
            if ln.mnemonic is None:
                continue
            m = ln.mnemonic
            if m.startswith("."):
                if m == ".data":
                    segment = "data"
                elif m == ".text":
                    segment = "text"
                elif m == ".ent":
                    name = _operand(ln)
                    if current_proc is not None:
                        raise AssemblerError(
                            f".ent {name} inside procedure {current_proc}",
                            ln.number)
                    current_proc = name
                    proc_start = len(self.instructions)
                elif m == ".end":
                    if current_proc is None:
                        raise AssemblerError(".end outside procedure", ln.number)
                    if ln.operands and ln.operands[0] != current_proc:
                        raise AssemblerError(
                            f".end {ln.operands[0]} does not match .ent {current_proc}",
                            ln.number)
                    self.procedures.append(
                        Procedure(current_proc, proc_start, len(self.instructions)))
                    current_proc = None
                continue
            if segment != "text":
                continue
            if current_proc is None:
                raise AssemblerError(
                    f"instruction {m!r} outside any .ent/.end procedure", ln.number)
            for inst in self._encode(m, ln.operands, ln.number):
                self.instructions.append(inst)
        if current_proc is not None:
            raise AssemblerError(f"procedure {current_proc} missing .end")

    def _addr_of(self, label: str, line: int) -> int:
        try:
            return self.symbols[label]
        except KeyError:
            raise AssemblerError(f"undefined label {label!r}", line) from None

    def _reg(self, text: str, line: int) -> int:
        try:
            return parse_register(text.strip())
        except ValueError as exc:
            raise AssemblerError(str(exc), line) from None

    def _freg(self, text: str, line: int) -> int:
        try:
            return parse_fp_register(text.strip())
        except ValueError as exc:
            raise AssemblerError(str(exc), line) from None

    def _mem(self, text: str, line: int) -> tuple[int, int]:
        """Parse a memory operand ``disp(reg)`` or ``sym(reg)`` -> (base, disp)."""
        m = _MEM_OPERAND_RE.match(text.strip())
        if not m:
            raise AssemblerError(f"bad memory operand {text!r}", line)
        disp_text, reg_text = m.groups()
        base = self._reg(reg_text, line)
        if not disp_text:
            disp = 0
        elif disp_text.lstrip("-").replace("x", "0", 1).isalnum() and (
                disp_text.lstrip("-")[0].isdigit() or disp_text.startswith("'")):
            disp = _parse_int(disp_text, line)
        else:
            m_sym = _SYM_PLUS_RE.match(disp_text)
            if not m_sym:
                raise AssemblerError(f"bad displacement {disp_text!r}", line)
            sym, delta = m_sym.groups()
            addr = self._addr_of(sym, line) + (int(delta) if delta else 0)
            if base == GP:
                disp = addr - GP_VALUE
            elif base == ZERO:
                disp = addr
            else:
                raise AssemblerError(
                    f"symbolic displacement needs $gp or $zero base: {text!r}", line)
        if not -32768 <= disp <= 32767:
            raise AssemblerError(f"displacement out of 16-bit range: {disp}", line)
        return base, disp

    def _encode(self, m: str, ops: list[str], line: int) -> list[Instruction]:
        def I(**kw) -> Instruction:
            return Instruction(source_line=line, **kw)

        try:
            # pseudo-instructions first
            if m == "move":
                return [I(op=OPCODES_BY_NAME["addu"], rd=self._reg(ops[0], line),
                          rs=self._reg(ops[1], line), rt=ZERO)]
            if m == "not":
                return [I(op=OPCODES_BY_NAME["nor"], rd=self._reg(ops[0], line),
                          rs=self._reg(ops[1], line), rt=ZERO)]
            if m == "neg":
                return [I(op=OPCODES_BY_NAME["sub"], rd=self._reg(ops[0], line),
                          rs=ZERO, rt=self._reg(ops[1], line))]
            if m == "b":
                return [I(op=OPCODES_BY_NAME["j"], label=ops[0])]
            if m == "li":
                rt = self._reg(ops[0], line)
                value = _parse_int(ops[1], line)
                if -32768 <= value <= 32767:
                    return [I(op=OPCODES_BY_NAME["addiu"], rt=rt, rs=ZERO, imm=value)]
                uval = value & 0xFFFFFFFF
                return [I(op=OPCODES_BY_NAME["lui"], rt=rt, imm=(uval >> 16) & 0xFFFF),
                        I(op=OPCODES_BY_NAME["ori"], rt=rt, rs=rt, imm=uval & 0xFFFF)]
            if m == "la":
                rt = self._reg(ops[0], line)
                addr = self._addr_of(ops[1], line)
                return [I(op=OPCODES_BY_NAME["lui"], rt=rt, imm=(addr >> 16) & 0xFFFF),
                        I(op=OPCODES_BY_NAME["ori"], rt=rt, rs=rt, imm=addr & 0xFFFF)]
            if m == "l.d":
                m = "ldc1"
            elif m == "s.d":
                m = "sdc1"

            opcode = OPCODES_BY_NAME.get(m)
            if opcode is None:
                raise AssemblerError(f"unknown mnemonic {m!r}", line)
            k = opcode.kind
            if k is Kind.ALU_R:
                return [I(op=opcode, rd=self._reg(ops[0], line),
                          rs=self._reg(ops[1], line), rt=self._reg(ops[2], line))]
            if k in (Kind.ALU_I, Kind.SHIFT_I):
                return [I(op=opcode, rt=self._reg(ops[0], line),
                          rs=self._reg(ops[1], line), imm=_parse_int(ops[2], line))]
            if k is Kind.LUI:
                return [I(op=opcode, rt=self._reg(ops[0], line),
                          imm=_parse_int(ops[1], line))]
            if k in (Kind.LOAD, Kind.STORE):
                base, disp = self._mem(ops[1], line)
                return [I(op=opcode, rt=self._reg(ops[0], line), rs=base, imm=disp)]
            if k in (Kind.FP_LOAD, Kind.FP_STORE):
                base, disp = self._mem(ops[1], line)
                return [I(op=opcode, ft=self._freg(ops[0], line), rs=base, imm=disp)]
            if k is Kind.BRANCH2:
                return [I(op=opcode, rs=self._reg(ops[0], line),
                          rt=self._reg(ops[1], line), label=ops[2])]
            if k is Kind.BRANCH1:
                return [I(op=opcode, rs=self._reg(ops[0], line), label=ops[1])]
            if k is Kind.FP_BRANCH:
                return [I(op=opcode, label=ops[0])]
            if k in (Kind.JUMP, Kind.CALL):
                return [I(op=opcode, label=ops[0])]
            if k is Kind.JUMP_REG:
                return [I(op=opcode, rs=self._reg(ops[0], line))]
            if k is Kind.CALL_REG:
                if len(ops) == 1:
                    return [I(op=opcode, rd=RA, rs=self._reg(ops[0], line))]
                return [I(op=opcode, rd=self._reg(ops[0], line),
                          rs=self._reg(ops[1], line))]
            if k is Kind.FP_R:
                if m in ("neg.d", "abs.d", "mov.d", "sqrt.d"):
                    return [I(op=opcode, fd=self._freg(ops[0], line),
                              fs=self._freg(ops[1], line))]
                return [I(op=opcode, fd=self._freg(ops[0], line),
                          fs=self._freg(ops[1], line), ft=self._freg(ops[2], line))]
            if k is Kind.FP_CMP:
                return [I(op=opcode, fs=self._freg(ops[0], line),
                          ft=self._freg(ops[1], line))]
            if k is Kind.FP_MOVE:
                if m == "mtc1":
                    return [I(op=opcode, rt=self._reg(ops[0], line),
                              fs=self._freg(ops[1], line))]
                if m == "mfc1":
                    return [I(op=opcode, rt=self._reg(ops[0], line),
                              fs=self._freg(ops[1], line))]
                return [I(op=opcode, fd=self._freg(ops[0], line),
                          fs=self._freg(ops[1], line))]
            if k in (Kind.SYSCALL, Kind.NOP):
                return [I(op=opcode)]
        except IndexError:
            raise AssemblerError(f"missing operand for {m}", line) from None
        raise AssemblerError(f"cannot encode {m}", line)

    # -- finalize ------------------------------------------------------------

    def _resolve(self) -> None:
        resolved: list[Instruction] = []
        for index, inst in enumerate(self.instructions):
            addr = TEXT_BASE + WORD_SIZE * index
            target = -1
            if inst.label is not None:
                target = self._addr_of(inst.label, inst.source_line)
            resolved.append(Instruction(
                op=inst.op, rd=inst.rd, rs=inst.rs, rt=inst.rt,
                fd=inst.fd, fs=inst.fs, ft=inst.ft, imm=inst.imm,
                label=inst.label, address=addr, target_address=target,
                source_line=inst.source_line))
        self.instructions = resolved

    def assemble(self) -> Executable:
        self._pass1()
        for offset, sym, line in self._word_patches:
            addr = self._addr_of(sym, line) & 0xFFFFFFFF
            self.data[offset:offset + 4] = addr.to_bytes(4, "little")
        self._pass2()
        self._resolve()
        entry = None
        for name in ("__start", "main"):
            if name in self.symbols:
                entry = self.symbols[name]
                break
        return Executable(self.instructions, self.procedures,
                          data=bytes(self.data), symbols=self.symbols,
                          entry=entry)


def assemble(source: str) -> Executable:
    """Assemble *source* text into a linked :class:`Executable`.

    Telemetry: wrapped in an ``isa.assemble`` span; counts assembled
    instructions, procedures, and data bytes (all no-ops when telemetry
    is disabled, the default).
    """
    from repro import telemetry
    tm = telemetry.get()
    with tm.span("isa.assemble", category="compile"):
        executable = _Assembler(source).assemble()
    if tm.enabled:
        tm.counter("asm.instructions").inc(len(executable.instructions))
        tm.counter("asm.procedures").inc(len(executable.procedures))
        tm.counter("asm.data_bytes").inc(len(executable.data))
    return executable
