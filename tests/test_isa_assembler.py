"""Tests for the two-pass assembler."""

import pytest

from repro.isa import (
    DATA_BASE, GP_VALUE, TEXT_BASE, WORD_SIZE, AssemblerError, assemble,
)
from repro.isa.assembler import _split_operands


def wrap(body: str, name: str = "main") -> str:
    return f".text\n.ent {name}\n{name}:\n{body}\n.end {name}\n"


class TestBasics:
    def test_single_instruction(self):
        exe = assemble(wrap("nop"))
        assert len(exe.instructions) == 1
        assert exe.instructions[0].op.name == "nop"
        assert exe.instructions[0].address == TEXT_BASE

    def test_sequential_addresses(self):
        exe = assemble(wrap("nop\nnop\nnop"))
        addrs = [i.address for i in exe.instructions]
        assert addrs == [TEXT_BASE, TEXT_BASE + 4, TEXT_BASE + 8]

    def test_procedures_delimited(self):
        src = wrap("nop", "f") + wrap("nop\nnop", "g")
        exe = assemble(src)
        assert exe.procedure_names() == ["f", "g"]
        assert len(exe.procedure("g")) == 2

    def test_entry_prefers_start_symbol(self):
        src = wrap("nop", "main") + wrap("jal main", "__start")
        exe = assemble(src)
        assert exe.entry == exe.symbols["__start"]

    def test_entry_falls_back_to_main(self):
        exe = assemble(wrap("nop"))
        assert exe.entry == exe.symbols["main"]

    def test_comments_ignored(self):
        exe = assemble(wrap("nop  # comment\n# whole line\nnop"))
        assert len(exe.instructions) == 2

    def test_hash_inside_a_string_is_not_a_comment(self):
        src = '.data\ns: .asciiz "a#\\"#" # comment\n' + wrap("nop")
        assert assemble(src).data[:5] == b'a#"#\x00'

    # lines without a quote split on every comma; lines with one keep
    # commas inside the quotes
    @pytest.mark.parametrize("rest,ops", [
        ("", []), ("  ", []), ("$t0, $t1,  4", ["$t0", "$t1", "4"]),
        ("1, 2, ", ["1", "2"]), ("1,,2", ["1", "", "2"]),
        ('"a,b", 1', ['"a,b"', "1"]), ('"a\\",b", 2,', ['"a\\",b"', "2"]),
    ])
    def test_operands_split_on_unquoted_commas(self, rest, ops):
        assert _split_operands(rest) == ops

    def test_branch_target_resolved(self):
        exe = assemble(wrap("L1: beq $t0, $zero, L1"))
        inst = exe.instructions[0]
        assert inst.target_address == TEXT_BASE

    def test_forward_reference(self):
        exe = assemble(wrap("j L2\nnop\nL2: nop"))
        assert exe.instructions[0].target_address == TEXT_BASE + 8

    def test_operand_order_beq(self):
        exe = assemble(wrap("L: beq $t0, $t1, L"))
        inst = exe.instructions[0]
        assert inst.rs == 8 and inst.rt == 9


class TestErrors:
    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblerError, match="unknown mnemonic"):
            assemble(wrap("frobnicate $t0"))

    def test_undefined_label(self):
        with pytest.raises(AssemblerError, match="undefined label"):
            assemble(wrap("j nowhere"))

    def test_duplicate_label(self):
        with pytest.raises(AssemblerError, match="duplicate label"):
            assemble(wrap("L: nop\nL: nop"))

    def test_instruction_outside_procedure(self):
        with pytest.raises(AssemblerError, match="outside any"):
            assemble(".text\nnop\n")

    def test_missing_end(self):
        with pytest.raises(AssemblerError, match="missing .end"):
            assemble(".text\n.ent f\nf: nop\n")

    def test_mismatched_end(self):
        with pytest.raises(AssemblerError, match="does not match"):
            assemble(".text\n.ent f\nf: nop\n.end g\n")

    def test_bad_register(self):
        with pytest.raises(AssemblerError):
            assemble(wrap("add $t0, $t1, $zz"))

    def test_missing_operand(self):
        with pytest.raises(AssemblerError, match="missing operand"):
            assemble(wrap("add $t0, $t1"))

    @pytest.mark.parametrize("source", [
        ".text\n.ent\nmain:\nnop\n.end main\n",
        ".data\n.space\n" + wrap("nop"),
        ".data\n.asciiz\n" + wrap("nop"),
        ".data\n.align\n" + wrap("nop"),
    ], ids=[".ent", ".space", ".asciiz", ".align"])
    def test_directive_missing_operand(self, source):
        directive = source.split("\n")[1]
        with pytest.raises(AssemblerError,
                           match=f"line 2: missing operand for {directive}$"):
            assemble(source)

    @pytest.mark.parametrize("body", ["li $t0", "la $t0", "move $t0", "b"])
    def test_pseudo_instruction_missing_operand(self, body):
        with pytest.raises(AssemblerError, match="line 4: missing operand"):
            assemble(wrap(body))

    def test_displacement_out_of_range(self):
        with pytest.raises(AssemblerError, match="16-bit"):
            assemble(wrap("lw $t0, 40000($sp)"))

    def test_error_reports_line(self):
        with pytest.raises(AssemblerError, match="line 4"):
            assemble(".text\n.ent f\nf: nop\nbogus $t0\n.end f\n")


class TestPseudoInstructions:
    def test_move(self):
        exe = assemble(wrap("move $t0, $t1"))
        inst = exe.instructions[0]
        assert inst.op.name == "addu" and inst.rt == 0

    def test_li_small(self):
        exe = assemble(wrap("li $t0, 42"))
        assert len(exe.instructions) == 1
        assert exe.instructions[0].op.name == "addiu"

    def test_li_negative_small(self):
        exe = assemble(wrap("li $t0, -5"))
        assert len(exe.instructions) == 1

    def test_li_large_expands(self):
        exe = assemble(wrap("li $t0, 0x12345678"))
        names = [i.op.name for i in exe.instructions]
        assert names == ["lui", "ori"]
        assert exe.instructions[0].imm == 0x1234
        assert exe.instructions[1].imm == 0x5678

    def test_la_expands(self):
        src = ".data\nx: .word 7\n" + wrap("la $t0, x")
        exe = assemble(src)
        names = [i.op.name for i in exe.instructions]
        assert names == ["lui", "ori"]

    def test_b_becomes_j(self):
        exe = assemble(wrap("L: b L"))
        assert exe.instructions[0].op.name == "j"

    def test_not_and_neg(self):
        exe = assemble(wrap("not $t0, $t1\nneg $t2, $t3"))
        assert exe.instructions[0].op.name == "nor"
        assert exe.instructions[1].op.name == "sub"

    def test_ld_sd_aliases(self):
        exe = assemble(wrap("l.d $f4, 0($sp)\ns.d $f4, 8($sp)"))
        assert exe.instructions[0].op.name == "ldc1"
        assert exe.instructions[1].op.name == "sdc1"

    def test_jalr_one_operand_defaults_ra(self):
        exe = assemble(wrap("jalr $t0"))
        assert exe.instructions[0].rd == 31

    def test_char_immediate(self):
        exe = assemble(wrap("li $t0, 'A'"))
        assert exe.instructions[0].imm == 65

    def test_escaped_char_immediate(self):
        exe = assemble(wrap("li $t0, '\\n'"))
        assert exe.instructions[0].imm == 10


class TestDataSegment:
    def test_word_values(self):
        exe = assemble(".data\nx: .word 1, 2, -3\n" + wrap("nop"))
        assert exe.data[:4] == (1).to_bytes(4, "little")
        assert exe.data[8:12] == (-3 & 0xFFFFFFFF).to_bytes(4, "little")

    def test_word_label_patching(self):
        src = ".data\np: .word s\ns: .asciiz \"hi\"\n" + wrap("nop")
        exe = assemble(src)
        stored = int.from_bytes(exe.data[:4], "little")
        assert stored == exe.symbols["s"]
        assert exe.symbols["s"] == DATA_BASE + 4

    def test_asciiz_nul_terminated_and_escapes(self):
        src = '.data\ns: .asciiz "a\\tb\\n"\n' + wrap("nop")
        exe = assemble(src)
        assert exe.data[:5] == b"a\tb\n\x00"

    def test_space_zero_filled(self):
        exe = assemble(".data\nb: .space 16\nc: .word 5\n" + wrap("nop"))
        assert exe.data[:16] == bytes(16)
        assert exe.symbols["c"] == DATA_BASE + 16

    def test_double_aligned_to_8(self):
        exe = assemble(".data\nx: .word 1\nd: .double 1.5\n" + wrap("nop"))
        assert exe.symbols["d"] % 8 == 0
        import struct
        off = exe.symbols["d"] - DATA_BASE
        assert struct.unpack_from("<d", exe.data, off)[0] == 1.5

    def test_align_directive(self):
        exe = assemble(".data\nx: .byte 1\n.align 3\ny: .word 2\n"
                       + wrap("nop"))
        assert exe.symbols["y"] % 8 == 0

    def test_gp_relative_symbol(self):
        src = ".data\nv: .word 9\n" + wrap("lw $t0, v($gp)")
        exe = assemble(src)
        inst = exe.instructions[0]
        assert inst.imm == DATA_BASE - GP_VALUE  # v at data base

    def test_gp_relative_symbol_plus_offset(self):
        src = ".data\narr: .word 1, 2, 3\n" + wrap("lw $t0, arr+8($gp)")
        exe = assemble(src)
        assert exe.instructions[0].imm == DATA_BASE - GP_VALUE + 8

    def test_symbolic_displacement_needs_gp_or_zero(self):
        src = ".data\nv: .word 9\n" + wrap("lw $t0, v($t1)")
        with pytest.raises(AssemblerError, match="gp"):
            assemble(src)

    def test_instruction_in_data_rejected(self):
        with pytest.raises(AssemblerError, match="data segment"):
            assemble(".data\nadd $t0, $t1, $t2\n")


class TestExecutableQueries:
    def test_instruction_at(self):
        exe = assemble(wrap("nop\nadd $t0, $t1, $t2"))
        assert exe.instruction_at(TEXT_BASE + 4).op.name == "add"

    def test_instruction_at_bad_address(self):
        exe = assemble(wrap("nop"))
        with pytest.raises(IndexError):
            exe.instruction_at(TEXT_BASE + 400)
        with pytest.raises(IndexError):
            exe.instruction_at(TEXT_BASE + 2)

    def test_procedure_containing(self):
        src = wrap("nop\nnop", "f") + wrap("nop", "g")
        exe = assemble(src)
        assert exe.procedure_containing(TEXT_BASE).name == "f"
        assert exe.procedure_containing(TEXT_BASE + 2 * WORD_SIZE).name == "g"

    def test_procedure_containing_miss(self):
        exe = assemble(wrap("nop"))
        with pytest.raises(IndexError):
            exe.procedure_containing(TEXT_BASE + 100)

    def test_code_size(self):
        exe = assemble(".data\nb: .space 1024\n" + wrap("nop\nnop"))
        assert exe.text_size == 8
        assert exe.code_size_kb == pytest.approx((8 + 1024) / 1024)

    def test_conditional_branch_iterator(self):
        exe = assemble(wrap("L: beq $t0, $zero, L\nnop\nbne $t1, $t2, L"))
        branches = list(exe.conditional_branches())
        assert len(branches) == 2

    def test_listing_contains_procedures(self):
        exe = assemble(wrap("nop", "f"))
        assert "f:" in exe.listing()
