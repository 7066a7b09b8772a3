"""Unit tests for the ISA model and the assembler."""

import pytest

from repro.errors import AssemblyError
from repro.isa.instructions import Instruction
from repro.isa.opcodes import (
    OPCODES,
    OpClass,
    is_fp_bitwise,
    is_fp_mov,
    is_fp_trapping,
    opcode_info,
)
from repro.isa.operands import Imm, Label, Mem, Reg, Xmm
from repro.asm import Assembler
from repro.asm.program import IMPORT_BASE, TEXT_BASE


class TestOperands:
    def test_reg_validation(self):
        assert Reg("rax").size == 8
        assert Reg("eax").size == 4 and Reg("eax").canonical == "rax"
        assert Reg("al").size == 1
        with pytest.raises(ValueError):
            Reg("xyz")

    def test_xmm_validation(self):
        assert Xmm(15).index == 15
        with pytest.raises(ValueError):
            Xmm(16)

    def test_mem_validation(self):
        m = Mem(base="rbp", disp=-8)
        assert m.size == 8
        with pytest.raises(ValueError):
            Mem(base="nope")
        with pytest.raises(ValueError):
            Mem(scale=3)
        with pytest.raises(ValueError):
            Mem(size=7)


class TestOpcodeTable:
    def test_classification(self):
        assert opcode_info("addsd").opclass is OpClass.FP_ARITH
        assert opcode_info("xorpd").opclass is OpClass.FP_BITWISE
        assert opcode_info("movq").opclass is OpClass.FP_MOV
        assert opcode_info("mov").opclass is OpClass.INT_MOV

    def test_trap_capability_predicates(self):
        # the virtualization-hole structure: arithmetic traps, moves
        # and bitwise ops never do
        for mn in ("addsd", "divpd", "ucomisd", "cvtsi2sd", "roundsd"):
            assert is_fp_trapping(mn)
        for mn in ("xorpd", "andpd", "orpd", "andnpd"):
            assert is_fp_bitwise(mn) and not is_fp_trapping(mn)
        for mn in ("movsd", "movq", "movapd", "movhpd"):
            assert is_fp_mov(mn) and not is_fp_trapping(mn)

    def test_packed_lanes(self):
        assert opcode_info("addpd").lanes == 2
        assert opcode_info("addsd").lanes == 1

    def test_lengths_plausible(self):
        assert opcode_info("ret").length == 1
        assert opcode_info("call").length == 5
        assert opcode_info("movabs").length == 10
        assert all(1 <= i.length <= 10 for i in OPCODES.values())


class TestInstruction:
    def test_unknown_mnemonic(self):
        with pytest.raises(ValueError):
            Instruction("frobnicate")

    def test_length_defaults_from_table(self):
        i = Instruction("addsd", (Xmm(0), Xmm(1)))
        assert i.length == opcode_info("addsd").length
        assert i.next_addr == i.addr + i.length

    def test_with_addr(self):
        i = Instruction("nop")
        j = i.with_addr(0x1234)
        assert j.addr == 0x1234 and i.addr == 0


class TestAssembler:
    def test_label_resolution(self):
        a = Assembler()
        a.label("main")
        a.emit("jmp", Label("end"))
        a.emit("nop")
        a.label("end")
        a.emit("ret")
        b = a.assemble()
        jmp = b.text[0]
        assert isinstance(jmp.operands[0], Imm)
        assert jmp.operands[0].value == b.symbols["end"]

    def test_addresses_sequential(self):
        a = Assembler()
        a.label("main")
        a.emit("nop")
        a.emit("mov", Reg("rax"), Imm(1))
        a.emit("ret")
        b = a.assemble()
        assert b.text[0].addr == TEXT_BASE
        assert b.text[1].addr == b.text[0].next_addr
        assert b.text[2].addr == b.text[1].next_addr

    def test_duplicate_label_rejected(self):
        a = Assembler()
        a.label("main")
        a.label("x")
        a.emit("ret")
        a.label("x")
        with pytest.raises(AssemblyError):
            a.assemble()

    def test_undefined_symbol_rejected(self):
        a = Assembler()
        a.label("main")
        a.emit("jmp", Label("nowhere"))
        with pytest.raises(AssemblyError):
            a.assemble()

    def test_missing_entry_rejected(self):
        a = Assembler()
        a.label("start")
        a.emit("ret")
        with pytest.raises(AssemblyError):
            a.assemble(entry="main")

    def test_data_directives(self):
        a = Assembler()
        a.double("pi", 3.25)
        a.quad("answer", 42)
        a.quad("table", [1, 2, 3])
        a.asciiz("s", "hi")
        a.space("buf", 64)
        a.label("main")
        a.emit("ret")
        b = a.assemble()
        import struct

        off = b.symbols["pi"] - b.data_base
        assert struct.unpack_from("<d", b.data, off)[0] == 3.25
        off = b.symbols["answer"] - b.data_base
        assert struct.unpack_from("<Q", b.data, off)[0] == 42
        off = b.symbols["s"] - b.data_base
        assert bytes(b.data[off:off + 3]) == b"hi\x00"
        assert "s" in b.rodata_symbols

    def test_duplicate_data_symbol(self):
        a = Assembler()
        a.quad("x", 1)
        with pytest.raises(AssemblyError):
            a.quad("x", 2)

    def test_externs_get_plt_addresses(self):
        a = Assembler()
        a.extern("printf", "sin")
        a.label("main")
        a.emit("call", Label("sin"))
        a.emit("ret")
        b = a.assemble()
        assert b.imports["printf"] == IMPORT_BASE
        assert b.imports["sin"] == IMPORT_BASE + 16
        assert b.text[0].operands[0].value == b.imports["sin"]

    def test_mem_disp_label_resolved(self):
        a = Assembler()
        a.double("c", 1.5)
        a.label("main")
        a.emit("movsd", Xmm(0), Mem(disp=Label("c")))
        a.emit("ret")
        b = a.assemble()
        assert b.text[0].operands[1].disp == b.symbols["c"]

    def test_replace_instruction_same_length(self):
        a = Assembler()
        a.label("main")
        a.emit("addsd", Xmm(0), Xmm(1))
        a.emit("ret")
        b = a.assemble()
        site = b.text[0].addr
        patch = Instruction("fpvm_trap", (), site, b.text[0].length,
                            payload={"original": b.text[0]})
        old = b.replace_instruction(site, patch)
        assert old.mnemonic == "addsd"
        assert b.instruction_at(site).mnemonic == "fpvm_trap"

    def test_replace_instruction_length_mismatch(self):
        a = Assembler()
        a.label("main")
        a.emit("ret")
        b = a.assemble()
        with pytest.raises(AssemblyError):
            b.replace_instruction(b.entry, Instruction("nop", (), 0, 9))

    def test_text_index_by_address(self):
        a = Assembler()
        a.label("main")
        a.emit("addsd", Xmm(0), Xmm(1))
        a.emit("nop")
        a.emit("mulsd", Xmm(0), Xmm(1))
        b = a.assemble()
        first, last = b.text[0], b.text[-1]
        assert b.text_index(first.addr) == 0
        assert b.text_index(last.addr) == len(b.text) - 1
        with pytest.raises(AssemblyError):
            b.text_index(b.text_end)  # one past the last instruction
        # patching the first and last slots finds them by address
        for ins in (first, last):
            patch = Instruction("fpvm_trap", (), ins.addr, ins.length,
                                payload={"original": ins})
            assert b.replace_instruction(ins.addr, patch) is ins
        assert [i.mnemonic for i in b.text] == ["fpvm_trap", "nop",
                                                "fpvm_trap"]
        assert b.text_index(last.addr) == 2
        with pytest.raises(AssemblyError):
            b.replace_instruction(b.text_end, patch)

    def test_disassemble_mentions_symbols(self):
        a = Assembler()
        a.label("main")
        a.emit("nop")
        a.emit("ret")
        listing = a.assemble().disassemble()
        assert "main:" in listing and "nop" in listing

    def test_function_symbols(self):
        a = Assembler()
        a.quad("g", 0)
        a.label("main")
        a.emit("ret")
        b = a.assemble()
        fs = b.function_symbols()
        assert "main" in fs and "g" not in fs
