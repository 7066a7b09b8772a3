"""Unit tests for integer instruction semantics on the simulated CPU."""

import pytest

from repro.errors import MachineError
from conftest import (
    EAX, RAX, RBX, RCX,
    imm, lbl, mem, run_program,
)


class TestMovLea:
    def test_mov_imm(self):
        m = run_program(lambda a: a.emit("mov", RAX, imm(42)))
        assert m.regs.get_gpr("rax") == 42

    def test_movabs_64bit(self):
        m = run_program(lambda a: a.emit("movabs", RAX,
                                         imm(0x1122334455667788)))
        assert m.regs.get_gpr("rax") == 0x1122334455667788

    def test_mov_mem_roundtrip(self):
        def body(a):
            a.emit("movabs", RAX, lbl("buf"))
            a.emit("mov", RCX, imm(0xBEEF))
            a.emit("mov", mem(RAX), RCX)
            a.emit("mov", RBX, mem(RAX))

        def data(a):
            a.space("buf", 16)

        m = run_program(body, data=data)
        assert m.regs.get_gpr("rbx") == 0xBEEF

    def test_mov_32bit_zero_extends(self):
        def body(a):
            a.emit("movabs", RAX, imm(0xFFFF_FFFF_FFFF_FFFF))
            a.emit("mov", EAX, imm(5))

        m = run_program(body)
        assert m.regs.get_gpr("rax") == 5

    def test_lea(self):
        def body(a):
            a.emit("mov", RBX, imm(0x100))
            a.emit("mov", RCX, imm(4))
            a.emit("lea", RAX, mem(RBX, disp=8, index=RCX, scale=8))

        m = run_program(body)
        assert m.regs.get_gpr("rax") == 0x100 + 8 + 32

    def test_movzx_movsx(self):
        def body(a):
            a.emit("movabs", RAX, lbl("b"))
            a.emit("movzx", RBX, mem(RAX, size=1))
            a.emit("movsx", RCX, mem(RAX, size=1))

        def data(a):
            a.quad("b", 0xF0)  # -16 as i8

        m = run_program(body, data=data)
        assert m.regs.get_gpr("rbx") == 0xF0
        assert m.regs.get_gpr("rcx") == 0xF0 | (0xFFFFFFFFFFFFFF << 8)

    def test_xchg(self):
        def body(a):
            a.emit("mov", RAX, imm(1))
            a.emit("mov", RBX, imm(2))
            a.emit("xchg", RAX, RBX)

        m = run_program(body)
        assert m.regs.get_gpr("rax") == 2 and m.regs.get_gpr("rbx") == 1


class TestALU:
    def test_add_sub(self):
        def body(a):
            a.emit("mov", RAX, imm(10))
            a.emit("add", RAX, imm(5))
            a.emit("sub", RAX, imm(3))

        assert run_program(body).regs.get_gpr("rax") == 12

    def test_add_wraps_and_sets_cf(self):
        def body(a):
            a.emit("movabs", RAX, imm(0xFFFF_FFFF_FFFF_FFFF))
            a.emit("add", RAX, imm(1))
            a.emit("setb", Rcl := __import__("repro.isa.operands",
                                            fromlist=["Reg"]).Reg("cl"))

        m = run_program(body)
        assert m.regs.get_gpr("rax") == 0
        assert m.regs.get_gpr("rcx") & 0xFF == 1

    def test_signed_overflow_sets_of(self):
        def body(a):
            a.emit("movabs", RAX, imm(0x7FFF_FFFF_FFFF_FFFF))
            a.emit("add", RAX, imm(1))

        m = run_program(body)
        assert m.regs.of == 1 and m.regs.sf == 1

    def test_logic_ops(self):
        def body(a):
            a.emit("mov", RAX, imm(0b1100))
            a.emit("and", RAX, imm(0b1010))
            a.emit("or", RAX, imm(0b0001))
            a.emit("xor", RAX, imm(0b1111))

        assert run_program(body).regs.get_gpr("rax") == 0b0110

    def test_not_neg(self):
        def body(a):
            a.emit("mov", RAX, imm(5))
            a.emit("neg", RAX)
            a.emit("mov", RBX, imm(0))
            a.emit("not", RBX)

        m = run_program(body)
        assert m.regs.get_gpr("rax") == (-5) & ((1 << 64) - 1)
        assert m.regs.get_gpr("rbx") == (1 << 64) - 1

    def test_inc_dec_preserve_cf(self):
        def body(a):
            a.emit("movabs", RAX, imm(0xFFFF_FFFF_FFFF_FFFF))
            a.emit("add", RAX, imm(1))  # sets CF
            a.emit("inc", RAX)

        m = run_program(body)
        assert m.regs.cf == 1  # inc must not clear carry

    def test_shifts(self):
        def body(a):
            a.emit("mov", RAX, imm(1))
            a.emit("shl", RAX, imm(10))
            a.emit("mov", RBX, imm(1024))
            a.emit("shr", RBX, imm(3))
            a.emit("movabs", RCX, imm((-64) & ((1 << 64) - 1)))
            a.emit("sar", RCX, imm(2))

        m = run_program(body)
        assert m.regs.get_gpr("rax") == 1024
        assert m.regs.get_gpr("rbx") == 128
        assert m.regs.get_gpr("rcx") == (-16) & ((1 << 64) - 1)

    def test_imul(self):
        def body(a):
            a.emit("mov", RAX, imm(7))
            a.emit("mov", RCX, imm(-3 & ((1 << 64) - 1)))
            a.emit("imul", RAX, RCX)

        assert run_program(body).regs.get_gpr("rax") == \
            (-21) & ((1 << 64) - 1)

    def test_idiv(self):
        def body(a):
            a.emit("movabs", RAX, imm((-17) & ((1 << 64) - 1)))
            a.emit("cqo")
            a.emit("mov", RCX, imm(5))
            a.emit("idiv", RCX)

        m = run_program(body)
        # C semantics: -17 / 5 == -3 rem -2
        assert m.regs.get_gpr("rax") == (-3) & ((1 << 64) - 1)
        assert m.regs.get_gpr("rdx") == (-2) & ((1 << 64) - 1)

    def test_idiv_by_zero_raises(self):
        def body(a):
            a.emit("mov", RAX, imm(1))
            a.emit("cqo")
            a.emit("mov", RCX, imm(0))
            a.emit("idiv", RCX)

        with pytest.raises(MachineError):
            run_program(body)


class TestControlFlow:
    @pytest.mark.parametrize("jcc,a,b,taken", [
        ("je", 1, 1, True), ("je", 1, 2, False),
        ("jne", 1, 2, True), ("jl", -1, 1, True), ("jl", 1, -1, False),
        ("jle", 2, 2, True), ("jg", 3, 2, True), ("jge", 2, 2, True),
        ("jb", 1, 2, True), ("jb", -1, 1, False),  # unsigned!
        ("jbe", 2, 2, True), ("ja", 2, 1, True), ("jae", 1, 2, False),
    ])
    def test_conditional_jumps(self, jcc, a, b, taken):
        def body(asm):
            asm.emit("movabs", RAX, imm(a & ((1 << 64) - 1)))
            asm.emit("movabs", RCX, imm(b & ((1 << 64) - 1)))
            asm.emit("cmp", RAX, RCX)
            asm.emit(jcc, lbl("yes"))
            asm.emit("mov", RBX, imm(0))
            asm.emit("jmp", lbl("out"))
            asm.label("yes")
            asm.emit("mov", RBX, imm(1))
            asm.label("out")

        m = run_program(body)
        assert m.regs.get_gpr("rbx") == (1 if taken else 0)

    def test_loop(self):
        def body(a):
            a.emit("mov", RAX, imm(0))
            a.emit("mov", RCX, imm(10))
            a.label("top")
            a.emit("add", RAX, RCX)
            a.emit("dec", RCX)
            a.emit("jne", lbl("top"))

        assert run_program(body).regs.get_gpr("rax") == 55

    def test_call_ret(self):
        def body(a):
            a.emit("call", lbl("five"))
            a.emit("add", RAX, imm(1))
            a.emit("ret")
            a.label("five")
            a.emit("mov", RAX, imm(5))

        # "five" falls through to the trailing ret added by the helper;
        # easier: define explicitly
        from repro.machine.loader import load_binary
        from repro.asm import Assembler

        asm = Assembler()
        asm.label("main")
        asm.emit("call", lbl("five"))
        asm.emit("add", RAX, imm(1))
        asm.emit("ret")
        asm.label("five")
        asm.emit("mov", RAX, imm(5))
        asm.emit("ret")
        m = load_binary(asm.assemble())
        m.run()
        assert m.exit_code == 6

    def test_exit_code_from_rax(self):
        def body(a):
            a.emit("mov", RAX, imm(3))

        assert run_program(body).exit_code == 3

    def test_push_pop(self):
        def body(a):
            a.emit("mov", RAX, imm(0x77))
            a.emit("push", RAX)
            a.emit("mov", RAX, imm(0))
            a.emit("pop", RBX)

        assert run_program(body).regs.get_gpr("rbx") == 0x77

    def test_setcc_and_cmov(self):
        def body(a):
            a.emit("mov", RAX, imm(2))
            a.emit("cmp", RAX, imm(2))
            a.emit("sete", __import__("repro.isa.operands",
                                      fromlist=["Reg"]).Reg("al"))
            a.emit("mov", RBX, imm(9))
            a.emit("mov", RCX, imm(7))
            a.emit("cmp", RBX, RCX)
            a.emit("cmovg", RCX, RBX)

        m = run_program(body)
        assert m.regs.get_gpr("rax") & 0xFF == 1
        assert m.regs.get_gpr("rcx") == 9

    def test_ud2_raises(self):
        with pytest.raises(MachineError):
            run_program(lambda a: a.emit("ud2"))

    def test_int3_raises(self):
        with pytest.raises(MachineError):
            run_program(lambda a: a.emit("int3"))

    def test_hlt(self):
        def body(a):
            a.emit("mov", RAX, imm(9))
            a.emit("hlt")

        assert run_program(body).exit_code == 9

    def test_instruction_budget(self):
        from repro.asm import Assembler
        from repro.machine.loader import load_binary

        a = Assembler()
        a.label("main")
        a.label("spin")
        a.emit("jmp", lbl("spin"))
        m = load_binary(a.assemble())
        with pytest.raises(MachineError):
            m.run(max_instructions=100)
