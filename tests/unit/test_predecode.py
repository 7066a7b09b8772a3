"""Hand-computed semantics of compiled steps, and the retirement rule.

Every mnemonic compiles to its own maker in ``repro.machine.predecode``;
these tests pin the makers with no other unit coverage against values
worked out by hand, and pin that an instruction retires exactly once:
patch sites retire as the instruction they replaced, and
``Machine.execute`` (a handler's re-execution) charges cycles without
retiring again.
"""

import pytest

from repro.asm import Assembler
from repro.errors import MachineError
from repro.ieee.bits import bits_to_f64, f32_to_bits, f64_to_bits
from repro.isa.instructions import Instruction
from repro.isa.opcodes import OPCODES
from repro.isa.operands import Reg
from repro.machine.costmodel import R815, instruction_cost
from repro.machine.loader import load_binary
from repro.machine.predecode import _MAKERS
from conftest import (EAX, RAX, RCX, RDX, XMM0, XMM1, asm_program, imm, lbl,
                      mem, run_program)

_M64 = (1 << 64) - 1


def test_every_mnemonic_has_its_own_maker():
    assert set(_MAKERS) == set(OPCODES)


class TestSqrtpd:
    def test_both_lanes_from_memory(self):
        def body(a):
            a.emit("sqrtpd", XMM0, mem(disp=lbl("v")))

        def data(a):
            a.double("v", 6.25)
            a.double("v_hi", 16.0)

        m = run_program(body, data=data)
        assert bits_to_f64(m.regs.xmm_lo(0)) == 2.5
        assert bits_to_f64(m.regs.xmm_hi(0)) == 4.0
        assert m.fp_instr_count == 1  # one instruction, two lanes

    def test_negative_lane_gives_default_nan(self):
        def body(a):
            a.emit("movapd", XMM1, mem(disp=lbl("v")))
            a.emit("sqrtpd", XMM0, XMM1)

        def data(a):
            a.double("v", 9.0)
            a.double("v_hi", -1.0)

        m = run_program(body, data=data)
        assert bits_to_f64(m.regs.xmm_lo(0)) == 3.0
        assert m.regs.xmm_hi(0) == 0xFFF8_0000_0000_0000


class TestMovss:
    def test_reg_reg_merges_low_32_bits_only(self):
        def body(a):
            a.emit("movabs", RAX, imm(0xAAAA_BBBB_CCCC_DDDD))
            a.emit("movq", XMM0, RAX)
            a.emit("movhpd", XMM0, mem(disp=lbl("hi")))
            a.emit("movabs", RAX, imm(0x1234_5678_0000_0000
                                      | f32_to_bits(1.5)))
            a.emit("movq", XMM1, RAX)
            a.emit("movss", XMM0, XMM1)

        def data(a):
            a.quad("hi", 0x0102_0304_0506_0708)

        m = run_program(body, data=data)
        assert m.regs.xmm_lo(0) == 0xAAAA_BBBB_0000_0000 | f32_to_bits(1.5)
        assert m.regs.xmm_hi(0) == 0x0102_0304_0506_0708

    def test_store_writes_four_bytes(self):
        def body(a):
            a.emit("movabs", RAX, imm(0xFFFF_FFFF_8888_9999))
            a.emit("movq", XMM0, RAX)
            a.emit("movss", mem(disp=lbl("s"), size=4), XMM0)
            a.emit("mov", RCX, mem(disp=lbl("s")))

        def data(a):
            a.quad("s", 0x1111_2222_3333_4444)

        m = run_program(body, data=data)
        assert m.regs.get_gpr("rcx") == 0x1111_2222_8888_9999


class TestCvtsi2sd32:
    def test_register_source_ignores_upper_half(self):
        def body(a):
            # eax = -7; the upper 32 bits of rax must not leak in
            a.emit("movabs", RAX, imm(0x1234_5678_FFFF_FFF9))
            a.emit("cvtsi2sd", XMM0, EAX)

        m = run_program(body)
        assert bits_to_f64(m.regs.xmm_lo(0)) == -7.0
        assert m.fp_instr_count == 1

    def test_memory_source(self):
        def body(a):
            a.emit("cvtsi2sd", XMM0, mem(disp=lbl("i"), size=4))

        def data(a):
            a.quad("i", 0x7FFF_FFFF_8000_0000)  # low dword = INT32_MIN

        m = run_program(body, data=data)
        assert bits_to_f64(m.regs.xmm_lo(0)) == -2147483648.0


class TestIdivSigns:
    @pytest.mark.parametrize("dividend,divisor,q,r", [
        (-7, 2, -3, -1),     # quotient toward zero, not floor (-4)
        (7, -2, -3, 1),      # remainder keeps the dividend's sign
        (-7, -2, 3, -1),
        (-6, 3, -2, 0),
        (2**60 + 1, 3, 384307168202282325, 2),   # beyond float64's 53 bits
        (-(2**62) - 7, 5, -922337203685477582, -1),
    ])
    def test_truncates_toward_zero(self, dividend, divisor, q, r):
        def body(a):
            a.emit("movabs", RAX, imm(dividend & _M64))
            a.emit("cqo")
            a.emit("movabs", RCX, imm(divisor & _M64))
            a.emit("idiv", RCX)

        m = run_program(body)
        assert m.regs.get_gpr("rax") == q & _M64
        assert m.regs.get_gpr("rdx") == r & _M64

    def test_int64_min_over_minus_one_overflows(self):
        def body(a):
            a.emit("movabs", RAX, imm(1 << 63))
            a.emit("cqo")
            a.emit("movabs", RCX, imm(_M64))  # -1
            a.emit("idiv", RCX)

        with pytest.raises(MachineError, match="idiv overflow"):
            run_program(body)

    def test_wide_dividend_overflows(self):
        def body(a):
            a.emit("mov", RDX, imm(1))       # rdx:rax = 2**64
            a.emit("mov", RAX, imm(0))
            a.emit("mov", RCX, imm(1))
            a.emit("idiv", RCX)

        with pytest.raises(MachineError, match="idiv overflow"):
            run_program(body)


# --------------------------------------------------------------------------- #
# patch sites without a handler: a transparent single retirement              #
# --------------------------------------------------------------------------- #

def _addsd_program():
    def body(a):
        a.emit("movsd", XMM0, mem(disp=lbl("x")))
        a.emit("addsd", XMM0, mem(disp=lbl("y")))
        a.emit("cvttsd2si", RAX, XMM0)

    def data(a):
        a.double("x", 40.25)
        a.double("y", 1.75)

    return asm_program(body, data=data)


@pytest.mark.parametrize("kind", ["fpvm_trap", "fpvm_patch"])
def test_patch_site_without_handler_retires_once(kind):
    native = load_binary(_addsd_program())
    native.run()

    binary = _addsd_program()
    site = binary.text[1]
    assert site.mnemonic == "addsd"
    binary.replace_instruction(site.addr, Instruction(
        kind, (), site.addr, site.length, payload={"original": site}))
    m = load_binary(binary)
    m.run()

    assert m.exit_code == native.exit_code == 42
    assert m.regs.snapshot() == native.regs.snapshot()
    assert (m.instr_count, m.fp_instr_count) == \
        (native.instr_count, native.fp_instr_count) == (4, 2)
    assert m.correctness_trap_count == (kind == "fpvm_trap")
    # the patch site charges its own slot on top of the original's
    extra = instruction_cost(R815, Instruction(kind, (), 0))
    assert m.cost.cycles == pytest.approx(native.cost.cycles + extra)


# --------------------------------------------------------------------------- #
# Machine.execute and Machine.step                                             #
# --------------------------------------------------------------------------- #

def test_execute_charges_without_retiring():
    m = load_binary(_addsd_program())
    load, add = m.binary.text[0], m.binary.text[1]
    m.execute(load)
    m.execute(add)
    assert (m.instr_count, m.fp_instr_count) == (0, 0)
    assert m.cost.cycles == (instruction_cost(R815, load)
                             + instruction_cost(R815, add))
    assert bits_to_f64(m.regs.xmm_lo(0)) == 42.0
    assert m.regs.rip == add.next_addr


def test_execute_compiles_per_instruction_not_per_address():
    """The trap-site JIT replaces ``_code[addr]``; a re-execution must
    still run the instruction's own semantics."""
    m = load_binary(_addsd_program())
    add = m.binary.text[1]

    def replaced():
        raise AssertionError("execute read the live step table")

    m._code[add.addr] = replaced
    m.regs.set_xmm_lo(0, f64_to_bits(1.0))
    m.execute(add)
    assert bits_to_f64(m.regs.xmm_lo(0)) == 2.75
    cached = m._reexec[id(add)][1]
    m.execute(add)
    assert m._reexec[id(add)][1] is cached
    m.set_oracle(None)
    assert m._reexec == {}


def test_step_runs_one_instruction():
    m = load_binary(_addsd_program())
    entry = m.regs.rip
    m.step()
    assert m.instr_count == 1
    assert m.regs.rip == m.binary.instruction_at(entry).next_addr
    while not m.halted:
        m.step()
    assert (m.instr_count, m.exit_code) == (4, 42)


def test_step_off_the_text_raises():
    a = Assembler()
    a.label("main")
    a.emit("jmp", Reg("rax"))
    m = load_binary(a.assemble())
    m.step()
    with pytest.raises(MachineError, match="no instruction"):
        m.step()
