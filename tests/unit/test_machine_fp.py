"""Unit tests for FP instruction semantics, trap precision, and the
non-faulting "correctness hole" ops on the simulated CPU."""

import pytest

from repro.errors import UnhandledTrap
from repro.ieee.bits import (
    F64_EXP_MASK,
    F64_SIGN_BIT,
    bits_to_f64,
    f32_to_bits,
    f64_to_bits,
)
from repro.ieee.softfloat import Flags
from repro.isa.operands import Imm
from repro.machine.loader import load_binary
from repro.machine.traps import TrapKind
from conftest import RAX, RBX, XMM0, XMM1, XMM2, asm_program, imm, lbl, mem, run_program


def fload(a, x_reg, name):
    """Emit a load of a double constant into an xmm register."""
    a.emit("movsd", x_reg, mem(disp=lbl(name)))


def fp_data(pairs):
    def data(a):
        for name, val in pairs:
            a.double(name, val)
    return data


class TestScalarArith:
    def test_addsd(self):
        def body(a):
            fload(a, XMM0, "x")
            fload(a, XMM1, "y")
            a.emit("addsd", XMM0, XMM1)

        m = run_program(body, data=fp_data([("x", 2.0), ("y", 3.0)]))
        assert bits_to_f64(m.regs.xmm_lo(0)) == 5.0

    def test_addsd_mem_operand(self):
        def body(a):
            fload(a, XMM0, "x")
            a.emit("addsd", XMM0, mem(disp=lbl("y")))

        m = run_program(body, data=fp_data([("x", 1.5), ("y", 0.25)]))
        assert bits_to_f64(m.regs.xmm_lo(0)) == 1.75

    def test_sub_mul_div_sqrt(self):
        def body(a):
            fload(a, XMM0, "x")
            a.emit("subsd", XMM0, mem(disp=lbl("y")))   # 6 - 2 = 4
            a.emit("mulsd", XMM0, mem(disp=lbl("y")))   # 8
            a.emit("divsd", XMM0, mem(disp=lbl("y")))   # 4
            a.emit("sqrtsd", XMM1, XMM0)                # 2

        m = run_program(body, data=fp_data([("x", 6.0), ("y", 2.0)]))
        assert bits_to_f64(m.regs.xmm_lo(1)) == 2.0

    def test_minsd_maxsd(self):
        def body(a):
            fload(a, XMM0, "x")
            fload(a, XMM1, "y")
            a.emit("movapd", XMM2, XMM0)
            a.emit("minsd", XMM2, XMM1)
            a.emit("maxsd", XMM0, XMM1)

        m = run_program(body, data=fp_data([("x", 3.0), ("y", -1.0)]))
        assert bits_to_f64(m.regs.xmm_lo(2)) == -1.0
        assert bits_to_f64(m.regs.xmm_lo(0)) == 3.0

    def test_fmaddsd(self):
        def body(a):
            fload(a, XMM0, "acc")
            fload(a, XMM1, "x")
            fload(a, XMM2, "y")
            a.emit("fmaddsd", XMM0, XMM1, XMM2)  # acc += x*y

        m = run_program(body, data=fp_data([("acc", 1.0), ("x", 2.0),
                                            ("y", 3.0)]))
        assert bits_to_f64(m.regs.xmm_lo(0)) == 7.0

    def test_packed_addpd(self):
        def body(a):
            a.emit("movapd", XMM0, mem(disp=lbl("v1"), size=16))
            a.emit("addpd", XMM0, mem(disp=lbl("v2"), size=16))

        def data(a):
            a.double("v1", [1.0, 2.0])
            a.double("v2", [10.0, 20.0])

        m = run_program(body, data=data)
        assert bits_to_f64(m.regs.xmm_lo(0)) == 11.0
        assert bits_to_f64(m.regs.xmm_hi(0)) == 22.0

    def test_sticky_flags_accumulate_when_masked(self):
        def body(a):
            fload(a, XMM0, "one")
            a.emit("divsd", XMM0, mem(disp=lbl("three")))

        m = run_program(body, data=fp_data([("one", 1.0), ("three", 3.0)]))
        assert m.mxcsr.flags & Flags.PE  # sticky, no trap (masked)
        assert m.fp_trap_count == 0


class TestMoves:
    def test_movsd_load_zeroes_high(self):
        def body(a):
            a.emit("movapd", XMM0, mem(disp=lbl("v"), size=16))
            a.emit("movsd", XMM0, mem(disp=lbl("x")))

        def data(a):
            a.double("v", [1.0, 2.0])
            a.double("x", 9.0)

        m = run_program(body, data=data)
        assert bits_to_f64(m.regs.xmm_lo(0)) == 9.0
        assert m.regs.xmm_hi(0) == 0  # x64: memory form zeroes bits 64:127

    def test_movsd_reg_merges(self):
        def body(a):
            a.emit("movapd", XMM0, mem(disp=lbl("v"), size=16))
            fload(a, XMM1, "x")
            a.emit("movsd", XMM0, XMM1)

        def data(a):
            a.double("v", [1.0, 2.0])
            a.double("x", 9.0)

        m = run_program(body, data=data)
        assert bits_to_f64(m.regs.xmm_lo(0)) == 9.0
        assert bits_to_f64(m.regs.xmm_hi(0)) == 2.0  # preserved

    def test_movq_gpr_xmm_bit_transfer(self):
        def body(a):
            a.emit("movabs", RAX, imm(f64_to_bits(3.5)))
            a.emit("movq", XMM0, RAX)
            a.emit("movq", RBX, XMM0)

        m = run_program(body)
        assert bits_to_f64(m.regs.xmm_lo(0)) == 3.5
        assert m.regs.get_gpr("rbx") == f64_to_bits(3.5)

    def test_movhpd(self):
        def body(a):
            a.emit("movsd", XMM0, mem(disp=lbl("x")))
            a.emit("movhpd", XMM0, mem(disp=lbl("y")))

        m = run_program(body, data=fp_data([("x", 1.0), ("y", 2.0)]))
        assert bits_to_f64(m.regs.xmm_hi(0)) == 2.0

    def test_movss_load(self):
        def body(a):
            a.emit("movss", XMM0, mem(disp=lbl("s"), size=4))

        def data(a):
            a.quad("s", f32_to_bits(1.5))

        m = run_program(body, data=data)
        assert m.regs.xmm_lo(0) & 0xFFFF_FFFF == f32_to_bits(1.5)


class TestBitwiseHole:
    """xorpd/andpd never fault — even on NaN payloads (§4.2)."""

    def test_xorpd_sign_flip(self):
        def body(a):
            fload(a, XMM0, "x")
            a.emit("xorpd", XMM0, mem(disp=lbl("mask"), size=16))

        def data(a):
            a.double("x", 7.5)
            a.quad("mask", [F64_SIGN_BIT, F64_SIGN_BIT])

        m = run_program(body, data=data)
        assert bits_to_f64(m.regs.xmm_lo(0)) == -7.5
        assert m.fp_trap_count == 0

    def test_andpd_abs(self):
        def body(a):
            fload(a, XMM0, "x")
            a.emit("andpd", XMM0, mem(disp=lbl("mask"), size=16))

        def data(a):
            a.double("x", -2.25)
            a.quad("mask", [~F64_SIGN_BIT & ((1 << 64) - 1)] * 2)

        m = run_program(body, data=data)
        assert bits_to_f64(m.regs.xmm_lo(0)) == 2.25

    def test_xorpd_on_snan_does_not_fault(self):
        snan = F64_EXP_MASK | 0x42  # a NaN-box-shaped value
        def body(a):
            a.emit("movabs", RAX, imm(snan))
            a.emit("movq", XMM0, RAX)
            a.emit("xorpd", XMM0, mem(disp=lbl("mask"), size=16))
            a.emit("movq", RBX, XMM0)

        def data(a):
            a.quad("mask", [F64_SIGN_BIT, F64_SIGN_BIT])

        m = run_program(body, data=data)
        # the "NaN" flowed through a bit operation silently
        assert m.regs.get_gpr("rbx") == snan | F64_SIGN_BIT
        assert m.fp_trap_count == 0

    def test_orpd_andnpd(self):
        def body(a):
            a.emit("movabs", RAX, imm(0xF0))
            a.emit("movq", XMM0, RAX)
            a.emit("movabs", RAX, imm(0x0F))
            a.emit("movq", XMM1, RAX)
            a.emit("orpd", XMM0, XMM1)       # 0xFF
            a.emit("movabs", RAX, imm(0x3C))
            a.emit("movq", XMM2, RAX)
            a.emit("andnpd", XMM2, XMM0)     # ~0x3C & 0xFF = 0xC3

        m = run_program(body)
        assert m.regs.xmm_lo(2) == 0xC3


class TestCompareAndCvt:
    def test_ucomisd_sets_rflags(self):
        def body(a):
            fload(a, XMM0, "x")
            a.emit("ucomisd", XMM0, mem(disp=lbl("y")))

        m = run_program(body, data=fp_data([("x", 1.0), ("y", 2.0)]))
        assert (m.regs.zf, m.regs.pf, m.regs.cf) == (0, 0, 1)

    def test_cmpsd_mask(self):
        def body(a):
            fload(a, XMM0, "x")
            a.emit("cmpsd", XMM0, mem(disp=lbl("y")), Imm(1))  # LT

        m = run_program(body, data=fp_data([("x", 1.0), ("y", 2.0)]))
        assert m.regs.xmm_lo(0) == (1 << 64) - 1

    def test_cvtsi2sd_and_back(self):
        def body(a):
            a.emit("mov", RAX, imm(41))
            a.emit("cvtsi2sd", XMM0, RAX)
            a.emit("addsd", XMM0, mem(disp=lbl("one")))
            a.emit("cvttsd2si", RBX, XMM0)

        m = run_program(body, data=fp_data([("one", 1.0)]))
        assert m.regs.get_gpr("rbx") == 42

    def test_cvtsd2si_rounds(self):
        def body(a):
            fload(a, XMM0, "x")
            a.emit("cvtsd2si", RAX, XMM0)
            a.emit("cvttsd2si", RBX, XMM0)

        m = run_program(body, data=fp_data([("x", 2.5)]))
        assert m.regs.get_gpr("rax") == 2  # nearest-even
        assert m.regs.get_gpr("rbx") == 2  # trunc

    def test_cvtsd2ss_cvtss2sd(self):
        def body(a):
            fload(a, XMM0, "x")
            a.emit("cvtsd2ss", XMM1, XMM0)
            a.emit("cvtss2sd", XMM2, XMM1)

        m = run_program(body, data=fp_data([("x", 1.5)]))
        assert bits_to_f64(m.regs.xmm_lo(2)) == 1.5

    def test_roundsd(self):
        def body(a):
            fload(a, XMM0, "x")
            a.emit("roundsd", XMM1, XMM0, Imm(1))  # floor

        m = run_program(body, data=fp_data([("x", 2.7)]))
        assert bits_to_f64(m.regs.xmm_lo(1)) == 2.0

    def test_scalar32_arith(self):
        def body(a):
            a.emit("movss", XMM0, mem(disp=lbl("a"), size=4))
            a.emit("addss", XMM0, mem(disp=lbl("b"), size=4))

        def data(a):
            a.quad("a", f32_to_bits(1.5))
            a.quad("b", f32_to_bits(2.25))

        m = run_program(body, data=data)
        assert m.regs.xmm_lo(0) & 0xFFFF_FFFF == f32_to_bits(3.75)


class TestTrapDelivery:
    def _build(self):
        def body(a):
            a.emit("movsd", XMM0, mem(disp=lbl("one")))
            a.emit("divsd", XMM0, mem(disp=lbl("three")))
            a.emit("mov", RAX, imm(0))

        return asm_program(body, data=fp_data([("one", 1.0),
                                               ("three", 3.0)]))

    def test_unmasked_without_handler_raises(self):
        m = load_binary(self._build())
        m.mxcsr.unmask_all()
        with pytest.raises(UnhandledTrap):
            m.run()

    def test_trap_is_precise_no_commit(self):
        """The faulting instruction must not write its destination."""
        m = load_binary(self._build())
        m.mxcsr.unmask_all()
        seen = {}

        def handler(machine, frame):
            seen["kind"] = frame.kind
            seen["mnemonic"] = frame.instruction.mnemonic
            seen["dest_before_commit"] = bits_to_f64(machine.regs.xmm_lo(0))
            seen["flags"] = frame.fp_flags
            # emulate by hand: write a sentinel, skip the instruction
            machine.regs.set_xmm_lo(0, f64_to_bits(123.0))
            machine.regs.rip = frame.instruction.next_addr

        m.fp_trap_handler = handler
        m.run()
        assert seen["kind"] is TrapKind.FP_EXCEPTION
        assert seen["mnemonic"] == "divsd"
        assert seen["dest_before_commit"] == 1.0  # unmodified
        assert seen["flags"] & Flags.PE
        assert bits_to_f64(m.regs.xmm_lo(0)) == 123.0
        assert m.fp_trap_count == 1

    def test_delivery_charges_platform_cycles(self):
        m = load_binary(self._build())
        m.mxcsr.unmask_all()
        m.fp_trap_handler = lambda machine, fr: setattr(
            machine.regs, "rip", fr.instruction.next_addr)
        m.run()
        plat = m.cost.platform
        assert m.cost.buckets["hw_delivery"] == plat.hw_trap_cycles
        assert m.cost.buckets["kernel_delivery"] == (
            plat.user_trap_total - plat.hw_trap_cycles)

    def test_scenario_kernel_cheaper(self):
        costs = {}
        for scenario in ("user", "kernel", "hrt", "pipeline"):
            m = load_binary(self._build())
            m.delivery_scenario = scenario
            m.mxcsr.unmask_all()
            m.fp_trap_handler = lambda machine, fr: setattr(
                machine.regs, "rip", fr.instruction.next_addr)
            m.run()
            costs[scenario] = (m.cost.buckets.get("hw_delivery", 0)
                               + m.cost.buckets.get("kernel_delivery", 0))
        assert costs["user"] > costs["kernel"] > costs["hrt"] > \
            costs["pipeline"]
