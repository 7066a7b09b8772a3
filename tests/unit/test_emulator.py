"""Unit tests for the emulator: boxing policy, promotion/demotion,
universal NaNs, and per-op behaviour over Vanilla arithmetic."""

import math

import pytest

from repro.ieee.bits import (
    F64_DEFAULT_QNAN,
    F64_EXP_MASK,
    f32_to_bits,
    f64_to_bits,
    is_qnan64,
)
from repro.isa.instructions import Instruction
from repro.isa.operands import Imm, Reg, Xmm
from repro.arith import VanillaArithmetic
from repro.fpvm.decoder import decode_instruction
from repro.fpvm.binding import bind
from repro.fpvm.emulator import Emulator
from repro.fpvm.nanbox import NaNBoxCodec
from repro.fpvm.shadow import ShadowStore
from conftest import asm_program
from repro.machine.loader import load_binary


@pytest.fixture
def setup():
    store = ShadowStore()
    codec = NaNBoxCodec()
    emu = Emulator(VanillaArithmetic(), store, codec)

    def body(a):
        a.emit("nop")

    def data(a):
        a.double("scratch", 0.0)

    m = load_binary(asm_program(body, data=data))
    return emu, store, codec, m


def emulate(emu, m, mnemonic, *ops):
    ins = Instruction(mnemonic, tuple(ops), addr=0x400000)
    bound = bind(m, decode_instruction(ins))
    return emu.emulate(m, bound)


class TestUnboxBox:
    def test_promote_plain_double(self, setup):
        emu, _, _, _ = setup
        v = emu.unbox(f64_to_bits(2.5))
        assert v == 2.5
        assert emu.promotions == 1

    def test_unbox_live_box(self, setup):
        emu, store, codec, _ = setup
        h = store.alloc(9.75)
        assert emu.unbox(codec.encode(h)) == 9.75
        assert emu.unbox_hits == 1

    def test_dangling_box_is_universal_nan(self, setup):
        emu, _, codec, _ = setup
        v = emu.unbox(codec.encode(12345))  # no shadow behind it
        assert math.isnan(v)
        assert emu.universal_nans == 1

    def test_program_snan_is_universal_nan(self, setup):
        emu, _, _, _ = setup
        assert math.isnan(emu.unbox(F64_EXP_MASK | 0x7))

    def test_box_allocates_shadow(self, setup):
        emu, store, codec, m = setup
        from repro.fpvm.binding import XmmLoc

        emu.box(XmmLoc(m, 0, 0), 3.0)
        bits = m.regs.xmm_lo(0)
        assert codec.is_box(bits)
        assert store.get(codec.decode(bits)) == 3.0
        assert emu.boxes_created == 1

    def test_nan_results_stay_visible(self, setup):
        emu, _, _, m = setup
        from repro.fpvm.binding import XmmLoc

        emu.box(XmmLoc(m, 0, 0), math.nan)
        assert m.regs.xmm_lo(0) == F64_DEFAULT_QNAN

    def test_demote_bits(self, setup):
        emu, store, codec, _ = setup
        h = store.alloc(6.5)
        assert emu.demote_bits(codec.encode(h)) == f64_to_bits(6.5)
        assert emu.demote_bits(f64_to_bits(1.0)) == f64_to_bits(1.0)
        assert emu.demote_bits(codec.encode(4040)) == F64_DEFAULT_QNAN

    def test_box_exact_results_off(self, setup):
        _, store, codec, m = setup
        emu = Emulator(VanillaArithmetic(), store, codec,
                       box_exact_results=False)
        from repro.fpvm.binding import XmmLoc

        emu.box(XmmLoc(m, 0, 0), 3.0)  # exactly representable
        assert m.regs.xmm_lo(0) == f64_to_bits(3.0)  # stored unboxed
        assert emu.boxes_created == 0


class TestOps:
    def test_add_boxes_result(self, setup):
        emu, store, codec, m = setup
        m.regs.set_xmm_lo(0, f64_to_bits(0.1))
        m.regs.set_xmm_lo(1, f64_to_bits(0.2))
        emulate(emu, m, "addsd", Xmm(0), Xmm(1))
        bits = m.regs.xmm_lo(0)
        assert codec.is_box(bits)
        assert store.get(codec.decode(bits)) == 0.1 + 0.2

    def test_chained_boxed_operands(self, setup):
        emu, store, codec, m = setup
        h = store.alloc(10.0)
        m.regs.set_xmm_lo(0, codec.encode(h))
        m.regs.set_xmm_lo(1, f64_to_bits(2.5))
        emulate(emu, m, "mulsd", Xmm(0), Xmm(1))
        assert store.get(codec.decode(m.regs.xmm_lo(0))) == 25.0

    def test_packed_lanes_emulated_separately(self, setup):
        emu, store, codec, m = setup
        m.regs.set_xmm(0, f64_to_bits(1.0), f64_to_bits(2.0))
        m.regs.set_xmm(1, f64_to_bits(10.0), f64_to_bits(20.0))
        emulate(emu, m, "addpd", Xmm(0), Xmm(1))
        lo = store.get(codec.decode(m.regs.xmm_lo(0)))
        hi = store.get(codec.decode(m.regs.xmm_hi(0)))
        assert (lo, hi) == (11.0, 22.0)

    def test_compare_sets_rflags(self, setup):
        emu, store, codec, m = setup
        h = store.alloc(5.0)
        m.regs.set_xmm_lo(0, codec.encode(h))
        m.regs.set_xmm_lo(1, f64_to_bits(7.0))
        emulate(emu, m, "ucomisd", Xmm(0), Xmm(1))
        assert (m.regs.zf, m.regs.pf, m.regs.cf) == (0, 0, 1)  # 5 < 7

    def test_compare_unordered(self, setup):
        emu, _, _, m = setup
        m.regs.set_xmm_lo(0, F64_DEFAULT_QNAN)
        m.regs.set_xmm_lo(1, f64_to_bits(7.0))
        emulate(emu, m, "ucomisd", Xmm(0), Xmm(1))
        assert (m.regs.zf, m.regs.pf, m.regs.cf) == (1, 1, 1)

    @pytest.mark.parametrize("pred,expect", [
        (0, False), (1, True), (2, True), (4, True), (5, False),
    ])
    def test_cmp_pred(self, setup, pred, expect):
        emu, store, codec, m = setup
        m.regs.set_xmm_lo(0, f64_to_bits(1.0))
        m.regs.set_xmm_lo(1, f64_to_bits(2.0))
        emulate(emu, m, "cmpsd", Xmm(0), Xmm(1), Imm(pred))
        assert (m.regs.xmm_lo(0) == (1 << 64) - 1) == expect

    def test_cvt_to_int_never_boxes(self, setup):
        emu, store, codec, m = setup
        h = store.alloc(41.9)
        m.regs.set_xmm_lo(0, codec.encode(h))
        emulate(emu, m, "cvttsd2si", Reg("rax"), Xmm(0))
        assert m.regs.get_gpr("rax") == 41

    def test_cvt_from_int_boxes(self, setup):
        emu, store, codec, m = setup
        m.regs.set_gpr("rax", 42)
        emulate(emu, m, "cvtsi2sd", Xmm(0), Reg("rax"))
        assert store.get(codec.decode(m.regs.xmm_lo(0))) == 42.0

    def test_f32_never_boxed(self, setup):
        """The 'float problem' (§2): binary32 results are demoted."""
        emu, store, codec, m = setup
        m.regs.set_xmm_lo(0, f32_to_bits(0.1))
        m.regs.set_xmm_lo(1, f32_to_bits(0.2))
        emulate(emu, m, "addss", Xmm(0), Xmm(1))
        lo32 = m.regs.xmm_lo(0) & 0xFFFF_FFFF
        import numpy as np

        assert lo32 == f32_to_bits(float(np.float32(0.1) + np.float32(0.2)))
        assert store.live_count == 0

    def test_cvtsd2ss_demotes(self, setup):
        emu, store, codec, m = setup
        h = store.alloc(1.5)
        m.regs.set_xmm_lo(0, codec.encode(h))
        emulate(emu, m, "cvtsd2ss", Xmm(1), Xmm(0))
        assert m.regs.xmm_lo(1) & 0xFFFF_FFFF == f32_to_bits(1.5)

    def test_round(self, setup):
        emu, store, codec, m = setup
        m.regs.set_xmm_lo(0, f64_to_bits(2.7))
        emulate(emu, m, "roundsd", Xmm(1), Xmm(0), Imm(3))
        assert store.get(codec.decode(m.regs.xmm_lo(1))) == 2.0

    def test_sqrt_negative_universal_nan(self, setup):
        emu, _, _, m = setup
        m.regs.set_xmm_lo(0, f64_to_bits(-4.0))
        emulate(emu, m, "sqrtsd", Xmm(1), Xmm(0))
        assert is_qnan64(m.regs.xmm_lo(1))

    def test_emulate_returns_model_cycles(self, setup):
        emu, _, _, m = setup
        m.regs.set_xmm_lo(0, f64_to_bits(1.0))
        m.regs.set_xmm_lo(1, f64_to_bits(3.0))
        cycles = emulate(emu, m, "divsd", Xmm(0), Xmm(1))
        assert cycles == VanillaArithmetic().op_cycles("div")

    def test_ops_emulated_stats(self, setup):
        emu, _, _, m = setup
        m.regs.set_xmm_lo(0, f64_to_bits(1.0))
        m.regs.set_xmm_lo(1, f64_to_bits(3.0))
        emulate(emu, m, "addsd", Xmm(0), Xmm(1))
        emulate(emu, m, "addsd", Xmm(0), Xmm(1))
        assert emu.ops_emulated["add"] == 2
