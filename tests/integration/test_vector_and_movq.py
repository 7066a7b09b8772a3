"""End-to-end FPVM coverage for the packed-double path ("the emulator
handles vectors", §4.3) and the movq bit-transfer hole."""

from repro.analysis import analyze_and_patch
from repro.arith import BigFloatArithmetic, VanillaArithmetic
from repro.fpvm import FPVM
from repro.ieee.bits import bits_to_f64, f64_to_bits
from repro.machine.loader import load_binary
from conftest import RAX, RBX, XMM0, asm_program, imm, lbl, mem


def fp_data(pairs):
    def data(a):
        for name, val in pairs:
            if isinstance(val, list):
                a.double(name, val)
            else:
                a.double(name, val)
    return data


def build_packed():
    """Packed loop: v = v/3 + c elementwise on both lanes."""
    def body(a):
        a.emit("movapd", XMM0, mem(disp=lbl("v"), size=16))
        a.emit("mov", RBX, imm(6))
        a.label("top")
        a.emit("divpd", XMM0, mem(disp=lbl("three"), size=16))
        a.emit("addpd", XMM0, mem(disp=lbl("c"), size=16))
        a.emit("dec", RBX)
        a.emit("jne", lbl("top"))
        a.emit("movapd", mem(disp=lbl("v"), size=16), XMM0)

    return asm_program(body, data=fp_data([
        ("v", [1.0, 2.0]), ("three", [3.0, 3.0]), ("c", [1.0, 0.5]),
    ]))


def _lanes(m, binary):
    base = binary.symbols["v"]
    return (bits_to_f64(m.memory.read(base, 8)),
            bits_to_f64(m.memory.read(base + 8, 8)))


def test_packed_vanilla_identical():
    m_nat = load_binary(build_packed())
    m_nat.run()
    nat = _lanes(m_nat, m_nat.binary)

    binary = build_packed()
    m = load_binary(binary)
    fpvm = FPVM(VanillaArithmetic())
    fpvm.install(m)
    m.run()
    fpvm.uninstall()  # demotes the stored lanes in place
    assert _lanes(m, binary) == nat
    # one trap covered both lanes; two shadow values per trap
    assert fpvm.emulator.boxes_created >= 2 * m.fp_trap_count


def test_packed_mpfr_lanes_independent():
    binary = build_packed()
    m = load_binary(binary)
    fpvm = FPVM(BigFloatArithmetic(200))
    fpvm.install(m)
    m.run()
    fpvm.uninstall()
    lo, hi = _lanes(m, binary)
    # six steps of x -> x/3 + c: x6 = fix + (x0 - fix) * 3^-6
    assert abs(lo - (1.5 - 0.5 * 3.0**-6)) < 1e-12
    assert abs(hi - (0.75 + 1.25 * 3.0**-6)) < 1e-12
    assert lo != hi


def test_movq_hole_and_patch():
    """movq r64, xmm silently exfiltrates a box; the analyzer patches
    it unconditionally and the demotion restores real bits."""
    def body(a):
        a.emit("movsd", XMM0, mem(disp=lbl("one")))
        a.emit("divsd", XMM0, mem(disp=lbl("three")))  # boxed
        a.emit("movq", RAX, XMM0)                       # the hole
        a.emit("mov", RBX, RAX)

    def data(a):
        a.double("one", 1.0)
        a.double("three", 3.0)

    expected = f64_to_bits(1.0 / 3.0)

    # unpatched: rbx holds box bits
    m = load_binary(asm_program(body, data=data))
    FPVM(VanillaArithmetic()).install(m)
    m.run()
    assert m.regs.get_gpr("rbx") != expected

    # patched: movq site demotes first
    binary = asm_program(body, data=data)
    report = analyze_and_patch(binary)
    assert report.movq_sites
    m = load_binary(binary)
    fpvm = FPVM(VanillaArithmetic())
    fpvm.install(m)
    m.run()
    assert m.regs.get_gpr("rbx") == expected
    assert fpvm.stats.correctness_demotions >= 1
