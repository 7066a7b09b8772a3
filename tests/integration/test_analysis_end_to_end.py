"""End-to-end static analysis tests: the §4.2 correctness holes are
real without patching and closed with it."""

from repro.analysis import analyze_and_patch
from repro.arith import BigFloatArithmetic, VanillaArithmetic
from repro.compiler import compile_source
from repro.fpvm import FPVM
from repro.machine.loader import load_binary
from repro.workloads import WORKLOADS
from repro.session import Session

#: a program whose output depends on reinterpreting double bits as ints
BITS_PROGRAM = """
double acc = 0.0;
long main() {
    double x = 1.0;
    for (long i = 0; i < 6; i = i + 1) {
        x = x / 3.0 + 0.25;       // rounds: boxed under FPVM
    }
    long hi = __bits(x) >> 32;    // Fig. 6: int load of FP-stored slot
    double y = -x;                 // xorpd on a (boxed) value
    double z = fabs(y);            // andpd
    acc = z + (double)(hi & 255);
    printf("acc=%.17g hi=%d\\n", acc, hi & 65535);
    return 0;
}
"""


def test_unpatched_fpvm_corrupts_bits_output():
    """Without static patching the program reads NaN-box bits — its
    integer output differs from native (the failure FPVM's static
    analysis exists to prevent)."""
    native = Session(lambda: compile_source(BITS_PROGRAM), None).run()
    virt = Session(lambda: compile_source(BITS_PROGRAM), VanillaArithmetic(), patch=False).run()
    assert virt.stdout != native.stdout


def test_patched_fpvm_matches_native():
    native = Session(lambda: compile_source(BITS_PROGRAM), None).run()
    virt = Session(lambda: compile_source(BITS_PROGRAM), VanillaArithmetic(), patch=True).run()
    assert virt.stdout == native.stdout
    assert virt.correctness_traps > 0
    assert virt.fpvm.stats.correctness_demotions > 0


def test_patched_binary_runs_unchanged_without_fpvm():
    """Patches must be transparent when FPVM is not installed."""
    binary = compile_source(BITS_PROGRAM)
    report = analyze_and_patch(binary)
    assert report.patch_count > 0
    native_plain = Session(lambda: compile_source(BITS_PROGRAM), None).run()
    m = load_binary(binary)
    m.run()
    assert "".join(m.stdout) == native_plain.stdout
    assert m.correctness_trap_count > 0  # traps taken, all no-ops


def test_enzo_needs_patching():
    """enzo's in-loop state hashing makes it the paper's showcase for
    correctness traps: unpatched output is corrupted."""
    spec = WORKLOADS["enzo"]
    native = Session(lambda: spec.build("test"), None).run()
    unpatched = Session(lambda: spec.build("test"), VanillaArithmetic(), patch=False).run()
    patched = Session(lambda: spec.build("test"), VanillaArithmetic(), patch=True).run()
    assert unpatched.stdout != native.stdout
    assert patched.stdout == native.stdout


def test_soundness_gprs_never_hold_live_boxes():
    """The package-level soundness claim: in a patched run, after every
    instruction no GPR contains a live NaN-box."""
    binary = compile_source(BITS_PROGRAM)
    analyze_and_patch(binary)
    m = load_binary(binary)
    fpvm = FPVM(VanillaArithmetic())
    fpvm.install(m)

    violations = []
    while not m.halted:
        ins = m.binary.instruction_at(m.regs.rip)
        m.step()
        for name, bits in m.regs.gpr.items():
            if fpvm.emulator.is_live_box(bits):
                violations.append((hex(ins.addr), ins.mnemonic, name))
    assert m.instr_count > 0
    assert violations == []


def test_mpfr_bits_hash_is_of_demoted_double():
    """Under MPFR the __bits() sink must observe the *demoted* double
    of the 120-bit shadow value — predictable from the bigfloat engine
    directly — never NaN-box bits."""
    from repro.arith.bigfloat import BigFloatContext
    from repro.ieee.bits import f64_to_bits

    ctx = BigFloatContext(120)
    x = ctx.from_int(1)
    three = ctx.from_int(3)
    quarter = ctx.from_float(0.25)
    for _ in range(6):
        x = ctx.add(ctx.div(x, three), quarter)
    expect_hi = (f64_to_bits(x.to_float()) >> 32) & 65535

    virt = Session(lambda: compile_source(BITS_PROGRAM), BigFloatArithmetic(120), patch=True).run()
    got_hi = int(virt.stdout.split("hi=")[1])
    assert got_hi == expect_hi


def test_analysis_of_prepatched_binary_is_stable():
    """Analyzing and patching twice must be idempotent."""
    binary = compile_source(BITS_PROGRAM)
    r1 = analyze_and_patch(binary)
    r2 = analyze_and_patch(binary)  # sees fpvm_trap instructions
    assert r2.patch_count <= r1.patch_count + 1
    m = load_binary(binary)
    fpvm = FPVM(VanillaArithmetic())
    fpvm.install(m)
    m.run()
    native = Session(lambda: compile_source(BITS_PROGRAM), None).run()
    assert "".join(m.stdout) == native.stdout
