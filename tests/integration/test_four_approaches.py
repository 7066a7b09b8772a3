"""The §3 four-approach matrix (Fig. 3), executable.

All four ways of building an FPVM produce identical results; their
cost structures differ exactly as the paper's comparison table says:

* trap-and-emulate: zero overhead when arithmetic isn't involved,
  expensive fault delivery when it is;
* trap-and-patch: delivery only on first fault per site;
* static binary transformation: no hardware checks at all, every FP
  site pays the software check always;
* compiler-based: like static, with cheaper (optimizer-folded) checks.
"""

import pytest

from repro.arith import BigFloatArithmetic, VanillaArithmetic
from repro.compiler import compile_source
from repro.harness.experiment import slowdown
from repro.workloads import WORKLOADS
from repro.session import Session
from repro.fpvm.runtime import FPVMConfig

HOT_SRC = """
long main() {
    double x = 1.0;
    for (long i = 0; i < 150; i = i + 1) { x = x / 3.0 + 1.0; }
    printf("%.17g\\n", x);
    return 0;
}
"""


def _four_runs(src, arith_factory):
    runs = {}
    runs["tae"] = Session(lambda: compile_source(src), arith_factory(), config=FPVMConfig(mode="trap-and-emulate")).run()
    runs["tap"] = Session(lambda: compile_source(src), arith_factory(), config=FPVMConfig(mode="trap-and-patch")).run()
    runs["static"] = Session(lambda: compile_source(src), arith_factory(), config=FPVMConfig(mode="static")).run()
    runs["compiler"] = Session(lambda: compile_source(src, instrument_fp=True), arith_factory(), config=FPVMConfig(mode="static")).run()
    return runs


class TestCorrectness:
    def test_all_four_identical_output(self):
        native = Session(lambda: compile_source(HOT_SRC), None).run()
        runs = _four_runs(HOT_SRC, VanillaArithmetic)
        for name, r in runs.items():
            assert r.stdout == native.stdout, name

    @pytest.mark.parametrize("name", ["lorenz", "nas_ep", "enzo"])
    def test_static_mode_on_workloads(self, name):
        spec = WORKLOADS[name]
        native = Session(lambda: spec.build("test"), None).run()
        r = Session(lambda: spec.build("test"), VanillaArithmetic(), config=FPVMConfig(mode="static")).run()
        assert r.stdout == native.stdout
        assert r.fp_traps == 0  # "no hardware checks are used at all"

    def test_compiler_instrumented_runs_without_fpvm(self):
        native = Session(lambda: compile_source(HOT_SRC), None).run()
        inst = Session(lambda: compile_source(HOT_SRC,
                                                 instrument_fp=True), None).run()
        assert inst.stdout == native.stdout

    def test_instrument_counts_sites(self):
        binary = compile_source(HOT_SRC)
        fp_sites = sum(1 for i in binary.text
                       if i.mnemonic in ("divsd", "addsd", "ucomisd"))
        b2 = compile_source(HOT_SRC, instrument_fp=True)
        patched = sum(1 for i in b2.text if i.mnemonic == "fpvm_patch")
        assert patched >= fp_sites

    def test_analysis_of_instrumented_binary(self):
        """VSA looks through compiler checks (the §3.4 pipeline still
        needs sink patching for the integer-load holes)."""
        src = HOT_SRC.replace('printf("%.17g\\n", x);',
                              'printf("%.17g %d\\n", x, __bits(x) & 7);')
        native = Session(lambda: compile_source(src), None).run()
        r = Session(lambda: compile_source(src, instrument_fp=True), VanillaArithmetic(), config=FPVMConfig(mode="static")).run()
        assert r.stdout == native.stdout


class TestCostStructure:
    def test_hot_loop_ordering(self):
        """Always-trapping code: TAE pays delivery every time and loses
        to all three check-based approaches (Fig. 3 row 'overhead when
        alternative arithmetic involved')."""
        native = Session(lambda: compile_source(HOT_SRC), None).run()
        runs = _four_runs(HOT_SRC, lambda: BigFloatArithmetic(200))
        s = {k: slowdown(native, v) for k, v in runs.items()}
        assert s["tae"] > s["tap"] > 1
        assert s["tae"] > s["static"] > 1
        # compiler checks are the cheapest of the check-based trio
        assert s["compiler"] <= s["static"] + 1

    def test_static_has_no_fault_deliveries(self):
        runs = _four_runs(HOT_SRC, VanillaArithmetic)
        assert runs["static"].fp_traps == 0
        assert runs["compiler"].fp_traps == 0
        assert runs["tae"].fp_traps > 100

    def test_cold_code_prefers_tae(self):
        """Code whose FP never rounds: TAE pays nothing (hardware
        checks are free), static pays its checks on every site (Fig. 3
        row 'overhead when alternative arithmetic not involved')."""
        src = """
        long main() {
            double acc = 0.0;
            for (long i = 0; i < 120; i = i + 1) {
                acc = acc + 1.5;        // exact: never traps
            }
            printf("%g\\n", acc);
            return 0;
        }
        """
        native = Session(lambda: compile_source(src), None).run()
        tae = Session(lambda: compile_source(src), VanillaArithmetic(), config=FPVMConfig(mode="trap-and-emulate")).run()
        static = Session(lambda: compile_source(src), VanillaArithmetic(), config=FPVMConfig(mode="static")).run()
        assert tae.stdout == static.stdout == native.stdout
        assert tae.fp_traps == 0
        tae_over = tae.cycles - native.cycles
        static_over = static.cycles - native.cycles
        assert tae_over < static_over  # zero-ish vs per-site checks
