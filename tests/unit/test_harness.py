"""Unit tests for the experiment harness and FPVM statistics."""

import pytest

from repro.arith import VanillaArithmetic
from repro.compiler import compile_source
from repro.errors import ReproError
from repro.fpvm.stats import FPVMStats
from repro.harness import figures
from repro.harness.experiment import _default_jobs, slowdown
from repro.fpvm.runtime import FPVMConfig
from repro.session import Session
from repro.harness.platforms import PLATFORMS
from repro.ieee.softfloat import Flags
from repro.machine.costmodel import P7220

SRC = """
long main() {
    double x = 0.0;
    for (long i = 0; i < 8; i = i + 1) { x = x + 0.1; }
    printf("%.6f\\n", x);
    return 3;
}
"""


class TestSessionNative:
    def test_result_fields(self):
        r = Session(lambda: compile_source(SRC), None).run()
        assert r.exit_code == 3
        assert r.stdout == "0.800000\n"
        assert r.instr_count > 0 and r.cycles > 0
        assert r.fp_traps == 0
        assert r.fpvm is None

    def test_accepts_prebuilt_binary(self):
        binary = compile_source(SRC)
        r = Session(binary, None).run()
        assert r.exit_code == 3

    def test_platform_parameter(self):
        r1 = Session(lambda: compile_source(SRC), None).run()
        r2 = Session(lambda: compile_source(SRC), None,
                     platform=PLATFORMS["7220"]).run()
        assert r1.instr_count == r2.instr_count
        assert r2.machine.cost.platform is P7220


class TestSessionFPVM:
    def test_fields(self):
        r = Session(lambda: compile_source(SRC),
                    VanillaArithmetic()).run()
        assert r.stdout == "0.800000\n"
        assert r.fp_traps > 0
        assert r.fpvm is not None
        assert r.analysis is not None
        assert "kernel_delivery" in r.buckets

    def test_final_gc(self):
        r = Session(lambda: compile_source(SRC),
                    VanillaArithmetic()).run(final_gc=True)
        assert len(r.fpvm.gc.passes) >= 1
        r2 = Session(lambda: compile_source(SRC), VanillaArithmetic(),
                     config=FPVMConfig(gc_epoch_cycles=10**12),
                     ).run(final_gc=False)
        assert len(r2.fpvm.gc.passes) == 0

    def test_slowdown_helper(self):
        nat = Session(lambda: compile_source(SRC), None).run()
        virt = Session(lambda: compile_source(SRC),
                       VanillaArithmetic()).run()
        s = slowdown(nat, virt)
        assert s == virt.cycles / nat.cycles > 1


class TestFPVMStats:
    def test_record_flags(self):
        st = FPVMStats()
        st.record_trap_flags(Flags.PE | Flags.UE)
        st.record_trap_flags(Flags.PE)
        assert st.fp_traps == 2
        assert st.traps_by_flag == {"PE": 2, "UE": 1}

    def test_breakdown_no_events(self):
        from repro.machine.loader import load_binary

        st = FPVMStats()
        m = load_binary(compile_source(SRC))
        row = st.fig9_breakdown(m)
        assert all(v == 0.0 for v in row.values())

    def test_breakdown_averages(self):
        r = Session(lambda: compile_source(SRC),
                    VanillaArithmetic()).run()
        row = r.fpvm.stats.fig9_breakdown(r.machine)
        plat = r.machine.cost.platform
        events = r.fp_traps + r.correctness_traps
        assert row["kernel overhead"] == pytest.approx(
            r.buckets["kernel_delivery"] / events)
        assert row["total"] == pytest.approx(sum(
            v for k, v in row.items() if k != "total"))
        assert row["hardware overhead"] <= plat.hw_trap_cycles


class TestFiguresRejectFailedCells:
    def test_fig9_names_the_failed_cell(self):
        with pytest.raises(ReproError, match=r"no_such/mpfr:200/R815 "
                           r"failed: KeyError: .*unknown workload"):
            figures.fig9_trap_cost(codes=("no_such",), size="test", jobs=1)

    def test_fig12_names_the_failed_native_cell(self):
        with pytest.raises(ReproError, match=r"no_such/native/R815 "
                           r"failed: KeyError"):
            figures.fig12_slowdowns(codes=("no_such",), size="test",
                                    platforms=("R815",), jobs=1)


class TestDefaultJobs:
    def test_repro_jobs_sets_the_pool_size(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert _default_jobs() == 3

    def test_malformed_repro_jobs_is_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "four")
        with pytest.raises(ReproError, match="REPRO_JOBS.*'four'"):
            _default_jobs()


class TestAsmConvenience:
    def test_module_level_operands(self):
        from repro.asm import imm, lbl, mem, rax, xmm3

        assert rax.name == "rax"
        assert xmm3.index == 3
        assert imm(5).value == 5
        assert lbl("x").name == "x"
        m = mem(rax, disp=-8, index=rax, scale=4, size=4)
        assert (m.base, m.disp, m.scale, m.size) == ("rax", -8, 4, 4)
