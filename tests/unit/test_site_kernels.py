"""Lifecycle of the per-site trap kernels (``FPVM._build_fp_kernel`` and
``FPVM._build_correctness_kernel``).

A site's first trap runs the generic path and leaves a kernel behind;
later traps there run the kernel.  Kernels must never change what a
run computes or charges (``tests/integration/test_site_kernels_diff.py``
checks that over the registry), so these tests pin when they exist:
built after a first trap, never built where a generic-path hook is
live, dropped by a degrade, gone after uninstall.
"""

import dataclasses

import pytest

from repro.analysis.oracle import SoundnessOracle
from repro.arith import VanillaArithmetic
from repro.compiler import compile_source
from repro.errors import ArithmeticPortError
from repro.faults import FaultPlan
from repro.fpvm import runtime
from repro.fpvm.runtime import FPVMConfig
from repro.ieee.softfloat import Flags
from repro.session import Session
from repro.trace.sinks import RingBufferSink
from conftest import kernel_observed as _observed
from conftest import run_with_kernels as _run

LOOP = """
long main() {
    double x = 1.0;
    double s = 0.0;
    for (long i = 0; i < 40; i = i + 1) {
        x = x / 3.0 + 1.0;
        s = s + sqrt(x);
    }
    printf("%.15g %.15g\\n", x, s);
    return 0;
}
"""

#: far above any run here: selects the stepping loop, never expires
_NO_BUDGET = 10 ** 12


def _loop():
    return compile_source(LOOP)


@pytest.fixture
def kernels():
    """Run the test with the kernels switched on, whatever the default."""
    saved = runtime.SITE_KERNELS
    runtime.SITE_KERNELS = True
    yield
    runtime.SITE_KERNELS = saved


def _fp_sites(session):
    return [a for a, (ins, _) in session.machine.site_kernels.items()
            if ins.mnemonic != "fpvm_trap"]


class TestBuilt:
    def test_kernel_built_after_first_trap(self, kernels):
        s = Session(_loop(), "vanilla")
        m = s.machine
        div = next(i for i in m.binary.text if i.mnemonic == "divsd")
        served = []
        generic = m.fp_trap_handler

        def counting(machine, frame):
            served.append(frame.rip)
            generic(machine, frame)
        m.fp_trap_handler = counting
        while div.addr not in m.site_kernels:
            m.step()
        # the step that built it was the site's one generic trap
        assert served.count(div.addr) == 1
        assert m.site_kernels[div.addr][0] is div
        s.run()
        assert served.count(div.addr) == 1
        assert s.fpvm.stats.decode_hits > 0

    def test_registry_program_builds_both_kinds(self, kernels):
        s, res = _run("enzo")
        kinds = {ins.mnemonic == "fpvm_trap"
                 for ins, _ in s.machine.site_kernels.values()}
        assert kinds == {True, False}
        assert res.correctness_traps > 0

    def test_box_free_sites_get_kernels_too(self, kernels):
        on = _observed(*_run("enzo", conservative=True))
        off = _observed(*_run("enzo", on=False, conservative=True))
        assert on["stats"]["analysis_short_circuits"] > 0
        assert on == off

    def test_call_demote_sites_match_generic(self, kernels):
        # getchar is neither interposed nor known FP-free: its call
        # site demotes all eight argument registers on every trip
        src = """
        long main() {
            double x = 1.0;
            long c = 0;
            for (long i = 0; i < 30; i = i + 1) {
                x = x / 3.0 + 1.0;
                c = c + getchar();
            }
            printf("%.15g %ld\\n", x, c);
            return 0;
        }
        """
        s, res = _run(compile_source(src), "mpfr:64", stdin=b"abc")
        kinds = [ins.payload["kind"]
                 for ins, _ in s.machine.site_kernels.values()
                 if ins.mnemonic == "fpvm_trap"]
        assert kinds == ["call_demote"]
        assert s.fpvm.stats.call_site_demotions == 30
        off = _run(compile_source(src), "mpfr:64", on=False, stdin=b"abc")
        assert _observed(s, res) == _observed(*off)

    def test_nas_is_conversions_are_served(self, kernels):
        s, res = _run("nas_is")
        mnemonics = {ins.mnemonic
                     for ins, _ in s.machine.site_kernels.values()}
        assert mnemonics & {"cvttsd2si", "cvtsd2si"}


class TestFallbacks:
    @pytest.mark.parametrize("kwargs", [
        {"trace": RingBufferSink()},
        {"config": FPVMConfig(faults=FaultPlan(seed=1))},
        {"config": FPVMConfig(jit_threshold=4)},
        {"config": FPVMConfig(trace_jit_threshold=8)},
        {"config": FPVMConfig(mode="trap-and-patch")},
        {"config": FPVMConfig(mode="static")},
    ], ids=["trace", "faults", "jit", "tracejit", "patch", "static"])
    def test_no_kernel(self, kernels, kwargs):
        s, res = _run("enzo", **kwargs)
        assert res.fp_traps + res.correctness_traps > 0
        assert s.machine.site_kernels == {}

    def test_no_kernel_under_the_sanitizer(self, kernels):
        s, res = _run("lorenz", "sanitize:64")
        assert res.fp_traps > 0
        assert s.machine.site_kernels == {}

    def test_no_kernel_with_an_oracle(self, kernels):
        s = Session("enzo", "mpfr:64", size="test", patch=False)
        s.machine.set_oracle(SoundnessOracle(s.fpvm))
        res = s.run()
        assert res.fp_traps > 0
        assert s.machine.site_kernels == {}

    def test_private_switch_off(self):
        s, res = _run("enzo", on=False)
        assert res.fp_traps > 0
        assert s.machine.site_kernels == {}


class FlakyVanilla(VanillaArithmetic):
    """Vanilla whose ``div`` fails on its ``fail_at``-th call (1-based)."""

    def __init__(self, fail_at):
        super().__init__()
        self.fail_at = fail_at
        self.calls = 0

    def div(self, a, b):
        self.calls += 1
        if self.calls == self.fail_at:
            raise ArithmeticPortError("flaky div")
        return super().div(a, b)


class TestDropped:
    def _div_site(self, session):
        return next(i.addr for i in session.machine.binary.text
                    if i.mnemonic == "divsd")

    def test_degrade_drops_the_kernel(self, kernels):
        s = Session(_loop(), FlakyVanilla(fail_at=5))
        served = []
        generic = s.machine.fp_trap_handler
        s.machine.fp_trap_handler = \
            lambda m, f: (served.append(f.rip), generic(m, f))
        res = s.run()
        div = self._div_site(s)
        assert s.fpvm.stats.degradations == 1
        assert div not in s.machine.site_kernels
        # the first trap, then every trap after the fault's
        assert served.count(div) == 1 + (40 - 5)
        assert _fp_sites(s)  # the other sites keep theirs
        assert res.exit_code == 0

    @pytest.mark.parametrize("storm", [0, 1, 8])
    def test_degrade_matches_the_generic_path(self, kernels, storm):
        cfg = FPVMConfig(storm_threshold=storm)
        on = _observed(*_run(_loop(), FlakyVanilla(fail_at=5), config=cfg))
        off = _observed(*_run(_loop(), FlakyVanilla(fail_at=5), on=False,
                              config=cfg))
        assert on["stats"]["degradations"] == 1
        assert on == off

    def test_storm_demotion_keeps_the_site_generic(self, kernels):
        s, _ = _run(_loop(), FlakyVanilla(fail_at=3),
                    config=FPVMConfig(storm_threshold=1))
        div = self._div_site(s)
        assert div in s.fpvm._demoted_sites
        assert div not in s.machine.site_kernels
        # later traps there take the short-circuit path, not a kernel
        assert s.fpvm.stats.short_circuit_execs > 0


class TestMachine:
    def test_uninstall_drops_every_kernel(self, kernels):
        s, _ = _run("enzo")
        m = s.machine
        sites = [ins for ins, _ in m.site_kernels.values()
                 if ins.mnemonic != "fpvm_trap"]
        assert sites
        s.fpvm.uninstall()
        assert m.site_kernels == {}
        # a fault at a former kernel site reaches the trap handler again
        served = []
        m.fp_trap_handler = lambda machine, frame: served.append(frame.rip)
        m.mxcsr.unmask_all()
        assert m._fp_event(sites[0], Flags.PE)
        assert served == [sites[0].addr]

    def test_a_kernel_serves_only_its_own_instruction(self, kernels):
        s, _ = _run("enzo")
        m = s.machine
        site = next(ins for ins, _ in m.site_kernels.values()
                    if ins.mnemonic != "fpvm_trap")
        twin = dataclasses.replace(site)  # same address, another object
        served = []
        m.fp_trap_handler = lambda machine, frame: served.append(frame)
        assert m._fp_event(twin, Flags.PE)
        assert [f.instruction for f in served] == [twin]

    @pytest.mark.parametrize("program,arith", [
        ("enzo", "mpfr:200"), ("three_body", "posit:32:2"),
        ("nas_is", "vanilla"),
    ])
    def test_stepping_loop_matches_block_loop(self, kernels, program,
                                              arith):
        fused = _observed(*_run(program, arith))
        stepped = _observed(*_run(program, arith, budget=_NO_BUDGET))
        assert fused == stepped

    @pytest.mark.parametrize("scenario", ["user", "kernel", "hrt",
                                          "pipeline"])
    def test_delivery_scenarios_charge_as_generic(self, kernels, scenario):
        on = _observed(*_run("enzo", "mpfr:200",
                             delivery_scenario=scenario))
        off = _observed(*_run("enzo", "mpfr:200", on=False,
                              delivery_scenario=scenario))
        assert on == off
