"""Lifecycle of the per-site kernels (``FPVM._build_fp_kernel``,
``FPVM._build_correctness_kernel`` and ``FPVM._on_patch_site``).

Every trap and every execution of a patched site is served by a site
kernel.  A site's first trap (or first execution) reaches the FPVM
handler, which resolves decode and bind and builds the kernel from the
stages the run's configuration selects; later ones there run the
kernel.  Kernels must never change what a run computes or charges
(``tests/integration/test_trap_pins.py`` pins that over the registry),
so these tests pin when they exist: built after a first trap under
every configuration, dropped by a degrade, a storm demotion, an oracle
attach and uninstall.  The ``_PINNED`` digests of ``kernel_observed``
were recorded when only untraced runs built kernels and the first trap
of every site ran a separate generic handler.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.analysis.oracle import SoundnessOracle
from repro.arith import VanillaArithmetic
from repro.compiler import compile_source, instrument_fp_sites
from repro.errors import ArithmeticPortError
from repro.faults import FaultPlan, FaultRule
from repro.fpvm.runtime import FPVMConfig
from repro.ieee.softfloat import Flags
from repro.session import Session
from repro.trace.sinks import RingBufferSink
from conftest import kernel_observed

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

CALL_DEMOTE = """
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

#: far above any run here: selects the stepping loop, never expires
_NO_BUDGET = 10 ** 12

#: kernel_observed digests recorded on the generic path
_PINNED = {
    "box_free": "51693102c812d43e0404c78a",
    "call_demote": "d535403e7dd11aa8fa63bfe3",
    "degrade[0]": "1b2e26e081c02bfdf3d5a434",
    "degrade[1]": "a6c19d12b18b62fc82727899",
    "degrade[8]": "1b2e26e081c02bfdf3d5a434",
    "scenario[user]": "53e6796bbb6aa6cdd10bbe2e",
    "scenario[kernel]": "e38d5341e2dc65dcc866c1b3",
    "scenario[hrt]": "ffb91d49a42724c8b43be348",
    "scenario[pipeline]": "8b6ec9e4f8dcd87080e24b75",
}


def _loop():
    return compile_source(LOOP)


def _run(target, arith="vanilla", *, budget=None, size="test", **kwargs):
    s = Session(target, arith, size=size, **kwargs)
    return s, s.run(budget)


def _digest(session, res) -> str:
    text = json.dumps(kernel_observed(session, res), sort_keys=True,
                      default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def _fp_sites(session):
    return [a for a, (ins, _) in session.machine.site_kernels.items()
            if ins.mnemonic != "fpvm_trap"]


def _correctness_sites(session):
    return [a for a, (ins, _) in session.machine.site_kernels.items()
            if ins.mnemonic == "fpvm_trap"]


class TestBuilt:
    def test_kernel_built_after_first_trap(self):
        s = Session(_loop(), "vanilla")
        m = s.machine
        div = next(i for i in m.binary.text if i.mnemonic == "divsd")
        served = []
        first = m.fp_trap_handler

        def counting(machine, frame):
            served.append(frame.rip)
            first(machine, frame)
        m.fp_trap_handler = counting
        while div.addr not in m.site_kernels:
            m.step()
        # the step that built it was the site's one handler trap
        assert served.count(div.addr) == 1
        assert m.site_kernels[div.addr][0] is div
        s.run()
        assert served.count(div.addr) == 1
        assert s.fpvm.stats.decode_hits > 0

    def test_registry_program_builds_both_kinds(self):
        s, res = _run("enzo")
        kinds = {ins.mnemonic == "fpvm_trap"
                 for ins, _ in s.machine.site_kernels.values()}
        assert kinds == {True, False}
        assert res.correctness_traps > 0

    def test_box_free_sites_get_kernels_too(self):
        s, res = _run("enzo", conservative=True)
        assert s.fpvm.stats.analysis_short_circuits > 0
        assert _digest(s, res) == _PINNED["box_free"]

    def test_call_demote_sites_match_generic(self):
        # getchar is neither interposed nor known FP-free: its call
        # site demotes all eight argument registers on every trip
        s, res = _run(compile_source(CALL_DEMOTE), "mpfr:64", stdin=b"abc")
        kinds = [ins.payload["kind"]
                 for ins, _ in s.machine.site_kernels.values()
                 if ins.mnemonic == "fpvm_trap"]
        assert kinds == ["call_demote"]
        assert s.fpvm.stats.call_site_demotions == 30
        assert _digest(s, res) == _PINNED["call_demote"]

    def test_nas_is_conversions_are_served(self):
        s, res = _run("nas_is")
        mnemonics = {ins.mnemonic
                     for ins, _ in s.machine.site_kernels.values()}
        assert mnemonics & {"cvttsd2si", "cvtsd2si"}


class TestFallbacks:
    """The configurations that once fell back to a generic path build
    kernels too."""

    @pytest.mark.parametrize("kwargs", [
        {"trace": RingBufferSink()},
        {"config": FPVMConfig(faults=FaultPlan(seed=1))},
        {"config": FPVMConfig(jit_threshold=4)},
        {"config": FPVMConfig(trace_jit_threshold=8)},
    ], ids=["trace", "faults", "jit", "tracejit"])
    def test_kernel_built(self, kwargs):
        s, res = _run("enzo", **kwargs)
        assert res.fp_traps > 0 and res.correctness_traps > 0
        assert _fp_sites(s) and _correctness_sites(s)

    @pytest.mark.parametrize("mode", ["trap-and-patch", "static"],
                             ids=["patch", "static"])
    def test_patched_sites_get_kernels(self, mode):
        s, res = _run("enzo", config=FPVMConfig(mode=mode))
        assert res.correctness_traps > 0
        assert _correctness_sites(s)
        kinds = {s.machine.site_kernels[a][0].mnemonic for a in _fp_sites(s)}
        assert kinds == {"fpvm_patch"}

    def test_kernel_built_under_the_sanitizer(self):
        s, res = _run("lorenz", "sanitize:64")
        assert res.fp_traps > 0
        assert _fp_sites(s)
        assert s.fpvm.stats.sanitize_checks > 0

    def test_kernel_built_with_an_oracle(self):
        s = Session("enzo", "mpfr:64", size="test", patch=False)
        s.machine.set_oracle(SoundnessOracle(s.fpvm))
        res = s.run()
        assert res.fp_traps > 0
        assert _fp_sites(s)


def _instrumented():
    return compile_source(LOOP, instrument_fp=True)


#: target and config of each way a site comes to hold ``fpvm_patch``
_PATCHED = {
    "patch": (_loop, FPVMConfig(mode="trap-and-patch")),
    "static": (_loop, FPVMConfig(mode="static")),
    "compiled": (_instrumented, FPVMConfig()),
    "compiled+static": (_instrumented, FPVMConfig(mode="static")),
}


def _count_patch_handler(session) -> list:
    """Record the address of every execution the patch handler serves."""
    m = session.machine
    served = []
    first = m.patch_handler
    m.patch_handler = lambda m, p: (served.append(p.addr), first(m, p))
    return served


class TestPatchedSites:
    @pytest.mark.parametrize("how", sorted(_PATCHED))
    def test_kernel_built_after_first_execution(self, how):
        target, config = _PATCHED[how]
        s = Session(target(), "mpfr:64", config=config)
        served = _count_patch_handler(s)
        res = s.run()
        m = s.machine
        patched = [i.addr for i in m.binary.text
                   if i.mnemonic == "fpvm_patch"]
        assert patched and res.exit_code == 0
        # each site's handler execution was its first; the kernel,
        # keyed by the patch instruction itself, served the rest
        assert sorted(served) == sorted(patched)
        for addr in patched:
            assert m.site_kernels[addr][0] is m.binary.text_map[addr]
        stats = s.fpvm.stats
        assert stats.patch_fast_path + stats.patch_slow_path > len(patched)

    def test_a_degrade_drops_the_kernel_and_the_next_run_rebuilds_it(self):
        s = Session(_loop(), FlakyVanilla(fail_at=5),
                    config=FPVMConfig(mode="static"))
        m = s.machine
        served = _count_patch_handler(s)
        div = next(i.addr for i in m.binary.text
                   if i.mnemonic == "fpvm_patch"
                   and i.payload["original"].mnemonic == "divsd")
        while s.fpvm.stats.degradations == 0:
            m.step()
        assert div not in m.site_kernels
        assert _fp_sites(s)  # the other sites keep theirs
        res = s.run()
        assert served.count(div) == 2
        assert div in m.site_kernels
        assert res.exit_code == 0

    @pytest.mark.parametrize("mode", ["trap-and-patch", "static"])
    def test_set_oracle_drops_the_kernels(self, mode):
        s = Session(_loop(), "mpfr:64", config=FPVMConfig(mode=mode))
        m = s.machine
        while not _fp_sites(s):
            m.step()
        m.set_oracle(SoundnessOracle(s.fpvm))
        assert m.site_kernels == {}
        served = _count_patch_handler(s)
        s.run()
        assert served and set(served) == set(_fp_sites(s))

    @pytest.mark.parametrize("mode", ["trap-and-patch", "static"])
    def test_uninstall_drops_the_kernels(self, mode):
        s, _ = _run(_loop(), "mpfr:64", config=FPVMConfig(mode=mode))
        assert _fp_sites(s)
        s.fpvm.uninstall()
        assert s.machine.site_kernels == {}

    @pytest.mark.parametrize("mode", ["trap-and-patch", "static"])
    def test_a_storm_demoted_patched_site_short_circuits(self, mode):
        plan = FaultPlan(seed=3, rules=(
            FaultRule("emulate", probability=0.3, max_fires=None),))
        s, res = _run("lorenz", "mpfr:200",
                      config=FPVMConfig(mode=mode, faults=plan))
        fpvm = s.fpvm
        assert res.exit_code == 0
        assert fpvm.stats.sites_short_circuited > 0
        assert fpvm.stats.short_circuit_execs > 0
        # a demoted site degrades no more: none passes the threshold
        assert max(fpvm._site_degrades.values()) == 8
        for addr in fpvm._demoted_sites:
            assert s.machine.site_kernels[addr][0].mnemonic == "fpvm_patch"

    def test_a_patched_binary_runs_transparently_without_fpvm(self):
        plain = Session(_loop(), None).run()
        patched = _instrumented()
        binary = _loop()
        assert instrument_fp_sites(binary) > 0
        for target in (patched, binary):
            s = Session(target, None)
            res = s.run()
            assert s.machine.site_kernels == {}
            assert (res.stdout, res.instr_count, res.fp_instr_count,
                    res.final_regs) == (plain.stdout, plain.instr_count,
                                        plain.fp_instr_count,
                                        plain.final_regs)


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

    def test_degrade_drops_the_kernel(self):
        s = Session(_loop(), FlakyVanilla(fail_at=5))
        m = s.machine
        served = []
        first = m.fp_trap_handler
        m.fp_trap_handler = lambda m, f: (served.append(f.rip), first(m, f))
        div = self._div_site(s)
        while s.fpvm.stats.degradations == 0:
            m.step()
        assert div not in m.site_kernels
        assert _fp_sites(s)  # the other sites keep theirs
        res = s.run()
        # the first trap, then the one after the fault rebuilt it
        assert served.count(div) == 2
        assert div in m.site_kernels
        assert res.exit_code == 0

    @pytest.mark.parametrize("storm", [0, 1, 8])
    def test_degrade_matches_the_generic_path(self, storm):
        s, res = _run(_loop(), FlakyVanilla(fail_at=5),
                      config=FPVMConfig(storm_threshold=storm))
        assert s.fpvm.stats.degradations == 1
        assert _digest(s, res) == _PINNED[f"degrade[{storm}]"]

    def test_storm_demotion_keeps_the_site_generic(self):
        s, _ = _run(_loop(), FlakyVanilla(fail_at=3),
                    config=FPVMConfig(storm_threshold=1))
        div = self._div_site(s)
        assert div in s.fpvm._demoted_sites
        assert div not in s.machine.site_kernels
        # later traps there take the short-circuit path, not a kernel
        assert s.fpvm.stats.short_circuit_execs > 0

    def test_attaching_an_oracle_drops_every_kernel(self):
        s = Session("enzo", "mpfr:64", size="test")
        m = s.machine
        while not _correctness_sites(s):
            m.step()
        site = _correctness_sites(s)[0]
        oracle = SoundnessOracle(s.fpvm)
        probed = []
        observe = oracle.observe
        oracle.observe = lambda m, ins: (probed.append(ins.addr),
                                         observe(m, ins))
        m.set_oracle(oracle)
        assert m.site_kernels == {}
        s.run()
        # rebuilt around the oracle-probed re-execution of the original
        assert site in m.site_kernels
        assert site in probed


class TestMachine:
    def test_uninstall_drops_every_kernel(self):
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

    def test_a_kernel_serves_only_its_own_instruction(self):
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
    def test_stepping_loop_matches_block_loop(self, program, arith):
        fused = kernel_observed(*_run(program, arith))
        stepped = kernel_observed(*_run(program, arith, budget=_NO_BUDGET))
        assert fused == stepped

    @pytest.mark.parametrize("scenario", ["user", "kernel", "hrt",
                                          "pipeline"])
    def test_delivery_scenarios_charge_as_generic(self, scenario):
        s, res = _run("enzo", "mpfr:200", delivery_scenario=scenario)
        assert _digest(s, res) == _PINNED[f"scenario[{scenario}]"]
