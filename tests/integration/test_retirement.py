"""Every handler path retires a trapped or patched instruction once.

The paper's trap-and-emulate contract (§4.1) is a precise fault before
retirement, after which the instruction retires exactly once.  Handlers
that re-execute the instruction (the trap-and-patch fast path, the
storm-demoted short circuit, the degradation ladder, the sanitizer's
exempt sites, FPSpy) go through ``Machine.execute``, which charges the
instruction's cycles but does not count it again — so each run below
reports the native instruction and FP-instruction counts.  The modeled
cycles are pinned exactly: retiring once changes counts, not cost.
"""

from conftest import RAX, RCX, XMM0, XMM1, asm_program, imm, lbl, mem
from repro.faults import FaultPlan, FaultRule
from repro.fpvm.fpspy import spy_on
from repro.fpvm.runtime import FPVMConfig
from repro.fpvm.sanitize import SanitizeConfig
from repro.session import Session
from repro.workloads import WORKLOADS

#: (instructions, FP instructions) of the native runs at size ``test``
FBENCH_NATIVE = (2969, 334)
LORENZ_NATIVE = (11145, 1400)


def _run(name, arith=None, **config):
    cfg = FPVMConfig(**config) if config else None
    sess = Session(lambda: WORKLOADS[name].build("test"), arith, config=cfg)
    return sess, sess.run()


def _counts(res):
    return res.instr_count, res.fp_instr_count


def test_native_counts():
    assert _counts(_run("fbench")[1]) == FBENCH_NATIVE
    assert _counts(_run("lorenz")[1]) == LORENZ_NATIVE


def test_trap_and_patch_fast_path_retires_once():
    """Each patched site used to retire twice on its fast path: fbench
    reported 2,992 instructions, the 23 extra being its 23
    re-executions of an original instruction."""
    sess, res = _run("fbench", "vanilla", mode="trap-and-patch")
    assert sess.fpvm.stats.patch_fast_path > 0
    assert _counts(res) == FBENCH_NATIVE
    assert res.cycles == 1150885.4999999213


def test_degraded_trap_retires_once():
    """lorenz with one degradation used to report 11,146 / 1,401."""
    plan = FaultPlan(seed=1, rules=(FaultRule("emulate", nth=5,
                                              max_fires=40),))
    sess, res = _run("lorenz", "vanilla", faults=plan)
    assert sess.fpvm.stats.degradations == 1
    assert _counts(res) == LORENZ_NATIVE
    assert res.cycles == 16777691.099997148


def test_storm_demoted_site_retires_once():
    plan = FaultPlan(seed=3, rules=(FaultRule("emulate", probability=1.0,
                                              max_fires=None),))
    sess, res = _run("lorenz", "vanilla", faults=plan, storm_threshold=2)
    assert sess.fpvm.stats.short_circuit_execs > 0
    assert _counts(res) == LORENZ_NATIVE


def _rounding_loop():
    """50 inexact ``roundsd`` of 2.5: each traps (PE), and the range
    pass proves the site bit-exact, so the sanitizer exempts it."""
    def body(a):
        a.emit("mov", RCX, imm(50))
        a.label("loop")
        a.emit("movsd", XMM0, mem(disp=lbl("c")))
        a.emit("roundsd", XMM1, XMM0, imm(0))
        a.emit("dec", RCX)
        a.emit("jne", lbl("loop"))
        a.emit("mov", RAX, imm(0))

    return asm_program(body, data=lambda a: a.double("c", 2.5))


def test_sanitize_exempt_site_retires_once():
    native = Session(_rounding_loop, None).run()
    seen = {}
    for exempt in (True, False):
        cfg = FPVMConfig(sanitize=SanitizeConfig(exempt=exempt))
        sess = Session(_rounding_loop, ("sanitize", 200), config=cfg)
        res = sess.run()
        assert _counts(res) == _counts(native) == (203, 50)
        st = sess.fpvm.stats
        seen[exempt] = (res.fp_traps, st.sanitize_exempt_execs,
                        st.sanitize_checks)
    assert seen == {True: (50, 50, 0), False: (50, 0, 50)}


def test_fpspy_counts_each_event_once():
    rep = spy_on(lambda: WORKLOADS["lorenz"].build("test"))
    assert rep.total_events == 1127
    assert (rep.instructions, rep.fp_instructions) == LORENZ_NATIVE
