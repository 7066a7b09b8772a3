"""Pinned fixpoints of the value-set, interval-range and box-liveness
analyses.

The first two fixpoints widen a state after its 12th join, so the
result depends on the order the worklist pops its keys.  A change to the
state representation that reorders the worklist moves the widening
and with it the iteration counts and, eventually, the patches.  These
pins catch that in a second, before any soundness suite runs: the
counts, the patch lists and the range proofs below are those of the
tuple-based states the dict-based ones replaced.  ``three_body`` and
the slow pins predate the compiled transfer closures and flat values:
they are the fixpoints of the interpreted analysis.

One sanitize ``Session`` runs the VSA once: the interval-range pass
reuses the converged analysis of the patcher's step.  So does the
exemption gate, whose full dual-path Session leaves exemption off.
"""

from dataclasses import dataclass, replace

import pytest

from repro.analysis import analyze_and_patch, clear_cache
from repro.analysis.liveness import BoxLiveness
from repro.analysis.ranges import (analyze_ranges, clear_ranges_cache,
                                   validate_sanitize_exemptions)
from repro.analysis.vsa import ValueSetAnalysis
from repro.fpvm.runtime import FPVMConfig
from repro.fpvm.sanitize import SanitizeConfig
from repro.session import Session
from repro.workloads import get_workload


@dataclass(frozen=True)
class Pin:
    vsa_iterations: int
    range_iterations: int
    sinks: tuple = ()
    bitwise: tuple = ()
    movq: tuple = ()
    extern_demote: tuple = ()
    pruned: tuple = ()
    proven: tuple = ()
    exact: tuple = ()


#: size ``test``, default threshold 1e-6
PINS = {
    "lorenz": Pin(1782, 1657),
    "numbugs_cancel": Pin(743, 434,
                          proven=(0x400054, 0x40005c, 0x40006c),
                          exact=(0x400054,)),
    "numbugs_sum": Pin(1090, 704,
                       proven=(0x400064, 0x40006c, 0x400078),
                       exact=(0x400064,)),
    "numbugs_var": Pin(1300, 747,
                       proven=(0x400075, 0x40007d, 0x4000a1, 0x4000de,
                               0x40012b),
                       exact=(0x400075, 0x40007d, 0x4000de, 0x40012b)),
    "fbench": Pin(2942, 675, bitwise=(0x400476,),
                  proven=(0x4000c3, 0x40020e, 0x400422, 0x40043b)),
    "nas_ep": Pin(5804, 1613, sinks=(0x4003b8,),
                  bitwise=(0x400321, 0x40032d),
                  proven=(0x40001b, 0x400057, 0x4000af, 0x400107)),
    "three_body": Pin(24871, 3814,
                    proven=(0x4001e3, 0x400352, 0x40053d, 0x400557)),
}

#: the programs the cold analysis spends its time on (same size and
#: threshold): seconds of analysis each, so outside tier 1
SLOW_PINS = {
    "enzo": Pin(44415, 1804,
              sinks=(0x4002b9, 0x4002bf, 0x4002c5, 0x4002e4, 0x4002ea,
                     0x4002f0, 0x40030a, 0x400321, 0x400345, 0x40034b,
                     0x400356, 0x400369, 0x400381, 0x400387, 0x40038d,
                     0x4003ac, 0x4003b2, 0x40042e, 0x400434, 0x400452,
                     0x400469, 0x40047c, 0x400485, 0x40048b, 0x4004a6,
                     0x4004ac, 0x4004dc, 0x4004e2, 0x4004fa, 0x400500,
                     0x40051c, 0x400522, 0x40052d, 0x400540, 0x400558,
                     0x40056b, 0x40058a, 0x400590, 0x400596, 0x4005a8,
                     0x4005ae, 0x4005b4, 0x4005ca, 0x4005d3, 0x4005d9,
                     0x4005e7, 0x4005fa, 0x400603, 0x400609, 0x40062c,
                     0x400632, 0x400646, 0x40064c, 0x400660, 0x400666,
                     0x40068a, 0x400690, 0x40069b, 0x4006ae, 0x4006c6,
                     0x4006cc, 0x4006d2, 0x4006f1, 0x4006f7, 0x40070f,
                     0x400715, 0x400720, 0x400733, 0x40073e, 0x400751,
                     0x400769, 0x40076f, 0x400775, 0x400787, 0x40078d,
                     0x400793, 0x4007a9, 0x4007b2, 0x4007b8, 0x4007c6,
                     0x4007d9, 0x4007e2, 0x4007e8, 0x40080b, 0x400811,
                     0x400825, 0x40082b, 0x40084f, 0x400855, 0x400860,
                     0x400873, 0x400893, 0x400899, 0x40089f, 0x4008be,
                     0x4008c4, 0x4008df, 0x4008e5, 0x4008f0, 0x400907,
                     0x40091a, 0x400923, 0x400929, 0x40094c, 0x400952,
                     0x40096e, 0x400974, 0x400998, 0x40099e, 0x4009ce,
                     0x4009d4, 0x4009ec, 0x4009f2, 0x400a0e, 0x400a14,
                     0x400a38, 0x400a3e, 0x400a62, 0x400a68, 0x400a7c,
                     0x400a82, 0x400a99, 0x400aac, 0x400ac2, 0x400ad4,
                     0x400ae7, 0x400aed, 0x400af8, 0x400b0b, 0x400b14,
                     0x400b1d, 0x400b30, 0x400b48, 0x400b56, 0x400b69,
                     0x400b72, 0x400b75, 0x400b7c, 0x400b84, 0x400b97,
                     0x400bb7, 0x400bbd, 0x400bc3, 0x400be2, 0x400be8,
                     0x400c18, 0x400c1e, 0x400c29, 0x400c3c, 0x400c5c,
                     0x400c6f, 0x400c78, 0x400c7f),
              pruned=(0x400180, 0x400198, 0x40019e, 0x4001a4, 0x4001b6,
                      0x4001c1, 0x400257, 0x40025d, 0x40027d, 0x400283,
                      0x40028e, 0x4002a1),
              proven=(0x40001b, 0x400057, 0x4000af, 0x400107, 0x400183,
                      0x4001b9, 0x4001c4, 0x4001cc, 0x40030d, 0x400324,
                      0x400455, 0x4008f3),
              exact=(0x400183, 0x4001b9, 0x4001c4, 0x40030d, 0x400324)),
    "nas_cg": Pin(41887, 1929,
                sinks=(0x40052d,),
                proven=(0x40001b, 0x400057, 0x4000af, 0x400107, 0x40029c,
                        0x400363),
                exact=(0x40029c, 0x400363)),
    "nas_is": Pin(14702, 688,
                sinks=(0x400307, 0x400486, 0x4004a2),
                proven=(0x40001b, 0x400057, 0x4000af, 0x400107, 0x4001ed),
                exact=(0x4001ed,)),
    "nas_mg": Pin(39202, 2349),
    "nas_lu": Pin(56537, 1433,
                sinks=(0x4005ff, 0x40061b, 0x4008fd),
                bitwise=(0x4003b7, 0x400432, 0x400cb2),
                proven=(0x40001b, 0x400057, 0x4000af, 0x400107, 0x40022a),
                exact=(0x40022a,)),
    "miniaero": Pin(35747, 2682,
                  bitwise=(0x400413, 0x400423),
                  proven=(0x400023, 0x40009a, 0x4000a2, 0x400cbf, 0x400cc7,
                          0x400cf2, 0x400cfa),
                  exact=(0x40009a, 0x400cbf, 0x400cf2)),
}


#: box-liveness worklist visits (same size and threshold); the slow
#: programs run under ``-m slow`` with :data:`SLOW_PINS`
LIVENESS_ITERATIONS = {
    "lorenz": 311,
    "numbugs_cancel": 95,
    "numbugs_sum": 141,
    "numbugs_var": 164,
    "fbench": 387,
    "nas_ep": 662,
    "three_body": 1600,
}

SLOW_LIVENESS_ITERATIONS = {
    "enzo": 3462,
    "nas_cg": 1750,
    "nas_is": 745,
    "nas_mg": 1878,
    "nas_lu": 4528,
    "miniaero": 2424,
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_fixpoint_is_pinned(name):
    check_pin(name, PINS[name])


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(SLOW_PINS))
def test_slow_fixpoint_is_pinned(name):
    check_pin(name, SLOW_PINS[name])


@pytest.mark.parametrize("name", sorted(LIVENESS_ITERATIONS))
def test_liveness_is_pinned(name):
    assert liveness_iterations(name) == LIVENESS_ITERATIONS[name]


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(SLOW_LIVENESS_ITERATIONS))
def test_slow_liveness_is_pinned(name):
    assert liveness_iterations(name) == SLOW_LIVENESS_ITERATIONS[name]


def liveness_iterations(name):
    binary = get_workload(name).build("test")
    _, vsa = analyze_and_patch(binary, cache=False, keep_vsa=True)
    live = BoxLiveness(vsa)
    live.run()
    return live.iterations


def check_pin(name, pin):
    binary = get_workload(name).build("test")
    report, vsa = analyze_and_patch(binary, cache=False, keep_vsa=True)
    rr = analyze_ranges(binary, cache=False, vsa=vsa)
    got = Pin(
        vsa_iterations=report.vsa_iterations,
        range_iterations=rr.iterations,
        sinks=tuple(report.sinks),
        bitwise=tuple(report.bitwise_sites),
        movq=tuple(report.movq_sites),
        extern_demote=tuple(report.extern_demote_sites),
        pruned=tuple(report.pruned_sinks),
        proven=tuple(sorted(rr.proven)),
        exact=tuple(sorted(rr.exact)),
    )
    assert got == pin
    assert rr.vsa_iterations == report.vsa_iterations


@pytest.mark.parametrize("name", ["numbugs_var", "fbench"])
def test_cold_sanitize_session_runs_one_vsa(name, monkeypatch):
    runs = []
    real_run = ValueSetAnalysis.run

    def counting_run(self):
        runs.append(self)
        return real_run(self)

    clear_cache()
    clear_ranges_cache()
    monkeypatch.setattr(ValueSetAnalysis, "run", counting_run)
    cfg = FPVMConfig(sanitize=SanitizeConfig(precision=200))
    sess = Session(name, ("sanitize", 200), size="test", config=cfg)
    assert len(runs) == 1
    assert sess.range_report is not None

    # the reused VSA gives the report a VSA of its own would give
    standalone = analyze_ranges(sess.binary, cache=False)
    assert len(runs) == 2
    assert (replace(sess.range_report, ranges_ms=0.0, cache_hit=False)
            == replace(standalone, ranges_ms=0.0, cache_hit=False))


def test_exemption_gate_runs_one_vsa(monkeypatch):
    runs = []
    real_run = ValueSetAnalysis.run

    def counting_run(self):
        runs.append(self)
        return real_run(self)

    clear_cache()
    clear_ranges_cache()
    monkeypatch.setattr(ValueSetAnalysis, "run", counting_run)
    res = validate_sanitize_exemptions("numbugs_var")
    assert len(runs) == 1
    assert res.ok
    # the proofs the gate checked are those pinned above
    assert res.proven_count == len(PINS["numbugs_var"].proven)
