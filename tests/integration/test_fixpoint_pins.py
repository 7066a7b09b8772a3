"""Pinned fixpoints of the value-set and interval-range analyses.

Both fixpoints widen a state after its 12th join, so the result
depends on the order the worklist pops its keys.  A change to the
state representation that reorders the worklist moves the widening
and with it the iteration counts and, eventually, the patches.  These
pins catch that in a second, before any soundness suite runs: the
counts, the patch lists and the range proofs below are those of the
tuple-based states the dict-based ones replaced.

One sanitize ``Session`` runs the VSA once: the interval-range pass
reuses the converged analysis of the patcher's step.
"""

from dataclasses import dataclass, replace

import pytest

from repro.analysis import analyze_and_patch, clear_cache
from repro.analysis.ranges import analyze_ranges, clear_ranges_cache
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
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_fixpoint_is_pinned(name):
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
    assert got == PINS[name]
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
