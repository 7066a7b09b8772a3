"""Differential tests for the tracing JIT: trace-compiled hot loops
must be observationally identical to plain interpretation.

The contract (``repro.fpvm.tracejit``): with the trace JIT enabled, a
run produces the same stdout, exit code, dynamic instruction and FP
instruction counts, FP and correctness traps, modeled cycles and cycle
buckets, and final register file as the same run with it disabled, for
every arithmetic — with the trap-site JIT on as well, and under
fault-injection plans whose degradations invalidate traces mid-run and
force the deopt paths.
"""

import pytest

from repro.faults import FaultPlan, FaultRule
from repro.fpvm.runtime import FPVMConfig
from repro.session import Session

ARITHS = ["vanilla", "mpfr:64", "posit:32:2"]
WORKLOADS = ["lorenz", "fbench", "three_body"]


def _observed(res):
    return (res.stdout, res.exit_code, res.instr_count, res.fp_instr_count,
            res.fp_traps, res.correctness_traps, res.cycles, res.final_regs,
            res.buckets)


def _pair(name, arith, *, threshold=3, **cfg):
    """Run a workload twice — trace JIT off and on — return both."""
    off = Session(name, arith, size="test",
                  config=FPVMConfig(**cfg)).run()
    on = Session(name, arith, size="test",
                 config=FPVMConfig(trace_jit_threshold=threshold,
                                   **cfg)).run()
    return off, on


# --------------------------------------------------------------------------- #
# registry workloads × arithmetics                                             #
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("arith", ARITHS)
@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_tracejit_identical(name, arith):
    off, on = _pair(name, arith)
    assert _observed(on) == _observed(off)
    stats = on.fpvm.stats
    assert stats.trace_loops_compiled > 0
    assert stats.trace_hits > 0


@pytest.mark.parametrize("jit_threshold", [2, 4])
@pytest.mark.parametrize("name",
                         ["lorenz", "fbench", "three_body", "numbugs_sum"])
def test_composes_with_trap_site_jit(name, jit_threshold):
    """Both JITs enabled at once stay observationally identical: a site
    the trap-site JIT compiles after a trace was recorded is replayed
    through its compiled step, not the trapping one."""
    off, on = _pair(name, "mpfr:64", jit_threshold=jit_threshold)
    assert _observed(on) == _observed(off)
    stats = on.fpvm.stats
    assert stats.trace_loops_compiled > 0
    assert stats.jit_sites_compiled > 0


# --------------------------------------------------------------------------- #
# fault plans that force the deopt / invalidation paths                        #
# --------------------------------------------------------------------------- #

def _emulate_faults(seed):
    return FaultPlan(seed=seed, rules=(
        FaultRule(stage="emulate", probability=0.15, max_fires=None),))


# each fault-plan test runs with the trap-site JIT off and on: compiled
# sites take the injector's emulate faults through their own exit path

@pytest.mark.parametrize("seed", [3, 11, 29])
def test_identical_under_fault_plan(seed):
    for jit_threshold in (0, 4):
        off, on = _pair("lorenz", "vanilla", faults=_emulate_faults(seed),
                        jit_threshold=jit_threshold)
        assert _observed(on) == _observed(off), jit_threshold


def test_fault_plan_exercises_deopt():
    """An unlimited emulate-fault plan degrades instructions inside the
    traced loop: the degradation ladder must invalidate the trace and
    the in-flight iteration must deopt — with identical output."""
    for jit_threshold in (0, 4):
        off, on = _pair("lorenz", "vanilla", faults=_emulate_faults(11),
                        jit_threshold=jit_threshold)
        assert _observed(on) == _observed(off), jit_threshold
        stats = on.fpvm.stats
        assert stats.trace_deopts > 0
        assert stats.trace_invalidations > 0


def test_zero_rule_plan_matches_no_injector():
    plan = FaultPlan(seed=7)
    for jit_threshold in (0, 4):
        off, on = _pair("lorenz", "mpfr:64", faults=plan,
                        jit_threshold=jit_threshold)
        assert _observed(on) == _observed(off), jit_threshold
        assert on.fpvm.stats.trace_loops_compiled > 0
