"""Per-site trap kernels change host time only.

Every registry program under vanilla, ``mpfr:200`` and ``posit:32:2``
runs twice at size ``test``: with the trap kernels on and off
(``repro.fpvm.runtime.SITE_KERNELS``).  Both runs must agree on
everything a run computes or charges (``conftest.kernel_observed``):
stdout and exit code; instruction, FP, trap and correctness-trap
counts; cycles and every bucket compared with float ``==``; final
registers and MXCSR; every FPVMStats field; the emulator and cache
counters; the GC pass records.

Tier 1 runs a subset that reaches every kernel kind: binops, sqrt,
compares, f64->int conversions (nas_is), and correctness sites, both
box-free and demoting (enzo).  The whole lattice runs under
``-m slow``.
"""

import pytest

from repro.workloads import WORKLOADS
from conftest import kernel_observed, run_with_kernels

ARITHS = ("vanilla", "mpfr:200", "posit:32:2")

TIER1 = [("enzo", "mpfr:200"), ("nas_is", "posit:32:2"),
         ("three_body", "vanilla"), ("lorenz", "posit:32:2"),
         ("fbench", "mpfr:200")]


def _check(program, arith):
    on_session, on_res = run_with_kernels(program, arith, on=True)
    off_session, off_res = run_with_kernels(program, arith, on=False)
    assert on_session.machine.site_kernels, "no kernel was built"
    assert (kernel_observed(on_session, on_res)
            == kernel_observed(off_session, off_res))


@pytest.mark.parametrize("program,arith", TIER1)
def test_kernels_change_nothing(program, arith):
    _check(program, arith)


@pytest.mark.slow
@pytest.mark.parametrize("arith", ARITHS)
@pytest.mark.parametrize("program", sorted(WORKLOADS))
def test_kernels_change_nothing_on_the_registry(program, arith):
    _check(program, arith)
