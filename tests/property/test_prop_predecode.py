"""Differential tests for the compiled interpreter's two run loops.

``Machine.run`` has two loops over the same compiled steps
(``repro.machine.predecode``): the superblock loop, which fuses
straight-line runs and hoists their accounting, and the stepping loop,
which runs every step unfused with a watchdog check after each.  A
``Session.run(max_instructions=N)`` with ``N`` above the run's length
takes the stepping loop without ever tripping the budget.  Both must
be observationally identical: same stdout, exit code, instruction and
FP counts, traps, bit-identical modeled cycles and buckets, and final
registers.  These tests compare them over random compiled programs,
every registry workload, and the FPVM trap and patch paths.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith import VanillaArithmetic
from repro.compiler import compile_source
from repro.workloads import WORKLOADS
from repro.session import Session
from repro.fpvm.runtime import FPVMConfig

#: far above any run here: selects the stepping loop, never expires
_NO_BUDGET = 10 ** 12


def _observed(res):
    return (res.stdout, res.exit_code, res.instr_count,
            res.fp_instr_count, res.fp_traps, res.correctness_traps,
            res.cycles, res.buckets, res.final_regs)


def _assert_same(builder, arith=None, **kwargs):
    fused = Session(builder, arith, **kwargs).run()
    stepped = Session(builder, arith, **kwargs).run(_NO_BUDGET)
    assert _observed(fused) == _observed(stepped)


# --------------------------------------------------------------------------- #
# random compiled programs                                                     #
# --------------------------------------------------------------------------- #

@st.composite
def fp_expr(draw, depth=0):
    """A random fpc double expression over variables a, b, c."""
    if depth > 3 or draw(st.booleans()):
        return draw(st.sampled_from(
            ["a", "b", "c", "0.5", "2.0", "1.5", "0.1", "3.0"]))
    op = draw(st.sampled_from(["+", "-", "*", "/"]))
    lhs = draw(fp_expr(depth=depth + 1))
    rhs = draw(fp_expr(depth=depth + 1))
    if op == "/":
        rhs = f"({rhs} * {rhs} + 0.25)"  # keep denominators positive
    fn = draw(st.sampled_from(["", "", "", "sqrt", "fabs", "-"]))
    body = f"({lhs} {op} {rhs})"
    if fn == "sqrt":
        return f"sqrt(fabs{body})"
    if fn == "-":
        return f"(-{body})"
    if fn == "fabs":
        return f"fabs{body}"
    return body


@given(fp_expr(),
       st.floats(min_value=-8, max_value=8,
                 allow_nan=False).map(lambda v: round(v, 3)),
       st.floats(min_value=-8, max_value=8,
                 allow_nan=False).map(lambda v: round(v, 3)))
@settings(max_examples=30, deadline=None)
def test_random_fp_program_dispatch_identical(expr, a, b):
    src = f"""
    long main() {{
        double a = {a!r};
        double b = {b!r};
        double c = 1.25;
        double r = {expr};
        printf("%.17g\\n", r);
        return 0;
    }}
    """
    _assert_same(lambda: compile_source(src))


@given(st.lists(st.integers(min_value=-1000, max_value=1000),
                min_size=1, max_size=10))
@settings(max_examples=25, deadline=None)
def test_random_int_program_dispatch_identical(values):
    items = ", ".join(str(v) for v in values)
    src = f"""
    long data[{len(values)}] = {{ {items} }};
    long main() {{
        long s = 0;
        for (long i = 0; i < {len(values)}; i = i + 1) {{
            if (data[i] > 0) {{ s = s + data[i] * 2; }}
            else {{ s = s - data[i]; }}
        }}
        printf("%d\\n", s);
        return s & 255;
    }}
    """
    _assert_same(lambda: compile_source(src))


# --------------------------------------------------------------------------- #
# every registry workload: native and FPVM+Vanilla                             #
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_native_dispatch_identical(name):
    spec = WORKLOADS[name]
    _assert_same(lambda: spec.build("test"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_fpvm_dispatch_identical(name):
    """The trap path (bodies call _fp_event) must deliver the same
    faults, demotions, and cost charges under both loops."""
    spec = WORKLOADS[name]
    _assert_same(lambda: spec.build("test"), VanillaArithmetic())


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("mode", ["trap-and-emulate", "trap-and-patch",
                                  "static"])
def test_workload_fpvm_modes_dispatch_identical_slow(name, mode):
    """The broad mode × workload sweep (excluded from tier-1)."""
    spec = WORKLOADS[name]
    _assert_same(lambda: spec.build("test"), VanillaArithmetic(),
                 config=FPVMConfig(mode=mode))


def test_patch_mode_dispatch_identical():
    """Trap-and-patch rewrites text mid-run; both loops must pick up
    the recompiled site and its rebuilt superblocks."""
    spec = WORKLOADS["lorenz"]
    _assert_same(lambda: spec.build("test"), VanillaArithmetic(),
                 config=FPVMConfig(mode="trap-and-patch"))
