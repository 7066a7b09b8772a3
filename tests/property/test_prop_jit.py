"""Differential tests for the trap-site JIT: compiled sites and fused
shadow kernels must be observationally identical to pure trap servicing.

The contract (``repro.fpvm.jit``): with the JIT enabled, a run produces
the same stdout, exit code, dynamic instruction count, and FP
instruction count as the same run with the JIT disabled, for every
arithmetic.  (Modeled cycles and ``fp_traps`` legitimately differ — a
patched site absorbs events without delivering faults, and charges
the cheaper jit-path costs.)
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import compile_source
from repro.fpvm.runtime import FPVMConfig
from repro.session import Session

ARITHS = ["vanilla", "mpfr:64", "posit:32:2"]
WORKLOADS = ["lorenz", "fbench", "three_body"]


def _observed(res):
    return (res.stdout, res.exit_code, res.instr_count, res.fp_instr_count)


def _pair(target, arith, *, size=None, threshold=2, **cfg):
    """Run ``target`` twice — JIT off and JIT on — and return both."""
    kw = {"size": size} if size else {}
    off = Session(target, arith, config=FPVMConfig(**cfg), **kw).run()
    on = Session(target, arith,
                 config=FPVMConfig(jit_threshold=threshold, **cfg),
                 **kw).run()
    return off, on


# --------------------------------------------------------------------------- #
# registry workloads × arithmetics                                             #
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("arith", ARITHS)
@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_jit_identical(name, arith):
    off, on = _pair(name, arith, size="test")
    assert _observed(on) == _observed(off)
    stats = on.fpvm.stats
    assert stats.jit_sites_compiled > 0
    assert stats.jit_hits > 0
    # the patched sites must absorb real trap traffic
    assert on.fp_traps < off.fp_traps


# --------------------------------------------------------------------------- #
# fused shadow kernels (chains of adjacent patched sites)                      #
# --------------------------------------------------------------------------- #

_FUSION_SRCS = {
    "pair": """
    long main() {
        double s = 0.1;
        for (long i = 0; i < 60; i = i + 1) {
            s = s / 1.0000001 + 0.0000001;
        }
        printf("%.17g\\n", s);
        return 0;
    }
    """,
    # sqrt inside the chain: the carried value feeds a unary op
    "sqrt_chain": """
    long main() {
        double s = 2.0;
        for (long i = 0; i < 60; i = i + 1) {
            s = sqrt(s * 1.125) + 0.25;
        }
        printf("%.17g\\n", s);
        return 0;
    }
    """,
    # a NaN materializes mid-chain on even iterations (0/0) and must
    # surface identically; odd iterations trap on inexactness, so both
    # chain members still compile and fuse
    "nan_chain": """
    double num[2] = { 0.0, 1.0 };
    double den[2] = { 0.0, 3.0 };
    long main() {
        double s = 0.0;
        for (long i = 0; i < 40; i = i + 1) {
            s = num[i & 1] / den[i & 1] + 0.1;
        }
        printf("%.17g\\n", s);
        return 0;
    }
    """,
}


@pytest.mark.parametrize("arith", ARITHS)
@pytest.mark.parametrize("shape", sorted(_FUSION_SRCS))
def test_fused_kernel_identical(shape, arith):
    builder = lambda: compile_source(_FUSION_SRCS[shape])
    off, on = _pair(builder, arith)
    assert _observed(on) == _observed(off)
    stats = on.fpvm.stats
    assert stats.jit_fused_kernels > 0
    assert stats.jit_hits > 0


def test_pair_kernel_elides_boxes():
    """The divsd+addsd chain keeps its intermediate register-resident:
    one box per iteration instead of two."""
    builder = lambda: compile_source(_FUSION_SRCS["pair"])
    _, on = _pair(builder, "vanilla")
    assert on.fpvm.stats.boxes_elided > 40


# --------------------------------------------------------------------------- #
# random fusible programs                                                      #
# --------------------------------------------------------------------------- #

_OPS = ["+", "-", "*", "/", "sqrt"]


@given(st.lists(st.tuples(st.sampled_from(_OPS),
                          st.floats(min_value=0.5, max_value=2.0,
                                    allow_nan=False)
                          .map(lambda v: round(v, 4))),
                min_size=1, max_size=4),
       st.floats(min_value=0.1, max_value=4.0,
                 allow_nan=False).map(lambda v: round(v, 4)))
@settings(max_examples=20, deadline=None)
def test_random_chain_jit_identical(steps, seed):
    """Random op chains of 1 to 4 links over one accumulator — a lone
    site or the exact shape the fuser targets — must be bit-identical
    with the JIT on.  One expression keeps every link on the same
    register, so adjacent links fuse; a sqrt link may see a negative
    operand and carry a NaN down the chain."""
    expr = "s"
    for op, c in steps:
        expr = f"sqrt({expr})" if op == "sqrt" else f"({expr} {op} {c!r})"
    src = f"""
    long main() {{
        double s = {seed!r};
        for (long i = 0; i < 30; i = i + 1) {{
            s = {expr};
        }}
        printf("%.17g\\n", s);
        return 0;
    }}
    """
    builder = lambda: compile_source(src)
    from repro.trace.profiler import ProfilerSink

    prof = ProfilerSink()
    off = Session(builder, "vanilla", trace=prof).run()
    on = Session(builder, "vanilla",
                 config=FPVMConfig(jit_threshold=2)).run()
    assert _observed(on) == _observed(off)
    # a site only records a jit *hit* once it re-executes after its
    # trap count reaches the threshold, so demand jit traffic only
    # when some single site trapped past the threshold in the
    # unjitted run — total trap count spread thinly across sites is
    # not enough to compile anything
    hottest = max((s.traps for s in prof.hot_sites(10_000)), default=0)
    assert on.fpvm.stats.jit_hits > 0 or hottest <= 2
