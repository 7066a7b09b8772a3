"""Property tests for the sanitizer: on any random program the IEEE
path the program observes is bit-identical to a native run — the
dual-path shadow, the divergence checks, and the static exemptions
are all pure observers."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.ranges import analyze_ranges
from repro.compiler import compile_source
from repro.fpvm.runtime import FPVMConfig
from repro.fpvm.sanitize import SanitizeConfig
from repro.session import Session
from test_prop_system import fp_expr


def _src(expr, a, b, c):
    return f"""
    long main() {{
        double a = {a!r};
        double b = {b!r};
        double c = {c!r};
        double r = {expr};
        printf("%.17g\\n", r);
        printf("bits=%d\\n", __bits(r) & 4095);
        return 0;
    }}
    """


FLOATS = st.floats(min_value=-8, max_value=8,
                   allow_nan=False).map(lambda v: round(v, 3))
POS = st.floats(min_value=0.1, max_value=8,
                allow_nan=False).map(lambda v: round(v, 3))


@given(fp_expr(), FLOATS, FLOATS, POS, st.booleans())
@settings(max_examples=20, deadline=None)
def test_sanitize_preserves_ieee_path(expr, a, b, c, exempt):
    """Native run == sanitize run (stdout, exit code, instruction
    count) with the exemption on and off."""
    src = _src(expr, a, b, c)
    native = Session(lambda: compile_source(src), None).run()
    cfg = FPVMConfig(sanitize=SanitizeConfig(
        threshold=1e-6, precision=80, exempt=exempt))
    sess = Session(lambda: compile_source(src), ("sanitize", 80),
                   config=cfg)
    res = sess.run()
    assert res.stdout == native.stdout
    assert res.exit_code == native.exit_code
    assert res.instr_count == native.instr_count


@given(fp_expr(), FLOATS, FLOATS, POS)
@settings(max_examples=15, deadline=None)
def test_statically_exempt_sites_never_flag(expr, a, b, c):
    """The gate law on random programs: run full dual-path (exemption
    off) and require that no proven site dynamically diverges."""
    src = _src(expr, a, b, c)
    cfg = FPVMConfig(sanitize=SanitizeConfig(
        threshold=1e-6, precision=80, exempt=False))
    sess = Session(lambda: compile_source(src), ("sanitize", 80),
                   config=cfg)
    rr = analyze_ranges(sess.binary, threshold=1e-6)
    sess.run()
    flagged = set(sess.fpvm.sanitizer.flagged_sites())
    assert not (flagged & rr.proven), (
        f"statically proven sites flagged: "
        f"{sorted(hex(x) for x in flagged & rr.proven)}")
