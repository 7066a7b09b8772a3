"""Property-based tests: the soft FPU against host-float ground truth
and exact Fraction arithmetic."""

import math
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.ieee import bits as B
from repro.ieee.softfloat import Flags, SoftFPU

fpu = SoftFPU()

finite = st.floats(allow_nan=False, allow_infinity=False)
nonzero_finite = finite.filter(lambda x: x != 0.0)
anyfloat = st.floats(allow_nan=True, allow_infinity=True)


def f(x: float) -> int:
    return B.f64_to_bits(x)


@given(finite, finite)
def test_add_value_matches_host(a, b):
    r, _ = fpu.add64(f(a), f(b))
    assert r == f(a + b)


@given(finite, finite)
def test_sub_value_matches_host(a, b):
    r, _ = fpu.sub64(f(a), f(b))
    assert r == f(a - b)


@given(finite, finite)
def test_mul_value_matches_host(a, b):
    r, _ = fpu.mul64(f(a), f(b))
    assert r == f(a * b)


@given(finite, nonzero_finite)
def test_div_value_matches_host(a, b):
    r, _ = fpu.div64(f(a), f(b))
    assert r == f(a / b)


@given(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
def test_sqrt_value_matches_host(a):
    r, _ = fpu.sqrt64(f(a))
    assert r == f(math.sqrt(a))


@given(finite, finite)
@settings(max_examples=300)
def test_pe_iff_inexact_add(a, b):
    """The trap predicate: PE fires exactly when Fraction arithmetic
    says the result was rounded."""
    r, fl = fpu.add64(f(a), f(b))
    if not B.is_finite64(r):
        return  # overflow path asserts separately
    exact = Fraction(a) + Fraction(b) == Fraction(B.bits_to_f64(r))
    assert bool(fl & Flags.PE) == (not exact)


@given(finite, finite)
@settings(max_examples=300)
def test_pe_iff_inexact_mul(a, b):
    r, fl = fpu.mul64(f(a), f(b))
    if not B.is_finite64(r):
        return
    exact = Fraction(a) * Fraction(b) == Fraction(B.bits_to_f64(r))
    assert bool(fl & Flags.PE) == (not exact)


@given(finite, nonzero_finite)
@settings(max_examples=300)
def test_pe_iff_inexact_div(a, b):
    r, fl = fpu.div64(f(a), f(b))
    if not B.is_finite64(r):
        return
    exact = Fraction(a) / Fraction(b) == Fraction(B.bits_to_f64(r))
    assert bool(fl & Flags.PE) == (not exact)


@given(finite, finite)
def test_add_commutes_in_value(a, b):
    r1, fl1 = fpu.add64(f(a), f(b))
    r2, fl2 = fpu.add64(f(b), f(a))
    assert r1 == r2 and fl1 == fl2


@given(anyfloat, anyfloat)
def test_nan_operand_never_crashes_and_propagates(a, b):
    r, fl = fpu.mul64(f(a), f(b))
    if math.isnan(a) or math.isnan(b):
        assert B.is_qnan64(r)


@given(finite)
def test_ucomi_reflexive_equal(a):
    (zf, pf, cf), fl = fpu.ucomi64(f(a), f(a))
    assert (zf, pf, cf) == (1, 0, 0) and fl == 0


@given(finite, finite)
def test_ucomi_antisymmetric(a, b):
    assume(a != b)
    r1, _ = fpu.ucomi64(f(a), f(b))
    r2, _ = fpu.ucomi64(f(b), f(a))
    assert r1 != r2


@given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
def test_cvt_i64_roundtrip_when_exact(i):
    r, fl = fpu.cvt_i64_to_f64(i & ((1 << 64) - 1))
    assert B.bits_to_f64(r) == float(i)
    if fl == 0:  # exact conversion must roundtrip
        back, _ = fpu.cvt_f64_to_i64(r, truncate=True)
        if back != 1 << 63 or i == -(2**63):
            signed = back - (1 << 64) if back >= 1 << 63 else back
            assert signed == i


@given(finite)
def test_roundtrip_f32_widening_exact(x):
    r32, _ = fpu.cvt_f64_to_f32(f(x))
    r64, fl = fpu.cvt_f32_to_f64(r32)
    r32b, _ = fpu.cvt_f64_to_f32(r64)
    assert r32b == r32  # narrow(widen(narrow(x))) == narrow(x)


@given(finite)
def test_exactness_decomposition_consistent(x):
    assume(x != 0.0)
    s, m, e = B.decompose64(f(x))
    assert ((-1) ** s) * m * Fraction(2) ** e == Fraction(x)
