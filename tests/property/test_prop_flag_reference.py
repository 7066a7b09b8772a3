"""The soft FPU's whole ``(bits, flags)`` word against an exact reference.

The reference decodes each operand into a ``Fraction``, computes the
exact result, and rounds it to the format (round-to-nearest-even),
which gives the result bits and the five flags.  It is parameterized
by format, so one reference serves binary64 and binary32; fma has a
binary64 reference of its own.  Its flag rules are this machine's: IE
on a signaling NaN operand or an invalid operation; DE on a denormal
operand; ZE on a zero divisor under a finite nonzero dividend; OE|PE
on overflow; PE when the result was rounded; UE only together with PE,
when the rounded result is subnormal or zero (the masked-response rule).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ieee import bits as B
from repro.ieee.softfloat import Flags, SoftFPU

fpu = SoftFPU()
IE, DE, ZE, OE, UE, PE = (Flags.IE, Flags.DE, Flags.ZE, Flags.OE, Flags.UE,
                          Flags.PE)


@dataclass(frozen=True)
class Fmt:
    ebits: int
    fbits: int

    @property
    def width(self) -> int:
        return 1 + self.ebits + self.fbits

    @property
    def bias(self) -> int:
        return (1 << (self.ebits - 1)) - 1

    @property
    def emax_field(self) -> int:
        return (1 << self.ebits) - 1

    @property
    def quiet_bit(self) -> int:
        return 1 << (self.fbits - 1)

    @property
    def default_qnan(self) -> int:
        return (1 << (self.width - 1)) | (self.emax_field << self.fbits) \
            | self.quiet_bit

    def inf(self, sign: int) -> int:
        return (sign << (self.width - 1)) | (self.emax_field << self.fbits)

    def zero(self, sign: int) -> int:
        return sign << (self.width - 1)


F64 = Fmt(11, 52)
F32 = Fmt(8, 23)


@dataclass(frozen=True)
class Val:
    """A decoded operand: kind is "nan", "inf" or "fin"."""

    kind: str
    sign: int
    value: Fraction = Fraction(0)
    snan: bool = False
    denormal: bool = False

    @property
    def zero(self) -> bool:
        return self.kind == "fin" and self.value == 0


def decode(x: int, fmt: Fmt) -> Val:
    sign = x >> (fmt.width - 1)
    e = (x >> fmt.fbits) & fmt.emax_field
    f = x & ((1 << fmt.fbits) - 1)
    if e == fmt.emax_field:
        if f:
            return Val("nan", sign, snan=not f & fmt.quiet_bit)
        return Val("inf", sign)
    m = f | (1 << fmt.fbits) if e else f
    v = Fraction(m) * Fraction(2) ** (max(e, 1) - fmt.bias - fmt.fbits)
    return Val("fin", sign, -v if sign else v, denormal=e == 0 and f != 0)


def round_to(x: Fraction, fmt: Fmt, zero_sign: int = 0) -> tuple[int, bool, bool]:
    """RNE-round ``x``: ``(bits, inexact, overflow)``."""
    if x == 0:
        return fmt.zero(zero_sign), False, False
    sign = int(x < 0)
    ax = abs(x)
    e = ax.numerator.bit_length() - ax.denominator.bit_length()
    if Fraction(2) ** e > ax:
        e -= 1
    emin = 1 - fmt.bias
    e = max(e, emin)
    n = ax / Fraction(2) ** (e - fmt.fbits)
    q = n.numerator // n.denominator
    rem = n - q
    if rem > Fraction(1, 2) or (rem == Fraction(1, 2) and q & 1):
        q += 1
    if q == 1 << (fmt.fbits + 1):
        q >>= 1
        e += 1
    if e > fmt.bias:
        return fmt.inf(sign), True, True
    out = sign << (fmt.width - 1)
    if q >= 1 << fmt.fbits:
        out |= ((e + fmt.bias) << fmt.fbits) | (q - (1 << fmt.fbits))
    else:
        out |= q  # subnormal or zero: exponent field 0
    return out, rem != 0, False


def finish(x: Fraction, fmt: Fmt, flags: int, zero_sign: int) -> tuple[int, int]:
    bits, inexact, overflow = round_to(x, fmt, zero_sign)
    if overflow:
        return bits, flags | OE | PE
    if inexact:
        flags |= PE
        if not (bits >> fmt.fbits) & fmt.emax_field:
            flags |= UE
    return bits, flags


def ref_binary(op: str, a: int, b: int, fmt: Fmt) -> tuple[int, int]:
    A, Bv = decode(a, fmt), decode(b, fmt)
    if A.kind == "nan" or Bv.kind == "nan":
        src = a if A.kind == "nan" else b
        return src | fmt.quiet_bit, IE if (A.snan or Bv.snan) else 0
    de = DE if (A.denormal or Bv.denormal) else 0
    qnan = fmt.default_qnan, IE
    if op in ("add", "sub"):
        sb = Bv.sign ^ (op == "sub")
        if A.kind == "inf" and Bv.kind == "inf" and A.sign != sb:
            return qnan
        if A.kind == "inf":
            return fmt.inf(A.sign), de
        if Bv.kind == "inf":
            return fmt.inf(sb), de
        x = A.value + (-Bv.value if op == "sub" else Bv.value)
        zero_sign = A.sign & sb if A.zero and Bv.zero else 0
        return finish(x, fmt, de, zero_sign)
    sign = A.sign ^ Bv.sign
    if op == "mul":
        if (A.kind == "inf" and Bv.zero) or (Bv.kind == "inf" and A.zero):
            return qnan
        if A.kind == "inf" or Bv.kind == "inf":
            return fmt.inf(sign), de
        return finish(A.value * Bv.value, fmt, de, sign)
    # div
    if (A.kind == "inf" and Bv.kind == "inf") or (A.zero and Bv.zero):
        return qnan
    # x86 raises ZE only for a finite nonzero dividend: inf / 0 is exact
    if A.kind == "inf":
        return fmt.inf(sign), de
    if Bv.zero:
        return fmt.inf(sign), de | ZE
    if Bv.kind == "inf" or A.zero:
        return fmt.zero(sign), de
    return finish(A.value / Bv.value, fmt, de, sign)


def ref_fma(a: int, b: int, c: int) -> tuple[int, int]:
    """``a*b + c`` rounded once; a NaN operand wins in ``a, b, c`` order."""
    ops = (a, b, c)
    vals = [decode(x, F64) for x in ops]
    A, Bv, C = vals
    if any(v.kind == "nan" for v in vals):
        src = next(x for x, v in zip(ops, vals) if v.kind == "nan")
        return src | F64.quiet_bit, IE if any(v.snan for v in vals) else 0
    if (A.kind == "inf" and Bv.zero) or (Bv.kind == "inf" and A.zero):
        return F64.default_qnan, IE
    de = DE if any(v.denormal for v in vals) else 0
    sign = A.sign ^ Bv.sign
    if A.kind == "inf" or Bv.kind == "inf":
        if C.kind == "inf" and C.sign != sign:
            return F64.default_qnan, de | IE
        return F64.inf(sign), de
    if C.kind == "inf":
        return c, de
    prod = A.value * Bv.value
    zero_sign = sign & C.sign if prod == 0 and C.zero else 0
    return finish(prod + C.value, F64, de, zero_sign)


def ref_sqrt(a: int) -> tuple[int, int]:
    A = decode(a, F64)
    if A.kind == "nan":
        return a | F64.quiet_bit, IE if A.snan else 0
    if A.zero:
        return a, 0
    if A.sign:
        return F64.default_qnan, IE
    if A.kind == "inf":
        return a, 0
    # sqrt(n / d) = sqrt(n * d) / d; extend with enough bits for a sticky
    n, d = A.value.numerator, A.value.denominator
    shift = 2 * (120 + max(0, d.bit_length()))
    root = math.isqrt((n * d) << shift)
    exact = root * root == (n * d) << shift
    # a sticky half below the last integer keeps the rounding decision
    v = (Fraction(root) + (0 if exact else Fraction(1, 2))) \
        / (d * Fraction(2) ** (shift // 2))
    bits, inexact, _ = round_to(v, F64)
    return bits, (DE if A.denormal else 0) | (PE if inexact else 0)


def ref_cvt_i64(i: int) -> tuple[int, int]:
    signed = i - (1 << 64) if i >> 63 else i
    bits, inexact, _ = round_to(Fraction(signed), F64)
    return bits, PE if inexact else 0


OPS64 = {"add": fpu.add64, "sub": fpu.sub64, "mul": fpu.mul64,
         "div": fpu.div64}
OPS32 = {"add": fpu.add32, "sub": fpu.sub32, "mul": fpu.mul32,
         "div": fpu.div32}


def check64(op: str, a: int, b: int) -> None:
    assert OPS64[op](a, b) == ref_binary(op, a, b, F64), (op, hex(a), hex(b))


# --------------------------------------------------------------------------- #
# fixed bit patterns: the exponent fields where rounding changes character     #
# --------------------------------------------------------------------------- #

EXP_FIELDS = (0, 1, 2, 52, 53, 54, 55, 969, 970, 971, 972, 1021, 1022, 1023,
              1024, 1025, 2045, 2046)
FRACS = (0, 1, (1 << 51) + 1, (1 << 52) - 1)


def pattern(e: int, f: int, s: int = 0) -> int:
    return (s << 63) | (e << 52) | f


PATTERNS = [pattern(e, f) for e, f in product(EXP_FIELDS, FRACS)]
SPECIALS = [B.F64_POS_INF, B.F64_NEG_INF, B.F64_DEFAULT_QNAN,
            B.F64_EXP_MASK | 0x29A, B.F64_NEG_ZERO]


@pytest.mark.parametrize("op", sorted(OPS64))
def test_boundary_patterns_binary64(op):
    pats = PATTERNS + SPECIALS
    for i, a in enumerate(pats):
        for j, b in enumerate(pats):
            # vary the signs deterministically so all four pairings occur
            sa, sb = (i + j) & 1, (i >> 1) & 1
            a2 = a ^ (sa << 63) if a not in SPECIALS else a
            b2 = b ^ (sb << 63) if b not in SPECIALS else b
            check64(op, a2, b2)


def _edge_pairs(op: str):
    """Operand pairs whose product or quotient lands on the subnormal or
    the overflow edge of binary64."""
    fracs = (0, 1, 1 << 51, (1 << 52) - 1, 0x8000_0000_0001, 0x5555_5555_5555)
    for ea in (1, 2, 500, 1023, 1500, 2046):
        for target in (-53, -52, -1, 0, 1, 2, 2045, 2046, 2047, 2048):
            eb = target - ea + 1023 if op == "mul" else ea + 1023 - target
            if not 0 <= eb <= 2046:
                continue
            for fa, fb in product(fracs, fracs):
                yield pattern(ea, fa), pattern(eb, fb, (fa ^ fb) & 1)


@pytest.mark.parametrize("op", ["mul", "div"])
def test_subnormal_and_overflow_edges(op):
    pairs = list(_edge_pairs(op))
    assert len(pairs) > 1000
    for a, b in pairs:
        check64(op, a, b)


def test_top_binade_sums():
    """2Sum's one overflow-prone step: an operand of largest magnitude."""
    top = pattern(2046, (1 << 52) - 1)
    for e in (969, 970, 971, 972, 1023, 2045, 2046):
        for f in (0, 1, 2, 3, (1 << 52) - 1):
            for s in (0, 1):
                x = pattern(e, f, s)
                for a, b in ((top, x), (x, top), (top | B.F64_SIGN_BIT, x)):
                    check64("add", a, b)
                    check64("sub", a, b)


# --------------------------------------------------------------------------- #
# Hypothesis: arbitrary binary64 and binary32 operands                          #
# --------------------------------------------------------------------------- #

anyfloat = st.floats(allow_nan=True, allow_infinity=True)
bits64 = st.one_of(anyfloat.map(B.f64_to_bits),
                   st.integers(min_value=0, max_value=(1 << 64) - 1))
bits32 = st.one_of(st.floats(width=32).map(B.f32_to_bits),
                   st.integers(min_value=0, max_value=(1 << 32) - 1))


@given(st.sampled_from(sorted(OPS64)), bits64, bits64)
@settings(max_examples=400)
def test_binary64_flag_word(op, a, b):
    check64(op, a, b)


@given(st.sampled_from(sorted(OPS32)), bits32, bits32)
@settings(max_examples=400)
def test_binary32_flag_word(op, a, b):
    assert OPS32[op](a, b) == ref_binary(op, a, b, F32), (op, hex(a), hex(b))


@given(bits64)
@settings(max_examples=300)
def test_sqrt_flag_word(a):
    assert fpu.sqrt64(a) == ref_sqrt(a), hex(a)


def check_fma(a: int, b: int, c: int) -> None:
    assert fpu.fma64(a, b, c) == ref_fma(a, b, c), (hex(a), hex(b), hex(c))


@given(bits64, bits64, bits64)
@settings(max_examples=400)
def test_fma_flag_word(a, b, c):
    check_fma(a, b, c)


def test_fma_overflow_edges():
    """Exact ``a*b + c`` beyond the binary64 range rounds to a signed
    infinity with OE|PE."""
    big = B.f64_to_bits(1e200)
    assert fpu.fma64(big, big, B.f64_to_bits(1.0)) == (B.F64_POS_INF,
                                                        OE | PE)
    top = pattern(2046, (1 << 52) - 1)
    for s in (0, 1):
        for e, f in product((2046, 1023, 1022, 1000, 500, 1, 0), FRACS):
            x = pattern(e, f, s)
            check_fma(top, pattern(1023, 0, s), x)
            check_fma(top | B.F64_SIGN_BIT, pattern(1024, f), x)
            check_fma(pattern(e, f, s), pattern(2046 - e, f ^ 1), top)


def test_fma_subnormal_results():
    """A 106-bit product landing on the subnormal grid rounds once (a
    53-bit rounding first, then the subnormal one, rounded twice)."""
    fracs = FRACS + (0x5555_5555_5555, 0x8000_0000_0001)
    for ea, k in product((1, 2), range(0, 53, 4)):
        for fa, fb, fc, s in product(fracs, fracs, (0, 1, 1 << 51), (0, 1)):
            check_fma(pattern(ea, fa), pattern(1024 - ea - k, fb, s),
                      pattern(0, fc, 1 - s))


def test_sqrt_boundary_patterns():
    for a in PATTERNS + SPECIALS:
        for s in (0, 1):
            x = a ^ (s << 63) if a not in SPECIALS else a
            assert fpu.sqrt64(x) == ref_sqrt(x), hex(x)


@given(st.one_of(st.integers(min_value=0, max_value=(1 << 64) - 1),
                 st.integers(min_value=0, max_value=70).map(
                     lambda k: ((1 << k) + 1) & ((1 << 64) - 1))))
def test_cvtsi2sd_flag_word(i):
    assert fpu.cvt_i64_to_f64(i) == ref_cvt_i64(i), hex(i)


# --------------------------------------------------------------------------- #
# pinned gaps: x86 raises UE here, this machine does not (ROADMAP item 9)       #
# --------------------------------------------------------------------------- #

def test_pinned_exact_tiny_product_raises_nothing():
    """2^-600 * 2^-474 is the exact subnormal 2^-1074: no flags today,
    though an unmasked UE faults on any tiny result on x86."""
    a, b = B.f64_to_bits(2.0**-600), B.f64_to_bits(2.0**-474)
    assert fpu.mul64(a, b) == (1, 0)
    assert ref_binary("mul", a, b, F64) == (1, 0)


def test_pinned_rounded_up_to_min_normal_is_pe_only():
    """(1-2^-53) * 2^-1022 rounds up to 2^-1022: PE only today, though
    x86 detects tininess before rounding here and also raises UE."""
    a, b = B.f64_to_bits(1.0 - 2.0**-53), B.f64_to_bits(2.0**-1022)
    assert fpu.mul64(a, b) == (B.f64_to_bits(2.0**-1022), PE)
    assert ref_binary("mul", a, b, F64) == (B.f64_to_bits(2.0**-1022), PE)
