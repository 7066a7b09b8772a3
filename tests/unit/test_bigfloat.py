"""Unit tests for the bigfloat (MPFR-substitute) core arithmetic."""

import math
import random
from fractions import Fraction

import pytest

from repro.ieee.bits import f64_to_bits
from repro.arith.bigfloat import BigFloatArithmetic, BigFloatContext
from repro.arith.bigfloat.number import RNDD, RNDU, RNDZ
from repro.arith.interface import Ordering


class TestConstruction:
    def test_from_float_roundtrip(self):
        ctx = BigFloatContext(53)
        for x in (1.0, -0.5, 0.1, 1e300, 5e-324, -1e-310, math.pi):
            assert ctx.from_float(x).to_float() == x

    def test_specials(self):
        ctx = BigFloatContext(64)
        assert ctx.from_float(math.nan).is_nan
        assert ctx.from_float(math.inf).is_inf
        assert ctx.from_float(-math.inf).sign == 1
        z = ctx.from_float(-0.0)
        assert z.is_zero and z.sign == 1
        assert math.copysign(1.0, z.to_float()) == -1.0

    def test_from_int(self):
        ctx = BigFloatContext(64)
        assert ctx.from_int(12345).to_float() == 12345.0
        assert ctx.from_int(-7).to_float() == -7.0
        assert ctx.from_int(0).is_zero

    def test_precision_rounding_on_entry(self):
        ctx = BigFloatContext(8)
        v = ctx.from_int((1 << 20) + 1)  # 21 significant bits
        assert v.mant.bit_length() == 8
        assert v.to_float() == float(1 << 20)  # RNE dropped the +1

    def test_min_precision(self):
        with pytest.raises(ValueError):
            BigFloatContext(1)
        with pytest.raises(ValueError):
            BigFloatContext(53, rounding="bogus")


class TestRoundingModes:
    def test_directed_modes(self):
        third_down = BigFloatContext(53, RNDD).div(
            BigFloatContext(53).from_int(1), BigFloatContext(53).from_int(3))
        third_up = BigFloatContext(53, RNDU).div(
            BigFloatContext(53).from_int(1), BigFloatContext(53).from_int(3))
        third_zero = BigFloatContext(53, RNDZ).div(
            BigFloatContext(53).from_int(1), BigFloatContext(53).from_int(3))
        assert third_down.to_float() < third_up.to_float()
        assert third_zero.to_float() == third_down.to_float()  # positive

    def test_rne_ties_to_even(self):
        ctx = BigFloatContext(4)
        # 9/2 = 4.5 -> tie between 4-bit mantissas: rounds to even
        v = ctx.round_mant(0, 0b10001, 0)  # 17 needs 5 bits
        assert v.mant == 0b1000 and v.exp == 1  # 16, even mantissa
        v = ctx.round_mant(0, 0b10011, 0)  # 19 -> 20 (tie up to even)
        assert v.mant * 2**v.exp == 20


class TestArithmeticAtDoublePrecision:
    ctx = BigFloatContext(53)

    def check(self, op, a, b, expect):
        r = getattr(self.ctx, op)(self.ctx.from_float(a),
                                  self.ctx.from_float(b))
        if math.isnan(expect):
            assert r.is_nan
        else:
            assert r.to_float() == expect

    def test_add_cases(self):
        self.check("add", 0.1, 0.2, 0.1 + 0.2)
        self.check("add", 1e308, 1e308, math.inf)
        self.check("add", math.inf, -math.inf, math.nan)
        self.check("add", 1e20, -1e20, 0.0)

    def test_far_apart_operands_sticky(self):
        self.check("add", 1.0, 1e-300, 1.0 + 1e-300)
        self.check("add", 1.0, -1e-300, 1.0 - 1e-300)
        self.check("sub", 1e300, 1.0, 1e300 - 1.0)

    def test_mul_cases(self):
        self.check("mul", 0.1, 0.1, 0.1 * 0.1)
        self.check("mul", 0.0, math.inf, math.nan)
        self.check("mul", -2.0, 3.0, -6.0)

    def test_div_cases(self):
        self.check("div", 1.0, 3.0, 1.0 / 3.0)
        self.check("div", 1.0, 0.0, math.inf)
        self.check("div", -1.0, 0.0, -math.inf)
        self.check("div", 0.0, 0.0, math.nan)
        self.check("div", math.inf, math.inf, math.nan)

    def test_sqrt(self):
        ctx = self.ctx
        assert ctx.sqrt(ctx.from_float(2.0)).to_float() == math.sqrt(2.0)
        assert ctx.sqrt(ctx.from_float(-1.0)).is_nan
        assert ctx.sqrt(ctx.from_float(-0.0)).is_zero

    def test_fma_single_rounding(self):
        ctx = self.ctx
        a = ctx.from_float(1.0 + 2.0**-30)
        r = ctx.fma(a, a, ctx.from_float(-1.0))
        assert r.to_float() == 2.0**-29 + 2.0**-60

    def test_neg_abs(self):
        ctx = self.ctx
        assert ctx.neg(ctx.from_float(2.0)).to_float() == -2.0
        assert ctx.abs(ctx.from_float(-3.0)).to_float() == 3.0
        assert ctx.neg(ctx.from_float(0.0)).sign == 1


class TestHighPrecision:
    def test_more_precise_than_double(self):
        hp = BigFloatContext(200)
        third = hp.div(hp.from_int(1), hp.from_int(3))
        # 3 * (1/3 at 200 bits) is closer to 1 than the double version
        back = hp.mul(third, hp.from_int(3))
        err_hp = abs(back.to_float() - 1.0)
        err_dbl = abs(3.0 * (1.0 / 3.0) - 1.0)
        assert err_hp <= err_dbl
        # and the 200-bit value differs from the 53-bit value
        assert hp.cmp(third, hp.from_float(1.0 / 3.0)) != 0

    def test_exponent_unbounded(self):
        hp = BigFloatContext(64)
        big = hp.from_mant_exp(0, 1, 100000)
        sq = hp.mul(big, big)
        # no overflow in the representation: value is exactly 2^200000
        assert sq.exp + sq.mant.bit_length() - 1 == 200000
        assert sq.to_float() == math.inf  # but demotion saturates


def _round_rne(x: Fraction, prec: int) -> Fraction:
    """``x`` rounded to ``prec`` significant bits, ties to even."""
    sign = -1 if x < 0 else 1
    x = abs(x)
    e = x.numerator.bit_length() - x.denominator.bit_length() - prec
    while x >= Fraction(2) ** (e + prec):
        e += 1
    while x < Fraction(2) ** (e + prec - 1):
        e -= 1
    q, r = divmod(x / Fraction(2) ** e, 1)
    if r > Fraction(1, 2) or (r == Fraction(1, 2) and q % 2):
        q += 1
    return sign * q * Fraction(2) ** e


def _exact(v) -> Fraction:
    return (-1 if v.sign else 1) * v.mant * Fraction(2) ** v.exp


class TestMixedWidthDivision:
    """Operands of other widths than the context (``bf_asin`` divides a
    ``ctx``-width value by a wider one) against a ``Fraction``
    reference: the quotient must carry at least ``prec`` bits before it
    rounds, whatever the divisor's width."""

    @pytest.mark.parametrize("prec", [53, 200])
    def test_div_rounds_to_nearest_even(self, prec):
        rng = random.Random(prec)
        ctx = BigFloatContext(prec)
        wrong = []
        for _ in range(300):
            wa, wb = rng.randint(2, 2 * prec), rng.randint(2, 2 * prec)
            a = BigFloatContext(wa).from_mant_exp(
                rng.randint(0, 1), rng.getrandbits(wa) | 1,
                rng.randint(-50, 50))
            b = BigFloatContext(wb).from_mant_exp(
                rng.randint(0, 1), rng.getrandbits(wb) | 1,
                rng.randint(-50, 50))
            want = _round_rne(_exact(a) / _exact(b), prec)
            if _exact(ctx.div(a, b)) != want:
                wrong.append((wa, wb))
        assert wrong == []


class TestCompare:
    ctx = BigFloatContext(80)

    def c(self, a, b):
        return self.ctx.cmp(self.ctx.from_float(a), self.ctx.from_float(b))

    def test_ordering(self):
        assert self.c(1.0, 2.0) == -1
        assert self.c(2.0, 1.0) == 1
        assert self.c(2.0, 2.0) == 0
        assert self.c(-1.0, 1.0) == -1
        assert self.c(-1.0, -2.0) == 1

    def test_zeros_equal(self):
        assert self.c(0.0, -0.0) == 0

    def test_nan_unordered(self):
        assert self.c(math.nan, 1.0) is None

    def test_inf(self):
        assert self.c(math.inf, 1e308) == 1
        assert self.c(-math.inf, -1e308) == -1
        assert self.c(math.inf, math.inf) == 0

    def test_same_scale_different_mantissa(self):
        a = self.ctx.from_float(1.5)
        b = self.ctx.from_float(1.25)
        assert self.ctx.cmp(a, b) == 1


class TestIntegral:
    ctx = BigFloatContext(64)

    def test_to_int_modes(self):
        f = self.ctx.from_float
        assert self.ctx.to_int(f(2.7), "trunc") == 2
        assert self.ctx.to_int(f(-2.7), "trunc") == -2
        assert self.ctx.to_int(f(2.5), "nearest") == 2
        assert self.ctx.to_int(f(3.5), "nearest") == 4
        assert self.ctx.to_int(f(-2.1), "floor") == -3
        assert self.ctx.to_int(f(-2.9), "ceil") == -2
        assert self.ctx.to_int(f(math.nan), "trunc") is None

    def test_round_to_integral(self):
        f = self.ctx.from_float
        assert self.ctx.round_to_integral(f(2.5), 0).to_float() == 2.0
        assert self.ctx.round_to_integral(f(-2.5), 1).to_float() == -3.0
        assert self.ctx.round_to_integral(f(2.5), 2).to_float() == 3.0
        assert self.ctx.round_to_integral(f(-2.5), 3).to_float() == -2.0
        z = self.ctx.round_to_integral(f(-0.25), 3)
        assert z.is_zero and z.sign == 1


class TestDecimal:
    def test_decimal_rendering(self):
        ctx = BigFloatContext(200)
        third = ctx.div(ctx.from_int(1), ctx.from_int(3))
        s = ctx.to_decimal_str(third, 20)
        assert s == "3.3333333333333333333e-01"

    def test_decimal_exact_values(self):
        ctx = BigFloatContext(64)
        assert ctx.to_decimal_str(ctx.from_int(1), 5) == "1.0000e+00"
        assert ctx.to_decimal_str(ctx.from_float(-2.5), 3) == "-2.50e+00"
        assert ctx.to_decimal_str(ctx.zero()) == "0"
        assert ctx.to_decimal_str(ctx.nan()) == "nan"
        assert ctx.to_decimal_str(ctx.inf(1)) == "-inf"


class TestAdapter:
    def test_interface_costs_match_paper_footnote9(self):
        a = BigFloatArithmetic(200)
        assert a.op_cycles("add") == pytest.approx(93, abs=5)
        assert a.op_cycles("div") == pytest.approx(2175, rel=0.02)

    def test_cost_grows_with_precision(self):
        lo = BigFloatArithmetic(64)
        hi = BigFloatArithmetic(4096)
        assert hi.op_cycles("div") > 100 * lo.op_cycles("div")
        assert hi.op_cycles("add") < hi.op_cycles("div")

    def test_conversions(self):
        a = BigFloatArithmetic(200)
        v = a.from_f64_bits(f64_to_bits(2.5))
        assert a.to_f64_bits(v) == f64_to_bits(2.5)
        assert a.to_i64(a.from_i64(-5 & ((1 << 64) - 1)), True) == \
            (-5) & ((1 << 64) - 1)
        assert a.to_i32(v, True) == 2
        assert a.compare(v, a.from_i64(3)) is Ordering.LT
        assert a.is_negative(a.neg(v))
        assert a.is_zero(a.sub(v, v))

    def test_min_max_x64_semantics(self):
        a = BigFloatArithmetic(64)
        x, y = a.from_i64(1), a.from_i64(2)
        assert a.min(x, y) is x
        assert a.max(x, y) is y
        assert a.min(a.from_f64_bits(f64_to_bits(math.nan)), y) is y
