"""Conformance suite for the 37-function arithmetic interface (§4.3).

Every arithmetic system FPVM can host must satisfy these contracts —
the porting checklist implied by the paper's "extending FPVM to
support new alternative arithmetic is relatively simple".  The suite
runs identically over all shipped systems (and would over a user's).
"""

import math

import pytest

from repro.ieee.bits import bits_to_f64, f64_to_bits
from repro.arith import (
    AdaptiveBigFloatArithmetic,
    BigFloatArithmetic,
    IntervalArithmetic,
    Ordering,
    PositArithmetic,
    VanillaArithmetic,
)
from repro.arith.interface import (
    ARITH_OPS,
    COMPARISON_OPS,
    CONVERSION_OPS,
    AlternativeArithmetic,
)

SYSTEMS = [
    VanillaArithmetic(),
    BigFloatArithmetic(53),
    BigFloatArithmetic(200),
    AdaptiveBigFloatArithmetic(64, 512),
    PositArithmetic(32, 2),
    PositArithmetic(64, 2),
    IntervalArithmetic(),
]

IDS = [s.describe() for s in SYSTEMS]


@pytest.fixture(params=SYSTEMS, ids=IDS)
def arith(request):
    return request.param


def F(a, x: float):
    return a.from_f64_bits(f64_to_bits(x))


def V(a, v) -> float:
    return bits_to_f64(a.to_f64_bits(v))


class TestInterfaceShape:
    def test_37_functions_exist(self, arith):
        for name in ARITH_OPS + CONVERSION_OPS + COMPARISON_OPS:
            assert callable(getattr(arith, name)), name

    def test_is_subclass(self, arith):
        assert isinstance(arith, AlternativeArithmetic)

    def test_op_cycles_positive(self, arith):
        for op in ("add", "mul", "div", "sin", "compare"):
            assert arith.op_cycles(op) > 0


class TestArithmeticContracts:
    def test_small_integer_arith_exact(self, arith):
        # interval midpoints are within one outward-rounding ulp
        approx = (lambda v, x: v == pytest.approx(x, abs=1e-12)) \
            if isinstance(arith, IntervalArithmetic) else \
            (lambda v, x: v == x)
        two, three = F(arith, 2.0), F(arith, 3.0)
        assert approx(V(arith, arith.add(two, three)), 5.0)
        assert approx(V(arith, arith.sub(two, three)), -1.0)
        assert approx(V(arith, arith.mul(two, three)), 6.0)
        assert approx(V(arith, arith.div(F(arith, 6.0), three)), 2.0)
        assert approx(V(arith, arith.sqrt(F(arith, 9.0))), 3.0)
        assert approx(V(arith, arith.fma(two, three, F(arith, 1.0))), 7.0)

    def test_neg_abs(self, arith):
        x = F(arith, -2.5)
        assert V(arith, arith.neg(x)) == 2.5
        assert V(arith, arith.abs(x)) == 2.5
        assert arith.is_negative(x)
        assert not arith.is_negative(arith.abs(x))

    def test_min_max_x64_semantics(self, arith):
        a, b = F(arith, 1.0), F(arith, 2.0)
        assert V(arith, arith.min(a, b)) == 1.0
        assert V(arith, arith.max(a, b)) == 2.0
        nan = arith.from_f64_bits(f64_to_bits(math.nan))
        # NaN in either slot: forward src2 (MINSD)
        assert V(arith, arith.min(nan, b)) == 2.0

    def test_nan_totality(self, arith):
        """Every arithmetic function is total on NaN inputs."""
        nan = arith.from_f64_bits(f64_to_bits(math.nan))
        one = F(arith, 1.0)
        for op in ("add", "sub", "mul", "div", "atan2", "pow", "fmod"):
            assert arith.is_nan(getattr(arith, op)(nan, one)), op
        for op in ("sqrt", "sin", "cos", "tan", "exp", "atan"):
            assert arith.is_nan(getattr(arith, op)(nan)), op

    def test_domain_errors_give_nan(self, arith):
        neg = F(arith, -4.0)
        assert arith.is_nan(arith.sqrt(neg))
        assert arith.is_nan(arith.log(neg))
        assert arith.is_nan(arith.asin(F(arith, 3.0)))

    @pytest.mark.parametrize("fn,ref,x", [
        ("sin", math.sin, 0.7), ("cos", math.cos, 0.7),
        ("tan", math.tan, 0.4), ("exp", math.exp, 1.5),
        ("log", math.log, 4.2), ("log2", math.log2, 4.2),
        ("log10", math.log10, 4.2), ("atan", math.atan, 2.1),
        ("asin", math.asin, 0.6), ("acos", math.acos, 0.6),
    ])
    def test_transcendental_accuracy(self, arith, fn, ref, x):
        got = V(arith, getattr(arith, fn)(F(arith, x)))
        # posit32 carries ~28 significand bits; everything else ≥ 53
        rel = 1e-6 if "posit32" in arith.describe() else 1e-11
        assert got == pytest.approx(ref(x), rel=rel)

    def test_binary_transcendentals(self, arith):
        rel = 1e-6 if "posit32" in arith.describe() else 1e-11
        assert V(arith, arith.pow(F(arith, 2.0), F(arith, 8.0))) == \
            pytest.approx(256.0, rel=rel)
        assert V(arith, arith.atan2(F(arith, 1.0), F(arith, 1.0))) == \
            pytest.approx(math.pi / 4, rel=rel)
        assert V(arith, arith.fmod(F(arith, 7.5), F(arith, 2.0))) == \
            pytest.approx(1.5, rel=rel)


class TestConversionContracts:
    def test_f64_roundtrip_simple(self, arith):
        for x in (0.0, 1.0, -2.5, 1024.0, 0.125):
            assert V(arith, F(arith, x)) == x

    def test_int_conversions(self, arith):
        assert V(arith, arith.from_i64(42)) == 42.0
        assert V(arith, arith.from_i64((-9) & ((1 << 64) - 1))) == -9.0
        assert V(arith, arith.from_i32(7)) == 7.0
        v = F(arith, -2.7)
        assert arith.to_i64(v, True) == (-2) & ((1 << 64) - 1)
        assert arith.to_i32(F(arith, 2.5), False) == 2  # nearest-even

    def test_int_indefinite_on_nan(self, arith):
        nan = arith.from_f64_bits(f64_to_bits(math.nan))
        assert arith.to_i64(nan, True) == 1 << 63
        assert arith.to_i32(nan, True) == 1 << 31

    def test_f32_roundtrip(self, arith):
        from repro.ieee.bits import f32_to_bits

        w = arith.from_f32_bits(f32_to_bits(1.5))
        assert arith.to_f32_bits(w) == f32_to_bits(1.5)

    @pytest.mark.parametrize("mode,x,expect", [
        (0, 2.5, 2.0), (1, -2.1, -3.0), (2, 2.1, 3.0), (3, -2.9, -2.0),
    ])
    def test_round_to_integral(self, arith, mode, x, expect):
        assert V(arith, arith.round_to_integral(F(arith, x), mode)) == \
            expect

    def test_decimal_str(self, arith):
        s = arith.to_decimal_str(F(arith, 0.5), 6)
        assert s.replace("e-01", "").replace("0", "").strip(".") in \
            ("5", "5e-1", ".5") or "5" in s


class TestComparisonContracts:
    def test_orderings(self, arith):
        a, b = F(arith, 1.0), F(arith, 2.0)
        assert arith.compare(a, b) is Ordering.LT
        assert arith.compare(b, a) is Ordering.GT
        assert arith.compare(a, a) is Ordering.EQ
        nan = arith.from_f64_bits(f64_to_bits(math.nan))
        assert arith.compare(nan, a) is Ordering.UNORDERED

    def test_predicates(self, arith):
        assert arith.is_zero(F(arith, 0.0))
        assert not arith.is_zero(F(arith, 1.0))
        assert arith.is_negative(F(arith, -1.0))
        assert arith.is_nan(arith.from_f64_bits(f64_to_bits(math.nan)))
