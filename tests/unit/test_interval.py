"""Unit + property tests for the interval arithmetic binding.

The load-bearing law is *containment*: the exact real result of an
operation on members of the input intervals lies inside the output
interval.  We check it against exact Fraction arithmetic.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ieee.bits import bits_to_f64, f64_to_bits
from repro.arith.interface import Ordering
from repro.arith.interval import (
    NAI,
    IntervalArithmetic,
    midpoint,
    width,
)
from repro.session import Session

A = IntervalArithmetic()


def F(x: float):
    return A.from_f64_bits(f64_to_bits(x))


class TestBasics:
    def test_degenerate_from_double(self):
        v = F(2.5)
        assert v == (2.5, 2.5)
        assert width(v) == 0.0
        assert bits_to_f64(A.to_f64_bits(v)) == 2.5

    def test_ops_widen_outward(self):
        s = A.add(F(0.1), F(0.2))
        assert s[0] < 0.1 + 0.2 < s[1]
        assert width(s) > 0

    def test_sub_uses_opposite_endpoints(self):
        a, b = (1.0, 2.0), (0.25, 0.5)
        r = A.sub(a, b)
        assert r[0] <= 0.5 and r[1] >= 1.75

    def test_mul_sign_cases(self):
        assert A.mul((-2.0, 3.0), (-1.0, 4.0))[0] <= -8.0
        assert A.mul((-2.0, 3.0), (-1.0, 4.0))[1] >= 12.0
        r = A.mul((-2.0, -1.0), (-3.0, -2.0))
        assert r[0] <= 2.0 and r[1] >= 6.0

    def test_div_through_zero_is_nai(self):
        assert A.is_nan(A.div(F(1.0), (-1.0, 1.0)))
        assert not A.is_nan(A.div(F(1.0), (0.5, 2.0)))

    def test_sqrt_clamps_small_negative_lo(self):
        r = A.sqrt((-1e-30, 4.0))
        assert r[0] <= 0.0 <= r[1] and r[1] >= 2.0
        assert A.is_nan(A.sqrt((-2.0, -1.0)))

    def test_abs_straddling(self):
        assert A.abs((-3.0, 2.0)) == (0.0, 3.0)
        assert A.abs((-3.0, -2.0)) == (2.0, 3.0)

    def test_neg_swaps(self):
        assert A.neg((1.0, 2.0)) == (-2.0, -1.0)


class TestTrig:
    def test_sin_interior_maximum(self):
        r = A.sin((1.0, 2.5))  # pi/2 inside
        assert r[1] == 1.0
        assert r[0] <= min(math.sin(1.0), math.sin(2.5))

    def test_cos_interior_minimum(self):
        r = A.cos((3.0, 3.3))  # pi inside
        assert r[0] == -1.0

    def test_wide_interval_full_range(self):
        assert A.sin((0.0, 100.0)) == (-1.0, 1.0)

    def test_narrow_monotone_piece(self):
        r = A.sin((0.1, 0.2))
        assert r[0] <= math.sin(0.1) and r[1] >= math.sin(0.2)
        assert width(r) < 0.11

    def test_tan_pole_is_nai(self):
        assert A.is_nan(A.tan((1.0, 2.0)))  # pi/2 inside
        assert not A.is_nan(A.tan((0.1, 0.4)))


class TestContainmentProperty:
    finite = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)

    @given(finite, finite, finite, finite,
           st.sampled_from(["add", "sub", "mul"]))
    @settings(max_examples=200, deadline=None)
    def test_exact_result_contained(self, a, b, c, d, op):
        ia = (min(a, b), max(a, b))
        ib = (min(c, d), max(c, d))
        r = getattr(A, op)(ia, ib)
        # pick exact representative points: the endpoints themselves
        for x in ia:
            for y in ib:
                if op == "add":
                    exact = Fraction(x) + Fraction(y)
                elif op == "sub":
                    exact = Fraction(x) - Fraction(y)
                else:
                    exact = Fraction(x) * Fraction(y)
                assert Fraction(r[0]) <= exact <= Fraction(r[1])

    @given(st.floats(min_value=0.0, max_value=1e300, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_sqrt_containment(self, x):
        r = A.sqrt((x, x))
        s = math.sqrt(x)
        assert r[0] <= s <= r[1]

    @given(st.integers(min_value=-100, max_value=100))
    @settings(max_examples=60, deadline=None)
    def test_int_roundtrip(self, i):
        v = A.from_i64(i & ((1 << 64) - 1))
        assert midpoint(v) == float(i)
        assert A.to_i64(v, True) == i & ((1 << 64) - 1)


class TestComparisons:
    def test_certain_orderings(self):
        assert A.compare((1.0, 2.0), (3.0, 4.0)) is Ordering.LT
        assert A.compare((5.0, 6.0), (3.0, 4.0)) is Ordering.GT
        assert A.compare(F(2.0), F(2.0)) is Ordering.EQ

    def test_overlap_decided_by_midpoint(self):
        assert A.compare((1.0, 3.0), (2.0, 6.0)) is Ordering.LT
        assert A.compare((2.0, 6.0), (1.0, 3.0)) is Ordering.GT

    def test_nai_unordered(self):
        assert A.compare(NAI, F(1.0)) is Ordering.UNORDERED


class TestUnderFPVM:
    def test_validates_and_reports_width(self):
        from repro.compiler import compile_source

        src = """
        long main() {
            double x = 1.0;
            for (long i = 0; i < 25; i = i + 1) { x = x / 3.0 + 1.0; }
            printf("%.17g\\n", x);
            return 0;
        }
        """
        native = Session(lambda: compile_source(src), None).run()
        res = Session(lambda: compile_source(src), IntervalArithmetic()).run()
        # midpoint printing agrees with the native value to ~width
        assert abs(float(res.stdout) - float(native.stdout)) < 1e-12
        # and live shadow values carry genuine error bars
        widths = [width(v) for h in res.fpvm.store.handles()
                  for v in [res.fpvm.store.get(h)]]
        assert widths and max(widths) > 0

    def test_lorenz_interval_width_grows(self):
        """Chaos made visible: the rigorous enclosure widens along the
        trajectory — FPVM turns the binary into its own error analysis."""
        from repro.workloads import WORKLOADS

        spec = WORKLOADS["lorenz"]
        res = Session(lambda: spec.build("test"), IntervalArithmetic()).run()
        widths = [width(res.fpvm.store.get(h))
                  for h in res.fpvm.store.handles()]
        finite_widths = [w for w in widths if not math.isnan(w)]
        assert finite_widths
        assert max(finite_widths) > 1e-13  # grown well past one ulp
