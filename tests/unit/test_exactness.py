"""Unit tests for the exactness checks, through the ops that own them.

Each SoftFPU op decides "did it round?" with one value-equality check
and reports it as PE; these cases pin that check on hand-picked
operands.  The full flag word is checked against Fraction ground truth
in ``tests/property/test_prop_flag_reference.py``.
"""

from fractions import Fraction

from repro.ieee.bits import f64_to_bits as f
from repro.ieee.softfloat import Flags, SoftFPU

fpu = SoftFPU()


def exact(result) -> bool:
    """No PE in an op's ``(bits, flags)``."""
    return not result[1] & Flags.PE


class TestSum:
    def test_exact(self):
        assert exact(fpu.add64(f(2.0), f(3.0)))
        assert exact(fpu.add64(f(0.5), f(0.25)))
        assert exact(fpu.add64(f(-1.5), f(1.5)))

    def test_inexact(self):
        assert not exact(fpu.add64(f(0.1), f(0.2)))
        assert not exact(fpu.add64(f(1e16), f(1.0)))

    def test_zero_operands(self):
        assert exact(fpu.add64(f(0.0), f(0.0)))
        assert exact(fpu.add64(f(7.0), f(0.0)))

    def test_subnormals(self):
        tiny = 5e-324
        assert exact(fpu.add64(f(tiny), f(tiny)))


class TestProduct:
    def test_exact(self):
        assert exact(fpu.mul64(f(1.5), f(2.0)))
        assert exact(fpu.mul64(f(0.0), f(123.0)))
        assert exact(fpu.mul64(f(-4.0), f(0.25)))

    def test_inexact(self):
        assert not exact(fpu.mul64(f(0.1), f(0.1)))

    def test_vs_fraction_ground_truth(self):
        import random

        rng = random.Random(7)
        for _ in range(300):
            a = rng.uniform(-100, 100)
            b = rng.uniform(-100, 100)
            r = a * b
            truth = Fraction(a) * Fraction(b) == Fraction(r)
            assert exact(fpu.mul64(f(a), f(b))) == truth


class TestQuotient:
    def test_exact(self):
        assert exact(fpu.div64(f(6.0), f(2.0)))
        assert exact(fpu.div64(f(1.0), f(4.0)))
        assert exact(fpu.div64(f(0.0), f(5.0)))

    def test_inexact(self):
        assert not exact(fpu.div64(f(1.0), f(3.0)))

    def test_vs_fraction(self):
        import random

        rng = random.Random(8)
        for _ in range(300):
            a = rng.uniform(-100, 100)
            b = rng.uniform(0.001, 100)
            r = a / b
            truth = Fraction(a) / Fraction(b) == Fraction(r)
            assert exact(fpu.div64(f(a), f(b))) == truth


class TestSqrtFma:
    def test_sqrt_exact(self):
        assert exact(fpu.sqrt64(f(4.0)))
        assert exact(fpu.sqrt64(f(2.25)))
        assert exact(fpu.sqrt64(f(0.0)))

    def test_sqrt_inexact(self):
        assert not exact(fpu.sqrt64(f(2.0)))

    def test_fma_exact(self):
        assert exact(fpu.fma64(f(2.0), f(3.0), f(4.0)))
        assert exact(fpu.fma64(f(1.0), f(1.0), f(-1.0)))

    def test_fma_inexact(self):
        a = 1.0 + 2.0**-30
        # a*a - 1 = 2^-29 + 2^-60 fits in 53 bits: fused, it is exact
        assert exact(fpu.fma64(f(a), f(a), f(-1.0)))
        assert not exact(fpu.fma64(f(a), f(a), f(2.0**-80)))
        assert not exact(fpu.fma64(f(0.1), f(0.1), f(0.0)))


class TestIntHelpers:
    def test_int_fits(self):
        """CVTSI2SD flags PE iff the integer does not fit binary64."""
        mask = (1 << 64) - 1
        assert exact(fpu.cvt_i64_to_f64(0))
        assert exact(fpu.cvt_i64_to_f64(1 << 53))
        assert exact(fpu.cvt_i64_to_f64(-(1 << 53) & mask))
        assert not exact(fpu.cvt_i64_to_f64((1 << 53) + 1))
        assert exact(fpu.cvt_i64_to_f64(1 << 62))  # power of two always fits
        assert exact(fpu.cvt_i64_to_f64(-(1 << 63) & mask))

    def test_is_integral(self):
        """CVTTSD2SI flags PE iff the value is not an integer."""
        assert exact(fpu.cvt_f64_to_i64(f(5.0), True))
        assert exact(fpu.cvt_f64_to_i64(f(-0.0), True))
        assert exact(fpu.cvt_f64_to_i64(f(2.0**62), True))
        assert not exact(fpu.cvt_f64_to_i64(f(2.5), True))
        assert not exact(fpu.cvt_f64_to_i64(f(5e-324), True))

    def test_values_equal(self):
        """UCOMISD sets ZF iff the two values are numerically equal."""
        assert fpu.ucomi64(f(0.0), f(-0.0)) == ((1, 0, 0), 0)
        assert fpu.ucomi64(f(2.0), f(2.0)) == ((1, 0, 0), 0)
        assert fpu.ucomi64(f(2.0), f(2.0000000001))[0][0] == 0
