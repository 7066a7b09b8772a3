"""Unit tests for the IEEE-754 bit layer."""

import math

import pytest

from repro.ieee import bits as B


class TestPackUnpack:
    def test_roundtrip_simple(self):
        for x in (0.0, 1.0, -1.0, 0.5, 1e308, 5e-324, math.pi):
            assert B.bits_to_f64(B.f64_to_bits(x)) == x

    def test_known_patterns(self):
        assert B.f64_to_bits(1.0) == 0x3FF0_0000_0000_0000
        assert B.f64_to_bits(2.0) == 0x4000_0000_0000_0000
        assert B.f64_to_bits(-2.0) == 0xC000_0000_0000_0000
        assert B.f64_to_bits(0.0) == 0
        assert B.f64_to_bits(-0.0) == B.F64_SIGN_BIT

    def test_f32_roundtrip(self):
        for x in (0.0, 1.0, -2.5, 0.1):
            import numpy as np

            assert B.bits_to_f32(B.f32_to_bits(x)) == float(np.float32(x))

    def test_infinities(self):
        assert B.f64_to_bits(math.inf) == B.F64_POS_INF
        assert B.f64_to_bits(-math.inf) == B.F64_NEG_INF


class TestClassification:
    def test_nan_taxonomy(self):
        qnan = B.F64_DEFAULT_QNAN
        snan = B.F64_EXP_MASK | 1  # exponent ones, quiet bit clear
        assert B.is_nan64(qnan) and B.is_qnan64(qnan)
        assert not B.is_snan64(qnan)
        assert B.is_nan64(snan) and B.is_snan64(snan)
        assert not B.is_qnan64(snan)

    def test_inf_is_not_nan(self):
        assert not B.is_nan64(B.F64_POS_INF)
        assert B.is_inf64(B.F64_POS_INF)
        assert B.is_inf64(B.F64_NEG_INF)

    def test_zero(self):
        assert B.is_zero64(0)
        assert B.is_zero64(B.F64_SIGN_BIT)
        assert not B.is_zero64(B.f64_to_bits(5e-324))

    def test_denormal(self):
        assert B.is_denormal64(B.f64_to_bits(5e-324))
        assert B.is_denormal64(B.f64_to_bits(-1e-310))
        assert not B.is_denormal64(B.f64_to_bits(1.0))
        assert not B.is_denormal64(0)

    def test_finite(self):
        assert B.is_finite64(B.f64_to_bits(1.0))
        assert not B.is_finite64(B.F64_POS_INF)
        assert not B.is_finite64(B.F64_DEFAULT_QNAN)

    def test_quiet_preserves_payload_and_sign(self):
        snan = B.F64_SIGN_BIT | B.F64_EXP_MASK | 0x1234
        q = B.quiet64(snan)
        assert B.is_qnan64(q)
        assert q & 0x1234 == 0x1234
        assert q & B.F64_SIGN_BIT

    def test_f32_classification(self):
        assert B.is_nan32(0x7FC0_0000)
        assert B.is_snan32(0x7F80_0001)
        assert B.is_inf32(0x7F80_0000)
        assert B.is_zero32(0x8000_0000)
        assert B.is_denormal32(0x0000_0001)


class TestDecompose:
    def test_normal(self):
        s, m, e = B.decompose64(B.f64_to_bits(1.0))
        assert (s, m * 2.0**e) == (0, 1.0)

    def test_negative(self):
        s, m, e = B.decompose64(B.f64_to_bits(-6.25))
        assert s == 1 and m * 2.0**e == 6.25

    def test_subnormal(self):
        s, m, e = B.decompose64(B.f64_to_bits(5e-324))
        assert (s, m, e) == (0, 1, -1074)

    def test_zero(self):
        assert B.decompose64(0)[1] == 0
        assert B.decompose64(B.F64_SIGN_BIT) == (1, 0, 0)

    def test_nan_raises(self):
        with pytest.raises(ValueError):
            B.decompose64(B.F64_DEFAULT_QNAN)
        with pytest.raises(ValueError):
            B.decompose64(B.F64_POS_INF)

    def test_compose_roundtrip(self):
        for x in (1.0, -3.75, 1e300, 2.0**-1060, 123456.0):
            s, m, e = B.decompose64(B.f64_to_bits(x))
            assert B.compose64(s, m, e) == B.f64_to_bits(x)

    def test_compose_rejects_inexact(self):
        with pytest.raises(ValueError):
            B.compose64(0, (1 << 54) + 1, 0)  # 55 significant bits
