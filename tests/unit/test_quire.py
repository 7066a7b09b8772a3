"""Unit tests for the posit quire (exact dot-product accumulator)."""

import pytest

from repro.ieee.bits import bits_to_f64, f64_to_bits
from repro.arith.posit import PositArithmetic, PositEnv
from repro.arith.posit.quire import Quire, quire_dot


def P(p, x: float) -> int:
    return p.from_f64_bits(f64_to_bits(x))


def V(p, w: int) -> float:
    return bits_to_f64(p.to_f64_bits(w))


class TestQuire:
    p = PositArithmetic(16, 1)

    def test_single_add_roundtrip(self):
        q = Quire(self.p.env)
        w = P(self.p, 2.5)
        assert q.add(w).to_posit() == w

    def test_sum_of_many_is_exactly_rounded(self):
        """The quire's whole point: sum first exactly, round once —
        versus posit16 adds rounding at every step."""
        env = self.p.env
        third = self.p.div(P(self.p, 1.0), P(self.p, 3.0))
        n = 300
        q = Quire(env)
        stepwise = P(self.p, 0.0)
        for _ in range(n):
            q.add(third)
            stepwise = self.p.add(stepwise, third)
        exact_sum = n * V(self.p, third)
        quire_err = abs(V(self.p, q.to_posit()) - exact_sum)
        step_err = abs(V(self.p, stepwise) - exact_sum)
        assert quire_err <= step_err
        assert quire_err / exact_sum < 2e-3  # one posit16 rounding

    def test_dot_product_exact(self):
        env = self.p.env
        xs = [P(self.p, v) for v in (1.5, -2.0, 0.25, 8.0)]
        ys = [P(self.p, v) for v in (2.0, 0.5, -4.0, 0.125)]
        got = V(self.p, quire_dot(env, xs, ys))
        assert got == 1.5 * 2 - 2 * 0.5 + 0.25 * -4 + 8 * 0.125

    def test_cancellation_is_exact(self):
        """Products that cancel exactly yield exactly zero — stepwise
        posit arithmetic generally cannot do this for scaled values."""
        env = PositEnv(16, 1)
        p = self.p
        q = Quire(env)
        q.add_product(P(p, 1000.0), P(p, 0.001953125))  # 2^-9 exact
        q.sub_product(P(p, 1000.0), P(p, 0.001953125))
        assert q.to_posit() == 0

    def test_nar_poisons(self):
        q = Quire(self.p.env)
        q.add(P(self.p, 1.0))
        q.add(self.p.nar)
        assert q.is_nar
        assert q.to_posit() == self.p.env.nar

    def test_clear(self):
        q = Quire(self.p.env)
        q.add(P(self.p, 5.0))
        q.clear()
        assert q.to_posit() == 0 and not q.is_nar

    def test_extreme_scale_products_exact(self):
        """minpos * minpos and maxpos * maxpos both fit the quire."""
        env = PositEnv(8, 2)
        p8 = PositArithmetic(8, 2)
        q = Quire(env)
        q.add_product(env.minpos, env.minpos)
        q.add_product(env.maxpos, env.maxpos)
        # dominated by maxpos^2, which saturates back to maxpos
        assert q.to_posit() == env.maxpos
        del p8

    def test_quire_beats_naive_on_ill_conditioned_dot(self):
        env = PositEnv(32, 2)
        p = PositArithmetic(32, 2)
        xs = [P(p, v) for v in (1e8, 1.0, -1e8)]
        ys = [P(p, v) for v in (1.0, 1.0, 1.0)]
        exact = 1.0
        quire_val = V(p, quire_dot(env, xs, ys))
        naive = P(p, 0.0)
        for a, b in zip(xs, ys):
            naive = p.add(naive, p.mul(a, b))
        assert quire_val == pytest.approx(exact, rel=1e-6)
        # the naive sum lost the +1 in the big-magnitude additions
        assert abs(V(p, naive) - exact) >= abs(quire_val - exact)
