"""Unit tests for the adaptive-precision arithmetic (§4.3 future work)."""

import pytest

from repro.ieee.bits import bits_to_f64, f64_to_bits
from repro.arith import AdaptiveBigFloatArithmetic
from repro.compiler import compile_source
from repro.session import Session


def F(a, x: float):
    return a.from_f64_bits(f64_to_bits(x))


class TestEscalation:
    def test_starts_at_initial(self):
        a = AdaptiveBigFloatArithmetic(64, 1024)
        assert a.precision == 64
        assert "adaptive" in a.name

    def test_catastrophic_cancellation_escalates(self):
        a = AdaptiveBigFloatArithmetic(64, 1024, cancel_threshold=20)
        x = F(a, 1.0)
        y = F(a, 1.0 + 2.0**-40)
        a.sub(y, x)  # loses ~40 leading bits
        assert a.escalations == 1
        assert a.precision == 128
        assert a.cancellations_seen == 1

    def test_total_cancellation_escalates(self):
        a = AdaptiveBigFloatArithmetic(64, 256)
        x = F(a, 1.5)
        a.sub(x, x)  # exact zero: full loss
        assert a.escalations == 1

    def test_benign_ops_do_not_escalate(self):
        a = AdaptiveBigFloatArithmetic(64, 1024)
        x, y = F(a, 1.5), F(a, 2.25)
        for _ in range(50):
            a.add(x, y)
            a.mul(x, y)
            a.div(x, y)
        assert a.escalations == 0

    def test_capped_at_maximum(self):
        a = AdaptiveBigFloatArithmetic(64, 256)
        for k in range(10):
            x = F(a, 1.0)
            y = F(a, 1.0 + 2.0**-45)
            a.sub(y, x)
        assert a.precision == 256
        assert a.escalations == 2  # 64 -> 128 -> 256

    def test_overflow_is_not_cancellation(self):
        a = AdaptiveBigFloatArithmetic(64, 256)
        big = F(a, 1e308)
        a.add(big, big)  # -> inf
        assert a.escalations == 0

    def test_cost_model_follows_precision(self):
        a = AdaptiveBigFloatArithmetic(64, 1024)
        before = a.op_cycles("div")
        a.sub(F(a, 1.0), F(a, 1.0 + 2.0**-45))
        assert a.op_cycles("div") > before

    def test_validation_args(self):
        with pytest.raises(ValueError):
            AdaptiveBigFloatArithmetic(512, 256)
        with pytest.raises(ValueError):
            AdaptiveBigFloatArithmetic(64, 128, growth=0.5)


class TestUnderFPVM:
    SRC = """
    long main() {
        // a telescoping sum with a catastrophic cancellation each step
        double s = 0.0;
        for (long i = 1; i < 30; i = i + 1) {
            double a = 1.0 / (double)i;
            double b = 1.0 / ((double)i + 1.0);
            double t = (a - b) - (a - b);   // total cancellation
            s = s + (a - b) + t;
        }
        printf("%.12g\\n", s);
        return 0;
    }
    """

    def test_runs_and_escalates(self):
        arith = AdaptiveBigFloatArithmetic(64, 512, cancel_threshold=30)
        res = Session(lambda: compile_source(self.SRC), arith).run()
        assert res.exit_code == 0
        assert arith.escalations >= 1
        # result is the telescoping sum 1 - 1/30
        assert abs(float(res.stdout) - (1 - 1 / 30)) < 1e-9

    def test_mixed_precision_values_interoperate(self):
        """Shadow values created before an escalation must combine with
        values created after it."""
        a = AdaptiveBigFloatArithmetic(64, 512)
        early = a.div(F(a, 1.0), F(a, 3.0))  # 64-bit value
        a.sub(F(a, 1.0), F(a, 1.0 + 2.0**-45))  # escalate
        late = a.div(F(a, 1.0), F(a, 3.0))   # 128-bit value
        combined = a.add(early, late)
        assert bits_to_f64(a.to_f64_bits(combined)) == \
            pytest.approx(2.0 / 3.0, rel=1e-15)
        assert early.prec < late.prec
