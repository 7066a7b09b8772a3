"""§5.4 effects: alternative arithmetic visibly changes chaotic
dynamics while leaving well-conditioned results stable."""

import re

import pytest

from repro.arith import BigFloatArithmetic, PositArithmetic
from repro.harness.figures import fig13_lorenz
from repro.workloads import WORKLOADS
from repro.session import Session


def _final_xyz(stdout: str):
    m = re.search(r"final x=(\S+) y=(\S+) z=(\S+)", stdout)
    return tuple(float(g) for g in m.groups())


class TestLorenzFig13:
    def test_trajectories(self):
        out = fig13_lorenz(size="test")
        assert out["vanilla_identical"]
        assert out["mpfr_diverged"]

    def test_divergence_grows_with_steps(self):
        """Chaos: the IEEE/MPFR trajectory gap grows with time."""
        spec = WORKLOADS["lorenz"]

        def gap(size):
            nat = Session(lambda: spec.build(size), None).run()
            mp = Session(lambda: spec.build(size), BigFloatArithmetic(200)).run()
            a, b = _final_xyz(nat.stdout), _final_xyz(mp.stdout)
            return sum((x - y) ** 2 for x, y in zip(a, b)) ** 0.5

        assert gap("bench") > gap("test") >= 0  # 400 steps vs 100 steps


class TestThreeBody:
    def test_posit_and_mpfr_diverge_from_ieee(self):
        spec = WORKLOADS["three_body"]
        nat = Session(lambda: spec.build("test"), None).run()
        mp = Session(lambda: spec.build("test"), BigFloatArithmetic(200)).run()
        ps = Session(lambda: spec.build("test"), PositArithmetic(32)).run()
        assert mp.stdout != nat.stdout
        assert ps.stdout != nat.stdout
        assert mp.stdout != ps.stdout

    def test_mpfr_conserves_energy_at_least_as_well(self):
        spec = WORKLOADS["three_body"]
        nat = Session(lambda: spec.build("test"), None).run()
        mp = Session(lambda: spec.build("test"), BigFloatArithmetic(200)).run()

        def drift(s):
            return abs(float(re.search(r"drift=(\S+)", s).group(1)))

        # 200-bit arithmetic shouldn't make integration drift *worse*
        # by more than the integrator's own truncation error scale
        assert drift(mp.stdout) < 10 * drift(nat.stdout) + 1e-6


class TestWellConditioned:
    def test_fbench_focal_length_stable_under_mpfr(self):
        """A well-conditioned optical design: higher precision moves
        only the last digits of the focal distance."""
        spec = WORKLOADS["fbench"]
        nat = Session(lambda: spec.build("test"), None).run()
        mp = Session(lambda: spec.build("test"), BigFloatArithmetic(200)).run()

        def focal(s):
            return float(re.search(r"marginal focal=(\S+)", s).group(1))

        assert focal(mp.stdout) == pytest.approx(focal(nat.stdout),
                                                 rel=1e-9)

    def test_lu_residual_improves_with_precision(self):
        spec = WORKLOADS["nas_lu"]
        nat = Session(lambda: spec.build("test"), None).run()
        mp = Session(lambda: spec.build("test"), BigFloatArithmetic(200)).run()

        def resid(s):
            return float(re.search(r"resid=(\S+)", s).group(1))

        assert resid(mp.stdout) <= resid(nat.stdout) + 1e-15


class TestPrecisionSweep:
    def test_higher_precision_converges(self):
        """1/3 summed repeatedly: increasing MPFR precision must give
        results converging toward the exact value."""
        from repro.compiler import compile_source

        src = """
        long main() {
            double s = 0.0;
            for (long i = 0; i < 30; i = i + 1) { s = s + 1.0 / 3.0; }
            printf("%.17g\\n", s);
            return 0;
        }
        """
        exact = 10.0
        errs = []
        for prec in (24, 60, 120):
            r = Session(lambda: compile_source(src), BigFloatArithmetic(prec)).run()
            errs.append(abs(float(r.stdout) - exact))
        assert errs[0] >= errs[1] >= errs[2]
        assert errs[2] < 1e-14
