"""Unit tests for the workload ports: each builds, runs, and produces
physically sensible output."""

import math
import re
import sys

import pytest

from repro.workloads import WORKLOADS, get_workload
from repro.session import Session


class TestRegistry:
    def test_all_ten_paper_codes_present(self):
        expected = {"fbench", "lorenz", "three_body", "miniaero", "nas_is",
                    "nas_ep", "nas_cg", "nas_mg", "nas_lu", "enzo"}
        assert expected <= set(WORKLOADS)
        # non-paper entries (the sanitizer's seeded-bug workloads) are
        # marked by a missing paper slowdown
        extras = set(WORKLOADS) - expected
        assert all(WORKLOADS[n].paper_slowdown_r815 is None
                   for n in extras)

    def test_get_workload(self):
        assert get_workload("lorenz").name == "lorenz"
        with pytest.raises(KeyError):
            get_workload("spec2006")

    def test_specs_have_paper_slowdowns(self):
        for spec in WORKLOADS.values():
            if spec.paper_slowdown_r815 is not None:
                assert spec.paper_slowdown_r815 > 1

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_builds_at_every_size(self, name):
        spec = WORKLOADS[name]
        for size in ("test", "bench"):
            binary = spec.build(size)
            assert binary.entry in binary.text_map


class TestBuildCache:
    """Each registry program compiles once per size per process; every
    build() is a copy that its caller may patch."""

    def test_builds_are_distinct_copies_of_one_program(self):
        a = WORKLOADS["lorenz"].build("test")
        b = WORKLOADS["lorenz"].build("test")
        assert a is not b
        assert a.text is not b.text and a.data is not b.data
        assert a.content_hash() == b.content_hash()

    def test_patching_a_copy_leaves_the_next_build_pristine(self):
        from repro.analysis import analyze_and_patch
        from repro.compiler.driver import instrument_fp_sites

        spec = WORKLOADS["fbench"]
        pristine = spec.build("test").content_hash()
        changed = spec.build("test")
        analyze_and_patch(changed)
        patched = changed.content_hash()
        assert patched != pristine
        assert instrument_fp_sites(changed) > 0
        assert changed.content_hash() != patched
        changed.data[0] ^= 0xFF
        changed.symbols["bench_extra"] = changed.data_base
        fresh = spec.build("test")
        assert fresh.content_hash() == pristine
        assert "bench_extra" not in fresh.symbols
        assert fresh.data[0] != changed.data[0]

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_builder_keeps_its_module(self, name):
        """Tools find a workload's module (its source template, its
        compile_source) through ``build.__module__``."""
        build = WORKLOADS[name].build
        module = sys.modules[build.__module__]
        assert module.__name__ != "repro.workloads.registry"
        assert getattr(module, build.__name__) is build.__wrapped__


class TestOutputs:
    def _run(self, name, size="test"):
        return Session(lambda: WORKLOADS[name].build(size), None).run(5_000_000)

    def test_lorenz_stays_on_attractor(self):
        r = self._run("lorenz")
        m = re.search(r"final x=(\S+) y=(\S+) z=(\S+)", r.stdout)
        x, y, z = (float(g) for g in m.groups())
        assert abs(x) < 25 and abs(y) < 30 and 0 < z < 50

    def test_three_body_energy_nearly_conserved(self):
        r = self._run("three_body")
        drift = float(re.search(r"drift=(\S+)", r.stdout).group(1))
        assert abs(drift) < 1e-3  # leapfrog: small bounded drift

    def test_fbench_aberration_positive(self):
        r = self._run("fbench")
        marg = float(re.search(r"marginal focal=(\S+)", r.stdout).group(1))
        parax = float(re.search(r"paraxial focal=(\S+)", r.stdout).group(1))
        assert math.isfinite(marg) and math.isfinite(parax)
        assert marg != parax  # spherical aberration exists

    def test_nas_is_sorts(self):
        r = self._run("nas_is")
        assert "sorted=1" in r.stdout

    def test_nas_ep_accepts_reasonable_fraction(self):
        r = self._run("nas_ep")
        m = re.search(r"pairs=(\d+) accepted=(\d+)", r.stdout)
        pairs, acc = int(m.group(1)), int(m.group(2))
        # pi/4 ~ 78% acceptance
        assert 0.4 * pairs < acc <= pairs

    def test_nas_cg_converges_to_shifted_eigenvalue(self):
        r = self._run("nas_cg")
        zeta = float(re.search(r"final zeta=(\S+)", r.stdout).group(1))
        assert 10.0 < zeta < 11.5  # shift 10 + 1/lambda_max

    def test_nas_mg_reduces_residual(self):
        r = self._run("nas_mg", size="bench")  # 2 cycles
        norms = [float(x) for x in re.findall(r"rnorm=(\S+)", r.stdout)]
        assert len(norms) >= 2 and norms[-1] < norms[0]

    def test_nas_lu_small_residual(self):
        r = self._run("nas_lu")
        resid = float(re.search(r"resid=(\S+)", r.stdout).group(1))
        assert resid < 1e-10

    def test_miniaero_conserves_mass(self):
        r = self._run("miniaero")
        mass = float(re.search(r"mass=(\S+)", r.stdout).group(1))
        # Sod tube mean density (reflective walls conserve mass)
        assert mass == pytest.approx((1.0 + 0.125) / 2, rel=1e-6)

    def test_enzo_density_positive(self):
        r = self._run("enzo")
        rho = float(re.search(r"rho_max=(\S+)", r.stdout).group(1))
        assert rho > 0

    def test_randlc_matches_reference(self):
        """The fpc randlc must equal the canonical NAS generator."""
        from repro.workloads.nas.common import RANDLC_FPC
        from repro.compiler import compile_source
        from repro.machine.loader import load_binary

        src = RANDLC_FPC.replace("{{", "{").replace("}}", "}") + """
        long main() {
            for (long i = 0; i < 5; i = i + 1) {
                printf("%.17g\\n", randlc());
            }
            return 0;
        }
        """
        m = load_binary(compile_source(src))
        m.run()
        got = [float(x) for x in "".join(m.stdout).split()]

        # reference implementation in Python floats
        def ref():
            r23, r46 = 0.5**23, 0.5**46
            t23, t46 = 2.0**23, 2.0**46
            seed, a = 314159265.0, 1220703125.0
            outs = []
            for _ in range(5):
                t1 = r23 * a
                a1 = float(int(t1))
                a2 = a - t23 * a1
                t1 = r23 * seed
                x1 = float(int(t1))
                x2 = seed - t23 * x1
                t1 = a1 * x2 + a2 * x1
                t2 = float(int(r23 * t1))
                z = t1 - t23 * t2
                t3 = t23 * z + a2 * x2
                t4 = float(int(r46 * t3))
                x3 = t3 - t46 * t4
                seed = x3
                outs.append(r46 * x3)
            return outs

        assert got == ref()
