"""Dynamic soundness oracle vs. the static analysis (analysis v2).

The acceptance bar for the refinement: an instrumented unpatched run
must never observe a live NaN-box being consumed at a site the static
analysis left unpatched — on *every* registry workload, under a boxing
arithmetic.  The oracle is also exercised negatively (a doctored
report must produce violations) and for predecode/legacy parity.
"""

import pytest

from repro.analysis import analyze, clear_cache
from repro.analysis.oracle import SoundnessOracle, validate
from repro.compiler import compile_source
from repro.session import Session
from repro.workloads import WORKLOADS

#: a program whose FP results land in memory that is then read back
#: as raw integers — under a boxing arith the loads consume live boxes
BOXING_SRC = """
double vals[4];
long main() {
    double acc = 0.1;
    for (long i = 0; i < 4; i = i + 1) {
        acc = acc * 3.7 + 0.1;
        vals[i] = acc / 3.0;
    }
    long bits = 0;
    for (long i = 0; i < 4; i = i + 1) {
        bits = bits ^ ((long*)vals)[i];
    }
    printf("%d %.17g\n", bits != 0, acc);
    return 0;
}
"""


def _builder():
    return compile_source(BOXING_SRC)


#: analysis precision per registry program at size ``test`` under
#: mpfr:64: (patched sites, patched sites that never consume a box).
#: Pinned exactly; a change to the fixpoint or the liveness refinement
#: that moves a count must regenerate this table and give the old →
#: new table as its reason.
PRECISION = {
    "enzo": (153, 152),
    "fbench": (1, 0),
    "lorenz": (0, 0),
    "miniaero": (2, 0),
    "nas_cg": (1, 1),
    "nas_ep": (3, 1),
    "nas_is": (3, 3),
    "nas_lu": (6, 3),
    "nas_mg": (0, 0),
    "numbugs_cancel": (0, 0),
    "numbugs_sum": (0, 0),
    "numbugs_var": (0, 0),
    "three_body": (0, 0),
}


class TestRegistrySoundness:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_no_soundness_violations(self, name):
        res = validate(name, "mpfr:64", size="test")
        assert res.ok, "\n".join(res.violations)
        assert (res.patched_site_count, len(res.spurious_sites)) == \
            PRECISION[name]


class TestOracleObservations:
    def test_unpatched_boxing_run_observes_sinks(self):
        sess = Session(_builder, "mpfr:64", patch=False, label="oracle")
        oracle = SoundnessOracle(sess.fpvm)
        sess.machine.set_oracle(oracle)
        try:
            sess.run()
        except Exception:
            pass
        kinds = {k for k, _ in oracle.observations}
        assert "sink" in kinds
        # every observed sink is statically patched
        report = analyze(sess.machine.binary, cache=False)
        for (kind, addr) in oracle.observations:
            if kind == "sink":
                assert addr in report.sinks

    def test_validate_builder_target_is_sound(self):
        res = validate(_builder, "mpfr:64")
        assert res.ok, "\n".join(res.violations)
        assert res.observed_site_count > 0

    def test_predecode_and_legacy_observations_agree(self):
        def run(predecode):
            sess = Session(_builder, "mpfr:64", patch=False,
                           predecode=predecode, label="oracle")
            oracle = SoundnessOracle(sess.fpvm)
            sess.machine.set_oracle(oracle)
            try:
                sess.run()
            except Exception:
                pass
            return {key: obs.count
                    for key, obs in oracle.observations.items()}

        assert run(True) == run(False)

    def test_demote_on_observe_tracks_patched_run(self):
        """Demote-on-observe makes the instrumented unpatched run
        architecturally identical to the patched run: same stdout,
        exit code, and retired instruction count (cycles differ — the
        patched run pays the correctness-handler tax, probes are
        free)."""
        oracle_sess = Session(_builder, "mpfr:64", patch=False,
                              label="oracle")
        oracle_sess.machine.set_oracle(SoundnessOracle(oracle_sess.fpvm))
        a = oracle_sess.run()

        b = Session(_builder, "mpfr:64", label="patched").run()
        assert (a.stdout, a.exit_code, a.instr_count) == \
            (b.stdout, b.exit_code, b.instr_count)


class TestViolationDetection:
    def test_doctored_report_produces_violations(self, monkeypatch):
        """Hand-prune a dynamically-hot sink out of the report: the
        cross-check must flag it rather than silently agree."""
        import repro.analysis as analysis_mod

        real = analyze(compile_source(BOXING_SRC), cache=False)
        assert real.sinks, "probe program must have at least one sink"
        doctored_out = real.sinks  # every sink "pruned"

        def doctored_analyze(binary, **kw):
            rep = analyze(binary, cache=False)
            rep.pruned_sinks = list(doctored_out)
            rep.sinks = []
            return rep

        clear_cache()
        monkeypatch.setattr(analysis_mod, "analyze", doctored_analyze)
        res = validate(_builder, "mpfr:64")
        assert not res.ok
        assert any("PRUNED" in v for v in res.violations)

    def test_unclassified_sink_is_flagged(self, monkeypatch):
        """A sink missing entirely (not even pruned) is also caught."""
        import repro.analysis as analysis_mod

        def doctored_analyze(binary, **kw):
            rep = analyze(binary, cache=False)
            rep.sinks = []
            return rep

        clear_cache()
        monkeypatch.setattr(analysis_mod, "analyze", doctored_analyze)
        res = validate(_builder, "mpfr:64")
        assert not res.ok
        assert any("never classified" in v for v in res.violations)
