"""Integration tests for the NSan-mode sanitizer: true positives on
the seeded numbugs workloads, true negatives on the real benchmarks,
the static-exemption soundness gate, bit-identity of the IEEE path,
and the ``repro sanitize`` CLI."""

import json

import pytest

from repro.__main__ import main
from repro.analysis.ranges import (analyze_ranges, autotune_precision,
                                   validate_sanitize_exemptions)
from repro.fpvm.runtime import FPVMConfig
from repro.fpvm.sanitize import SanitizeConfig
from repro.session import Session
from repro.workloads import numbugs
from repro.workloads.numbugs import SEEDED_BUGS

THRESH = 1e-6


def sanitize_session(builder, *, exempt=True, threshold=THRESH,
                     precision=200, jit_threshold=0):
    cfg = FPVMConfig(jit_threshold=jit_threshold, sanitize=SanitizeConfig(
        threshold=threshold, precision=precision, exempt=exempt))
    return Session(builder, ("sanitize", precision), config=cfg)


# --------------------------------------------------------------------------- #
# true positives: every seeded bug is flagged with correct provenance         #
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("name", sorted(SEEDED_BUGS))
def test_seeded_bug_flagged_with_provenance(name):
    expected_mnemonic, build = SEEDED_BUGS[name]
    sess = sanitize_session(lambda: build("test"))
    sess.run()
    san = sess.fpvm.sanitizer
    flagged = san.flagged_sites()
    assert flagged, f"{name}: seeded bug not flagged"
    mnemonics = {rec.mnemonic for rec in flagged.values()}
    assert expected_mnemonic in mnemonics
    # provenance: divergence magnitude and witness values recorded
    for rec in flagged.values():
        assert rec.max_rel > THRESH
        assert rec.flags > 0 and rec.checks >= rec.flags
        assert rec.example_ieee != rec.example_shadow


def test_divergence_table_sorted_and_serializable():
    _, build = SEEDED_BUGS["numbugs_sum"]
    sess = sanitize_session(lambda: build("test"))
    sess.run()
    table = sess.fpvm.sanitizer.divergence_table()
    assert table
    flags = [rec.flags for rec in table]
    assert flags == sorted(flags, reverse=True)
    doc = table[0].to_dict()
    assert doc["mnemonic"] and doc["max_rel"] > THRESH


def test_kahan_value_accurate_naive_wrong():
    """The printed Kahan sum is accurate even though its accumulator
    diverges (the compensation lives outside the per-op check); the
    naive sum is visibly wrong."""
    sess = sanitize_session(lambda: numbugs.build_sum("test"))
    res = sess.run()
    vals = {}
    for tok in res.stdout.split():
        key, _, num = tok.partition("=")
        vals[key.strip()] = float(num)
    true_sum = sum(0.001 + 0.0000001 * i for i in range(100))
    assert abs(vals["kahan"] - true_sum) / true_sum < 1e-9
    assert abs(vals["naive"] - true_sum) / true_sum > 1e-3


# --------------------------------------------------------------------------- #
# true negatives: numerically healthy workloads stay clean                    #
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("wl", ["lorenz", "fbench"])
def test_clean_workload_not_flagged(wl):
    cfg = FPVMConfig(sanitize=SanitizeConfig(threshold=THRESH,
                                             precision=200))
    sess = Session(wl, ("sanitize", 200), size="test", config=cfg)
    sess.run()
    san = sess.fpvm.sanitizer
    assert san.flagged_sites() == {}
    assert san.stats.sanitize_checks > 0


# --------------------------------------------------------------------------- #
# soundness gate: no statically-exempt site may dynamically diverge           #
# --------------------------------------------------------------------------- #

#: the gate's report at size ``test``: (executions exempted, checks
#: with the exemption on, checks with it off, proven sites that
#: trapped, flags with it off).  The default exemption skips nothing
#: here: no bit-exact site traps.  Pinned exactly.
GATE_REPORT = {
    "numbugs_cancel": (0, 231, 231, 2, 50),
    "numbugs_sum": (0, 675, 675, 2, 102),
    "numbugs_var": (0, 152, 152, 1, 1),
    "lorenz": (0, 1390, 1390, 0, 0),
}


@pytest.mark.parametrize("name", sorted(SEEDED_BUGS) + ["lorenz"])
def test_exemption_gate_holds(name):
    val = validate_sanitize_exemptions(name, size="test",
                                       threshold=THRESH)
    assert val.ok, val.summary()
    assert list(val.violations) == []
    assert val.checkable_count > 0
    assert (val.exempt_execs, val.checks_on, val.checks_off,
            len(val.proven_trapped), val.flags_off) == GATE_REPORT[name]
    assert val.flags_on == val.flags_off


#: (proven, checkable) FP sites of the interval-range pass at size
#: ``test``, pinned exactly: 15 of 61 sites pooled (~0.246).  A change
#: to the pass that moves a count must regenerate this table and give
#: the old → new table as its reason.
PROVEN = {
    "numbugs_cancel": (3, 6),
    "numbugs_sum": (3, 12),
    "numbugs_var": (5, 11),
    "fbench": (4, 32),
}


def test_ranges_pass_exempts_nonzero_fraction():
    got = {}
    for name in PROVEN:
        rr = analyze_ranges(Session(name, None, size="test").binary)
        got[name] = (len(rr.proven), len(rr.checkable))
    assert got == PROVEN


# --------------------------------------------------------------------------- #
# bit-identity: the IEEE path the program sees is untouched                   #
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("mode", ["no-exempt", "exact"])
@pytest.mark.parametrize("name", sorted(SEEDED_BUGS))
def test_sanitize_run_bit_identical_to_native(name, mode):
    _, build = SEEDED_BUGS[name]
    native = Session(lambda: build("test"), None).run()
    sess = sanitize_session(lambda: build("test"),
                            exempt=mode == "exact")
    res = sess.run()
    assert res.stdout == native.stdout
    assert res.exit_code == native.exit_code
    assert res.instr_count == native.instr_count


def test_trap_site_jit_keeps_every_check():
    """Compiled trap sites skip Emulator.emulate, where the sanitizer
    checks each value, so a sanitize run never creates the trap-site
    JIT: checks, verdict and cycles match the JIT-off run."""
    _, build = SEEDED_BUGS["numbugs_sum"]
    seen = []
    for jit_threshold in (0, 4):
        sess = sanitize_session(lambda: build("test"),
                                jit_threshold=jit_threshold)
        res = sess.run()
        assert sess.fpvm.jit is None
        seen.append((sess.fpvm.stats.sanitize_checks,
                     sorted(sess.fpvm.sanitizer.flagged_sites()),
                     res.cycles))
    assert seen[1] == seen[0]


#: modeled cycles of numbugs_var at size ``bench``: native, dual-path
#: sanitize:200 with exemption off, and with the default exemption —
#: ~418.59x native both, as the exemption skips no execution there.
#: Pinned exactly; regenerate with the old → new values as the reason.
SANITIZE_CYCLES = (65269.99999993625, 27321255.99997359, 27321255.99997359)


def test_default_exemption_cycles():
    def cycles(arith, scfg=None):
        cfg = FPVMConfig(sanitize=scfg) if scfg else None
        return Session("numbugs_var", arith, size="bench",
                       config=cfg).run().cycles

    got = (cycles(None),
           cycles(("sanitize", 200), SanitizeConfig(exempt=False)),
           cycles(("sanitize", 200), SanitizeConfig()))
    assert got == SANITIZE_CYCLES
    assert got[2] == got[1]


# --------------------------------------------------------------------------- #
# precision autotune                                                           #
# --------------------------------------------------------------------------- #

def test_autotune_walks_down_until_verdict_changes():
    res = autotune_precision(lambda: numbugs.build_cancel("test"),
                             threshold=THRESH,
                             ladder=(200, 64, 40))
    assert res.reference_precision == 200
    assert res.minimal_precision in (200, 64, 40)
    assert res.reference_flagged  # the seeded bug flags at reference
    assert res.steps
    for bits, n_flagged, _stable in res.steps:
        assert bits in (200, 64, 40)
        assert n_flagged >= 0
    # the first (reference) step is stable by definition
    assert res.steps[0][2] is True


# --------------------------------------------------------------------------- #
# CLI                                                                          #
# --------------------------------------------------------------------------- #

def test_cli_flags_seeded_bug(capsys):
    rc = main(["sanitize", "--workload", "numbugs_cancel",
               "--size", "test"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "subsd" in err
    assert "static proofs" in err


def test_cli_clean_workload_exits_zero(capsys):
    rc = main(["sanitize", "--workload", "lorenz", "--size", "test"])
    assert rc == 0
    err = capsys.readouterr().err
    assert "divergence flags   : 0" in err
    assert "no divergence above threshold" in err


def test_cli_json_document(capsys):
    rc = main(["sanitize", "--workload", "numbugs_var",
               "--size", "test", "--json"])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["guest_exit_code"] == 0
    assert doc["flags"] > 0
    assert doc["sites"]
    assert doc["ranges"]["checkable"] > 0
    assert doc["sites"][0]["mnemonic"] == "subsd"


def test_cli_gate_names_the_program(capsys):
    rc = main(["sanitize", "--workload", "numbugs_var", "--size", "test",
               "--validate"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "exemption gate     : numbugs_var [sanitize:200" in err
    assert "<builder>" not in err
    assert "exempt executions  : 0 (4 bit-exact sites exempt)" in err


def test_cli_registry_gate(capsys):
    rc = main(["sanitize", "--registry", "--size", "test",
               "--only", "numbugs_cancel,lorenz"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("OK") == 2
    assert "VIOLATION" not in out
