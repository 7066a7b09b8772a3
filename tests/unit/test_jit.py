"""Unit tests for the trap-site JIT: compile/fuse/invalidate lifecycle,
shadow-handle reuse across GC sweeps, and config plumbing."""

import pytest

from repro.arith import VanillaArithmetic
from repro.compiler import compile_source
from repro.fpvm.runtime import FPVM, FPVMConfig
from repro.machine.loader import load_binary
from repro.session import Session

#: one hot mulsd site, no fusible neighbour, few enough cycles that the
#: default GC epoch never fires mid-run
_SINGLE_SRC = """
long main() {
    double s = 0.1;
    for (long i = 0; i < 60; i = i + 1) { s = s * 1.0000001; }
    printf("%.17g\\n", s);
    return 0;
}
"""

#: adjacent divsd+addsd on the same destination: fuses into one kernel
_PAIR_SRC = """
long main() {
    double s = 0.1;
    for (long i = 0; i < 60; i = i + 1) { s = s / 1.0000001 + 0.0000001; }
    printf("%.17g\\n", s);
    return 0;
}
"""


def _run(src, **cfg):
    r = Session(lambda: compile_source(src), VanillaArithmetic(),
                config=FPVMConfig(**cfg)).run()
    return r


def _run_raw(src, **cfg):
    """Install + run without the Session layer's final GC pass, so the
    post-run bind-cache state is still inspectable."""
    m = load_binary(compile_source(src))
    fpvm = FPVM(VanillaArithmetic(), FPVMConfig(**cfg))
    fpvm.install(m)
    m.run()
    return m, fpvm


class TestCompile:
    def test_site_compiles_after_threshold(self):
        r = _run(_SINGLE_SRC, jit_threshold=4)
        jit = r.fpvm.jit
        assert len(jit.sites) == 1
        site = next(iter(jit.sites.values()))
        assert site.ins.mnemonic == "mulsd"
        assert site.hits > 0
        # the dispatch table now holds the compiled closure
        assert r.machine._code[site.addr] is site.step
        assert r.fpvm.stats.jit_sites_compiled == 1
        # compiled hits do not deliver faults
        assert r.fpvm.stats.jit_hits > 0
        assert r.fp_traps < 60

    def test_threshold_zero_disables_jit(self):
        r = _run(_SINGLE_SRC)
        assert r.fpvm.jit is None
        assert r.fpvm.stats.jit_sites_compiled == 0

    def test_jit_requires_trap_and_emulate(self):
        r = _run(_SINGLE_SRC, jit_threshold=2, mode="trap-and-patch")
        assert r.fpvm.jit is None

    def test_gc_mode_validated(self):
        with pytest.raises(ValueError):
            FPVM(VanillaArithmetic(), FPVMConfig(gc_mode="generational"))

    def test_hit_rate_reported(self):
        r = _run(_SINGLE_SRC, jit_threshold=2)
        stats = r.fpvm.stats
        assert 0.5 < stats.patched_site_hit_rate < 1.0
        summary = r.fpvm.jit.summary()
        assert summary["sites"] == 1
        assert summary["hits"] == stats.jit_hits


class TestFuse:
    def test_adjacent_sites_fuse(self):
        r = _run(_PAIR_SRC, jit_threshold=4)
        jit = r.fpvm.jit
        assert len(jit.sites) == 2
        assert len(jit.fused) == 1
        head_addr, chain = next(iter(jit.fused.items()))
        assert [s.ins.mnemonic for s in chain] == ["divsd", "addsd"]
        assert all(s.fused_head == head_addr for s in chain)
        # the kernel sits at the head; the tail step is never dispatched
        assert r.machine._code[head_addr] is not chain[0].step
        assert r.fpvm.stats.jit_fused_kernels >= 1
        assert r.fpvm.stats.boxes_elided > 0

    def test_fusion_disabled_under_demotion_policy(self):
        """box_exact_results=False demotes per instruction; eliding the
        intermediate would change results, so chains must not fuse."""
        r = _run(_PAIR_SRC, jit_threshold=4, box_exact_results=False)
        jit = r.fpvm.jit
        assert len(jit.sites) == 2
        assert jit.fused == {}
        assert r.fpvm.stats.boxes_elided == 0

    def test_invalidate_member_unfuses(self):
        r = _run(_PAIR_SRC, jit_threshold=4)
        jit, m = r.fpvm.jit, r.machine
        head_addr, chain = next(iter(jit.fused.items()))
        tail = chain[1]
        jit.invalidate_site(m, tail.addr, "test")
        assert tail.addr not in jit.sites
        assert jit.fused == {}  # a 1-site chain cannot re-fuse
        # the surviving head falls back to its individual step
        head = jit.sites[head_addr]
        assert m._code[head_addr] is head.step
        assert r.fpvm.stats.jit_invalidations == 1

    def test_invalidate_all_restores_interpreter(self):
        r = _run(_PAIR_SRC, jit_threshold=4)
        jit, m = r.fpvm.jit, r.machine
        originals = dict(jit._original)
        jit.invalidate_all(m, "test")
        assert jit.sites == {}
        assert jit.fused == {}
        for addr, step in originals.items():
            assert m._code[addr] is step


class TestMemoStaleness:
    """Shadow handles are free-listed and the NaN-box encoding is
    deterministic, so a swept handle can be re-issued later with
    identical bits for a different value.  Nothing the JIT or the bind
    cache keeps may be keyed on box bits across a sweep."""

    def test_sweep_keeps_bind_entries(self):
        """A BoundInst holds locations, not shadow values: a sweep that
        reclaims every live handle leaves the bind cache untouched."""
        _, fpvm = _run_raw(_SINGLE_SRC, jit_threshold=4)
        before = dict(fpvm.bind_cache.cache)
        assert before
        live = [h for h in range(1, 1 << 12) if fpvm.store.contains(h)]
        assert live
        # what ConservativeGC does after a sweep reclaims those handles
        fpvm.gc.on_sweep(live)
        assert fpvm.bind_cache.cache == before

    def test_handle_reuse_end_to_end(self):
        """Aggressive GC epochs force handle reuse mid-run; with the
        sweep hook wired through, JIT output stays bit-identical."""
        base = _run(_PAIR_SRC, gc_epoch_cycles=20_000)
        jit = _run(_PAIR_SRC, gc_epoch_cycles=20_000, jit_threshold=2)
        assert jit.stdout == base.stdout
        assert jit.instr_count == base.instr_count
        assert jit.fpvm.stats.jit_hits > 0
        # sweeps actually happened (the regression needs real reuse)
        assert len(jit.fpvm.gc.passes) > 1


class TestDegradation:
    def test_degrade_invalidates_site(self):
        """A site demoted by the degradation ladder is torn down and
        never recompiled (demoted sites are excluded in note_trap)."""
        r = _run(_SINGLE_SRC, jit_threshold=4)
        jit, m, fpvm = r.fpvm.jit, r.machine, r.fpvm
        site = next(iter(jit.sites.values()))
        fpvm._degrade(m, site.ins, "emulate", RuntimeError("test"))
        assert site.addr not in jit.sites
        assert m._code[site.addr] is not site.step
