"""Unit tests for strided intervals, CFG recovery, and the VSA."""

from repro.analysis.si import SI, SI_TOP
from repro.analysis.cfg import CFG
from repro.analysis.domain import (
    BOTTOM,
    TOP,
    HeapAddr,
    Num,
    StackAddr,
    add_val,
    join_vals,
    resolve_access,
)
from repro.analysis import analyze
from repro.compiler import compile_source


class TestSI:
    def test_const(self):
        c = SI.const(5)
        assert c.is_const and c.lo == 5 and c.count == 1

    def test_const_wraps_signed(self):
        c = SI.const(0xFFFF_FFFF_FFFF_FFFF)
        assert c.lo == -1

    def test_range_and_values(self):
        r = SI.range(0, 40, 8)
        assert list(r.values()) == [0, 8, 16, 24, 32, 40]
        assert r.count == 6

    def test_add(self):
        a = SI.range(0, 16, 8)
        b = SI.const(100)
        assert a.add(b) == SI.range(100, 116, 8)
        c = SI.range(0, 4, 2)
        assert a.add(c).stride == 2

    def test_mul_shl(self):
        a = SI.range(0, 10, 1)
        assert a.mul_const(8) == SI.range(0, 80, 8)
        assert a.shl_const(3) == SI.range(0, 80, 8)
        assert a.mul_const(0) == SI.const(0)

    def test_mul_general(self):
        a = SI.range(2, 3, 1)
        b = SI.range(-1, 4, 1)
        prod = a.mul(b)
        assert prod.lo == -3 and prod.hi == 12

    def test_div_const(self):
        a = SI.range(0, 100, 1)
        q = a.div_const(10)
        assert q.lo <= 0 and q.hi >= 10

    def test_neg(self):
        assert SI.range(1, 5, 1).neg() == SI.range(-5, -1, 1)

    def test_join(self):
        a = SI.const(0)
        b = SI.const(8)
        assert a.join(b) == SI.range(0, 8, 8)
        assert a.join(a) == a

    def test_join_with_top(self):
        assert SI.const(1).join(SI_TOP).top

    def test_widen_explodes_unstable_bound(self):
        a = SI.range(0, 10, 1)
        b = SI.range(0, 20, 1)
        w = a.widen(b)
        assert w.hi >= (1 << 32)
        assert a.widen(SI.range(2, 5, 1)) == a.join(SI.range(2, 5, 1))

    def test_huge_range_is_top(self):
        assert SI.range(0, 1 << 50, 1).top

    def test_overlaps(self):
        a = SI.range(10, 20, 1)
        assert a.overlaps(15, 30)
        assert not a.overlaps(21, 30)
        assert SI_TOP.overlaps(0, 1)


class TestDomain:
    def test_join_vals(self):
        assert join_vals(BOTTOM, Num(SI.const(1))) == Num(SI.const(1))
        assert join_vals(Num(SI.const(1)), Num(SI.const(3))) == \
            Num(SI.range(1, 3, 2))
        assert join_vals(Num(SI.const(1)), TOP) is TOP
        assert join_vals(StackAddr(1, SI.const(0)),
                         StackAddr(2, SI.const(0))) is TOP

    def test_add_val(self):
        s = StackAddr(0x400000, SI.const(-8))
        r = add_val(s, Num(SI.const(-8)))
        assert isinstance(r, StackAddr) and r.si.lo == -16
        assert add_val(TOP, Num(SI.const(1))) is TOP
        assert add_val(BOTTOM, Num(SI.const(1))) is BOTTOM

    def test_resolve_access_exact(self):
        acc = resolve_access(Num(SI.const(0x1000)), 8)
        assert acc.alocs == frozenset({("g", 0x1000)})

    def test_resolve_access_strided(self):
        acc = resolve_access(Num(SI.range(0x1000, 0x1010, 8)), 8)
        assert ("g", 0x1008) in acc.alocs and len(acc.alocs) == 3

    def test_resolve_access_wide_becomes_range(self):
        acc = resolve_access(Num(SI.range(0x1000, 0x100000, 8)), 8)
        assert acc.ranges and acc.ranges[0][0] == "gr"

    def test_resolve_access_bottom_empty(self):
        assert resolve_access(BOTTOM).is_empty()

    def test_resolve_access_top_anywhere(self):
        assert resolve_access(TOP).top

    def test_resolve_stack_and_heap(self):
        acc = resolve_access(StackAddr(7, SI.const(-16)), 8)
        assert acc.alocs == frozenset({("s", 7, -16)})
        acc = resolve_access(HeapAddr(0x400100, SI.const(24)), 8)
        assert acc.alocs == frozenset({("h", 0x400100)})

    def test_unaligned_access_covers_two_words(self):
        acc = resolve_access(Num(SI.const(0x1004)), 8)
        assert acc.alocs == frozenset({("g", 0x1000), ("g", 0x1008)})


class TestCFG:
    def test_structure(self):
        binary = compile_source("""
        long helper(long x) { return x + 1; }
        long main() {
            long s = 0;
            for (long i = 0; i < 3; i = i + 1) { s = helper(s); }
            printf("%d\\n", s);
            return s;
        }
        """)
        cfg = CFG.build(binary)
        assert binary.symbols["helper"] in cfg.functions
        assert binary.symbols["main"] in cfg.functions
        assert binary.symbols["helper"] in cfg.calls.values()
        assert "printf" in cfg.extern_calls.values()
        # every non-terminal instruction has successors
        rets = {a for addrs in cfg.rets.values() for a in addrs}
        for ins in binary.text:
            if ins.mnemonic not in ("ret", "hlt", "ud2"):
                assert cfg.succ.get(ins.addr), hex(ins.addr)
        assert rets

    def test_jcc_two_successors(self):
        binary = compile_source(
            "long main() { if (1 < 2) { return 1; } return 0; }")
        cfg = CFG.build(binary)
        branchy = [a for a, s in cfg.succ.items() if len(s) == 2]
        assert branchy


class TestVSAClassification:
    def test_pure_int_program_no_sinks(self):
        report = analyze(compile_source("""
        long a[8];
        long main() {
            for (long i = 0; i < 8; i = i + 1) { a[i] = i * i; }
            long s = 0;
            for (long i = 0; i < 8; i = i + 1) { s = s + a[i]; }
            return s;
        }
        """))
        assert report.sinks == []
        assert report.fp_store_sites == 0

    def test_bits_intrinsic_is_sink(self):
        report = analyze(compile_source("""
        long main() {
            double x = 1.5;
            return __bits(x) & 255;
        }
        """))
        assert len(report.sinks) >= 1

    def test_separate_arrays_mostly_not_confused(self):
        """int loads of an int array next to a double array must not be
        patched wholesale.  (Branch-insensitive VSA lets the loop bound
        bleed one element past d[] into n[0], so at most the boundary
        load is conservatively patched — the paper's 'FPVM follows
        suit' policy; the dynamic check simply succeeds.)"""
        report = analyze(compile_source("""
        double d[8];
        long n[8];
        long main() {
            for (long i = 0; i < 8; i = i + 1) {
                d[i] = (double)i * 0.5;
                n[i] = i;
            }
            long s = 0;
            for (long i = 0; i < 8; i = i + 1) { s = s + n[i]; }
            return s;
        }
        """))
        assert len(report.sinks) <= 2
        assert report.int_load_sites > 10  # most loads were proven clean
        assert report.fp_store_sites > 0

    def test_bitwise_sites_found(self):
        report = analyze(compile_source("""
        long main() {
            double x = -1.5;
            double y = fabs(x);   // andpd
            double z = -y;        // xorpd
            return (long)z;
        }
        """))
        assert len(report.bitwise_sites) == 2

    def test_extern_demote_only_uninterposed(self):
        report = analyze(compile_source("""
        long main() {
            double x = sinh(0.5) + sin(0.5);
            printf("%f\\n", x);
            return 0;
        }
        """))
        names = [n for _, n in report.extern_demote_sites]
        assert "sinh" in names
        assert "sin" not in names      # interposed by the math wrapper
        assert "printf" not in names   # interposed by the output wrapper

    def test_movq_flagged(self):
        from conftest import asm_program
        from repro.isa.operands import Reg, Xmm

        def body(a):
            a.emit("movq", Reg("rax"), Xmm(0))

        report = analyze(asm_program(body))
        assert len(report.movq_sites) == 1

    def test_summary_string(self):
        report = analyze(compile_source("long main() { return 0; }"))
        assert "patches total" in report.summary()

    def test_report_counts(self):
        report = analyze(compile_source("""
        long main() {
            double s = 0.0;
            for (long i = 0; i < 4; i = i + 1) { s = s + 0.1; }
            printf("%f\\n", s);
            return 0;
        }
        """))
        assert report.instructions > 10
        assert report.vsa_iterations >= report.instructions
        assert report.functions >= 1
