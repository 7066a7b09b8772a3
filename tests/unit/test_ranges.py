"""Unit tests for the interval-range abstract interpretation
(analysis/ranges.py): the domain laws, the fixpoint/widening behavior
on compiled loops, and the proven/exact site classification."""

import math

from repro.analysis.ranges import (FBOT, FTOP, FPState, Rng,
                                   analyze_ranges, clear_ranges_cache,
                                   _join_fp)
from repro.compiler import compile_source

INF = math.inf


def build(src):
    clear_ranges_cache()
    return compile_source(src)


# --------------------------------------------------------------------------- #
# domain laws                                                                  #
# --------------------------------------------------------------------------- #

class TestJoin:
    def test_bot_is_identity_top_absorbs(self):
        r = Rng(1.0, 2.0, 0.0)
        assert _join_fp(FBOT, r) is r
        assert _join_fp(r, FBOT) is r
        assert _join_fp(FTOP, r) is FTOP
        assert _join_fp(r, FTOP) is FTOP

    def test_hull_and_max_err(self):
        j = _join_fp(Rng(1.0, 2.0, 0.0), Rng(-1.0, 1.5, 1e-10))
        assert (j.lo, j.hi, j.err) == (-1.0, 2.0, 1e-10)

    def test_widen_blows_growing_bounds_to_inf(self):
        a = Rng(0.0, 1.0, 0.0)
        b = Rng(0.0, 2.0, 1e-12)
        j = _join_fp(a, b, widen=True)
        assert j.hi == INF and j.lo == 0.0 and j.err == INF

    def test_widen_is_stable_on_equal_values(self):
        a = Rng(0.0, 1.0, 1e-16)
        assert _join_fp(a, Rng(0.0, 1.0, 1e-16), widen=True) == a

    def test_integral_survives_only_if_both(self):
        a = Rng(0.0, 1.0, 0.0, True)
        assert _join_fp(a, Rng(2.0, 3.0, 0.0, True)).integral
        assert not _join_fp(a, Rng(0.5, 1.0, 0.0, False)).integral


class TestFPState:
    def test_absent_stack_slot_is_unknown(self):
        st = FPState((FTOP,) * 16, {})
        assert st.stack_get(("s", 0x400000, -8)) is FTOP

    def test_join_drops_one_sided_slots(self):
        key = ("s", 0x400000, -8)
        a = FPState((FTOP,) * 16, {key: Rng(1.0, 1.0, 0.0)})
        b = FPState((FTOP,) * 16, {})
        assert a.join(b).stack_get(key) is FTOP
        assert b.join(a).stack_get(key) is FTOP
        j = a.join(a)
        assert j.stack_get(key) == Rng(1.0, 1.0, 0.0)

    def test_join_returns_self_when_nothing_moves(self):
        key = ("s", 0x400000, -8)
        a = FPState((FTOP,) * 16, {key: Rng(0.0, 2.0, 0.0)})
        b = FPState((FTOP,) * 16, {key: Rng(1.0, 1.0, 0.0)})
        assert a.join(b) is a
        assert a.join(b, widen=True) is a
        assert b.join(a) is not b

    def test_storing_unknown_erases(self):
        key = ("s", 0x400000, -8)
        st = FPState((FTOP,) * 16, {key: Rng(1.0, 1.0, 0.0)})
        assert st.stack_set(key, FTOP).stack == {}
        assert st.stack == {key: Rng(1.0, 1.0, 0.0)}  # copy, not mutate


# --------------------------------------------------------------------------- #
# fixpoint behavior on compiled programs                                       #
# --------------------------------------------------------------------------- #

class TestFixpoint:
    def test_conversion_chain_is_proven(self):
        """cvtsi2sd of a loop index and scaling by a constant carry at
        most one rounding each: both proven, the conversion exact."""
        b = build("""
        double out;
        long main() {
            for (long i = 0; i < 100; i = i + 1) {
                out = 0.001 * i;
            }
            printf("%.17g\\n", out);
            return 0;
        }
        """)
        r = analyze_ranges(b)
        by_mn = {r.mnemonics[a]: a for a in r.checkable}
        assert by_mn["cvtsi2sd"] in r.proven
        assert by_mn["mulsd"] in r.proven
        # the conversion is bit-exact; the scaling rounds (0.001 is
        # not a binary fraction) so it is proven but not exact
        assert by_mn["cvtsi2sd"] in r.exact
        assert by_mn["mulsd"] not in r.exact

    def test_loop_carried_accumulator_widens_to_unproven(self):
        b = build("""
        double acc;
        long main() {
            acc = 0.0;
            for (long i = 0; i < 100; i = i + 1) {
                acc = acc + 0.1;
            }
            printf("%.17g\\n", acc);
            return 0;
        }
        """)
        r = analyze_ranges(b)
        addsd = [a for a in r.checkable if r.mnemonics[a] == "addsd"]
        assert addsd and all(a not in r.proven for a in addsd)
        assert r.iterations > 0

    def test_cancellation_is_never_proven(self):
        """A subtraction whose result interval crosses zero cannot
        bound relative divergence: the (big+1)-big site stays checked."""
        b = build("""
        double big;
        double diff;
        long main() {
            big = 1e16;
            diff = (big + 1.0) - big;
            printf("%.17g\\n", diff);
            return 0;
        }
        """)
        r = analyze_ranges(b)
        subsd = [a for a in r.checkable if r.mnemonics[a] == "subsd"]
        assert subsd and all(a not in r.proven for a in subsd)

    def test_integer_arithmetic_is_exact(self):
        """Small-integer add stays bit-exact (closed in binary64)."""
        b = build("""
        double x;
        long main() {
            for (long i = 0; i < 50; i = i + 1) {
                x = 100000000.0 + (i % 2);
            }
            printf("%.17g\\n", x);
            return 0;
        }
        """)
        r = analyze_ranges(b)
        addsd = [a for a in r.checkable if r.mnemonics[a] == "addsd"]
        assert any(a in r.exact for a in addsd)

    def test_huge_integer_products_are_not_exact(self):
        """(1e8+1)^2 exceeds 2^53: the product rounds, so the site is
        proven (err ~ u) but must not be claimed bit-exact."""
        b = build("""
        double x;
        double y;
        long main() {
            for (long i = 0; i < 50; i = i + 1) {
                x = 100000000.0 + (i % 2);
                y = x * x;
            }
            printf("%.17g\\n", y);
            return 0;
        }
        """)
        r = analyze_ranges(b)
        mulsd = [a for a in r.checkable if r.mnemonics[a] == "mulsd"]
        assert mulsd
        assert all(a not in r.exact for a in mulsd)
        assert all(a in r.proven for a in mulsd)

    def test_division_near_zero_unproven(self):
        b = build("""
        double q;
        double d;
        long main() {
            d = 0.0;
            for (long i = 0; i < 10; i = i + 1) {
                d = d + 0.1;
                q = 1.0 / (d - 0.5);
            }
            printf("%.17g\\n", q);
            return 0;
        }
        """)
        r = analyze_ranges(b)
        divsd = [a for a in r.checkable if r.mnemonics[a] == "divsd"]
        assert divsd and all(a not in r.proven for a in divsd)

    def test_bounds_are_sound_on_straightline_code(self):
        b = build("""
        double r;
        long main() {
            r = (2.0 * 3.0 + 1.0) / 2.0;
            printf("%.17g\\n", r);
            return 0;
        }
        """)
        rep = analyze_ranges(b)
        for addr in rep.checkable:
            bd = rep.bounds.get(addr)
            if bd is None:
                continue
            lo, hi, _ = bd
            assert lo <= hi

    def test_exact_subset_of_proven(self):
        b = build("""
        double out;
        long main() {
            for (long i = 0; i < 20; i = i + 1) { out = 0.5 * i; }
            printf("%.17g\\n", out);
            return 0;
        }
        """)
        r = analyze_ranges(b)
        assert r.exact <= r.proven
        assert r.proven <= set(r.checkable)


# --------------------------------------------------------------------------- #
# report plumbing                                                              #
# --------------------------------------------------------------------------- #

class TestReport:
    SRC = """
    double out;
    long main() {
        for (long i = 0; i < 10; i = i + 1) { out = 0.001 * i; }
        printf("%.17g\\n", out);
        return 0;
    }
    """

    def test_cache_roundtrip(self):
        b = build(self.SRC)
        first = analyze_ranges(b)
        assert not first.cache_hit
        again = analyze_ranges(b)
        assert again.cache_hit
        assert again.proven == first.proven
        # a different threshold is a different cache key
        other = analyze_ranges(b, threshold=1e-3)
        assert not other.cache_hit

    def test_to_dict_and_summary(self):
        b = build(self.SRC)
        r = analyze_ranges(b)
        d = r.to_dict()
        assert d["checkable"] == len(r.checkable)
        assert sorted(r.proven) == d["proven"]
        assert 0.0 <= d["prove_rate"] <= 1.0
        text = r.summary(top=5)
        assert "proven divergence-free" in text
        assert "bit-exact" in text
