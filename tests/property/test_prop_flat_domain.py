"""The flat-tuple VSA domain computes exactly what the dataclass
domain it replaced computed.

``SI``, ``Num``, ``StackAddr`` and ``HeapAddr`` used to be frozen
dataclasses whose ``__eq__``/``__init__`` ran in Python on every join.
They are now tuples tagged with their region kind.  The reference
below is the dataclass implementation, verbatim (``TOP``/``BOTTOM``
are the shared singletons, and ``AccessSet`` did not change).  On
random values — singletons, strided ranges, ranges at the 2^40 widen
limit, TOP and BOTTOM, stack and heap addresses sharing region ids —
every operation must give the reference's result, and
``AbsState.join`` must build the reference's state and agree on
whether it moved (the decision that re-queues a worklist key).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.domain import (BOTTOM, TOP, AccessSet, HeapAddr, Num,
                                   RegState, StackAddr, add_val, join_vals,
                                   resolve_access, sub_val, widen_vals)
from repro.analysis.si import SI
from repro.analysis.vsa import AbsState

# --------------------------------------------------------------------------- #
# reference implementation (the dataclass domain)                             #
# --------------------------------------------------------------------------- #

_MASK64 = (1 << 64) - 1
_WIDEN_LIMIT = 1 << 40  # ranges beyond this collapse to TOP


@dataclass(frozen=True, slots=True)
class RefSI:
    """stride[lo, hi]; ``top`` subsumes everything."""

    lo: int = 0
    hi: int = 0
    stride: int = 0  # 0 <=> singleton (lo == hi)
    top: bool = False

    # ------------------------------------------------------------------ #
    @staticmethod
    def const(v: int) -> "RefSI":
        v &= _MASK64
        if v >= 1 << 63:
            v -= 1 << 64
        return RefSI(v, v, 0)

    @staticmethod
    def range(lo: int, hi: int, stride: int) -> "RefSI":
        if lo == hi:
            return RefSI(lo, lo, 0)
        if hi - lo > _WIDEN_LIMIT:
            return REF_SI_TOP
        return RefSI(lo, hi, max(stride, 1))

    @property
    def is_const(self) -> bool:
        return not self.top and self.lo == self.hi

    @property
    def count(self) -> int:
        """Number of represented values (huge number if TOP)."""
        if self.top:
            return 1 << 64
        if self.stride == 0:
            return 1
        return (self.hi - self.lo) // self.stride + 1

    def values(self, limit: int = 4096):
        """Enumerate concrete values (caller checks count first)."""
        if self.top or self.count > limit:
            raise ValueError("strided interval too large to enumerate")
        return range(self.lo, self.hi + 1, self.stride or 1)

    # ------------------------------------------------------------------ #
    def add(self, other: "RefSI") -> "RefSI":
        if self.top or other.top:
            return REF_SI_TOP
        lo = self.lo + other.lo
        hi = self.hi + other.hi
        if self.stride and other.stride:
            stride = math.gcd(self.stride, other.stride)
        else:
            stride = self.stride or other.stride
        return RefSI.range(lo, hi, stride)

    def add_const(self, c: int) -> "RefSI":
        if self.top:
            return REF_SI_TOP
        return RefSI.range(self.lo + c, self.hi + c, self.stride)

    def mul_const(self, c: int) -> "RefSI":
        if self.top:
            return REF_SI_TOP
        if c == 0:
            return RefSI.const(0)
        lo, hi = sorted((self.lo * c, self.hi * c))
        return RefSI.range(lo, hi, abs(self.stride * c) or 0)

    def mul(self, other: "RefSI") -> "RefSI":
        """General product (bounds from corner products, stride 1)."""
        if self.top or other.top:
            return REF_SI_TOP
        if other.is_const:
            return self.mul_const(other.lo)
        if self.is_const:
            return other.mul_const(self.lo)
        corners = [a * b for a in (self.lo, self.hi)
                   for b in (other.lo, other.hi)]
        return RefSI.range(min(corners), max(corners), 1)

    def div_const(self, c: int) -> "RefSI":
        """Conservative truncating-division quotient range (c != 0)."""
        if self.top or c == 0:
            return REF_SI_TOP
        corners = [self.lo // c, self.hi // c]
        return RefSI.range(min(corners) - 1, max(corners) + 1, 1)

    def shl_const(self, c: int) -> "RefSI":
        return self.mul_const(1 << c)

    def neg(self) -> "RefSI":
        if self.top:
            return REF_SI_TOP
        return RefSI.range(-self.hi, -self.lo, self.stride)

    # ------------------------------------------------------------------ #
    def join(self, other: "RefSI") -> "RefSI":
        if self == other:
            return self
        if self.top or other.top:
            return REF_SI_TOP
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        strides = [s for s in (self.stride, other.stride) if s]
        diff = abs(self.lo - other.lo)
        if diff:
            strides.append(diff)
        stride = strides[0] if len(strides) == 1 else (
            math.gcd(*strides[:2]) if strides else 0
        )
        for s in strides[2:]:
            stride = math.gcd(stride, s)
        return RefSI.range(lo, hi, stride)

    def widen(self, other: "RefSI") -> "RefSI":
        """Accelerated join: unstable bounds jump to TOP-ish extents."""
        if self.top or other.top:
            return REF_SI_TOP
        j = self.join(other)
        if j.top:
            return j
        lo = j.lo if other.lo >= self.lo else -(1 << 32)
        hi = j.hi if other.hi <= self.hi else (1 << 32)
        if other.lo >= self.lo and other.hi <= self.hi:
            return j
        return RefSI.range(lo, hi, j.stride or 8)

    def overlaps(self, lo: int, hi: int) -> bool:
        """Could any represented value fall within [lo, hi]?"""
        if self.top:
            return True
        return self.lo <= hi and lo <= self.hi


REF_SI_TOP = RefSI(top=True)


@dataclass(frozen=True, slots=True)
class RefNum:
    si: RefSI


@dataclass(frozen=True, slots=True)
class RefStackAddr:
    fn: int  # function entry address (region identity)
    si: RefSI   # offset(s) relative to entry rsp


@dataclass(frozen=True, slots=True)
class RefHeapAddr:
    site: int  # allocating call-site address
    si: RefSI


def ref_join_vals(a, b):
    if a is BOTTOM or a == b:
        return b
    if b is BOTTOM:
        return a
    if a is TOP or b is TOP:
        return TOP
    if isinstance(a, RefNum) and isinstance(b, RefNum):
        return RefNum(a.si.join(b.si))
    if isinstance(a, RefStackAddr) and isinstance(b, RefStackAddr) \
            and a.fn == b.fn:
        return RefStackAddr(a.fn, a.si.join(b.si))
    if isinstance(a, RefHeapAddr) and isinstance(b, RefHeapAddr) \
            and a.site == b.site:
        return RefHeapAddr(a.site, a.si.join(b.si))
    return TOP


def ref_widen_vals(a, b):
    if a is BOTTOM:
        return b
    if b is BOTTOM:
        return a
    if a is TOP or b is TOP:
        return TOP
    if isinstance(a, RefNum) and isinstance(b, RefNum):
        return RefNum(a.si.widen(b.si))
    if isinstance(a, RefStackAddr) and isinstance(b, RefStackAddr) \
            and a.fn == b.fn:
        return RefStackAddr(a.fn, a.si.widen(b.si))
    if isinstance(a, RefHeapAddr) and isinstance(b, RefHeapAddr) \
            and a.site == b.site:
        return RefHeapAddr(a.site, a.si.widen(b.si))
    return TOP


def ref_add_val(a, b):
    """Abstract addition (address arithmetic)."""
    if a is BOTTOM or b is BOTTOM:
        return BOTTOM
    if a is TOP or b is TOP:
        return TOP
    if isinstance(a, RefNum) and isinstance(b, RefNum):
        return RefNum(a.si.add(b.si))
    for addr, num in ((a, b), (b, a)):
        if isinstance(addr, RefStackAddr) and isinstance(num, RefNum):
            return RefStackAddr(addr.fn, addr.si.add(num.si))
        if isinstance(addr, RefHeapAddr) and isinstance(num, RefNum):
            return RefHeapAddr(addr.site, addr.si.add(num.si))
    return TOP


def ref_sub_val(a, b):
    if a is BOTTOM or b is BOTTOM:
        return BOTTOM
    if a is TOP or b is TOP:
        return TOP
    if isinstance(b, RefNum):
        neg = RefNum(b.si.neg())
        return ref_add_val(a, neg)
    return TOP


_ENUM_LIMIT = 512


def ref_resolve_access(val, size: int = 8) -> AccessSet:
    """Abstract address value → set of 8-byte a-locs it may touch."""
    if val is BOTTOM:
        return AccessSet()
    if val is TOP:
        return AccessSet.anywhere()
    if isinstance(val, RefNum):
        si = val.si
        if si.top:
            return AccessSet.anywhere()
        if si.count <= _ENUM_LIMIT:
            alocs = frozenset(
                ("g", w)
                for a in si.values()
                for w in range(a & ~7, ((a + size - 1) & ~7) + 1, 8)
            )
            return AccessSet(alocs)
        return AccessSet(ranges=(("gr", si.lo, si.hi + size - 1),))
    if isinstance(val, RefStackAddr):
        si = val.si
        if si.top:
            # unknown offset within one frame: summarize as a range
            return AccessSet(ranges=(("sr", val.fn, -(1 << 32), 1 << 32),))
        if si.count <= _ENUM_LIMIT:
            alocs = frozenset(
                ("s", val.fn, w)
                for o in si.values()
                for w in range(o - (o % 8),
                               (o + size - 1) - ((o + size - 1) % 8) + 1, 8)
            )
            return AccessSet(alocs)
        return AccessSet(ranges=(("sr", val.fn, si.lo, si.hi + size - 1),))
    if isinstance(val, RefHeapAddr):
        return AccessSet(frozenset({("h", val.site)}))
    return AccessSet.anywhere()  # pragma: no cover


_ABSENT = object()


def ref_state_join(regs_a, stack_a, regs_b, stack_b, widen):
    """The dataclass-era ``AbsState.join`` over reference values:
    ``(regs, stack, moved)``."""
    op = ref_widen_vals if widen else ref_join_vals
    regs = list(regs_a)
    moved = False
    for i, b in enumerate(regs_b):
        a = regs_a[i]
        if a is b:
            continue
        v = op(a, b)
        if v == a:
            continue
        regs[i] = v
        moved = True
    stack = dict(stack_a)
    for k, b in stack_b.items():
        a = stack_a.get(k, _ABSENT)
        if a is b or a == b:
            continue
        if a is not _ABSENT:
            b = ref_join_vals(a, b)
            if b == a:
                continue
        stack[k] = b
        moved = True
    return tuple(regs), stack, moved


# --------------------------------------------------------------------------- #
# reference <-> flat                                                           #
# --------------------------------------------------------------------------- #

def flat_si(s: RefSI) -> SI:
    return SI(s.lo, s.hi, s.stride, s.top)


def flat(v):
    if v is TOP or v is BOTTOM:
        return v
    if isinstance(v, RefNum):
        return Num(flat_si(v.si))
    if isinstance(v, RefStackAddr):
        return StackAddr(v.fn, flat_si(v.si))
    return HeapAddr(v.site, flat_si(v.si))


def same_si(new, ref: RefSI) -> bool:
    return (type(new) is SI
            and tuple(new) == (ref.lo, ref.hi, ref.stride, ref.top))


def same(new, ref) -> bool:
    """``new`` is the flat form of the reference value ``ref``."""
    if ref is TOP or ref is BOTTOM:
        return new is ref
    return (type(new) is type(flat(ref)) and new == flat(ref)
            and same_si(new.si, ref.si))


# --------------------------------------------------------------------------- #
# strategies                                                                   #
# --------------------------------------------------------------------------- #

#: region ids shared by stack frames and heap sites
REGIONS = (0x400000, 0x400100)

small = st.integers(-64, 64)
ref_sis = st.one_of(
    small.map(RefSI.const),
    st.integers(-(1 << 64), 1 << 64).map(RefSI.const),  # wraps signed
    st.builds(lambda lo, n, s: RefSI.range(lo, lo + n * s, s),
              small, st.integers(1, 80), st.sampled_from([1, 2, 4, 8, 24])),
    # at the widen limit: just below, on, and past 2^40
    st.builds(lambda lo, d, s: RefSI.range(lo, lo + _WIDEN_LIMIT + d, s),
              small, st.integers(-16, 16), st.sampled_from([1, 8])),
    # the extents widening jumps to
    st.builds(lambda lo, s: RefSI.range(-(1 << 32), lo, s),
              small, st.sampled_from([1, 8])),
    st.builds(lambda lo, s: RefSI.range(lo, 1 << 32, s),
              small, st.sampled_from([1, 8])),
    st.just(REF_SI_TOP),
)
ref_vals = st.one_of(
    st.just(BOTTOM), st.just(TOP),
    st.builds(RefNum, ref_sis),
    st.builds(RefStackAddr, st.sampled_from(REGIONS), ref_sis),
    st.builds(RefHeapAddr, st.sampled_from(REGIONS), ref_sis),
)


# --------------------------------------------------------------------------- #
# properties                                                                   #
# --------------------------------------------------------------------------- #

@given(ref_sis, ref_sis, st.integers(-9, 9), st.integers(0, 4))
@settings(max_examples=400, deadline=None)
def test_si_operations_match_dataclass(a, b, c, sh):
    fa, fb = flat_si(a), flat_si(b)
    assert same_si(fa.add(fb), a.add(b))
    assert same_si(fa.add_const(c), a.add_const(c))
    assert same_si(fa.mul_const(c), a.mul_const(c))
    assert same_si(fa.mul(fb), a.mul(b))
    assert same_si(fa.div_const(c), a.div_const(c))
    assert same_si(fa.shl_const(sh), a.shl_const(sh))
    assert same_si(fa.neg(), a.neg())
    assert same_si(fa.join(fb), a.join(b))
    assert same_si(fa.widen(fb), a.widen(b))
    assert fa.is_const == a.is_const and fa.count == a.count
    assert (fa.lo, fa.hi, fa.stride, fa.top) == (a.lo, a.hi, a.stride,
                                                a.top)
    assert fa.overlaps(c, c + 8) == a.overlaps(c, c + 8)
    if not a.top and a.count <= 64:
        assert list(fa.values()) == list(a.values())
    assert same_si(SI.const(c), RefSI.const(c))
    assert same_si(SI.range(c, c + 8 * sh, 8), RefSI.range(c, c + 8 * sh, 8))


@given(ref_vals, ref_vals)
@settings(max_examples=400, deadline=None)
def test_value_operations_match_dataclass(a, b):
    fa, fb = flat(a), flat(b)
    assert same(join_vals(fa, fb), ref_join_vals(a, b))
    assert same(widen_vals(fa, fb), ref_widen_vals(a, b))
    assert same(add_val(fa, fb), ref_add_val(a, b))
    assert same(sub_val(fa, fb), ref_sub_val(a, b))
    # equality (and hashing) agree: region kinds never compare equal
    assert (fa == fb) == (a == b)
    if fa == fb:
        assert hash(fa) == hash(fb)


@given(ref_vals, st.sampled_from([1, 2, 4, 8, 16]))
@settings(max_examples=300, deadline=None)
def test_resolve_access_matches_dataclass(v, size):
    assert resolve_access(flat(v), size) == ref_resolve_access(v, size)


@given(st.sampled_from(REGIONS), ref_sis)
def test_region_kinds_never_compare_equal(region, s):
    si = flat_si(s)
    num, stack, heap = Num(si), StackAddr(region, si), HeapAddr(region, si)
    assert num != stack and num != heap and stack != heap
    other = REGIONS[0] if region != REGIONS[0] else REGIONS[1]
    assert StackAddr(other, si) != stack and HeapAddr(other, si) != heap


KEYS = st.tuples(st.just("s"), st.sampled_from(REGIONS),
                 st.sampled_from(range(-48, 8, 8)))


@st.composite
def state_pairs(draw):
    regs_a = [draw(ref_vals) for _ in range(16)]
    regs_b = [v if draw(st.booleans()) else draw(ref_vals) for v in regs_a]
    stack_a = draw(st.dictionaries(KEYS, ref_vals, max_size=8))
    stack_b = {k: v for k, v in stack_a.items() if draw(st.integers(0, 4))}
    for k in list(stack_b):
        if draw(st.booleans()):
            stack_b[k] = draw(ref_vals)
    stack_b.update(draw(st.dictionaries(KEYS, ref_vals, max_size=3)))
    return regs_a, stack_a, regs_b, stack_b


@given(state_pairs(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_abs_state_join_matches_dataclass(pair, widen):
    regs_a, stack_a, regs_b, stack_b = pair
    a = AbsState(RegState(flat(v) for v in regs_a),
                 {k: flat(v) for k, v in stack_a.items()})
    b = AbsState(RegState(flat(v) for v in regs_b),
                 {k: flat(v) for k, v in stack_b.items()})
    new = a.join(b, widen=widen)
    ref_regs, ref_stack, ref_moved = ref_state_join(
        tuple(regs_a), stack_a, tuple(regs_b), stack_b, widen)
    assert all(same(n, r) for n, r in zip(new.regs, ref_regs))
    assert new.stack.keys() == ref_stack.keys()
    assert all(same(new.stack[k], r) for k, r in ref_stack.items())
    # the worklist re-queue decision (_merge_in) is unchanged
    assert (new is not a) == ref_moved
