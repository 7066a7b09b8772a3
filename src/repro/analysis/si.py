"""Strided intervals — the numeric half of the VSA domain [5].

A strided interval ``stride[lo, hi]`` represents
``{lo, lo+stride, …, hi}``.  ``TOP`` is the full 64-bit range.  The
operations implemented are exactly those address computations need:
addition, multiplication/shift by constants, and join-with-widening.

An :class:`SI` is a flat tuple ``(lo, hi, stride, top)``, so equality
and hashing run in C — the value-set analysis compares abstract values
on every join.  The analysis calls the module-level ``si_*``
operations directly; ``SI``'s methods (``join``, ``add``, …) are the
same functions.
"""

from __future__ import annotations

from math import gcd
from operator import itemgetter

_MASK64 = (1 << 64) - 1
_WIDEN_LIMIT = 1 << 40  # ranges beyond this collapse to TOP

_new = tuple.__new__


class SI(tuple):
    """stride[lo, hi]; ``top`` subsumes everything."""

    __slots__ = ()

    def __new__(cls, lo: int = 0, hi: int = 0, stride: int = 0,
                top: bool = False) -> "SI":
        # stride 0 <=> singleton (lo == hi)
        return _new(cls, (lo, hi, stride, top))

    def __getnewargs__(self):
        return tuple(self)

    lo = property(itemgetter(0))
    hi = property(itemgetter(1))
    stride = property(itemgetter(2))
    top = property(itemgetter(3))

    # ------------------------------------------------------------------ #
    @property
    def is_const(self) -> bool:
        return not self[3] and self[0] == self[1]

    @property
    def count(self) -> int:
        """Number of represented values (huge number if TOP)."""
        lo, hi, stride, top = self
        if top:
            return 1 << 64
        if stride == 0:
            return 1
        return (hi - lo) // stride + 1

    def values(self, limit: int = 4096):
        """Enumerate concrete values (caller checks count first)."""
        if self[3] or self.count > limit:
            raise ValueError("strided interval too large to enumerate")
        return range(self[0], self[1] + 1, self[2] or 1)

    def overlaps(self, lo: int, hi: int) -> bool:
        """Could any represented value fall within [lo, hi]?"""
        if self[3]:
            return True
        return self[0] <= hi and lo <= self[1]

    def __repr__(self) -> str:
        lo, hi, stride, top = self
        return f"SI(lo={lo}, hi={hi}, stride={stride}, top={top})"

    def __str__(self) -> str:  # pragma: no cover - debug aid
        lo, hi, stride, top = self
        if top:
            return "TOP"
        if lo == hi:
            return f"{lo:#x}"
        return f"{stride}[{lo:#x},{hi:#x}]"


SI_TOP = SI(top=True)


# --------------------------------------------------------------------------- #
# operations                                                                   #
# --------------------------------------------------------------------------- #

def si_const(v: int) -> SI:
    v &= _MASK64
    if v >= 1 << 63:
        v -= 1 << 64
    return _new(SI, (v, v, 0, False))


def si_range(lo: int, hi: int, stride: int) -> SI:
    if lo == hi:
        return _new(SI, (lo, lo, 0, False))
    if hi - lo > _WIDEN_LIMIT:
        return SI_TOP
    return _new(SI, (lo, hi, stride if stride > 1 else 1, False))


def si_add(a: SI, b: SI) -> SI:
    alo, ahi, astride, atop = a
    blo, bhi, bstride, btop = b
    if atop or btop:
        return SI_TOP
    if astride and bstride:
        stride = gcd(astride, bstride)
    else:
        stride = astride or bstride
    return si_range(alo + blo, ahi + bhi, stride)


def si_add_const(a: SI, c: int) -> SI:
    lo, hi, stride, top = a
    if top:
        return SI_TOP
    return si_range(lo + c, hi + c, stride)


def si_mul_const(a: SI, c: int) -> SI:
    lo, hi, stride, top = a
    if top:
        return SI_TOP
    if c == 0:
        return si_const(0)
    lo, hi = lo * c, hi * c
    if hi < lo:
        lo, hi = hi, lo
    return si_range(lo, hi, abs(stride * c))


def si_mul(a: SI, b: SI) -> SI:
    """General product (bounds from corner products, stride 1)."""
    if a[3] or b[3]:
        return SI_TOP
    if b[0] == b[1]:
        return si_mul_const(a, b[0])
    if a[0] == a[1]:
        return si_mul_const(b, a[0])
    corners = [x * y for x in (a[0], a[1]) for y in (b[0], b[1])]
    return si_range(min(corners), max(corners), 1)


def si_div_const(a: SI, c: int) -> SI:
    """Conservative truncating-division quotient range (c != 0)."""
    if a[3] or c == 0:
        return SI_TOP
    q1, q2 = a[0] // c, a[1] // c
    return si_range(min(q1, q2) - 1, max(q1, q2) + 1, 1)


def si_shl_const(a: SI, c: int) -> SI:
    return si_mul_const(a, 1 << c)


def si_neg(a: SI) -> SI:
    lo, hi, stride, top = a
    if top:
        return SI_TOP
    return si_range(-hi, -lo, stride)


def si_join(a: SI, b: SI) -> SI:
    if a == b:
        return a
    alo, ahi, astride, atop = a
    blo, bhi, bstride, btop = b
    if atop or btop:
        return SI_TOP
    # gcd over the non-zero strides and the distance between the lows
    # (a zero argument leaves a gcd unchanged; no non-zero one gives 0)
    return si_range(alo if alo < blo else blo, ahi if ahi > bhi else bhi,
                    gcd(astride, bstride, alo - blo))


def si_widen(a: SI, b: SI) -> SI:
    """Accelerated join: unstable bounds jump to TOP-ish extents."""
    if a[3] or b[3]:
        return SI_TOP
    j = si_join(a, b)
    if j[3]:
        return j
    lo_stable = b[0] >= a[0]
    hi_stable = b[1] <= a[1]
    if lo_stable and hi_stable:
        return j
    return si_range(j[0] if lo_stable else -(1 << 32),
                    j[1] if hi_stable else (1 << 32), j[2] or 8)


SI.const = staticmethod(si_const)
SI.range = staticmethod(si_range)
SI.add = si_add
SI.add_const = si_add_const
SI.mul_const = si_mul_const
SI.mul = si_mul
SI.div_const = si_div_const
SI.shl_const = si_shl_const
SI.neg = si_neg
SI.join = si_join
SI.widen = si_widen
