"""Strided intervals — the numeric half of the VSA domain [5].

A strided interval ``stride[lo, hi]`` represents
``{lo, lo+stride, …, hi}``.  ``TOP`` is the full 64-bit range.  The
operations implemented are exactly those address computations need:
addition, multiplication/shift by constants, and join-with-widening.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_MASK64 = (1 << 64) - 1
_WIDEN_LIMIT = 1 << 40  # ranges beyond this collapse to TOP


@dataclass(frozen=True, slots=True)
class SI:
    """stride[lo, hi]; ``top`` subsumes everything."""

    lo: int = 0
    hi: int = 0
    stride: int = 0  # 0 <=> singleton (lo == hi)
    top: bool = False

    # ------------------------------------------------------------------ #
    @staticmethod
    def const(v: int) -> "SI":
        v &= _MASK64
        if v >= 1 << 63:
            v -= 1 << 64
        return SI(v, v, 0)

    @staticmethod
    def range(lo: int, hi: int, stride: int) -> "SI":
        if lo == hi:
            return SI(lo, lo, 0)
        if hi - lo > _WIDEN_LIMIT:
            return SI_TOP
        return SI(lo, hi, max(stride, 1))

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
    def add(self, other: "SI") -> "SI":
        if self.top or other.top:
            return SI_TOP
        lo = self.lo + other.lo
        hi = self.hi + other.hi
        if self.stride and other.stride:
            stride = math.gcd(self.stride, other.stride)
        else:
            stride = self.stride or other.stride
        return SI.range(lo, hi, stride)

    def add_const(self, c: int) -> "SI":
        if self.top:
            return SI_TOP
        return SI.range(self.lo + c, self.hi + c, self.stride)

    def mul_const(self, c: int) -> "SI":
        if self.top:
            return SI_TOP
        if c == 0:
            return SI.const(0)
        lo, hi = sorted((self.lo * c, self.hi * c))
        return SI.range(lo, hi, abs(self.stride * c) or 0)

    def mul(self, other: "SI") -> "SI":
        """General product (bounds from corner products, stride 1)."""
        if self.top or other.top:
            return SI_TOP
        if other.is_const:
            return self.mul_const(other.lo)
        if self.is_const:
            return other.mul_const(self.lo)
        corners = [a * b for a in (self.lo, self.hi)
                   for b in (other.lo, other.hi)]
        return SI.range(min(corners), max(corners), 1)

    def div_const(self, c: int) -> "SI":
        """Conservative truncating-division quotient range (c != 0)."""
        if self.top or c == 0:
            return SI_TOP
        corners = [self.lo // c, self.hi // c]
        return SI.range(min(corners) - 1, max(corners) + 1, 1)

    def shl_const(self, c: int) -> "SI":
        return self.mul_const(1 << c)

    def neg(self) -> "SI":
        if self.top:
            return SI_TOP
        return SI.range(-self.hi, -self.lo, self.stride)

    # ------------------------------------------------------------------ #
    def join(self, other: "SI") -> "SI":
        if self == other:
            return self
        if self.top or other.top:
            return SI_TOP
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
        return SI.range(lo, hi, stride)

    def widen(self, other: "SI") -> "SI":
        """Accelerated join: unstable bounds jump to TOP-ish extents."""
        if self.top or other.top:
            return SI_TOP
        j = self.join(other)
        if j.top:
            return j
        lo = j.lo if other.lo >= self.lo else -(1 << 32)
        hi = j.hi if other.hi <= self.hi else (1 << 32)
        if other.lo >= self.lo and other.hi <= self.hi:
            return j
        return SI.range(lo, hi, j.stride or 8)

    def overlaps(self, lo: int, hi: int) -> bool:
        """Could any represented value fall within [lo, hi]?"""
        if self.top:
            return True
        return self.lo <= hi and lo <= self.hi

    def __str__(self) -> str:  # pragma: no cover - debug aid
        if self.top:
            return "TOP"
        if self.is_const:
            return f"{self.lo:#x}"
        return f"{self.stride}[{self.lo:#x},{self.hi:#x}]"


SI_TOP = SI(top=True)
