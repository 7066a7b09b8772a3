"""The VSA abstract domain: values, regions, a-locs, register states.

An abstract value is one of

* ``BOTTOM`` — uninitialized (identity of join)
* ``Num(si)`` — a plain number; absolute addresses into the data
  section are just numbers, so ``Num`` doubles as a *global* pointer
* ``StackAddr(fn, si)`` — an address within function ``fn``'s frame,
  offsets relative to the entry rsp
* ``HeapAddr(site, si)`` — an address into the heap object allocated
  at call site ``site`` (one summarized region per site)
* ``TOP`` — anything

A-locs (abstract memory cells, 8-byte granularity):

* ``("g", addr)`` — a global data word
* ``("s", fn, off)`` — a stack frame word
* ``("h", site)`` — an entire heap object (field-insensitive summary)

A memory access abstracts to an :class:`AccessSet`: a finite set of
a-locs, optional per-region *ranges* (for strided addresses too wide
to enumerate), or TOP (unknown pointer).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.si import SI


# --------------------------------------------------------------------------- #
# abstract values                                                              #
# --------------------------------------------------------------------------- #

@dataclass(frozen=True, slots=True)
class Num:
    si: SI


@dataclass(frozen=True, slots=True)
class StackAddr:
    fn: int  # function entry address (region identity)
    si: SI   # offset(s) relative to entry rsp


@dataclass(frozen=True, slots=True)
class HeapAddr:
    site: int  # allocating call-site address
    si: SI


class _Top:
    __slots__ = ()

    def __repr__(self) -> str:
        return "TOP"


class _Bottom:
    __slots__ = ()

    def __repr__(self) -> str:
        return "BOTTOM"


TOP = _Top()
BOTTOM = _Bottom()

AbsVal = object  # Num | StackAddr | HeapAddr | TOP | BOTTOM


def join_vals(a: AbsVal, b: AbsVal) -> AbsVal:
    if a is BOTTOM or a == b:
        return b
    if b is BOTTOM:
        return a
    if a is TOP or b is TOP:
        return TOP
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.si.join(b.si))
    if isinstance(a, StackAddr) and isinstance(b, StackAddr) and a.fn == b.fn:
        return StackAddr(a.fn, a.si.join(b.si))
    if isinstance(a, HeapAddr) and isinstance(b, HeapAddr) and a.site == b.site:
        return HeapAddr(a.site, a.si.join(b.si))
    return TOP


def widen_vals(a: AbsVal, b: AbsVal) -> AbsVal:
    if a is BOTTOM:
        return b
    if b is BOTTOM:
        return a
    if a is TOP or b is TOP:
        return TOP
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.si.widen(b.si))
    if isinstance(a, StackAddr) and isinstance(b, StackAddr) and a.fn == b.fn:
        return StackAddr(a.fn, a.si.widen(b.si))
    if isinstance(a, HeapAddr) and isinstance(b, HeapAddr) and a.site == b.site:
        return HeapAddr(a.site, a.si.widen(b.si))
    return TOP


def add_val(a: AbsVal, b: AbsVal) -> AbsVal:
    """Abstract addition (address arithmetic)."""
    if a is BOTTOM or b is BOTTOM:
        return BOTTOM
    if a is TOP or b is TOP:
        return TOP
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.si.add(b.si))
    for addr, num in ((a, b), (b, a)):
        if isinstance(addr, StackAddr) and isinstance(num, Num):
            return StackAddr(addr.fn, addr.si.add(num.si))
        if isinstance(addr, HeapAddr) and isinstance(num, Num):
            return HeapAddr(addr.site, addr.si.add(num.si))
    return TOP


def sub_val(a: AbsVal, b: AbsVal) -> AbsVal:
    if a is BOTTOM or b is BOTTOM:
        return BOTTOM
    if a is TOP or b is TOP:
        return TOP
    if isinstance(b, Num):
        neg = Num(b.si.neg())
        return add_val(a, neg)
    return TOP


# --------------------------------------------------------------------------- #
# access sets (resolved memory operands)                                       #
# --------------------------------------------------------------------------- #

@dataclass(frozen=True, slots=True)
class AccessSet:
    """Where a memory operand may point.

    ``alocs`` is a frozenset of exact a-locs; ``ranges`` summarizes
    wide strided accesses as (("gr", lo, hi) | ("sr", fn, lo, hi));
    ``top`` means "anywhere".
    """

    alocs: frozenset = frozenset()
    ranges: tuple = ()
    top: bool = False

    @staticmethod
    def anywhere() -> "AccessSet":
        return AccessSet(top=True)

    def is_empty(self) -> bool:
        return not self.top and not self.alocs and not self.ranges


_ENUM_LIMIT = 512


def resolve_access(val: AbsVal, size: int = 8) -> AccessSet:
    """Abstract address value → set of 8-byte a-locs it may touch.

    BOTTOM (a not-yet-computed pointer on a not-yet-stable worklist
    path) resolves to the *empty* access set: the instruction will be
    re-analyzed once real values propagate to it.
    """
    if val is BOTTOM:
        return AccessSet()
    if val is TOP:
        return AccessSet.anywhere()
    if isinstance(val, Num):
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
    if isinstance(val, StackAddr):
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
    if isinstance(val, HeapAddr):
        return AccessSet(frozenset({("h", val.site)}))
    return AccessSet.anywhere()  # pragma: no cover


# --------------------------------------------------------------------------- #
# register state                                                               #
# --------------------------------------------------------------------------- #

_TRACKED = ("rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp",
            "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15")

#: caller-saved GPRs havocked across calls (SysV)
CALLER_SAVED = ("rax", "rcx", "rdx", "rsi", "rdi", "r8", "r9", "r10", "r11")


@dataclass(frozen=True, slots=True)
class RegState:
    """Immutable map register → abstract value (hash-consed by dict)."""

    regs: tuple  # tuple of AbsVal aligned with _TRACKED

    @staticmethod
    def bottom() -> "RegState":
        return RegState(tuple(BOTTOM for _ in _TRACKED))

    @staticmethod
    def entry(fn: int, base: "RegState | None" = None) -> "RegState":
        """State at a function entry: rsp = StackAddr(fn, 0)."""
        st = base if base is not None else RegState.top_state()
        return st.set("rsp", StackAddr(fn, SI.const(0)))

    @staticmethod
    def top_state() -> "RegState":
        return RegState(tuple(TOP for _ in _TRACKED))

    def get(self, name: str) -> AbsVal:
        return self.regs[_IDX[name]]

    def set(self, name: str, val: AbsVal) -> "RegState":
        i = _IDX[name]
        regs = list(self.regs)
        regs[i] = val
        return RegState(tuple(regs))

    def havoc(self, names) -> "RegState":
        regs = list(self.regs)
        for n in names:
            regs[_IDX[n]] = TOP
        return RegState(tuple(regs))

    def join(self, other: "RegState") -> "RegState":
        return self._combine(other, join_vals)

    def widen(self, other: "RegState") -> "RegState":
        return self._combine(other, widen_vals)

    def _combine(self, other: "RegState", op) -> "RegState":
        regs = combine_pointwise(self.regs, other.regs, op)
        return self if regs is self.regs else RegState(regs)


def combine_pointwise(mine: tuple, theirs: tuple, op) -> tuple:
    """``op`` applied element by element; returns ``mine`` itself when
    no element moved (identical or unchanged elements are skipped)."""
    out = None
    for i, b in enumerate(theirs):
        a = mine[i]
        if a is b:
            continue
        v = op(a, b)
        if v == a:
            continue
        if out is None:
            out = list(mine)
        out[i] = v
    return mine if out is None else tuple(out)


_IDX = {name: i for i, name in enumerate(_TRACKED)}
