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

``Num``, ``StackAddr`` and ``HeapAddr`` are flat tuples ``(kind,
region, si)`` whose first field tags the region kind (``Num``'s region
is 0), so equality and hashing run in C and values of different kinds
or regions never compare equal.  ``BOTTOM`` and ``TOP`` are singletons
compared by identity.

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
from operator import itemgetter

from repro.analysis.si import (SI, si_add, si_const, si_join, si_neg,
                               si_widen)

_new = tuple.__new__


# --------------------------------------------------------------------------- #
# abstract values                                                              #
# --------------------------------------------------------------------------- #

#: region-kind tags: the first field of every address-like value, so a
#: ``Num`` never equals a ``StackAddr`` or ``HeapAddr`` with the same
#: fields
NUM, STACK, HEAP = 0, 1, 2


class _Value(tuple):
    """``(kind, region, si)``; subclasses fix the ``kind`` tag."""

    __slots__ = ()

    def __new__(cls, region: int, si: SI):
        return _new(cls, (cls.kind, region, si))

    def __getnewargs__(self):
        return (self[1], self[2])

    si = property(itemgetter(2))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self[1]:#x}, {self[2]!r})"


class Num(_Value):
    """``(NUM, 0, si)``: a plain number or a global address."""

    __slots__ = ()

    def __new__(cls, si: SI) -> "Num":
        return _new(cls, (NUM, 0, si))

    def __getnewargs__(self):
        return (self[2],)

    def __repr__(self) -> str:
        return f"Num({self[2]!r})"


class StackAddr(_Value):
    """``(STACK, fn, si)``: offset(s) relative to the entry rsp of
    function ``fn`` (the region identity)."""

    __slots__ = ()
    kind = STACK
    fn = property(itemgetter(1))


class HeapAddr(_Value):
    """``(HEAP, site, si)``: an address into the object allocated at
    call site ``site``."""

    __slots__ = ()
    kind = HEAP
    site = property(itemgetter(1))


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
    if a[0] == b[0] and a[1] == b[1]:  # same kind, same region
        return _new(type(a), (a[0], a[1], si_join(a[2], b[2])))
    return TOP


def widen_vals(a: AbsVal, b: AbsVal) -> AbsVal:
    if a is BOTTOM:
        return b
    if b is BOTTOM:
        return a
    if a is TOP or b is TOP:
        return TOP
    if a[0] == b[0] and a[1] == b[1]:
        return _new(type(a), (a[0], a[1], si_widen(a[2], b[2])))
    return TOP


def add_val(a: AbsVal, b: AbsVal) -> AbsVal:
    """Abstract addition (address arithmetic)."""
    if a is BOTTOM or b is BOTTOM:
        return BOTTOM
    if a is TOP or b is TOP:
        return TOP
    if b[0] == NUM:  # number + number, or address + offset
        return _new(type(a), (a[0], a[1], si_add(a[2], b[2])))
    if a[0] == NUM:  # offset + address
        return _new(type(b), (b[0], b[1], si_add(b[2], a[2])))
    return TOP


def sub_val(a: AbsVal, b: AbsVal) -> AbsVal:
    if a is BOTTOM or b is BOTTOM:
        return BOTTOM
    if a is TOP or b is TOP:
        return TOP
    if b[0] == NUM:
        return add_val(a, _new(Num, (NUM, 0, si_neg(b[2]))))
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
    kind, region, si = val
    if kind == HEAP:
        return AccessSet(frozenset({("h", region)}))
    lo, hi, _, top = si
    if kind == NUM:
        if top:
            return AccessSet.anywhere()
        if si.count <= _ENUM_LIMIT:
            alocs = frozenset(
                ("g", w)
                for a in si.values()
                for w in range(a & ~7, ((a + size - 1) & ~7) + 1, 8)
            )
            return AccessSet(alocs)
        return AccessSet(ranges=(("gr", lo, hi + size - 1),))
    if top:
        # unknown offset within one frame: summarize as a range
        return AccessSet(ranges=(("sr", region, -(1 << 32), 1 << 32),))
    if si.count <= _ENUM_LIMIT:
        alocs = frozenset(
            ("s", region, w)
            for o in si.values()
            for w in range(o - (o % 8),
                           (o + size - 1) - ((o + size - 1) % 8) + 1, 8)
        )
        return AccessSet(alocs)
    return AccessSet(ranges=(("sr", region, lo, hi + size - 1),))


# --------------------------------------------------------------------------- #
# register state                                                               #
# --------------------------------------------------------------------------- #

_TRACKED = ("rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp",
            "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15")

#: caller-saved GPRs havocked across calls (SysV)
CALLER_SAVED = ("rax", "rcx", "rdx", "rsi", "rdi", "r8", "r9", "r10", "r11")


class RegState(tuple):
    """Immutable register file: one abstract value per tracked GPR, in
    ``_TRACKED`` order (index it with :data:`REG_INDEX`)."""

    __slots__ = ()

    def __new__(cls, regs) -> "RegState":
        return _new(cls, regs)

    @property
    def regs(self) -> tuple:
        return tuple(self)

    @staticmethod
    def bottom() -> "RegState":
        return RegState(BOTTOM for _ in _TRACKED)

    @staticmethod
    def entry(fn: int, base: "RegState | None" = None) -> "RegState":
        """State at a function entry: rsp = StackAddr(fn, 0)."""
        st = base if base is not None else RegState.top_state()
        return st.set("rsp", StackAddr(fn, si_const(0)))

    @staticmethod
    def top_state() -> "RegState":
        return RegState(TOP for _ in _TRACKED)

    def get(self, name: str) -> AbsVal:
        return self[REG_INDEX[name]]

    def set(self, name: str, val: AbsVal) -> "RegState":
        return set_reg(self, REG_INDEX[name], val)

    def join(self, other: "RegState") -> "RegState":
        return self._combine(other, join_vals)

    def widen(self, other: "RegState") -> "RegState":
        return self._combine(other, widen_vals)

    def _combine(self, other: "RegState", op) -> "RegState":
        regs = combine_pointwise(self, other, op)
        return self if regs is self else _new(RegState, regs)


def set_reg(regs: RegState, i: int, val: AbsVal) -> RegState:
    """``regs`` with register number ``i`` set to ``val``."""
    out = list(regs)
    out[i] = val
    return _new(RegState, out)


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


#: tracked register name -> index into a :class:`RegState`
REG_INDEX = {name: i for i, name in enumerate(_TRACKED)}
