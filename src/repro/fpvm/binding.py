"""Operand binding: decoded templates → direct read/write locations (§4.1).

    "A bound instruction is an abstract normalized representation,
    containing direct pointers to the sources and destinations of the
    instruction… The emulator need not handle accesses to memory or
    registers differently, it only needs only read/write through a
    void*."

A :class:`Location` is our ``void*``: the emulator reads/writes bit
patterns through it without knowing whether the storage is an XMM
lane, a GPR, or guest memory.  Binding happens at trap time because
memory operands depend on current register values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import MachineError
from repro.fpvm.decoder import DecodedInst
from repro.trace.events import CacheMissEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cpu import Machine
    from repro.trace.sinks import TraceSink


class Location:
    """Abstract read/write handle on one operand slot."""

    __slots__ = ()

    def read(self) -> int:  # pragma: no cover - interface
        raise NotImplementedError

    def write(self, bits: int) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class XmmLoc(Location):
    """One 64-bit lane of an XMM register."""

    __slots__ = ("m", "index", "lane")

    def __init__(self, m: "Machine", index: int, lane: int) -> None:
        self.m, self.index, self.lane = m, index, lane

    def read(self) -> int:
        return self.m.regs.xmm[self.index][self.lane]

    def write(self, bits: int) -> None:
        self.m.regs.xmm[self.index][self.lane] = bits & 0xFFFF_FFFF_FFFF_FFFF


class Xmm32Loc(Location):
    """The low 32 bits of an XMM register (binary32 slot)."""

    __slots__ = ("m", "index")

    def __init__(self, m: "Machine", index: int) -> None:
        self.m, self.index = m, index

    def read(self) -> int:
        return self.m.regs.xmm[self.index][0] & 0xFFFF_FFFF

    def write(self, bits: int) -> None:
        lo = (self.m.regs.xmm[self.index][0] & ~0xFFFF_FFFF) | (
            bits & 0xFFFF_FFFF
        )
        self.m.regs.xmm[self.index][0] = lo


class MemLoc(Location):
    """A resolved guest-memory word (address computed at bind time)."""

    __slots__ = ("m", "addr", "size")

    def __init__(self, m: "Machine", addr: int, size: int = 8) -> None:
        self.m, self.addr, self.size = m, addr, size

    def read(self) -> int:
        return self.m.memory.read(self.addr, self.size)

    def write(self, bits: int) -> None:
        self.m.memory.write(self.addr, self.size, bits)


class GprLoc(Location):
    """A general-purpose register slot (integer conversions)."""

    __slots__ = ("m", "name", "size")

    def __init__(self, m: "Machine", name: str, size: int) -> None:
        self.m, self.name, self.size = m, name, size

    def read(self) -> int:
        return self.m.regs.get_gpr(self.name)

    def write(self, bits: int) -> None:
        self.m.regs.set_gpr(self.name, bits)


@dataclass(slots=True)
class BoundLane:
    """One emulation unit: a destination plus its source locations."""

    dst: Location | None
    srcs: tuple[Location, ...]


@dataclass(slots=True)
class BoundInst:
    """A fully bound instruction ready for the emulator."""

    decoded: DecodedInst
    lanes: list[BoundLane]

    @property
    def op(self):
        return self.decoded.op

    @property
    def imm(self):
        return self.decoded.imm


def _materialize(m: "Machine", tpl, lane: int) -> Location:
    kind = tpl[0]
    if kind == "xmm":
        return XmmLoc(m, tpl[1], lane)
    if kind == "xmm32":
        return Xmm32Loc(m, tpl[1])
    if kind == "mem":
        mem = tpl[1]
        return MemLoc(m, (m.ea(mem) + 8 * lane) & 0xFFFF_FFFF_FFFF_FFFF,
                      mem.size if lane == 0 and mem.size != 16 else 8)
    if kind == "gpr":
        return GprLoc(m, tpl[1], tpl[2])
    raise MachineError(f"unknown operand template {tpl!r}")


def bind(m: "Machine", decoded: DecodedInst) -> BoundInst:
    """Resolve all operand templates against current machine state."""
    lanes: list[BoundLane] = []
    for lane in range(decoded.lanes):
        dst = (_materialize(m, decoded.dst, lane)
               if decoded.dst is not None else None)
        srcs = tuple(_materialize(m, s, lane) for s in decoded.srcs)
        lanes.append(BoundLane(dst, srcs))
    return BoundInst(decoded, lanes)


def _mem_refreshers(bound: BoundInst) -> tuple:
    """Closures that re-resolve each MemLoc's effective address.

    Register/XMM locations point at storage slots, not values, so a
    cached BoundInst can reuse them verbatim; only memory operands
    depend on current register contents.  A refresher recomputes just
    the address — the Location allocation and template walk from the
    original bind are not repeated.
    """
    decoded = bound.decoded
    out = []
    for lane_idx, blane in enumerate(bound.lanes):
        slots = []
        if decoded.dst is not None:
            slots.append((decoded.dst, blane.dst))
        slots.extend(zip(decoded.srcs, blane.srcs))
        for tpl, loc in slots:
            if tpl[0] == "mem":
                mem = tpl[1]

                def refresh(m, loc=loc, mem=mem, lane=lane_idx):
                    loc.addr = (m.ea(mem) + 8 * lane) & 0xFFFF_FFFF_FFFF_FFFF
                out.append(refresh)
    return tuple(out)


@dataclass
class BindCache:
    """Per-site cache of bound instructions (§4.1 amortization, stage 2).

    The paper's decode cache amortizes decode; this applies the same
    trick to binding.  A hot faulting site pays the full template walk
    once — on later traps only the memory-operand addresses are
    refreshed against current register state, and the same BoundInst
    is handed back to the emulator.  Entries hold locations, never
    shadow values, so a GC sweep leaves them valid.
    """

    cache: dict = None
    hits: int = 0
    misses: int = 0
    trace: "TraceSink | None" = None

    def __post_init__(self) -> None:
        if self.cache is None:
            self.cache = {}  # addr -> (decoded, bound, refreshers)

    def lookup(self, m: "Machine",
               decoded: DecodedInst) -> tuple[BoundInst, bool]:
        """Return (bound, was_hit); refreshes memory EAs on a hit."""
        entry = self.cache.get(decoded.instr.addr)
        if entry is not None and entry[0] is decoded:
            self.hits += 1
            for refresh in entry[2]:
                refresh(m)
            return entry[1], True
        self.misses += 1
        bound = bind(m, decoded)
        self.cache[decoded.instr.addr] = (decoded, bound,
                                          _mem_refreshers(bound))
        if self.trace is not None:
            self.trace.emit(CacheMissEvent(
                cycles=m.cost.cycles,
                stage="bind",
                addr=decoded.instr.addr,
                mnemonic=decoded.instr.mnemonic,
            ))
        return bound, False

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
