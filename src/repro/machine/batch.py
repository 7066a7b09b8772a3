"""Batched struct-of-arrays execution: N lanes of one binary in lockstep.

One :class:`BatchMachine` runs N instances of the *same* binary whose
architectural state lives in numpy columns (:class:`BatchRegFile`,
:class:`BatchMemory`): one Python dispatch retires one instruction for
every lane at once, amortizing the interpreter's per-instruction cost
over the whole batch — the PyPy-micronumpy lesson (DESIGN.md §8c/§8d)
applied to the FPVM-as-a-service fleet tier.

Lockstep and divergence
-----------------------
All in-batch lanes share one RIP.  A vectorized closure follows a
strict three-phase protocol:

1. **validate** — perform all reads and address checks; lanes that
   cannot continue in lockstep (a branch that splits the batch, an
   out-of-segment access, an unvectorized instruction) raise
   :class:`~repro.errors.LaneDivergence` *before anything commits*;
2. **retire** — accounting (``instr_count``, per-lane cycle columns)
   exactly mirroring the scalar predecode wrapper;
3. **commit** — architectural writes plus the shared RIP update.

The driver catches ``LaneDivergence``, *spills* the flagged lanes to
the existing scalar interpreter (bit-identical by construction — the
spilled lane re-executes the same instruction from the same state) and
retries the instruction with the survivors.  Spilled lanes complete
scalar; they do not rejoin (ISSUE 7 explicitly permits this).

Bit-identity
------------
Every vectorized body reproduces the scalar closure's arithmetic
exactly: integer ops are uint64 column ops with the same masking, FP
value paths use the host's binary64 hardware exactly like
:class:`~repro.ieee.softfloat.SoftFPU`, and any lane whose operands
leave the provably-identical envelope (non-finite operands,
out-of-range conversions) falls back to the scalar SoftFPU for that
lane only.  ``tests/property/test_prop_batch.py`` enforces this
differentially against N scalar Sessions.  The vectorized makers cover
the instructions the fpc compiler emits; at any other instruction every
lane spills.

Under FPVM (``arith`` is not ``None``) the batch runs the shared
*integer* prologue natively and spills every lane before the first
FP-trapping instruction, patched trap site, or extern call — the
points where trap-and-emulate semantics first diverge from native.
Up to that point zero NaN-boxes exist, so native lockstep execution is
bit-identical to scalar execution under an installed FPVM.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.errors import LaneDivergence, MachineError
from repro.ieee.bits import f64_to_bits
from repro.ieee.softfloat import SoftFPU
from repro.isa.opcodes import is_fp_trapping
from repro.isa.operands import Imm, Mem, Reg, Xmm
from repro.isa.registers import canonical, subreg_size
from repro.machine.cpu import EXIT_ADDR, HEAP_BASE, STACK_TOP
from repro.machine.costmodel import Platform, R815, instruction_cost
from repro.machine.libc import (
    _STR, _XMM, BINDINGS, INT_ARGS, _printf_plan, format_printf, libc_printf,
)
from repro.machine.memory import BatchMemory
from repro.machine.predecode import _PARITY, _op_size
from repro.machine.regfile import BatchRegFile

_M64 = 0xFFFF_FFFF_FFFF_FFFF
_M32 = 0xFFFF_FFFF
_U = np.uint64
_PARB = np.array(_PARITY, dtype=bool)


@dataclass(frozen=True)
class LaneSpec:
    """Per-lane inputs of one :meth:`Session.run_batch` lane.

    ``params`` pokes named 8-byte data symbols before execution
    (floats are stored as IEEE binary64 bits, ints raw); ``stdin``
    feeds the ``getchar`` extern.  The watchdog fields mirror the
    scalar ``Session.run(max_instructions=..., max_cycles=...)``
    arguments lane-by-lane.
    """

    params: Mapping[str, float] | None = None
    stdin: str = ""
    max_instructions: int | None = None
    max_cycles: float | None = None
    label: str = ""


class _PostCommitSpill(Exception):
    """Batch-internal: an already-committed step left lanes with
    different RIPs (pathological post-extern return divergence); every
    active lane spills *without* re-executing the instruction."""

    def __init__(self, rips: np.ndarray) -> None:
        super().__init__("post-commit rip divergence")
        self.rips = rips


# --------------------------------------------------------------------------- #
# per-lane Machine adapter (externs + spill transplant)                        #
# --------------------------------------------------------------------------- #

class _LaneRegs:
    """RegFile-shaped view of one lane's columns: the accessors the
    libc/libm extern bindings call.

    Setters copy-on-write: vector closures may alias register columns
    (``mov rax, rcx`` shares the array), so a per-lane poke must never
    mutate a column in place.
    """

    __slots__ = ("lv",)

    def __init__(self, lv: "LaneView") -> None:
        self.lv = lv

    def get_gpr(self, name: str) -> int:
        lv = self.lv
        v = int(lv.bm.regs.gpr[canonical(name)][lv.pos])
        size = subreg_size(name)
        return v if size == 8 else v & ((1 << (8 * size)) - 1)

    def set_gpr(self, name: str, value: int) -> None:
        lv = self.lv
        gpr = lv.bm.regs.gpr
        canon = canonical(name)
        size = subreg_size(name)
        col = gpr[canon].copy()
        if size == 8:
            col[lv.pos] = value & _M64
        elif size == 4:
            col[lv.pos] = value & _M32
        else:
            mask = (1 << (8 * size)) - 1
            col[lv.pos] = (int(col[lv.pos]) & ~mask & _M64) | (value & mask)
        gpr[canon] = col

    def xmm_lo(self, idx: int) -> int:
        lv = self.lv
        return int(lv.bm.regs.xmm[idx][0][lv.pos])

    def set_xmm(self, idx: int, lo: int, hi: int) -> None:
        lv = self.lv
        pair = lv.bm.regs.xmm[idx]
        nlo = pair[0].copy()
        nlo[lv.pos] = lo & _M64
        pair[0] = nlo
        nhi = pair[1].copy()
        nhi[lv.pos] = hi & _M64
        pair[1] = nhi


class _LaneMemory:
    """Memory-shaped view of one lane's columns."""

    __slots__ = ("lv",)

    def __init__(self, lv: "LaneView") -> None:
        self.lv = lv

    def read(self, addr: int, size: int) -> int:
        lv = self.lv
        return lv.bm.mem.lane_read(lv.col, addr, size)

    def write(self, addr: int, size: int, value: int) -> None:
        lv = self.lv
        lv.bm.mem.lane_write(lv.col, addr, size, value)

    def read_bytes(self, addr: int, size: int) -> bytes:
        lv = self.lv
        return lv.bm.mem.lane_read_bytes(lv.col, addr, size)

    def write_bytes(self, addr: int, data: bytes) -> None:
        lv = self.lv
        lv.bm.mem.lane_write_bytes(lv.col, addr, data)

    def read_cstr(self, addr: int, maxlen: int = 1 << 16) -> str:
        lv = self.lv
        return lv.bm.mem.lane_read_cstr(lv.col, addr, maxlen)

    def segment_named(self, name: str):
        return self.lv.bm.mem.segment_named(name)


class _LaneCost:
    """CostModel-shaped view: charges land in the lane's cycle column."""

    __slots__ = ("lv",)

    def __init__(self, lv: "LaneView") -> None:
        self.lv = lv

    def charge(self, cycles: float, bucket: str = "base") -> None:
        lv = self.lv
        bm = lv.bm
        col = bm.buckets.get(bucket)
        if col is None:
            col = np.zeros(bm.regs.n)
            bm.buckets[bucket] = col
        col[lv.pos] += cycles
        bm.cycles[lv.pos] += cycles

    @property
    def cycles(self) -> float:
        lv = self.lv
        return float(lv.bm.cycles[lv.pos])


class LaneView:
    """One lane seen through the scalar :class:`Machine` interface.

    The libc/libm extern bindings take a Machine; during a batched
    extern call each lane is presented through this adapter, so the
    bindings run unmodified per lane.  ``printf`` is the exception: it
    runs once per call for all lanes (:func:`_printf_lanes`).  The view
    also carries the lane's scalar-only state (stdout, heap allocator
    bookkeeping, PRNG, stdin cursor) that has no column representation.
    """

    def __init__(self, bm: "BatchMachine", orig: int, spec: LaneSpec) -> None:
        self.bm = bm
        self.orig = orig
        self.col = orig      # physical memory column (never reindexed)
        self.pos = orig      # position among *active* lanes
        self.spec = spec
        self.regs = _LaneRegs(self)
        self.memory = _LaneMemory(self)
        self.cost = _LaneCost(self)
        self.halted = False
        self.exit_code = 0
        self.stdout: list[str] = []
        self.heap_brk = HEAP_BASE
        raw = spec.stdin or b""
        self.stdin = raw.encode("latin-1") if isinstance(raw, str) else raw
        self._stdin_pos = 0
        # _libc_heap / _rand_state intentionally unset: the bindings
        # use the same getattr-with-default protocol as on Machine


def _printf_lanes(bm: "BatchMachine") -> None:
    """``libc_printf`` for every lane in one call.

    Each lane reads its own format (lanes may differ) and sees exactly
    the effects of the scalar ``_printf_impl``: a fault reading the
    format charges nothing, a fault reading a ``%s`` argument comes
    after the charge, and a faulting lane keeps its stdout and ``rax``.
    Argument registers are fetched once per call as whole columns.
    """
    regs = bm.regs
    lane_read_cstr = bm.mem.lane_read_cstr
    lanes = bm.lanes
    rdi = regs.gpr["rdi"].tolist()
    fmts: list = []
    charge = [0] * len(lanes)
    for pos, lv in enumerate(lanes):
        try:
            fmt = lane_read_cstr(lv.col, rdi[pos])
        except MachineError as exc:
            bm._pending_errors[lv.orig] = exc
            fmts.append(None)
            continue
        fmts.append(fmt)
        charge[pos] = 1500 + 4 * len(fmt)
    charge_col = np.array(charge, float)
    bm.buckets["base"] += charge_col
    bm.cycles += charge_col

    plans = {fmt: _printf_plan(fmt)[1] for fmt in set(fmts) if fmt is not None}
    n_fp = max((sum(k is _XMM for k, _, _ in c) for c in plans.values()),
               default=0)
    n_int = max((sum(k is not _XMM for k, _, _ in c) for c in plans.values()),
                default=0)
    # rdi holds the format; the other integer arguments follow it
    gcols = [regs.gpr[name].tolist() for name in INT_ARGS[1: 1 + n_int]]
    fcols = [regs.xmm[i][0].view(np.float64).tolist() for i in range(n_fp)]
    rax = regs.gpr["rax"].tolist()
    for pos, lv in enumerate(lanes):
        fmt = fmts[pos]
        if fmt is None:
            continue
        int_args: list = []
        fp_args: list = []
        try:
            for kind, _, _ in plans[fmt]:
                if kind is _XMM:
                    fp_args.append(fcols[len(fp_args)][pos])
                else:
                    v = gcols[len(int_args)][pos]
                    int_args.append(
                        lane_read_cstr(lv.col, v) if kind is _STR else v)
        except MachineError as exc:
            bm._pending_errors[lv.orig] = exc
            continue
        text = format_printf(fmt, int_args, fp_args)
        lv.stdout.append(text)
        rax[pos] = len(text)
    regs.gpr["rax"] = np.array(rax, _U)


# --------------------------------------------------------------------------- #
# vectorized condition codes                                                   #
# --------------------------------------------------------------------------- #

_VCOND: dict[str, Callable[[BatchRegFile], np.ndarray]] = {
    "e": lambda r: r.zf,
    "ne": lambda r: ~r.zf,
    "l": lambda r: r.sf ^ r.of,
    "le": lambda r: r.zf | (r.sf ^ r.of),
    "g": lambda r: ~(r.zf | (r.sf ^ r.of)),
    "ge": lambda r: ~(r.sf ^ r.of),
    "b": lambda r: r.cf,
    "be": lambda r: r.cf | r.zf,
    "a": lambda r: ~(r.cf | r.zf),
    "ae": lambda r: ~r.cf,
    "s": lambda r: r.sf,
    "ns": lambda r: ~r.sf,
    "p": lambda r: r.pf,
    "np": lambda r: ~r.pf,
}


# --------------------------------------------------------------------------- #
# columnar operand accessors                                                   #
# --------------------------------------------------------------------------- #

def _v_ea(bm: "BatchMachine", mem: Mem):
    """Effective-address closure: python int (absolute) or (n,) uint64."""
    gpr = bm.regs.gpr
    disp = _U(mem.disp & _M64)
    if mem.base is None and mem.index is None:
        addr = mem.disp & _M64
        return lambda: addr
    if mem.index is None:
        bc = canonical(mem.base)
        if subreg_size(mem.base) == 8:
            return lambda: gpr[bc] + disp
        bmask = _U((1 << (8 * subreg_size(mem.base))) - 1)
        return lambda: (gpr[bc] & bmask) + disp
    scale = mem.scale
    ic = canonical(mem.index)
    imask = (None if subreg_size(mem.index) == 8
             else _U((1 << (8 * subreg_size(mem.index))) - 1))
    if mem.base is None:
        if imask is None:
            return lambda: gpr[ic] * _U(scale) + disp
        return lambda: (gpr[ic] & imask) * _U(scale) + disp
    bc = canonical(mem.base)
    bmask = (None if subreg_size(mem.base) == 8
             else _U((1 << (8 * subreg_size(mem.base))) - 1))

    def ea():
        b = gpr[bc] if bmask is None else gpr[bc] & bmask
        i = gpr[ic] if imask is None else gpr[ic] & imask
        return b + i * _U(scale) + disp
    return ea


def _v_int_reader(bm: "BatchMachine", op, size: int):
    """Column equivalent of ``Machine.read_int``; Imm yields a scalar."""
    if isinstance(op, Reg):
        gpr = bm.regs.gpr
        canon = canonical(op.name)
        eff = min(subreg_size(op.name), size)
        if eff == 8:
            return lambda: gpr[canon]
        mask = _U((1 << (8 * eff)) - 1)
        return lambda: gpr[canon] & mask
    if isinstance(op, Imm):
        v = _U(op.value & ((1 << (8 * size)) - 1))
        return lambda: v
    if isinstance(op, Mem):
        ea = _v_ea(bm, op)
        read = bm.mem.read
        return lambda: read(ea(), size)
    raise MachineError(f"bad integer operand {op!r}")


def _v_int_writer(bm: "BatchMachine", op, size: int):
    """Destination as ``(ea_closure_or_None, commit(addr, value))``.

    For memory destinations the maker must pre-validate the cached
    address with ``mem.check_write`` before retiring; ``commit`` then
    cannot raise.  Register commits ignore ``addr``.
    """
    if isinstance(op, Reg):
        gpr = bm.regs.gpr
        regs = bm.regs
        canon = canonical(op.name)
        alias = subreg_size(op.name)
        eff = min(alias, size)
        emask = _U((1 << (8 * eff)) - 1)
        if alias >= 4:
            def commit(_a, v, gpr=gpr, canon=canon, emask=emask):
                out = v & emask
                if not isinstance(out, np.ndarray):
                    out = np.full(regs.n, out, _U)
                gpr[canon] = out
            return None, commit
        inv = _U(~((1 << (8 * alias)) - 1) & _M64)

        def commit_merge(_a, v, gpr=gpr, canon=canon, emask=emask, inv=inv):
            gpr[canon] = (gpr[canon] & inv) | (v & emask)
        return None, commit_merge
    if isinstance(op, Mem):
        ea = _v_ea(bm, op)
        write = bm.mem.write

        def commit_mem(a, v, write=write, size=size):
            write(a, size, v)
        return ea, commit_mem
    raise MachineError(f"bad integer destination {op!r}")


def _v_f64_reader(bm: "BatchMachine", op):
    if isinstance(op, Xmm):
        pair = bm.regs.xmm[op.index]
        return lambda: pair[0]
    if isinstance(op, Mem):
        ea = _v_ea(bm, op)
        read = bm.mem.read
        return lambda: read(ea(), 8)
    raise MachineError(f"bad FP operand {op!r}")


def _v_xmm128_reader(bm: "BatchMachine", op):
    if isinstance(op, Xmm):
        pair = bm.regs.xmm[op.index]
        return lambda: (pair[0], pair[1])
    if isinstance(op, Mem):
        ea = _v_ea(bm, op)
        read = bm.mem.read

        def rd():
            a = ea()
            return read(a, 8), read(a + 8, 8)
        return rd
    raise MachineError(f"bad 128-bit operand {op!r}")


# --------------------------------------------------------------------------- #
# vectorized FP value paths (flags are never observable in a batch run:       #
# native batches run fully masked and FPVM batches spill before FP ops)       #
# --------------------------------------------------------------------------- #

def _vfp2(fpu: SoftFPU, kind: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Two-operand binary64 op on bit columns, SoftFPU-bit-identical.

    The host-hardware value path is exactly what SoftFPU computes for
    finite operands; lanes with any non-finite operand (NaN
    propagation rules, inf-inf default QNaNs) — and divide lanes with
    a zero divisor (SoftFPU returns an explicit signed infinity) —
    fall back to the scalar SoftFPU per lane.
    """
    fa = a.view(np.float64)
    fb = b.view(np.float64)
    bad = ~(np.isfinite(fa) & np.isfinite(fb))
    if kind == "add64":
        r = fa + fb
    elif kind == "sub64":
        r = fa - fb
    elif kind == "mul64":
        r = fa * fb
    else:  # div64
        bad = bad | (fb == 0.0)
        r = fa / fb
    rb = r.view(_U)
    if bad.any():
        fn = getattr(fpu, kind)
        for i in np.nonzero(bad)[0]:
            rb[i] = fn(int(a[i]), int(b[i]))[0]
    return rb


def _vfp_sqrt(fpu: SoftFPU, a: np.ndarray) -> np.ndarray:
    f = a.view(np.float64)
    rb = np.sqrt(f).view(_U)
    bad = ~(f >= 0.0)   # NaN and negative non-zero; -0.0 passes (sqrt -0 = -0)
    if bad.any():
        for i in np.nonzero(bad)[0]:
            rb[i] = fpu.sqrt64(int(a[i]))[0]
    return rb


# --------------------------------------------------------------------------- #
# vectorized instruction makers — every maker returns a zero-arg step that     #
# follows the validate / retire / commit protocol (module docstring)           #
# --------------------------------------------------------------------------- #

def _mk_spill_all(bm, ins, reason: str):
    def step():
        raise LaneDivergence(np.ones(bm.regs.n, bool), reason)
    return step


def _mk_mov(bm, ins, C):
    size = _op_size(ins)
    dst, src = ins.operands
    r = _v_int_reader(bm, src, size)
    ea, commit = _v_int_writer(bm, dst, size)
    regs = bm.regs
    retire = bm._retire
    nxt = ins.next_addr
    check = bm.mem.check_write
    if ea is None:
        def step():
            v = r()
            retire(C)
            commit(None, v)
            regs.rip = nxt
        return step

    def step():
        v = r()
        a = ea()
        check(a, size)
        retire(C)
        commit(a, v)
        regs.rip = nxt
    return step


def _mk_movzx(bm, ins, C):
    dst, src = ins.operands
    ssize = src.size if isinstance(src, (Reg, Mem)) else 4
    r = _v_int_reader(bm, src, ssize)
    ea, commit = _v_int_writer(bm, dst, dst.size)
    if ea is not None:
        return _mk_spill_all(bm, ins, "movzx to memory")
    regs = bm.regs
    retire = bm._retire
    nxt = ins.next_addr

    def step():
        v = r()
        retire(C)
        commit(None, v)
        regs.rip = nxt
    return step


def _mk_lea(bm, ins, C):
    dst, src = ins.operands
    ea = _v_ea(bm, src)
    wea, commit = _v_int_writer(bm, dst, dst.size)
    if wea is not None:
        return _mk_spill_all(bm, ins, "lea to memory")
    regs = bm.regs
    retire = bm._retire
    nxt = ins.next_addr

    def step():
        v = ea()
        retire(C)
        commit(None, v)
        regs.rip = nxt
    return step


def _mk_push(bm, ins, C):
    r = _v_int_reader(bm, ins.operands[0], 8)
    gpr = bm.regs.gpr
    mem = bm.mem
    regs = bm.regs
    retire = bm._retire
    nxt = ins.next_addr
    eight = _U(8)

    def step():
        v = r()  # before the rsp update, so `push rsp` pushes the old value
        rsp = gpr["rsp"] - eight
        mem.check_write(rsp, 8)
        retire(C)
        gpr["rsp"] = rsp
        mem.write(rsp, 8, v)
        regs.rip = nxt
    return step


def _mk_pop(bm, ins, C):
    ea, commit = _v_int_writer(bm, ins.operands[0], 8)
    if ea is not None:
        # `pop [mem]` computes its EA after the rsp update — rare enough
        # that the scalar interpreter keeps exclusive custody of it
        return _mk_spill_all(bm, ins, "pop to memory")
    gpr = bm.regs.gpr
    mem = bm.mem
    regs = bm.regs
    retire = bm._retire
    nxt = ins.next_addr
    eight = _U(8)

    def step():
        rsp = gpr["rsp"]
        v = mem.read(rsp, 8)
        retire(C)
        gpr["rsp"] = rsp + eight
        commit(None, v)
        regs.rip = nxt
    return step


def _alu_flags_zsp(regs, r, shU):
    regs.zf = r == 0
    regs.sf = (r >> shU) != 0
    regs.pf = _PARB[(r & _U(0xFF)).astype(np.intp)]


def _mk_alu(bm, ins, C):
    mn = ins.mnemonic
    dst, src = ins.operands
    size = _op_size(ins)
    bits = 8 * size
    shU = _U(bits - 1)
    maskU = _U((1 << bits) - 1) if bits < 64 else None
    rd = _v_int_reader(bm, dst, size)
    rs = _v_int_reader(bm, src, size)
    writeback = mn not in ("cmp", "test")
    ea, commit = _v_int_writer(bm, dst, size) if writeback else (None, None)
    regs = bm.regs
    retire = bm._retire
    check = bm.mem.check_write
    nxt = ins.next_addr

    if mn == "add":
        def sem(a, b):
            r = a + b if maskU is None else (a + b) & maskU
            cf = r < a
            sa = a >> shU
            of = (sa == b >> shU) & ((r >> shU) != sa)
            return r, cf, of
    elif mn in ("sub", "cmp"):
        def sem(a, b):
            r = a - b if maskU is None else (a - b) & maskU
            cf = a < b
            sb = b >> shU
            of = ((a >> shU) != sb) & ((r >> shU) == sb)
            return r, cf, of
    else:  # and / or / xor / test
        bop = {"and": np.bitwise_and, "test": np.bitwise_and,
               "or": np.bitwise_or, "xor": np.bitwise_xor}[mn]

        def sem(a, b):
            r = bop(a, b)
            z = np.zeros(regs.n, bool)
            return r, z, z

    def step():
        a = rd()
        b = rs()
        r, cf, of = sem(a, b)
        if ea is not None:
            addr = ea()
            check(addr, size)
        else:
            addr = None
        retire(C)
        cfa = cf if isinstance(cf, np.ndarray) else np.full(regs.n, cf, bool)
        ofa = of if isinstance(of, np.ndarray) else np.full(regs.n, of, bool)
        regs.cf = cfa
        regs.of = ofa
        _alu_flags_zsp(regs, r, shU)
        if commit is not None:
            commit(addr, r)
        regs.rip = nxt
    return step


def _mk_shift(bm, ins, C):
    mn = ins.mnemonic
    dst, src = ins.operands
    size = dst.size if isinstance(dst, Reg) else _op_size(ins)
    bits = 8 * size
    cmask = 63 if bits == 64 else 31
    maskU = _U((1 << bits) - 1) if bits < 64 else None
    shU = _U(bits - 1)
    topU = _U(1 << (bits - 1))
    extU = _U(~((1 << bits) - 1) & _M64)
    rd = _v_int_reader(bm, dst, size)
    rc = _v_int_reader(bm, src, 1)
    ea, commit = _v_int_writer(bm, dst, size)
    regs = bm.regs
    retire = bm._retire
    check = bm.mem.check_write
    nxt = ins.next_addr
    const_count = (int(src.value) & cmask) if isinstance(src, Imm) else None

    def shift_math(a, cnt):
        """cnt: uint64 array or python int, every element >= 1."""
        if mn == "shl":
            r = a << cnt if maskU is None else (a << cnt) & maskU
            cf = ((a >> (_U(bits) - cnt)) & _U(1)) != 0
        else:  # sar
            if bits == 64:
                s = a.view(np.int64)
            else:
                s = np.where(a & topU != 0, a | extU, a).view(np.int64)
            ci = (cnt if isinstance(cnt, np.ndarray) else
                  np.full(1, cnt, _U)).astype(np.int64)
            r = (s >> ci).view(_U)
            if maskU is not None:
                r = r & maskU
            cf = ((a >> (cnt - _U(1))) & _U(1)) != 0
        return r, cf

    if const_count is not None:
        if const_count == 0:
            def step():
                retire(C)
                regs.rip = nxt
            return step
        cntU = _U(const_count)

        def step():
            a = rd()
            r, cf = shift_math(a, cntU)
            if ea is not None:
                addr = ea()
                check(addr, size)
            else:
                addr = None
            retire(C)
            regs.cf = cf if isinstance(cf, np.ndarray) else np.full(
                regs.n, cf, bool)
            regs.of = np.zeros(regs.n, bool)
            _alu_flags_zsp(regs, r, shU)
            commit(addr, r)
            regs.rip = nxt
        return step

    def step():
        cnt = rc() & _U(cmask)
        z = cnt == 0
        if z.any():
            if z.all():
                # count 0 in every lane: flags and destination untouched
                retire(C)
                regs.rip = nxt
                return
            raise LaneDivergence(z, "shift count divergence")
        a = rd()
        r, cf = shift_math(a, cnt)
        if ea is not None:
            addr = ea()
            check(addr, size)
        else:
            addr = None
        retire(C)
        regs.cf = cf
        regs.of = np.zeros(regs.n, bool)
        _alu_flags_zsp(regs, r, shU)
        commit(addr, r)
        regs.rip = nxt
    return step


def _mk_imul(bm, ins, C):
    dst, src = ins.operands
    size = _op_size(ins)
    bits = 8 * size
    shU = _U(bits - 1)
    rd = _v_int_reader(bm, dst, size)
    rs = _v_int_reader(bm, src, size)
    ea, commit = _v_int_writer(bm, dst, size)
    regs = bm.regs
    retire = bm._retire
    check = bm.mem.check_write
    nxt = ins.next_addr
    m32 = _U(0xFFFF_FFFF)

    if bits < 64:
        topU = _U(1 << (bits - 1))
        extU = _U(~((1 << bits) - 1) & _M64)
        maskU = _U((1 << bits) - 1)

        def sem(a, b):
            # <= 32-bit operands: the exact signed product fits int64
            a_s = np.where(a & topU != 0, a | extU, a).view(np.int64)
            b_arr = b if isinstance(b, np.ndarray) else np.full(
                regs.n, b, _U)
            b_s = np.where(b_arr & topU != 0, b_arr | extU,
                           b_arr).view(np.int64)
            full = a_s * b_s
            r = full.view(_U) & maskU
            trunc = np.where(r & topU != 0, r | extU, r).view(np.int64)
            cfof = trunc != full
            return r, cfof
    else:
        def sem(a, b):
            # 64x64 signed multiply via 32-bit-half decomposition:
            # unsigned high word, then the signed correction
            b_arr = b if isinstance(b, np.ndarray) else np.full(
                regs.n, b, _U)
            a0 = a & m32
            a1 = a >> _U(32)
            b0 = b_arr & m32
            b1 = b_arr >> _U(32)
            lo_lo = a0 * b0
            mid1 = a1 * b0 + (lo_lo >> _U(32))
            mid2 = a0 * b1 + (mid1 & m32)
            uh = a1 * b1 + (mid1 >> _U(32)) + (mid2 >> _U(32))
            low = a * b_arr
            sh = (uh
                  - np.where(a >> _U(63) != 0, b_arr, _U(0))
                  - np.where(b_arr >> _U(63) != 0, a, _U(0)))
            sext_low = np.where(low >> _U(63) != 0, _U(_M64), _U(0))
            cfof = sh != sext_low
            return low, cfof

    def step():
        a = rd()
        b = rs()
        r, cfof = sem(a, b)
        if ea is not None:
            addr = ea()
            check(addr, size)
        else:
            addr = None
        retire(C)
        regs.cf = cfof
        regs.of = cfof
        _alu_flags_zsp(regs, r, shU)
        commit(addr, r)
        regs.rip = nxt
    return step


def _mk_idiv(bm, ins, C):
    if _op_size(ins) != 8:
        return _mk_spill_all(bm, ins, "idiv non-64-bit")
    rd = _v_int_reader(bm, ins.operands[0], 8)
    gpr = bm.regs.gpr
    regs = bm.regs
    retire = bm._retire
    nxt = ins.next_addr
    lim = 1 << 53

    def step():
        b = rd()
        rax = gpr["rax"]
        rdx = gpr["rdx"]
        b_arr = b if isinstance(b, np.ndarray) else np.full(
            bm.regs.n, b, _U)
        bs = b_arr.view(np.int64)
        as_ = rax.view(np.int64)
        sext = np.where(as_ < 0, _U(_M64), _U(0))
        # vector envelope: rdx:rax is a sign-extended 64-bit value and
        # both operands are below 2^53 in magnitude, so the rounded float
        # quotient misses the exact one by less than 1/|dv| and trunc
        # gives the scalar interpreter's exact truncated quotient.
        # Everything else (including divide-by-zero) spills and faults.
        ok = ((bs != 0) & (rdx == sext)
              & (as_ < lim) & (as_ > -lim)
              & (bs < lim) & (bs > -lim))
        if not ok.all():
            raise LaneDivergence(~ok, "idiv outside vector envelope")
        q = np.trunc(as_.astype(np.float64)
                     / bs.astype(np.float64)).astype(np.int64)
        r = as_ - q * bs
        retire(C)
        gpr["rax"] = q.view(_U)
        gpr["rdx"] = r.view(_U)
        regs.rip = nxt
    return step


def _mk_cqo(bm, ins, C):
    gpr = bm.regs.gpr
    regs = bm.regs
    retire = bm._retire
    nxt = ins.next_addr

    def step():
        rax = gpr["rax"]
        retire(C)
        gpr["rdx"] = np.where(rax >> _U(63) != 0, _U(_M64), _U(0))
        regs.rip = nxt
    return step


def _mk_setcc(bm, ins, C):
    cond = _VCOND[ins.mnemonic[3:]]
    ea, commit = _v_int_writer(bm, ins.operands[0], 1)
    regs = bm.regs
    retire = bm._retire
    check = bm.mem.check_write
    nxt = ins.next_addr

    def step():
        v = cond(regs).astype(_U)
        if ea is not None:
            addr = ea()
            check(addr, 1)
        else:
            addr = None
        retire(C)
        commit(addr, v)
        regs.rip = nxt
    return step


def _mk_jmp(bm, ins, C):
    regs = bm.regs
    retire = bm._retire
    op = ins.operands[0]
    if isinstance(op, Imm):
        tgt = op.value

        def step():
            retire(C)
            regs.rip = tgt
        return step
    r = _v_int_reader(bm, op, 8)

    def step():
        tv = r()
        t0 = int(tv[0])
        diff = tv != _U(t0)
        if np.count_nonzero(diff):
            raise LaneDivergence(diff, "indirect branch divergence")
        retire(C)
        regs.rip = t0
    return step


def _mk_jcc(bm, ins, C):
    op = ins.operands[0]
    if not isinstance(op, Imm):
        return _mk_spill_all(bm, ins, "indirect conditional branch")
    cond = _VCOND[ins.mnemonic[1:]]
    tgt = op.value
    nxt = ins.next_addr
    regs = bm.regs
    retire = bm._retire

    def step():
        t = cond(regs)
        k = int(t.sum())
        if k == regs.n:
            retire(C)
            regs.rip = tgt
        elif k == 0:
            retire(C)
            regs.rip = nxt
        else:
            # spill the minority; the survivors retry unanimously
            mask = t if 2 * k <= regs.n else ~t
            raise LaneDivergence(mask, "branch divergence")
    return step


def _halt_all(bm) -> None:
    rax = bm.regs.gpr["rax"]
    for pos, lv in enumerate(bm.lanes):
        v = int(rax[pos]) & _M32
        lv.exit_code = v - (1 << 32) if v >> 31 else v
        lv.halted = True
    bm._maybe_halted = True


def _mk_ret(bm, ins, C):
    gpr = bm.regs.gpr
    mem = bm.mem
    regs = bm.regs
    retire = bm._retire
    eight = _U(8)

    def step():
        rsp = gpr["rsp"]
        addrs = mem.read(rsp, 8)
        a0 = int(addrs[0])
        diff = addrs != _U(a0)
        if np.count_nonzero(diff):
            raise LaneDivergence(diff, "return divergence")
        retire(C)
        gpr["rsp"] = rsp + eight
        if a0 == EXIT_ADDR:
            _halt_all(bm)   # rip stays at the ret site, like scalar
        else:
            regs.rip = a0
    return step


def _extern_call_body(bm, ext, nxt):
    """Shared tail of a call that resolves to an extern binding."""
    regs = bm.regs
    gpr = bm.regs.gpr
    mem = bm.mem
    eight = _U(8)

    def run_extern():
        rsp = gpr["rsp"] - eight
        mem.check_write(rsp, 8)
        bm._retire_pending(rsp)
        mem.write(rsp, 8, nxt)
        if ext is libc_printf:
            _printf_lanes(bm)
        else:
            for lv in bm.lanes:
                try:
                    ext(lv)
                except MachineError as exc:
                    bm._pending_errors[lv.orig] = exc
            bm._maybe_halted = True
        # the scalar extern-call epilogue pops the return address even
        # when the binding halted the machine
        rsp2 = gpr["rsp"]
        addrs = mem.read(rsp2, 8)
        gpr["rsp"] = rsp2 + eight
        a0 = int(addrs[0])
        if np.count_nonzero(addrs != _U(a0)):
            raise _PostCommitSpill(addrs)
        regs.rip = a0
    return run_extern


def _mk_call(bm, ins, C):
    op = ins.operands[0]
    gpr = bm.regs.gpr
    mem = bm.mem
    regs = bm.regs
    retire = bm._retire
    nxt = ins.next_addr
    eight = _U(8)

    if isinstance(op, Imm):
        tgt = op.value
        ext = bm.externs.get(tgt)
        if ext is None:
            def step():
                rsp = gpr["rsp"] - eight
                mem.check_write(rsp, 8)
                retire(C)
                gpr["rsp"] = rsp
                mem.write(rsp, 8, nxt)
                regs.rip = tgt
            return step
        if bm.fpvm_mode:
            # FPVM interposes externs (libm, printf, ...): every lane
            # leaves the batch before the first call so trap semantics
            # stay exactly scalar
            return _mk_spill_all(bm, ins, "extern call under fpvm")
        body = _extern_call_body(bm, ext, nxt)

        def step():
            # _retire_pending inside the body retires after check_write
            bm._pending_C = C
            body()
        return step

    r = _v_int_reader(bm, op, 8)

    def step():
        tv = r()
        t0 = int(tv[0])
        diff = tv != _U(t0)
        if np.count_nonzero(diff):
            raise LaneDivergence(diff, "indirect call divergence")
        ext = bm.externs.get(t0)
        if ext is not None:
            if bm.fpvm_mode:
                raise LaneDivergence(np.ones(bm.regs.n, bool),
                                     "extern call under fpvm")
            bm._pending_C = C
            _extern_call_body(bm, ext, nxt)()
            return
        rsp = gpr["rsp"] - eight
        mem.check_write(rsp, 8)
        retire(C)
        gpr["rsp"] = rsp
        mem.write(rsp, 8, nxt)
        regs.rip = t0
    return step


# ----------------------------- SSE makers ---------------------------------- #

def _mk_f_scalar(bm, ins, C):
    kind = {"addsd": "add64", "subsd": "sub64", "mulsd": "mul64",
            "divsd": "div64"}[ins.mnemonic]
    pair = bm.regs.xmm[ins.operands[0].index]
    rs = _v_f64_reader(bm, ins.operands[1])
    fpu = bm.fpu
    regs = bm.regs
    retire = bm._retire
    nxt = ins.next_addr

    def step():
        b = rs()
        r = _vfp2(fpu, kind, pair[0], b)
        retire(C)
        bm.fp_instr_count += 1
        pair[0] = r
        regs.rip = nxt
    return step


def _mk_sqrtsd(bm, ins, C):
    pair = bm.regs.xmm[ins.operands[0].index]
    rs = _v_f64_reader(bm, ins.operands[1])
    fpu = bm.fpu
    regs = bm.regs
    retire = bm._retire
    nxt = ins.next_addr

    def step():
        a = rs()
        r = _vfp_sqrt(fpu, a)
        retire(C)
        bm.fp_instr_count += 1
        pair[0] = r
        regs.rip = nxt
    return step


def _mk_ucomi(bm, ins, C):
    pair = bm.regs.xmm[ins.operands[0].index]
    rs = _v_f64_reader(bm, ins.operands[1])
    regs = bm.regs
    retire = bm._retire
    nxt = ins.next_addr

    def step():
        b = rs()
        fa = pair[0].view(np.float64)
        fb = b.view(np.float64)
        unord = np.isnan(fa) | np.isnan(fb)
        retire(C)
        bm.fp_instr_count += 1
        regs.zf = unord | (fa == fb)
        regs.pf = unord
        regs.cf = unord | (fa < fb)
        z = np.zeros(regs.n, bool)
        regs.of = z
        regs.sf = z
        regs.rip = nxt
    return step


def _mk_cvtsi2sd(bm, ins, C):
    dst, src = ins.operands
    size = src.size
    r = _v_int_reader(bm, src, size)
    pair = bm.regs.xmm[dst.index]
    regs = bm.regs
    retire = bm._retire
    nxt = ins.next_addr
    top32 = _U(0x8000_0000)
    ext32 = _U(0xFFFF_FFFF_0000_0000)

    def step():
        v = r()
        if size == 4:
            xi = np.where(v & top32 != 0, v | ext32, v).view(np.int64)
        else:
            xi = v.view(np.int64)
        f = xi.astype(np.float64)   # exact for i32; RNE for i64, like SoftFPU
        retire(C)
        bm.fp_instr_count += 1
        pair[0] = f.view(_U)
        regs.rip = nxt
    return step


def _mk_cvttsd2si(bm, ins, C):
    dst, src = ins.operands
    rs = _v_f64_reader(bm, src)
    ea, commit = _v_int_writer(bm, dst, dst.size)
    if ea is not None:
        return _mk_spill_all(bm, ins, "cvt to memory")
    fpu = bm.fpu
    regs = bm.regs
    retire = bm._retire
    nxt = ins.next_addr
    size = dst.size
    env = 9.0e18 if size == 8 else 2.0e9
    fn_name = "cvt_f64_to_i64" if size == 8 else "cvt_f64_to_i32"

    def step():
        a = rs()
        f = a.view(np.float64)
        safe = np.isfinite(f) & (np.abs(f) < env)
        out = np.where(safe, np.trunc(f), 0.0).astype(np.int64).view(_U)
        bad = ~safe
        if bad.any():
            fn = getattr(fpu, fn_name)
            for i in np.nonzero(bad)[0]:
                out[i] = fn(int(a[i]), True)[0]
        retire(C)
        bm.fp_instr_count += 1
        commit(None, out)
        regs.rip = nxt
    return step


def _mk_movsd(bm, ins, C):
    dst, src = ins.operands
    xmm = bm.regs.xmm
    retire = bm._retire
    nxt = ins.next_addr
    regs = bm.regs
    if isinstance(dst, Xmm) and isinstance(src, Xmm):
        d, s = xmm[dst.index], xmm[src.index]

        def step():
            retire(C)
            d[0] = s[0]
            regs.rip = nxt
        return step
    if isinstance(dst, Xmm):
        d = xmm[dst.index]
        ea = _v_ea(bm, src)
        read = bm.mem.read

        def step():
            v = read(ea(), 8)
            retire(C)
            d[0] = v
            d[1] = np.zeros(regs.n, _U)
            regs.rip = nxt
        return step
    s = xmm[src.index]
    ea = _v_ea(bm, dst)
    mem = bm.mem

    def step():
        a = ea()
        mem.check_write(a, 8)
        retire(C)
        mem.write(a, 8, s[0])
        regs.rip = nxt
    return step


def _mk_movapd(bm, ins, C):
    dst, src = ins.operands
    xmm = bm.regs.xmm
    regs = bm.regs
    retire = bm._retire
    nxt = ins.next_addr
    if isinstance(dst, Xmm):
        d = xmm[dst.index]
        rs = _v_xmm128_reader(bm, src)

        def step():
            lo, hi = rs()
            retire(C)
            d[0] = lo
            d[1] = hi
            regs.rip = nxt
        return step
    s = xmm[src.index]
    ea = _v_ea(bm, dst)
    mem = bm.mem
    eight = _U(8)

    def step():
        a = ea()
        a2 = a + eight if isinstance(a, np.ndarray) else a + 8
        mem.check_write(a, 8)
        mem.check_write(a2, 8)
        retire(C)
        mem.write(a, 8, s[0])
        mem.write(a2, 8, s[1])
        regs.rip = nxt
    return step


def _mk_f_bitwise(bm, ins, C):
    op = np.bitwise_xor if ins.mnemonic == "xorpd" else np.bitwise_and
    pair = bm.regs.xmm[ins.operands[0].index]
    rs = _v_xmm128_reader(bm, ins.operands[1])
    regs = bm.regs
    retire = bm._retire
    nxt = ins.next_addr

    def step():
        blo, bhi = rs()
        r0, r1 = op(pair[0], blo), op(pair[1], bhi)
        retire(C)
        pair[0] = r0
        pair[1] = r1
        regs.rip = nxt
    return step


# the instructions repro.compiler.codegen emits, less neg and not;
# BatchMachine._compile spills every lane at any other mnemonic, and the
# scalar interpreter re-executes it from the same state
_BMAKERS: dict[str, Callable] = {
    "mov": _mk_mov, "movabs": _mk_mov, "movzx": _mk_movzx, "lea": _mk_lea,
    "push": _mk_push, "pop": _mk_pop,
    "add": _mk_alu, "sub": _mk_alu, "cmp": _mk_alu,
    "and": _mk_alu, "or": _mk_alu, "xor": _mk_alu, "test": _mk_alu,
    "shl": _mk_shift, "sar": _mk_shift,
    "imul": _mk_imul, "idiv": _mk_idiv, "cqo": _mk_cqo,
    "jmp": _mk_jmp, "call": _mk_call, "ret": _mk_ret,
    "movsd": _mk_movsd, "movapd": _mk_movapd,
    "addsd": _mk_f_scalar, "subsd": _mk_f_scalar,
    "mulsd": _mk_f_scalar, "divsd": _mk_f_scalar,
    "sqrtsd": _mk_sqrtsd, "ucomisd": _mk_ucomi,
    "xorpd": _mk_f_bitwise, "andpd": _mk_f_bitwise,
    "cvtsi2sd": _mk_cvtsi2sd, "cvttsd2si": _mk_cvttsd2si,
}
for _cc in _VCOND:
    _BMAKERS["j" + _cc] = _mk_jcc
for _cc in ("e", "ne", "l", "le", "g", "ge", "b", "be", "a", "ae", "p", "np"):
    _BMAKERS["set" + _cc] = _mk_setcc


# --------------------------------------------------------------------------- #
# the batch machine                                                            #
# --------------------------------------------------------------------------- #

class BatchMachine:
    """N lanes of one binary executing in SoA lockstep.

    Construct with a loaded :class:`~repro.asm.program.Binary` and one
    :class:`LaneSpec` per lane, then :meth:`run`; the result is a list
    of per-lane ``RunResult`` objects (in spec order) that is
    bit-identical to running each lane through a scalar ``Session``.
    """

    def __init__(
        self,
        binary,
        specs: Sequence[LaneSpec],
        *,
        platform: Platform = R815,
        heap_size: int = 8 << 20,
        stack_size: int = 1 << 20,
        arith=None,
        config=None,
        analysis=None,
        delivery_scenario: str = "user",
        final_gc: bool = True,
    ) -> None:
        specs = [s if isinstance(s, LaneSpec) else LaneSpec(**s)
                 for s in specs]
        if not specs:
            raise MachineError("empty batch")
        n = len(specs)
        self.binary = binary
        self.specs = specs
        self.n0 = n
        self.platform = platform
        self.heap_size = heap_size
        self.stack_size = stack_size
        self.arith = arith
        self.config = config
        self.analysis = analysis
        self.delivery_scenario = delivery_scenario
        self.fpvm_mode = arith is not None
        self.final_gc = final_gc
        self.fpu = SoftFPU()

        self.regs = BatchRegFile(n)
        self.mem = BatchMemory(n)
        data_size = max(len(binary.data), 8)
        self.mem.map("data", binary.data_base, data_size,
                     data=bytes(binary.data))
        self.mem.map("heap", HEAP_BASE, heap_size)
        self.mem.map("stack", STACK_TOP - stack_size, stack_size)

        self.externs: dict[int, Callable] = {}
        for name, addr in binary.imports.items():
            impl = BINDINGS.get(name)
            if impl is None:
                raise MachineError(f"unresolved import {name!r}")
            self.externs[addr] = impl

        # uniform in-batch accounting + per-lane columns
        self.instr_count = 0
        self.fp_instr_count = 0
        self.cycles = np.zeros(n)
        self.buckets: dict[str, np.ndarray] = {"base": np.zeros(n)}
        self.budgets = np.array(
            [s.max_instructions if s.max_instructions is not None else -1
             for s in specs], np.int64)
        self.caps = np.array(
            [s.max_cycles if s.max_cycles is not None else np.inf
             for s in specs], float)
        self._watch = bool((self.budgets > 0).any()
                           or np.isfinite(self.caps).any())

        # entry: rsp = STACK_TOP-16, push the exit sentinel
        self.regs.gpr["rsp"] = np.full(n, STACK_TOP - 16, _U)
        rsp = self.regs.gpr["rsp"] - _U(8)
        self.regs.gpr["rsp"] = rsp
        self.mem.write(rsp, 8, EXIT_ADDR)
        self.regs.rip = binary.entry

        self.lanes = [LaneView(self, i, spec)
                      for i, spec in enumerate(specs)]
        for lv in self.lanes:
            if lv.spec.params:
                for pname, val in lv.spec.params.items():
                    addr = binary.symbols.get(pname)
                    if addr is None:
                        raise MachineError(f"unknown data symbol {pname!r}")
                    if isinstance(val, float):
                        bits = f64_to_bits(val)
                    else:
                        bits = int(val) & _M64
                    self.mem.lane_write(lv.col, addr, 8, bits)

        self._outcomes: dict[int, object] = {}
        self._pending_errors: dict[int, MachineError] = {}
        self._maybe_halted = False
        self._pending_C = 0.0

        # batch-level statistics (surfaced through BatchResult)
        self.dispatches = 0
        self.spill_events = 0
        self.spilled_lanes = 0

        with np.errstate(all="ignore"):
            self._code = {ins.addr: self._compile(ins)
                          for ins in binary.text}

    # ------------------------------------------------------------------ #
    def _retire(self, C: float) -> None:
        self.instr_count += 1
        self.cycles += C
        self.buckets["base"] += C

    def _retire_pending(self, new_rsp: np.ndarray) -> None:
        """Extern-call retire: accounting + the push commit in one place
        (the closure validated the push slot before calling us)."""
        self._retire(self._pending_C)
        self.regs.gpr["rsp"] = new_rsp

    # ------------------------------------------------------------------ #
    def _compile(self, ins):
        mn = ins.mnemonic
        if mn in ("fpvm_trap", "fpvm_patch", "int3", "ud2"):
            return _mk_spill_all(self, ins, f"scalar-only {mn}")
        if self.fpvm_mode and is_fp_trapping(mn):
            # under FPVM every trap-capable FP instruction is (or may
            # become) a trap site: the lane leaves the batch before the
            # first one, while zero NaN-boxes exist
            return _mk_spill_all(self, ins, "fpvm trap surface")
        C = instruction_cost(self.platform, ins)
        maker = _BMAKERS.get(mn)
        if maker is None:
            return _mk_spill_all(self, ins, f"unvectorized {mn}")
        try:
            return maker(self, ins, C)
        except Exception:
            return _mk_spill_all(self, ins, f"uncompilable {mn}")

    # ------------------------------------------------------------------ #
    def run(self) -> list:
        """Drive all lanes to completion; per-lane results in spec order."""
        with np.errstate(all="ignore"):
            regs = self.regs
            code = self._code
            while self.lanes:
                step = code.get(regs.rip)
                if step is None:
                    self._error_all(MachineError(
                        f"rip={regs.rip:#x}: no instruction"))
                    break
                try:
                    step()
                except LaneDivergence as d:
                    self._spill(np.asarray(d.lanes, bool), d.reason)
                    continue
                except _PostCommitSpill as p:
                    self._spill_post(p.rips)
                    continue
                self.dispatches += 1
                if self._pending_errors:
                    self._drain_errors()
                if self._watch and self.lanes:
                    self._check_watchdogs()
                if self._maybe_halted and self.lanes:
                    self._finalize_halted()
        return [self._outcomes[i] for i in range(self.n0)]

    # ------------------------------------------------------------------ #
    # lane retirement paths                                               #
    # ------------------------------------------------------------------ #

    def _completed_result(self, lv: LaneView):
        from repro.harness.experiment import RunResult
        pos = lv.pos
        return RunResult(
            stdout="".join(lv.stdout),
            exit_code=lv.exit_code,
            instr_count=self.instr_count,
            fp_instr_count=self.fp_instr_count,
            fp_traps=0,
            correctness_traps=0,
            cycles=float(self.cycles[pos]),
            buckets={k: float(col[pos]) for k, col in self.buckets.items()},
            final_regs=self.regs.lane_snapshot(pos),
        )

    def _error_result(self, lv: LaneView, exc: MachineError):
        from repro.harness.experiment import RunResult
        pos = lv.pos
        return RunResult(
            stdout="".join(lv.stdout),
            exit_code=-1,
            instr_count=self.instr_count,
            fp_instr_count=self.fp_instr_count,
            fp_traps=0,
            correctness_traps=0,
            cycles=float(self.cycles[pos]),
            buckets={k: float(col[pos]) for k, col in self.buckets.items()},
            error=str(exc),
            error_type=type(exc).__name__,
        )

    def _compact(self, keep) -> None:
        keep = np.asarray(keep, np.intp)
        self.regs.compact(keep)
        self.mem.compact(keep)
        self.cycles = self.cycles[keep]
        for k in list(self.buckets):
            self.buckets[k] = self.buckets[k][keep]
        self.budgets = self.budgets[keep]
        self.caps = self.caps[keep]
        self.lanes = [self.lanes[int(i)] for i in keep]
        for p, lv in enumerate(self.lanes):
            lv.pos = p
        self._watch = bool(self.lanes) and bool(
            (self.budgets > 0).any() or np.isfinite(self.caps).any())

    def _drain_errors(self) -> None:
        bad = []
        for pos, lv in enumerate(self.lanes):
            exc = self._pending_errors.get(lv.orig)
            if exc is not None:
                self._outcomes[lv.orig] = self._error_result(lv, exc)
                bad.append(pos)
        self._pending_errors.clear()
        if bad:
            keep = [p for p in range(len(self.lanes)) if p not in set(bad)]
            self._compact(keep)

    def _check_watchdogs(self) -> None:
        exp_i = (self.budgets > 0) & (self.instr_count >= self.budgets)
        exp_c = np.isfinite(self.caps) & (self.cycles > self.caps) & ~exp_i
        bad = exp_i | exp_c
        if not bad.any():
            return
        from repro.errors import WatchdogExpired
        dead = []
        for pos in np.nonzero(bad)[0]:
            lv = self.lanes[pos]
            spec = lv.spec
            if exp_i[pos]:
                b = spec.max_instructions
                exc = WatchdogExpired("instructions", b,
                                      f"instruction budget exhausted ({b})")
            else:
                exc = WatchdogExpired("cycles", spec.max_cycles)
            self._outcomes[lv.orig] = self._error_result(lv, exc)
            dead.append(int(pos))
        keep = [p for p in range(len(self.lanes)) if p not in set(dead)]
        self._compact(keep)

    def _finalize_halted(self) -> None:
        done = [pos for pos, lv in enumerate(self.lanes) if lv.halted]
        if done:
            for pos in done:
                lv = self.lanes[pos]
                self._outcomes[lv.orig] = self._completed_result(lv)
            keep = [p for p in range(len(self.lanes)) if p not in set(done)]
            self._compact(keep)
        self._maybe_halted = False

    def _error_all(self, exc: MachineError) -> None:
        for lv in self.lanes:
            if lv.halted:
                self._outcomes[lv.orig] = self._completed_result(lv)
            else:
                self._outcomes[lv.orig] = self._error_result(lv, exc)
        self.lanes = []

    # ------------------------------------------------------------------ #
    # spilling                                                            #
    # ------------------------------------------------------------------ #

    def _spill(self, mask: np.ndarray, reason: str) -> None:
        if not mask.any():
            return
        self.spill_events += 1
        positions = np.nonzero(mask)[0]
        self.spilled_lanes += len(positions)
        for pos in positions:
            lv = self.lanes[pos]
            self._outcomes[lv.orig] = self._run_scalar(lv, self.regs.rip)
        self._compact(np.nonzero(~mask)[0])

    def _spill_post(self, rips: np.ndarray) -> None:
        """Post-commit spill: the step retired and committed, so every
        lane continues scalar at its own popped return address."""
        self.spill_events += 1
        self.spilled_lanes += len(self.lanes)
        for pos, lv in enumerate(self.lanes):
            exc = self._pending_errors.pop(lv.orig, None)
            if exc is not None:
                self._outcomes[lv.orig] = self._error_result(lv, exc)
            elif lv.halted:
                self._outcomes[lv.orig] = self._completed_result(lv)
            else:
                self._outcomes[lv.orig] = self._run_scalar(
                    lv, int(rips[pos]))
        self._pending_errors.clear()
        self.lanes = []

    def _run_scalar(self, lv: LaneView, rip: int):
        """Materialize one lane as a scalar Machine and run it out.

        The transplant reproduces exactly the state a scalar run would
        have at this point, so the continuation is bit-identical.
        """
        from repro.harness.experiment import RunResult
        from repro.machine.loader import load_binary

        binary = self.binary
        if self.fpvm_mode:
            # trap-and-patch mutates the binary in place; each spilled
            # FPVM lane patches its own private copy
            binary = copy.deepcopy(self.binary)
            binary._patch_listeners = []
        m = load_binary(binary, platform=self.platform,
                        heap_size=self.heap_size,
                        stack_size=self.stack_size)
        m.delivery_scenario = self.delivery_scenario
        self.regs.write_lane_to(m.regs, lv.pos)
        m.regs.rip = rip
        for bseg in self.mem.segments:
            sseg = m.memory.segment_named(bseg.name)
            sseg.data[:] = self.mem.lane_segment_bytes(lv.col, bseg)
        m.heap_brk = lv.heap_brk
        heap_state = getattr(lv, "_libc_heap", None)
        if heap_state is not None:
            m._libc_heap = heap_state
        rand_state = getattr(lv, "_rand_state", None)
        if rand_state is not None:
            m._rand_state = rand_state
        m.stdout = lv.stdout
        m.stdin = lv.stdin
        m._stdin_pos = lv._stdin_pos
        m.instr_count = self.instr_count
        m.fp_instr_count = self.fp_instr_count
        m.cost.cycles = float(self.cycles[lv.pos])
        for k, col in self.buckets.items():
            m.cost.buckets[k] = float(col[lv.pos])
        spec = lv.spec
        m.cycle_watchdog = spec.max_cycles
        fpvm = None
        if self.fpvm_mode:
            from repro.fpvm.runtime import FPVM
            fpvm = FPVM(self.arith, self.config)
            fpvm.install(m)
            if self.analysis is not None:
                fpvm.apply_analysis(self.analysis)
        t0 = time.perf_counter()
        try:
            m.run(spec.max_instructions)
        except MachineError as exc:
            return RunResult(
                stdout="".join(m.stdout),
                exit_code=-1,
                instr_count=m.instr_count,
                fp_instr_count=m.fp_instr_count,
                fp_traps=m.fp_trap_count,
                correctness_traps=m.correctness_trap_count,
                cycles=m.cost.cycles,
                buckets=dict(m.cost.buckets),
                wall_s=time.perf_counter() - t0,
                fpvm=fpvm,
                machine=m,
                error=str(exc),
                error_type=type(exc).__name__,
            )
        if fpvm is not None and self.final_gc:
            fpvm.gc.collect(m)
        return RunResult(
            stdout="".join(m.stdout),
            exit_code=m.exit_code,
            instr_count=m.instr_count,
            fp_instr_count=m.fp_instr_count,
            fp_traps=m.fp_trap_count,
            correctness_traps=m.correctness_trap_count,
            cycles=m.cost.cycles,
            buckets=dict(m.cost.buckets),
            wall_s=time.perf_counter() - t0,
            fpvm=fpvm,
            machine=m,
            final_regs=m.regs.snapshot(),
        )

    # ------------------------------------------------------------------ #
    @property
    def spill_rate(self) -> float:
        """Fraction of lanes that left the batch before completing."""
        return self.spilled_lanes / self.n0 if self.n0 else 0.0
