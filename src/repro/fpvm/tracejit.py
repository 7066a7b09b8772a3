"""Tracing JIT: hot-loop trace recording, optimization, and emission.

The predecode interpreter (``machine/predecode.py``) pays a dict fetch,
a closure call, and per-step accounting on every instruction, and the
SoftFPU pays a bits->float->bits round trip per FP op.  This module
removes both from hot loops, PyPy-style:

1. **Hot-loop detection** — backward direct branches report their
   target through ``machine._loop_hook``; past ``threshold`` executions
   the loop header is recorded.
2. **Trace recording** — ``_record`` follows one real iteration
   instruction-by-instruction (through superblock boundaries and fpvm
   trap sites — the steps *execute* while being captured, so recording
   never perturbs architectural state).
3. **Optimization** — the ``_OptEmitter`` promotes GPRs, RFLAGS, and
   XMM lanes into Python locals, keeps loop-carried FP values in the
   *float domain* across iterations (unbox/rebox sinking: bits are
   rematerialized at the back edge, the full architectural state only
   on exits), value-numbers effective-address computations (pure-op
   CSE), folds register constants, and strengthens every assumption
   into an explicit guard.
4. **Emission** — each trace is ``exec``-compiled into one Python
   function installed at ``machine._blocks[header]``; the fast fetch
   loop enters it like any superblock.  Guard failures deoptimize by
   committing the partial iteration (exact ``instr_count`` /
   ``fp_instr_count`` / cycle charges), flushing locals back to the
   register file, and returning to the interpreter at a precise RIP.

Traces interact with the rest of the VM exactly like trap-site JIT
closures: faults and storms (``FPVM._degrade``) invalidate the
containing trace, binary patches invalidate through a patch listener,
and a GC sweep that lands mid-recording aborts the recording cleanly
(``note_sweep``) so no stale shadow state is baked in.

Two emitters share the pipeline:

* **opt** — machine-only traces (no FPVM trap handler): FP arithmetic
  is inlined in the float domain under a finiteness invariant (every
  float-form local is finite, guarded at each unbox and each FP
  result).  This is where the order-of-magnitude win lives.
* **chain** — the general fallback (and the only mode under an
  installed FPVM handler): the recorded step closures are replayed
  with a RIP/validity check after every non-straight-line step.
  Observationally identical by construction; still skips the fetch
  loop's per-block dict traffic.
"""

from __future__ import annotations

import math
import struct
from typing import TYPE_CHECKING

from repro.isa.operands import Imm, Mem, Reg, Xmm
from repro.isa.registers import canonical, subreg_size
from repro.machine.predecode import _BLOCK_SAFE, _base_cost, _block_at
from repro.fpvm.stats import FPVMStats
from repro.trace.events import (TraceCompileEvent, TraceDeoptEvent,
                                TraceRecordEvent)

if TYPE_CHECKING:  # pragma: no cover
    from repro.fpvm.runtime import FPVM
    from repro.machine.cpu import Machine

_M64 = 0xFFFF_FFFF_FFFF_FFFF

_pk_q = struct.Struct("<Q").pack
_up_q = struct.Struct("<Q").unpack
_pk_d = struct.Struct("<d").pack
_up_d = struct.Struct("<d").unpack


def _b2f(b: int) -> float:
    return _up_d(_pk_q(b))[0]


def _f2b(f: float) -> int:
    return _up_q(_pk_d(f))[0]


#: steps that may divert through the FPVM trap handler: a post-step RIP
#: mismatch there is a deopt (the handler took over), not a side exit
_FP_DIVERT = frozenset([
    "addsd", "subsd", "mulsd", "divsd", "minsd", "maxsd",
    "addpd", "subpd", "mulpd", "divpd", "minpd", "maxpd",
    "addss", "subss", "mulss", "divss",
    "sqrtsd", "sqrtpd", "ucomisd", "comisd", "cmpsd", "roundsd",
    "fmaddsd", "cvtsi2sd", "cvttsd2si", "cvtsd2si", "cvtsd2ss",
    "cvtss2sd", "fpvm_trap", "fpvm_patch",
])

#: FP instructions the opt emitter inlines; each consults ``_fp_event``
#: in the interpreter, so each contributes one ``fp_instr_count`` tick
_NF = frozenset(["addsd", "subsd", "mulsd", "divsd", "sqrtsd",
                 "ucomisd", "comisd", "cvtsi2sd", "cvttsd2si"])

#: jcc/setcc/cmovcc condition -> expression over the promoted flag
#: locals (fZ/fS/fO/fC/fP mirror Machine._COND exactly; flags are 0/1)
_COND_EXPR = {
    "e": "fZ", "ne": "not fZ",
    "l": "fS != fO", "le": "fZ or fS != fO",
    "g": "not fZ and fS == fO", "ge": "fS == fO",
    "b": "fC", "be": "fC or fZ",
    "a": "not fC and not fZ", "ae": "not fC",
    "s": "fS", "ns": "not fS", "p": "fP", "np": "not fP",
}


class _Unsupported(Exception):
    """Raised by the opt emitter to fall back to chain mode."""


class TraceInfo:
    __slots__ = ("header", "fn", "mode", "length", "addrs", "valid",
                 "handler", "hits", "deopts", "side_exits", "entry_fails",
                 "src")

    def __init__(self, header, length, addrs, handler):
        self.header = header
        self.fn = None
        self.mode = "chain"
        self.length = length
        self.addrs = addrs
        self.valid = True
        self.handler = handler
        self.hits = 0
        self.deopts = 0
        self.side_exits = 0
        self.entry_fails = 0
        self.src = ""


class TraceJIT:
    """Hot-loop tracer for one machine (optionally under one FPVM)."""

    def __init__(self, machine: "Machine", threshold: int = 50,
                 fpvm: "FPVM | None" = None,
                 stats: FPVMStats | None = None) -> None:
        if machine._blocks is None:
            raise ValueError("tracing JIT requires a predecoded machine")
        self.machine = machine
        self.threshold = threshold
        self.fpvm = fpvm
        self.stats = fpvm.stats if fpvm is not None else (
            stats if stats is not None else FPVMStats())
        self.traces: dict[int, TraceInfo] = {}
        self.counts: dict[int, int] = {}
        self.compiles: dict[int, int] = {}
        self.record_fails: dict[int, int] = {}
        self.blacklist: set[int] = set()
        self.max_trace_len = 256
        self.max_compiles_per_loop = 4
        self._busy = False
        self._recording = False
        self._abort_reason: str | None = None
        self._detached = False
        self._retired: set[int] = set()

    # ------------------------------------------------------------------ #
    # wiring                                                              #
    # ------------------------------------------------------------------ #

    def attach(self) -> None:
        self.machine._loop_hook = self._on_back_edge
        self.machine.binary.add_patch_listener(self._on_patch)

    def detach(self, reason: str = "detach") -> None:
        """Tear down silently: retire events, restore blocks, unhook."""
        self.flush_events()
        m = self.machine
        for info in list(self.traces.values()):
            info.valid = False
            self._deinstall(info)
        self.traces.clear()
        if m._loop_hook is self._on_back_edge:
            m._loop_hook = None
        self._detached = True

    def flush_events(self) -> None:
        """Emit a retire row per live trace (end-of-run bookkeeping).

        Idempotent per trace: a session close followed by an uninstall
        must not double-report the totals.
        """
        for info in self.traces.values():
            if info.header in self._retired:
                continue
            self._retired.add(info.header)
            self._emit(TraceCompileEvent(
                header=info.header, length=info.length, mode=info.mode,
                action="retire", hits=info.hits, deopts=info.deopts))

    def _on_patch(self, ins) -> None:
        if not self._detached:
            self.invalidate_containing(ins.addr, "patch")

    def _emit(self, ev) -> None:
        sink = self.machine.trace
        if sink is not None:
            ev.cycles = self.machine.cost.cycles
            sink.emit(ev)

    # ------------------------------------------------------------------ #
    # hot-loop detection                                                  #
    # ------------------------------------------------------------------ #

    def _assumptions_hold(self, info: TraceInfo) -> bool:
        m = self.machine
        return (m.fp_trap_handler is info.handler and m.oracle is None
                and m._blocks is not None)

    def _on_back_edge(self, tgt: int) -> None:
        if self._busy or not self.machine._in_fast_loop:
            return
        info = self.traces.get(tgt)
        if info is not None:
            if info.valid:
                # self-heal: set_oracle()/rebuild_blocks_around() clobber
                # _blocks[header] with a fresh superblock — reinstall as
                # long as the trace's assumptions still hold
                m = self.machine
                if (m._blocks.get(tgt) is not info.fn
                        and self._assumptions_hold(info)):
                    m._blocks[tgt] = info.fn
                return
            self.traces.pop(tgt, None)
        if tgt in self.blacklist:
            return
        n = self.counts.get(tgt, 0) + 1
        if n < self.threshold:
            self.counts[tgt] = n
            return
        self.counts[tgt] = 0
        self._hot(tgt)

    def _hot(self, header: int) -> None:
        m = self.machine
        if m.oracle is not None or m.halted:
            return
        n = self.compiles.get(header, 0)
        if n >= self.max_compiles_per_loop:
            self.blacklist.add(header)
            return
        self._busy = True
        self._recording = True
        self._abort_reason = None
        try:
            rec = self._record(header)
        finally:
            self._recording = False
            self._busy = False
        if rec is None:
            self.stats.trace_record_aborts += 1
            self._emit(TraceRecordEvent(
                header=header, ok=False,
                reason=self._abort_reason or "abort"))
            fails = self.record_fails.get(header, 0) + 1
            self.record_fails[header] = fails
            if fails >= 3:
                self.blacklist.add(header)
            return
        self._emit(TraceRecordEvent(header=header, length=len(rec), ok=True))
        info = self._compile(header, rec)
        if info is None:
            self.blacklist.add(header)
            return
        self.compiles[header] = n + 1
        self.traces[header] = info
        m._blocks[header] = info.fn
        self.stats.trace_loops_compiled += 1
        self._emit(TraceCompileEvent(
            header=header, length=info.length, mode=info.mode,
            action="compile"))

    # ------------------------------------------------------------------ #
    # recording                                                           #
    # ------------------------------------------------------------------ #

    def _record(self, header: int):
        """Capture one loop iteration by executing it step-by-step.

        The captured steps *are* the execution — on success or abort,
        architectural state is exactly what normal interpretation would
        have produced, so control can return to the fetch loop as-is.
        """
        m = self.machine
        regs = m.regs
        text_map = m.binary.text_map
        code = m._code
        rec = []
        rip = header
        for _ in range(self.max_trace_len):
            ins = text_map.get(rip)
            step = code.get(rip)
            if ins is None or step is None:
                self._abort_reason = "unmapped-rip"
                return None
            step()
            if self._abort_reason is not None:
                # e.g. a GC sweep reclaimed shadow handles mid-recording
                return None
            if m.halted:
                self._abort_reason = "halted"
                return None
            after = regs.rip
            rec.append((ins, step, after))
            if after == header:
                return rec
            rip = after
        self._abort_reason = "too-long"
        return None

    def note_sweep(self, freed) -> None:
        """GC sweep notification: a recording in flight could bake state
        that refers to the just-reclaimed shadow handles — abort it."""
        if self._recording:
            self._abort_reason = "gc-sweep"

    # ------------------------------------------------------------------ #
    # compilation                                                         #
    # ------------------------------------------------------------------ #

    def _compile(self, header: int, rec) -> TraceInfo | None:
        m = self.machine
        info = TraceInfo(header, len(rec),
                         frozenset(ins.addr for ins, _, _ in rec),
                         m.fp_trap_handler)
        try:
            if info.handler is None:
                try:
                    _OptEmitter(self, info, rec).build()
                except _Unsupported:
                    self._compile_chain(info, rec)
            else:
                self._compile_chain(info, rec)
        except Exception:
            return None
        return info

    def _compile_chain(self, info: TraceInfo, rec) -> None:
        m = self.machine
        env = {"m": m, "regs": m.regs, "I": info, "H": info.handler,
               "TJ": self, "S": self.stats}
        L = []
        a = L.append
        a("def trace():")
        a("    if m.fp_trap_handler is not H or m.oracle is not None "
          "or not I.valid:")
        a("        TJ._entry_fail(I)")
        a("        return")
        a("    while True:")
        a("        I.hits += 1")
        a("        S.trace_hits += 1")
        last = len(rec) - 1
        for k, (ins, step, after) in enumerate(rec):
            env["s%d" % k] = step
            a("        s%d()" % k)
            if ins.mnemonic in _BLOCK_SAFE and k != last:
                continue
            fp = ins.mnemonic in _FP_DIVERT
            a("        if m.halted or regs.rip != %d or not I.valid:" % after)
            a("            TJ._chain_exit(I, %d, %r)" % (ins.addr, fp))
            a("            return")
        src = "\n".join(L)
        exec(compile(src, "<trace-chain@%#x>" % info.header, "exec"), env)
        info.fn = env["trace"]
        info.mode = "chain"
        info.src = src

    # ------------------------------------------------------------------ #
    # runtime exits                                                       #
    # ------------------------------------------------------------------ #

    def _entry_fail(self, info: TraceInfo) -> None:
        """Entry guard failed: deinstall so the fetch loop makes
        progress through the plain superblock; the back-edge hook
        reinstalls once assumptions hold again."""
        info.entry_fails += 1
        self._deinstall(info)
        if info.entry_fails > 32 and info.valid:
            self._invalidate(info, "entry-thrash")
            self.blacklist.add(info.header)

    def _chain_exit(self, info: TraceInfo, addr: int, fp_like: bool) -> None:
        if not info.valid:
            self._deopt(info, "invalidated", addr)
        elif not self.machine.halted and fp_like:
            self._deopt(info, "trap-divert", addr)
        else:
            self._side_exit(info)

    def _deopt(self, info: TraceInfo, reason: str, addr: int) -> None:
        info.deopts += 1
        self.stats.trace_deopts += 1
        self._emit(TraceDeoptEvent(header=info.header, addr=addr,
                                   reason=reason))
        if info.valid and info.deopts > 32 and info.deopts * 2 > info.hits:
            self._invalidate(info, "deopt-storm")

    def _side_exit(self, info: TraceInfo) -> None:
        info.side_exits += 1
        self.stats.trace_side_exits += 1

    # ------------------------------------------------------------------ #
    # invalidation                                                        #
    # ------------------------------------------------------------------ #

    def _deinstall(self, info: TraceInfo) -> None:
        m = self.machine
        if m._blocks is not None and m._blocks.get(info.header) is info.fn:
            m._blocks[info.header] = _block_at(m, m._code, info.header)

    def _invalidate(self, info: TraceInfo, reason: str) -> None:
        if not info.valid:
            return
        info.valid = False
        self.stats.trace_invalidations += 1
        self._deinstall(info)
        self._emit(TraceCompileEvent(
            header=info.header, length=info.length, mode=info.mode,
            action="invalidate", hits=info.hits, deopts=info.deopts,
            reason=reason))
        self.traces.pop(info.header, None)
        self.counts[info.header] = 0

    def invalidate_containing(self, addr: int, reason: str) -> None:
        """Invalidate every trace whose covered addresses include
        ``addr`` — faults, storms, and patches tear traces down exactly
        as they tear down trap-site JIT closures."""
        for info in list(self.traces.values()):
            if addr in info.addrs:
                self._invalidate(info, reason)

    def invalidate_all(self, reason: str) -> None:
        for info in list(self.traces.values()):
            self._invalidate(info, reason)


# --------------------------------------------------------------------------- #
# the optimizing emitter (machine-only traces)                                 #
# --------------------------------------------------------------------------- #

class _OptEmitter:
    """Compile a recorded trace to one specialized loop function.

    State promotion: every referenced GPR becomes a local ``g_<reg>``,
    the five RFLAGS bits become ``fZ/fS/fO/fC/fP``, and each XMM lane 0
    lives in dual form — ``xb<i>`` (bits) and ``xf<i>`` (float), with
    per-lane validity tracked at emission time so conversions are
    emitted lazily and loop-carried FP values stay in the float domain
    (``xh<i>`` holds lane 1 bits).  The architectural register file is
    written back only on exits.

    The finiteness invariant: every float-form value is finite.  Each
    bits->float unbox and each inlined FP result is guarded with
    ``v - v != 0.0`` (true exactly for NaN/±inf); a failed guard
    deoptimizes *before* the owning instruction commits, so the
    interpreter re-executes it with bit-exact SoftFPU semantics.

    Scalar replacement: when *every* memory access in the trace is an
    8-byte word at a loop-invariant address (base+disp with an
    unwritten base register, or absolute — the compiler's stack slots
    and rodata constants), the words are hoisted into locals at trace
    entry and written back on every exit, eliding all ``RD``/``WR``
    calls from the loop body.  One unpromotable access disables the
    pass entirely, since it could alias any promoted word; collisions
    between base groups are rejected by an entry-time distinctness
    guard.
    """

    def __init__(self, tj: TraceJIT, info: TraceInfo, rec) -> None:
        self.tj = tj
        self.m = tj.machine
        self.info = info
        self.rec = rec
        # accounting prefix sums: pcp[k] = modeled cycles of the first k
        # instructions (left-associated float adds), nfp[k] = FP events
        pcp = [0.0]
        nfp = [0]
        c = 0.0
        n = 0
        for ins, _, _ in rec:
            c = c + _base_cost(self.m, ins)
            n = n + (1 if ins.mnemonic in _NF else 0)
            pcp.append(c)
            nfp.append(n)
        self.pcp = pcp
        self.nfp = nfp
        self.gprs: set[str] = set()
        self.xmms: set[int] = set()
        # scalar replacement of loop-invariant memory words: every
        # 8-byte access whose EA is base+disp with an unwritten base
        # (or absolute) can live in a local across iterations.  The
        # discovery pass records accesses; _decide_slots promotes them
        # all-or-nothing (one unpromotable access would alias freely).
        self.mem_recs: list = []
        self.mem_unstable = False
        self.written_gprs: set[str] = set()
        self.slots: dict = {}
        self.slot_wb: list = []
        self._prescan()

    # -- prescan: registers touched + support check ---------------------- #

    def _prescan(self) -> None:
        sup = _SUPPORTED
        for ins, _, _ in self.rec:
            mn = ins.mnemonic
            if mn not in sup:
                raise _Unsupported(mn)
            if mn in ("push", "pop"):
                self.gprs.add("rsp")
            for op in ins.operands:
                if isinstance(op, Reg):
                    self.gprs.add(canonical(op.name))
                elif isinstance(op, Xmm):
                    self.xmms.add(op.index)
                elif isinstance(op, Mem):
                    if op.base is not None:
                        self.gprs.add(canonical(op.base))
                    if op.index is not None:
                        self.gprs.add(canonical(op.index))
            if mn in ("jmp", "jcc") or mn[0] == "j":
                if not isinstance(ins.operands[0], Imm):
                    raise _Unsupported("indirect branch")

    # -- emission state --------------------------------------------------- #

    def _reset(self, entry_fv: frozenset) -> None:
        self.lines: list[str] = []
        self.ind = "        "
        self.fv = {i: i in entry_fv for i in self.xmms}
        self.bv = {i: True for i in self.xmms}
        self.defined: set[int] = set()
        self.float_first: set[int] = getattr(self, "float_first", set())
        self.consts: dict[str, int] = {}
        self.avail: dict[str, str] = {}
        self.avail_deps: dict[str, set] = {}
        self.ntmp = 0
        self.k = 0
        self.cur_addr = 0

    def w(self, line: str) -> None:
        self.lines.append(self.ind + line)

    def push_ind(self) -> None:
        self.ind += "    "

    def pop_ind(self) -> None:
        self.ind = self.ind[:-4]

    def tmp(self) -> str:
        self.ntmp += 1
        return "t%d" % self.ntmp

    # -- integer operand plumbing (mirrors predecode closures) ------------ #

    def kill(self, canon: str) -> None:
        self.written_gprs.add(canon)
        self.consts.pop(canon, None)
        dead = [e for e, t in self.avail.items()
                if canon in self.avail_deps.get(t, ())]
        for e in dead:
            del self.avail[e]

    def rd_gpr(self, name: str, size: int = 8):
        """(expr, deps) for a register read at alias/eff width."""
        c = canonical(name)
        eff = min(subreg_size(name), size)
        if c in self.consts:
            v = self.consts[c]
            if eff < 8:
                v &= (1 << (8 * eff)) - 1
            return repr(v), set()
        if eff == 8:
            return "g_" + c, {c}
        return "(g_%s & %#x)" % (c, (1 << (8 * eff)) - 1), {c}

    def ea(self, mem: Mem) -> str:
        """Effective-address expression, value-numbered (pure-op CSE)."""
        if mem.base is None and mem.index is None:
            return repr(mem.disp & _M64)
        deps: set[str] = set()
        parts = []
        if mem.base is not None:
            e, d = self.rd_gpr(mem.base)
            parts.append(e)
            deps |= d
        if mem.index is not None:
            e, d = self.rd_gpr(mem.index)
            parts.append("%s * %d" % (e, mem.scale))
            deps |= d
        if mem.disp:
            parts.append(repr(mem.disp))
        expr = "(%s) & %#x" % (" + ".join(parts), _M64)
        if not deps:
            return repr(eval(expr))  # fully constant-folded
        t = self.avail.get(expr)
        if t is not None:
            return t
        t = self.tmp()
        self.w("%s = %s" % (t, expr))
        self.avail[expr] = t
        self.avail_deps[t] = deps
        return t

    # -- memory access, with scalar replacement -------------------------- #

    def _mem_key(self, mem: Mem, delta: int):
        """Slot key for a promotable access, or None."""
        if mem.index is not None:
            return None
        if mem.base is None:
            return (None, (mem.disp + delta) & _M64)
        return (canonical(mem.base), mem.disp + delta)

    def _slot(self, mem: Mem, size: int, delta: int, write: bool):
        key = self._mem_key(mem, delta)
        self.mem_recs.append((key, size, write))
        if key is None or size != 8:
            self.mem_unstable = True
            return None
        return self.slots.get(key)

    def mrd(self, mem: Mem, size: int, delta: int = 0) -> str:
        s = self._slot(mem, size, delta, False)
        if s is not None:
            return s[0]
        ea = self.ea(mem)
        if delta:
            ea = "%s + %d" % (ea, delta)
        return "RD(%s, %d)" % (ea, size)

    def mwr(self, mem: Mem, size: int, expr: str, delta: int = 0) -> None:
        s = self._slot(mem, size, delta, True)
        if s is not None:
            # mask like Memory.write truncating to ``size`` bytes
            self.w("%s = (%s) & %#x" % (s[0], expr, _M64))
            return
        ea = self.ea(mem)
        if delta:
            ea = "%s + %d" % (ea, delta)
        self.w("WR(%s, %d, %s)" % (ea, size, expr))

    def _decide_slots(self) -> None:
        """Promote memory words after the discovery pass.

        All-or-nothing: a single access that cannot be promoted (EA
        with an index register, a mutated base, a non-8-byte width,
        push/pop stack traffic) could alias any promoted word, so it
        disables promotion for the whole trace.  Cross-base-group
        aliasing (rbp slot vs. absolute address) is decided at entry
        by the distinctness guard in ``build``.
        """
        self.slots = {}
        self.slot_wb = []
        if self.mem_unstable:
            return
        keys: dict = {}
        for key, size, write in self.mem_recs:
            if key is None or size != 8:
                return
            keys[key] = keys.get(key, False) or write
        for base, _ in keys:
            if base is not None and base in self.written_gprs:
                return
        order = sorted(keys.items(), key=lambda kv: (kv[0][0] or "",
                                                     kv[0][1]))
        for n, (key, written) in enumerate(order):
            val, addr = "sv%d" % n, "sa%d" % n
            self.slots[key] = (val, addr)
            if written:
                self.slot_wb.append((val, addr))

    def rd_int(self, op, size: int) -> str:
        if isinstance(op, Reg):
            return self.rd_gpr(op.name, size)[0]
        if isinstance(op, Imm):
            return repr(op.value & ((1 << (8 * size)) - 1))
        if isinstance(op, Mem):
            return self.mrd(op, size)
        raise _Unsupported(repr(op))

    def wr_int(self, op, size: int, expr: str) -> None:
        if isinstance(op, Reg):
            c = canonical(op.name)
            alias = subreg_size(op.name)
            eff = min(alias, size)
            emask = (1 << (8 * eff)) - 1
            self.kill(c)
            if alias >= 4:
                self.w("g_%s = (%s) & %#x" % (c, expr, emask))
                try:
                    self.consts[c] = eval(expr) & emask
                except Exception:
                    pass
            else:
                amask = (1 << (8 * alias)) - 1
                self.w("g_%s = (g_%s & %d) | ((%s) & %#x)"
                       % (c, c, ~amask, expr, emask))
        elif isinstance(op, Mem):
            self.mwr(op, size, expr)
        else:
            raise _Unsupported(repr(op))

    # -- XMM dual-form plumbing ------------------------------------------- #

    def need_float(self, i: int) -> str:
        if i not in self.defined:
            self.float_first.add(i)
        if not self.fv[i]:
            self.w("xf%d = B2F(xb%d)" % (i, i))
            self.guard("xf%d - xf%d != 0.0" % (i, i), "nonfinite")
            self.fv[i] = True
        return "xf%d" % i

    def need_bits(self, i: int) -> str:
        if not self.bv[i]:
            self.w("xb%d = F2B(xf%d)" % (i, i))
            self.bv[i] = True
        return "xb%d" % i

    def set_float(self, i: int, expr: str) -> None:
        self.w("xf%d = %s" % (i, expr))
        self.fv[i] = True
        self.bv[i] = False
        self.defined.add(i)

    def set_bits(self, i: int, expr: str) -> None:
        self.w("xb%d = %s" % (i, expr))
        self.bv[i] = True
        self.fv[i] = False
        self.defined.add(i)

    def copy_lane(self, d: int, s: int) -> None:
        if self.bv[s]:
            self.w("xb%d = xb%d" % (d, s))
        if self.fv[s]:
            self.w("xf%d = xf%d" % (d, s))
        self.bv[d] = self.bv[s]
        self.fv[d] = self.fv[s]
        self.defined.add(d)

    def fsrc(self, op) -> str:
        """Float-domain value of an FP source operand (guarded)."""
        if isinstance(op, Xmm):
            return self.need_float(op.index)
        t = self.tmp()
        self.w("%s = B2F(%s)" % (t, self.mrd(op, 8)))
        self.guard("%s - %s != 0.0" % (t, t), "nonfinite")
        return t

    # -- exits ------------------------------------------------------------ #

    def exit_(self, rip_expr: str, include_current: bool, kind: str,
              reason: str) -> None:
        """Commit the partial iteration and leave the trace.

        Value guards exit *before* their instruction commits
        (rip = its address, counts exclude it); branch-direction
        mismatches exit *after* (counts include it, rip = the other
        target).
        """
        ni = self.k + (1 if include_current else 0)
        nf = self.nfp[ni]
        pc = self.pcp[ni]
        w = self.w
        w("regs.rip = %s" % rip_expr)
        for c in sorted(self.gprs):
            w("G[%r] = g_%s" % (c, c))
        w("regs.zf = fZ; regs.sf = fS; regs.of = fO; "
          "regs.cf = fC; regs.pf = fP")
        for i in sorted(self.xmms):
            if not self.bv[i]:
                w("xb%d = F2B(xf%d)" % (i, i))
            w("X%d[0] = xb%d; X%d[1] = xh%d" % (i, i, i, i))
        for val, addr in self.slot_wb:
            w("WR(%s, 8, %s)" % (addr, val))
        if ni:
            w("m.instr_count += %d" % ni)
        if nf:
            w("m.fp_instr_count += %d" % nf)
        if pc:
            w("cost.cycles += %r" % pc)
            w("BK['base'] += %r" % pc)
        if kind == "deopt":
            w("TJ._deopt(I, %r, %d)" % (reason, self.cur_addr))
        else:
            w("TJ._side_exit(I)")
        w("return")

    def guard(self, cond: str, reason: str) -> None:
        """Value guard: deopt pre-instruction when ``cond`` holds."""
        self.w("if %s:" % cond)
        self.push_ind()
        self.exit_(repr(self.cur_addr), False, "deopt", reason)
        self.pop_ind()

    # -- per-instruction emission ----------------------------------------- #

    def emit_ins(self, ins, after: int, is_last: bool) -> None:
        mn = ins.mnemonic
        ops = ins.operands
        m = self.m
        w = self.w

        if mn == "nop":
            return
        if mn in ("mov", "movabs"):
            size = m._op_size(ins)
            self.wr_int(ops[0], size, self.rd_int(ops[1], size))
            return
        if mn == "movzx":
            src = ops[1]
            ssize = src.size if isinstance(src, (Reg, Mem)) else 4
            self.wr_int(ops[0], ops[0].size, self.rd_int(src, ssize))
            return
        if mn == "movsx":
            src = ops[1]
            ssize = src.size if isinstance(src, (Reg, Mem)) else 4
            bits = 8 * ssize
            t = self.tmp()
            w("%s = %s" % (t, self.rd_int(src, ssize)))
            w("%s = %s - %d if %s & %d else %s"
              % (t, t, 1 << bits, t, 1 << (bits - 1), t))
            self.wr_int(ops[0], ops[0].size, "%s & %#x" % (t, _M64))
            return
        if mn == "lea":
            self.wr_int(ops[0], ops[0].size, self.ea(ops[1]))
            return
        if mn == "push":
            self.mem_unstable = True  # moving-rsp traffic defeats slots
            t = self.tmp()
            w("%s = %s" % (t, self.rd_int(ops[0], 8)))
            self.kill("rsp")
            w("g_rsp = (g_rsp - 8) & %#x" % _M64)
            w("WR(g_rsp, 8, %s)" % t)
            return
        if mn == "pop":
            self.mem_unstable = True
            t = self.tmp()
            w("%s = RD(g_rsp, 8)" % t)
            self.kill("rsp")
            w("g_rsp = (g_rsp + 8) & %#x" % _M64)
            self.wr_int(ops[0], 8, t)
            return
        if mn in ("add", "sub", "cmp"):
            self._emit_addsub(ins, mn)
            return
        if mn in ("and", "or", "xor", "test"):
            self._emit_logic(ins, mn)
            return
        if mn in ("shl", "shr", "sar"):
            self._emit_shift(ins, mn)
            return
        if mn in ("inc", "dec"):
            self._emit_incdec(ins, mn)
            return
        if mn == "imul":
            self._emit_imul(ins)
            return
        if mn == "not":
            size = m._op_size(ins)
            self.wr_int(ops[0], size, "~(%s)" % self.rd_int(ops[0], size))
            return
        if mn == "neg":
            self._emit_neg(ins)
            return
        if mn == "jmp":
            # direct jump: target is statically the recorded successor
            return
        if mn[0] == "j":
            self._emit_jcc(ins, after, is_last)
            return
        if mn.startswith("set"):
            cexpr = _COND_EXPR[mn[3:]]
            self.wr_int(ops[0], 1, "1 if (%s) else 0" % cexpr)
            return
        if mn.startswith("cmov"):
            cexpr = _COND_EXPR[mn[4:]]
            size = m._op_size(ins)
            w("if %s:" % cexpr)
            self.push_ind()
            self.wr_int(ops[0], size, self.rd_int(ops[1], size))
            self.pop_ind()
            # the write was conditional: drop every fact it may break
            self.avail.clear()
            self.avail_deps.clear()
            if isinstance(ops[0], Reg):
                self.consts.pop(canonical(ops[0].name), None)
            return
        if mn == "movsd":
            self._emit_movsd(ins)
            return
        if mn == "movq":
            self._emit_movq(ins)
            return
        if mn in ("movapd", "movupd"):
            self._emit_movapd(ins)
            return
        if mn in ("xorpd", "andpd", "orpd", "andnpd"):
            self._emit_f_bitwise(ins, mn)
            return
        if mn in ("addsd", "subsd", "mulsd", "divsd"):
            self._emit_f_arith(ins, mn)
            return
        if mn == "sqrtsd":
            fa = self.fsrc(ops[1])
            self.guard("%s < 0.0" % fa, "sqrt-negative")
            self.set_float(ops[0].index, "SQRT(%s)" % fa)
            return
        if mn in ("ucomisd", "comisd"):
            fa = self.need_float(ops[0].index)
            fb = self.fsrc(ops[1])
            w("fC = 1 if %s < %s else 0" % (fa, fb))
            w("fZ = 1 if %s == %s else 0" % (fa, fb))
            w("fP = 0")
            w("fO = 0")
            w("fS = 0")
            return
        if mn == "cvtsi2sd":
            self._emit_cvtsi2sd(ins)
            return
        if mn == "cvttsd2si":
            self._emit_cvttsd2si(ins)
            return
        raise _Unsupported(mn)

    def _emit_addsub(self, ins, mn) -> None:
        size = self.m._op_size(ins)
        bits = 8 * size
        mask = (1 << bits) - 1
        shift = bits - 1
        w = self.w
        ta, tb, tr = self.tmp(), self.tmp(), self.tmp()
        w("%s = %s" % (ta, self.rd_int(ins.operands[0], size)))
        w("%s = %s" % (tb, self.rd_int(ins.operands[1], size)))
        if mn == "add":
            w("%s = (%s + %s) & %#x" % (tr, ta, tb, mask))
            w("fC = 1 if %s < %s else 0" % (tr, ta))
            w("fS = %s >> %d" % (tr, shift))
            w("fO = 1 if (%s >> %d == %s >> %d and fS != %s >> %d) else 0"
              % (ta, shift, tb, shift, ta, shift))
        else:
            w("%s = (%s - %s) & %#x" % (tr, ta, tb, mask))
            w("fC = 1 if %s < %s else 0" % (ta, tb))
            w("fS = %s >> %d" % (tr, shift))
            w("fO = 1 if (%s >> %d != %s >> %d and fS == %s >> %d) else 0"
              % (ta, shift, tb, shift, tb, shift))
        w("fZ = 1 if %s == 0 else 0" % tr)
        w("fP = PAR[%s & 255]" % tr)
        if mn != "cmp":
            self.wr_int(ins.operands[0], size, tr)

    def _emit_logic(self, ins, mn) -> None:
        size = self.m._op_size(ins)
        shift = 8 * size - 1
        pyop = {"and": "&", "test": "&", "or": "|", "xor": "^"}[mn]
        w = self.w
        tr = self.tmp()
        w("%s = %s %s %s" % (tr, self.rd_int(ins.operands[0], size),
                             pyop, self.rd_int(ins.operands[1], size)))
        w("fC = 0")
        w("fO = 0")
        w("fZ = 1 if %s == 0 else 0" % tr)
        w("fS = %s >> %d" % (tr, shift))
        w("fP = PAR[%s & 255]" % tr)
        if mn != "test":
            self.wr_int(ins.operands[0], size, tr)

    def _emit_shift(self, ins, mn) -> None:
        dst, src = ins.operands
        size = dst.size if isinstance(dst, Reg) else self.m._op_size(ins)
        bits = 8 * size
        full = (1 << bits) - 1
        cmask = 63 if bits == 64 else 31
        shift = bits - 1
        top = 1 << shift
        w = self.w
        static = isinstance(src, Imm)
        if static:
            count = src.value & 0xFF & cmask
            if count == 0:
                return  # no flags, no write — exactly the early return
            tc = repr(count)
        else:
            tc = self.tmp()
            w("%s = (%s) & %d" % (tc, self.rd_int(src, 1), cmask))
            w("if %s:" % tc)
            self.push_ind()
        ta, tr = self.tmp(), self.tmp()
        w("%s = %s" % (ta, self.rd_int(dst, size)))
        if mn == "shl":
            w("%s = (%s << %s) & %#x" % (tr, ta, tc, full))
            w("fC = (%s >> (%d - %s)) & 1" % (ta, bits, tc))
        elif mn == "shr":
            w("%s = %s >> %s" % (tr, ta, tc))
            w("fC = (%s >> (%s - 1)) & 1" % (ta, tc))
        else:  # sar
            ts = self.tmp()
            w("%s = %s - %d if %s & %d else %s"
              % (ts, ta, 1 << bits, ta, top, ta))
            w("%s = (%s >> %s) & %#x" % (tr, ts, tc, full))
            w("fC = (%s >> (%s - 1)) & 1" % (ta, tc))
        w("fO = 0")
        w("fZ = 1 if %s == 0 else 0" % tr)
        w("fS = %s >> %d" % (tr, shift))
        w("fP = PAR[%s & 255]" % tr)
        self.wr_int(dst, size, tr)
        if not static:
            self.pop_ind()
            self.avail.clear()
            self.avail_deps.clear()
            if isinstance(dst, Reg):
                self.consts.pop(canonical(dst.name), None)

    def _emit_incdec(self, ins, mn) -> None:
        size = self.m._op_size(ins)
        bits = 8 * size
        mask = (1 << bits) - 1
        shift = bits - 1
        delta = 1 if mn == "inc" else -1
        w = self.w
        tv, tr = self.tmp(), self.tmp()
        w("%s = %s" % (tv, self.rd_int(ins.operands[0], size)))
        w("%s = (%s + %d) & %#x" % (tr, tv, delta, mask))
        w("fZ = 1 if %s == 0 else 0" % tr)
        w("fS = %s >> %d" % (tr, shift))
        w("fP = PAR[%s & 255]" % tr)
        if delta > 0:
            w("fO = 1 if (%s >> %d == 0 and fS == 1) else 0" % (tv, shift))
        else:
            w("fO = 1 if (%s >> %d == 1 and fS == 0) else 0" % (tv, shift))
        self.wr_int(ins.operands[0], size, tr)  # CF preserved

    def _emit_imul(self, ins) -> None:
        size = self.m._op_size(ins)
        bits = 8 * size
        mask = (1 << bits) - 1
        top = 1 << (bits - 1)
        wrap = 1 << bits
        shift = bits - 1
        w = self.w
        ta, tb, tf, tr, tt = (self.tmp() for _ in range(5))
        w("%s = %s" % (ta, self.rd_int(ins.operands[0], size)))
        w("%s = %s - %d if %s & %d else %s" % (ta, ta, wrap, ta, top, ta))
        w("%s = %s" % (tb, self.rd_int(ins.operands[1], size)))
        w("%s = %s - %d if %s & %d else %s" % (tb, tb, wrap, tb, top, tb))
        w("%s = %s * %s" % (tf, ta, tb))
        w("%s = %s & %#x" % (tr, tf, mask))
        w("%s = %s - %d if %s & %d else %s" % (tt, tr, wrap, tr, top, tr))
        w("fC = 0 if %s == %s else 1" % (tt, tf))
        w("fO = fC")
        w("fZ = 1 if %s == 0 else 0" % tr)
        w("fS = %s >> %d" % (tr, shift))
        w("fP = PAR[%s & 255]" % tr)
        self.wr_int(ins.operands[0], size, tr)

    def _emit_neg(self, ins) -> None:
        size = self.m._op_size(ins)
        bits = 8 * size
        mask = (1 << bits) - 1
        shift = bits - 1
        w = self.w
        tv, tr = self.tmp(), self.tmp()
        w("%s = %s" % (tv, self.rd_int(ins.operands[0], size)))
        w("%s = (-%s) & %#x" % (tr, tv, mask))
        w("fC = 0 if %s == 0 else 1" % tv)
        w("fO = 1 if %s == %d else 0" % (tv, 1 << shift))
        w("fZ = 1 if %s == 0 else 0" % tr)
        w("fS = %s >> %d" % (tr, shift))
        w("fP = PAR[%s & 255]" % tr)
        self.wr_int(ins.operands[0], size, tr)

    def _emit_jcc(self, ins, after: int, is_last: bool) -> None:
        cexpr = _COND_EXPR[ins.mnemonic[1:]]
        tgt = ins.operands[0].value
        nxt = ins.next_addr
        taken = after == tgt
        # guard on the recorded direction; the other way is a side exit
        # taken *with* the branch committed (rip = the other target)
        mis = "not (%s)" % cexpr if taken else cexpr
        other = nxt if taken else tgt
        self.w("if %s:" % mis)
        self.push_ind()
        self.exit_(repr(other), True, "side", "")
        self.pop_ind()
        # is_last && taken-to-header: fall through to the back edge

    def _emit_movsd(self, ins) -> None:
        dst, src = ins.operands
        if isinstance(dst, Xmm) and isinstance(src, Xmm):
            self.copy_lane(dst.index, src.index)  # lane 0 only
        elif isinstance(dst, Xmm):
            d = dst.index
            self.set_bits(d, self.mrd(src, 8))
            self.w("xh%d = 0" % d)
        else:
            self.mwr(dst, 8, self.need_bits(src.index))

    def _emit_movq(self, ins) -> None:
        dst, src = ins.operands
        if isinstance(dst, Xmm):
            d = dst.index
            if isinstance(src, Reg):
                self.set_bits(d, self.rd_gpr(src.name)[0])
            elif isinstance(src, Xmm):
                self.copy_lane(d, src.index)
            else:
                self.set_bits(d, self.mrd(src, 8))
            self.w("xh%d = 0" % d)
        elif isinstance(dst, Reg):
            self.wr_int(dst, 8, self.need_bits(src.index))
        else:
            self.mwr(dst, 8, self.need_bits(src.index))

    def _emit_movapd(self, ins) -> None:
        dst, src = ins.operands
        if isinstance(dst, Xmm):
            d = dst.index
            if isinstance(src, Xmm):
                self.copy_lane(d, src.index)
                self.w("xh%d = xh%d" % (d, src.index))
            else:
                self.set_bits(d, self.mrd(src, 8))
                self.w("xh%d = %s" % (d, self.mrd(src, 8, delta=8)))
        else:
            s = src.index
            self.need_bits(s)
            self.mwr(dst, 8, "xb%d" % s)
            self.mwr(dst, 8, "xh%d" % s, delta=8)

    def _emit_f_bitwise(self, ins, mn) -> None:
        dst, src = ins.operands
        d = dst.index
        w = self.w
        if mn == "xorpd" and isinstance(src, Xmm) and src.index == d:
            # zeroing idiom: both forms become valid at once
            w("xb%d = 0" % d)
            w("xh%d = 0" % d)
            w("xf%d = 0.0" % d)
            self.bv[d] = True
            self.fv[d] = True
            self.defined.add(d)
            return
        if isinstance(src, Xmm):
            blo = self.need_bits(src.index)
            bhi = "xh%d" % src.index
        else:
            blo, bhi = self.tmp(), self.tmp()
            w("%s = %s" % (blo, self.mrd(src, 8)))
            w("%s = %s" % (bhi, self.mrd(src, 8, delta=8)))
        self.need_bits(d)
        if mn == "xorpd":
            w("xb%d ^= %s" % (d, blo))
            w("xh%d ^= %s" % (d, bhi))
        elif mn == "andpd":
            w("xb%d &= %s" % (d, blo))
            w("xh%d &= %s" % (d, bhi))
        elif mn == "orpd":
            w("xb%d |= %s" % (d, blo))
            w("xh%d |= %s" % (d, bhi))
        else:  # andnpd
            w("xb%d = (~xb%d) & %s & %#x" % (d, d, blo, _M64))
            w("xh%d = (~xh%d) & %s & %#x" % (d, d, bhi, _M64))
        self.fv[d] = False
        self.bv[d] = True
        self.defined.add(d)

    def _emit_f_arith(self, ins, mn) -> None:
        d = ins.operands[0].index
        fa = self.need_float(d)
        fb = self.fsrc(ins.operands[1])
        pyop = {"addsd": "+", "subsd": "-",
                "mulsd": "*", "divsd": "/"}[mn]
        if mn == "divsd":
            # Python float division raises on /0.0; SoftFPU returns
            # inf + ZE — deopt and let the interpreter produce it
            self.guard("%s == 0.0" % fb, "zero-divisor")
        t = self.tmp()
        self.w("%s = %s %s %s" % (t, fa, pyop, fb))
        # overflow to inf (or nan) breaks the finiteness invariant:
        # deopt pre-instruction, interpreter reproduces flags/result
        self.guard("%s - %s != 0.0" % (t, t), "nonfinite")
        self.set_float(d, t)

    def _emit_cvtsi2sd(self, ins) -> None:
        dst, src = ins.operands
        size = src.size
        bits = 8 * size
        t = self.tmp()
        self.w("%s = %s" % (t, self.rd_int(src, size)))
        self.w("%s = %s - %d if %s & %d else %s"
               % (t, t, 1 << bits, t, 1 << (bits - 1), t))
        # float(int) rounds to nearest-even — exact cvt_i64_to_f64
        self.set_float(dst.index, "FLT(%s)" % t)

    def _emit_cvttsd2si(self, ins) -> None:
        dst, src = ins.operands
        fa = self.fsrc(src)
        bits = 8 * dst.size
        t = self.tmp()
        self.w("%s = TRUNC(%s)" % (t, fa))
        self.guard("%s < %d or %s > %d"
                   % (t, -(1 << (bits - 1)), t, (1 << (bits - 1)) - 1),
                   "cvt-overflow")
        self.wr_int(dst, dst.size, "%s & %#x" % (t, (1 << bits) - 1))

    # -- top-level build --------------------------------------------------- #

    def _emit_body(self, entry_fv: frozenset) -> None:
        self._reset(entry_fv)
        last = len(self.rec) - 1
        for k, (ins, _, after) in enumerate(self.rec):
            self.k = k
            self.cur_addr = ins.addr
            self.emit_ins(ins, after, k == last)
        # back edge: restore the loop-top contract — bits valid for
        # every lane, float valid for the loop-carried float set
        self.k = len(self.rec)
        self.cur_addr = self.info.header
        for i in sorted(self.xmms):
            if i in entry_fv and not self.fv[i]:
                self.w("xf%d = B2F(xb%d)" % (i, i))
                self.guard("xf%d - xf%d != 0.0" % (i, i), "nonfinite")
                self.fv[i] = True
            if not self.bv[i]:
                self.w("xb%d = F2B(xf%d)" % (i, i))
                self.bv[i] = True
        ni = len(self.rec)
        self.w("m.instr_count += %d" % ni)
        if self.nfp[ni]:
            self.w("m.fp_instr_count += %d" % self.nfp[ni])
        if self.pcp[ni]:
            self.w("cost.cycles += %r" % self.pcp[ni])
            self.w("BK['base'] += %r" % self.pcp[ni])

    def build(self) -> None:
        m = self.m
        self.float_first = set()
        self.mem_recs = []
        self.mem_unstable = False
        self.written_gprs = set()
        self.slots = {}
        self.slot_wb = []
        self._emit_body(frozenset())           # discovery pass
        self._decide_slots()
        entry_fv = frozenset(self.float_first)
        self._emit_body(entry_fv)              # final pass
        body = self.lines

        L = []
        a = L.append
        a("def trace():")
        a("    if m.fp_trap_handler is not None or m.oracle is not None "
          "or not I.valid:")
        a("        TJ._entry_fail(I)")
        a("        return")
        for c in sorted(self.gprs):
            a("    g_%s = G[%r]" % (c, c))
        a("    fZ = regs.zf; fS = regs.sf; fO = regs.of; "
          "fC = regs.cf; fP = regs.pf")
        for i in sorted(self.xmms):
            a("    xb%d = X%d[0]" % (i, i))
            a("    xh%d = X%d[1]" % (i, i))
        for i in sorted(entry_fv):
            a("    xf%d = B2F(xb%d)" % (i, i))
            a("    if xf%d - xf%d != 0.0:" % (i, i))
            a("        TJ._entry_fail(I)")
            a("        return")
        if self.slots:
            # slot addresses are loop-invariant: compute them once,
            # then hoist the memory words into locals for the whole
            # trace (written back on every exit path)
            order = sorted(self.slots.items(),
                           key=lambda kv: (kv[0][0] or "", kv[0][1]))
            for (base, disp), (_val, addr) in order:
                if base is None:
                    a("    %s = %d" % (addr, disp & _M64))
                else:
                    a("    %s = (g_%s + %d) & %#x"
                      % (addr, base, disp, _M64))
            groups = {base for base, _ in self.slots}
            if len(groups) > 1:
                # different base groups could collide at runtime
                # (a stack slot shadowing an absolute word): verify
                # pairwise-distinct addresses before trusting slots
                addrs = ", ".join(addr for _, (_v, addr) in order)
                a("    if len({%s}) != %d:" % (addrs, len(order)))
                a("        TJ._entry_fail(I)")
                a("        return")
            for _, (val, addr) in order:
                a("    %s = RD(%s, 8)" % (val, addr))
        a("    while True:")
        a("        I.hits += 1")
        a("        S.trace_hits += 1")
        L.extend(body)
        src = "\n".join(L)

        env = {"m": m, "regs": m.regs, "G": m.regs.gpr, "cost": m.cost,
               "BK": m.cost.buckets, "I": self.info, "TJ": self.tj,
               "S": self.tj.stats, "RD": m.memory.read,
               "WR": m.memory.write, "B2F": _b2f, "F2B": _f2b,
               "SQRT": math.sqrt, "TRUNC": math.trunc, "FLT": float}
        from repro.machine.cpu import _PARITY
        env["PAR"] = _PARITY
        for i in self.xmms:
            env["X%d" % i] = m.regs.xmm[i]
        exec(compile(src, "<trace-opt@%#x>" % self.info.header, "exec"), env)
        self.info.fn = env["trace"]
        self.info.mode = "opt"
        self.info.src = src


#: mnemonics the opt emitter can inline (everything else -> chain mode)
_SUPPORTED = frozenset(
    ["mov", "movabs", "movzx", "movsx", "lea", "push", "pop",
     "add", "sub", "cmp", "and", "or", "xor", "test",
     "shl", "shr", "sar", "inc", "dec", "imul", "not", "neg", "nop",
     "jmp", "movsd", "movq", "movapd", "movupd",
     "xorpd", "andpd", "orpd", "andnpd",
     "addsd", "subsd", "mulsd", "divsd", "sqrtsd",
     "ucomisd", "comisd", "cvtsi2sd", "cvttsd2si"]
    + ["j" + cc for cc in _COND_EXPR]
    + ["set" + cc for cc in ("e", "ne", "l", "le", "g", "ge", "b", "be",
                             "a", "ae", "p", "np")]
    + ["cmov" + cc for cc in ("e", "ne", "l", "g")]
)
