"""Worklist value-set analysis over a Binary (§4.2).

Flow-sensitive register + current-frame-stack states per instruction;
flow-insensitive (monotone) classification of memory into FP-written
and int-read cells.  Two phases:

1. the abstract interpreter runs to fixpoint, recording for every
   instruction the *access sets* of its memory reads and writes and
   the kind of each access (FP store = source, integer load = sink
   candidate, …);
2. :mod:`repro.analysis.sources_sinks` intersects the accumulated FP
   write set with each integer-load access set to decide which
   candidates are true sinks.

Conservative escapes — unknown pointers (TOP) and over-wide strided
accesses — degrade to region ranges or "anywhere", which phase 2
treats as intersecting everything, exactly the "if VSA returns a
conservative result, FPVM follows suit" policy of the paper.

Context sensitivity (analysis v2): the interpreter distinguishes
states by a k=1 call-string — the address of the call site that
entered the current function.  Without it, a callee taking a pointer
argument from two different callers joins both pointers at its entry;
if the two regions differ the join is TOP and every access through
the parameter escapes, over-patching both callers' data.  With k=1
each call site gets its own copy of the callee's flow, so the
pointer-into-caller-frame pattern stays precise.  The accumulated
access tables stay keyed by instruction address (the monotone union
over contexts is exactly the flow the patcher must cover).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.instructions import Instruction
from repro.isa.operands import Imm, Mem, Reg, Xmm
from repro.isa.registers import canonical
from repro.asm.program import Binary
from repro.analysis.cfg import CFG
from repro.analysis.si import SI, SI_TOP
from repro.analysis.domain import (
    BOTTOM,
    TOP,
    AccessSet,
    HeapAddr,
    Num,
    RegState,
    StackAddr,
    CALLER_SAVED,
    add_val,
    join_vals,
    resolve_access,
    sub_val,
)
from repro.analysis.report import AnalysisReport, ReadEvent

# Widening delay: small enough to terminate quickly, large enough that
# short monotone-decreasing chains (e.g. multigrid's n = n/2 + 1 level
# sizes) reach their exact fixpoint before widening blows their lower
# bound to -2^32 (which would make frame/array ranges unclampable).
_WIDEN_AFTER = 12

#: externals whose arguments can never carry FP payloads: no call-site
#: demotion patch needed (everything else uninterposed gets one)
NO_FP_EXTERNS = frozenset({
    "malloc", "calloc", "free", "memset", "strlen", "exit",
    "abort", "rand", "srand", "clock", "putchar", "puts",
})

#: externals FPVM interposes itself (math wrapper / output wrapper);
#: kept in sync with repro.machine.libc + repro.fpvm.runtime
INTERPOSED_EXTERNS = frozenset({
    "sin", "cos", "tan", "asin", "acos", "atan", "atan2", "exp", "log",
    "log2", "log10", "pow", "fmod", "fabs", "floor", "ceil", "sqrt",
    "fmin", "fmax", "printf", "fwrite",
})

_FP_STORES = frozenset({"movsd", "movss", "movapd", "movupd", "movhpd"})
_INT_READERS = frozenset({"mov", "movzx", "movsx", "add", "sub", "and",
                          "or", "xor", "cmp", "test", "imul", "idiv",
                          "push", "inc", "dec", "not", "neg", "shl",
                          "shr", "sar", "xchg",
                          "cmove", "cmovne", "cmovl", "cmovg"})


#: ``dict.get`` default telling an absent slot from a stored BOTTOM
_ABSENT = object()


@dataclass(frozen=True, slots=True)
class AbsState:
    """Register state + tracked stack-slot values of the current frame.

    ``stack`` maps a stack a-loc to its value.  The dict is never
    mutated once the state exists — :meth:`stack_set` and :meth:`join`
    copy before they write — so states can share it freely.
    """

    regs: RegState
    stack: dict  # aloc -> AbsVal

    def stack_get(self, key):
        # optimistic: a slot with no recorded store is "no value yet"
        # (BOTTOM); compiled code never reads uninitialized slots, and
        # treating them as TOP would let transient worklist orderings
        # poison the whole analysis (see module docstring)
        return self.stack.get(key, BOTTOM)

    def stack_set(self, key, val) -> "AbsState":
        stack = dict(self.stack)
        stack[key] = val
        return AbsState(self.regs, stack)

    def stack_clobber(self) -> "AbsState":
        return AbsState(self.regs, {})

    def with_regs(self, regs: RegState) -> "AbsState":
        return AbsState(regs, self.stack)

    def join(self, other: "AbsState", widen: bool = False) -> "AbsState":
        """Pointwise join; returns ``self`` itself when nothing moved.

        Slots missing on one side are BOTTOM there, so a slot only
        ``other`` holds is copied in as is.  Stack slots are joined,
        never widened (only the registers are).
        """
        regs = (self.regs.widen(other.regs) if widen
                else self.regs.join(other.regs))
        stack = mine = self.stack
        copied = False
        for k, b in other.stack.items():
            a = mine.get(k, _ABSENT)
            if a is b or a == b:
                continue
            if a is not _ABSENT:
                b = join_vals(a, b)
                if b == a:
                    continue
            if not copied:
                stack = dict(mine)
                copied = True
            stack[k] = b
        if regs is self.regs and not copied:
            return self
        return AbsState(regs, stack)


class ValueSetAnalysis:
    """The paper's static analyzer, operating on our ISA."""

    def __init__(self, binary: Binary, k: int = 1) -> None:
        self.binary = binary
        self.cfg = CFG.build(binary)
        #: call-string depth: 1 = per-call-site callee copies, 0 = merged
        self.k = k
        # states are keyed by (ctx, addr); ctx is the call-site address
        # that entered the current function (0 for the root function)
        self.states: dict[tuple[int, int], AbsState] = {}
        self.join_counts: dict[tuple[int, int], int] = {}
        self.contexts: set[int] = {0}
        self.iterations = 0
        self._ctx = 0

        # accumulated memory classification (monotone)
        self.writes_fp: dict[int, AccessSet] = {}   # instr -> access set
        self.writes_int: dict[int, AccessSet] = {}
        self.write_widths: dict[int, int] = {}      # instr -> min store width
        self.reads_int: dict[int, ReadEvent] = {}
        self.reads_fp: dict[int, AccessSet] = {}
        self.movq_sinks: set[int] = set()
        self.bitwise_sites: set[int] = set()

        # flow-insensitive global value map (seeded from static data)
        self.global_vals: dict[tuple, object] = {}
        self.global_readers: dict[tuple, set[tuple[int, int]]] = {}
        self._sym_bounds: list[int] | None = None
        self._poisoned: list[tuple[int, int]] = []

    # ------------------------------------------------------------------ #
    def run(self) -> AnalysisReport:
        from repro.analysis.sources_sinks import classify

        entry = self.binary.entry
        init = AbsState(RegState.entry(entry, RegState.top_state()), {})
        work: list[tuple[int, int]] = []
        self._merge_in((0, entry), init, work)
        while work:
            key = work.pop()
            ctx, addr = key
            state = self.states.get(key)
            ins = self.binary.text_map.get(addr)
            if state is None or ins is None:
                continue
            self.iterations += 1
            self._ctx = ctx
            out_states = self._transfer(ins, state, work)
            for succ_key, succ_state in out_states:
                self._merge_in(succ_key, succ_state, work)
        self._record_at_fixpoint()
        return classify(self)

    def _record_at_fixpoint(self) -> None:
        """Re-derive the access tables from the converged states only.

        During the fixpoint the tables accumulate *transient*
        enumerations — a loop index seen as [0..12] on the iteration
        before widening enumerates words past the array it indexes, and
        the monotone tables would keep them forever.  At the fixpoint
        the same access is a widened range that the symbol clamper
        confines to the right a-loc, so one recording pass over the
        final states yields strictly tighter sources and sinks.
        """
        self.writes_fp.clear()
        self.writes_int.clear()
        self.write_widths.clear()
        self.reads_int.clear()
        self.reads_fp.clear()
        sink: list = []  # transfer at fixpoint re-queues nothing real
        for (ctx, addr), st in sorted(self.states.items()):
            ins = self.binary.text_map.get(addr)
            if ins is None:
                continue
            self._ctx = ctx
            self._transfer(ins, st, sink)

    def _merge_in(self, key: tuple[int, int], state: AbsState,
                  work: list[tuple[int, int]]) -> None:
        old = self.states.get(key)
        if old is None:
            self.states[key] = state
            work.append(key)
            return
        count = self.join_counts.get(key, 0) + 1
        self.join_counts[key] = count
        new = old.join(state, widen=count > _WIDEN_AFTER)
        if new is not old and new != old:
            self.states[key] = new
            work.append(key)

    # ------------------------------------------------------------------ #
    # evaluation helpers                                                  #
    # ------------------------------------------------------------------ #

    def _eval_ea(self, mem: Mem, st: AbsState):
        v = Num(SI.const(mem.disp))
        if mem.base is not None:
            v = add_val(st.regs.get(canonical(mem.base)), v)
        if mem.index is not None:
            iv = st.regs.get(canonical(mem.index))
            if isinstance(iv, Num):
                v = add_val(v, Num(iv.si.mul_const(mem.scale)))
            elif iv is BOTTOM or v is BOTTOM:
                v = BOTTOM
            else:
                v = TOP
        return v

    def _access(self, mem: Mem, st: AbsState) -> AccessSet:
        return resolve_access(self._eval_ea(mem, st), mem.size)

    def _record(self, table: dict, addr: int, acc: AccessSet) -> None:
        if acc.is_empty():
            return  # BOTTOM address: path not yet stable, nothing real
        old = table.get(addr)
        if old is None:
            table[addr] = acc
            return
        table[addr] = AccessSet(old.alocs | acc.alocs,
                                tuple(set(old.ranges) | set(acc.ranges)),
                                old.top or acc.top)

    @staticmethod
    def _stack_aloc(val) -> tuple | None:
        """Exact 8-byte stack a-loc for a singleton StackAddr, else None."""
        if isinstance(val, StackAddr) and val.si.is_const:
            off = val.si.lo
            return ("s", val.fn, off - (off % 8))
        return None

    def _read_int_value(self, ins: Instruction, mem: Mem, st: AbsState,
                        width: int):
        """Model an integer load: record the sink candidate, return the
        abstract loaded value (precise for tracked stack slots and
        never-written globals)."""
        ea = self._eval_ea(mem, st)
        acc = resolve_access(ea, mem.size)
        if acc.is_empty():
            return BOTTOM
        ev = self.reads_int.get(ins.addr)
        if ev is None:
            self.reads_int[ins.addr] = ReadEvent(ins.addr, acc, width)
        else:
            merged = AccessSet(ev.access.alocs | acc.alocs,
                               tuple(set(ev.access.ranges) | set(acc.ranges)),
                               ev.access.top or acc.top)
            self.reads_int[ins.addr] = ReadEvent(ins.addr, merged, width)
        key = self._stack_aloc(ea)
        if key is not None:
            return st.stack_get(key)
        # global reads: join the (flow-insensitive) tracked values over
        # the words of the data *symbol* the address starts in — value
        # tracking never crosses a-loc (symbol) boundaries, so a read
        # whose index over-approximates past its array cannot absorb
        # unrelated data (e.g. FP constants) into an address value
        if isinstance(ea, Num) and not ea.si.top:
            keys = self._clamped_range_alocs(ea.si.lo,
                                             ea.si.hi + mem.size - 1)
            if keys is not None:
                return self._join_global_reads(ins, keys)
        return TOP

    def _join_global_reads(self, ins: Instruction, keys):
        val = BOTTOM
        for gkey in keys:
            self.global_readers.setdefault(gkey, set()).add(
                (self._ctx, ins.addr))
            if self._global_poisoned(gkey[1]):
                return TOP
            cur = self.global_vals.get(gkey)
            if cur is None:
                cur = self._static_global_value(gkey)
            val = join_vals(val, cur)
        return val

    def _update_global(self, gkey, val, work) -> None:
        """Monotone weak update; re-queues affected readers."""
        old = self.global_vals.get(gkey)
        seeded = old if old is not None else self._static_global_value(gkey)
        new = join_vals(seeded, val)
        if new != seeded or gkey not in self.global_vals:
            self.global_vals[gkey] = new
            for reader in self.global_readers.get(gkey, ()):
                work.append(reader)

    def _poison_globals(self, lo, hi, work) -> None:
        """A write that cannot be enumerated: value tracking for the
        covered region (or everything) degrades to TOP."""
        rng = (lo, hi) if lo is not None else (-(1 << 62), 1 << 62)
        for existing in self._poisoned:
            if existing[0] <= rng[0] and rng[1] <= existing[1]:
                return
        self._poisoned.append(rng)
        for readers in self.global_readers.values():
            work.extend(readers)

    def _global_poisoned(self, addr: int) -> bool:
        return any(lo <= addr <= hi for lo, hi in self._poisoned)

    def _clamped_range_alocs(self, lo: int, hi: int):
        """Clamp [lo, hi] to the data symbol containing ``lo``; return
        its word a-locs if the clamped extent is small, else None."""
        binary = self.binary
        data_end = binary.data_base + len(binary.data)
        if not (binary.data_base <= lo < data_end):
            return None
        if self._sym_bounds is None:
            self._sym_bounds = sorted(
                a for a in binary.symbols.values()
                if binary.data_base <= a < data_end
            )
        nxt = data_end
        for bound in self._sym_bounds:
            if bound > lo:
                nxt = bound
                break
        hi = min(hi, nxt - 1)
        base = lo & ~7
        if (hi - base) // 8 + 1 > 64:
            return None
        return [("g", a) for a in range(base, hi + 1, 8)]

    def _static_global_value(self, gkey):
        addr = gkey[1]
        base = self.binary.data_base
        data = self.binary.data
        off = addr - base
        if 0 <= off and off + 8 <= len(data):
            return Num(SI.const(int.from_bytes(data[off:off + 8], "little")))
        return TOP

    def _write_value(self, ins, mem: Mem, st: AbsState, val,
                     kind: str, work: list) -> AbsState:
        ea = self._eval_ea(mem, st)
        acc = resolve_access(ea, mem.size)
        if acc.is_empty():
            return st  # BOTTOM address: re-analyzed when values arrive
        self._record(self.writes_fp if kind == "fp" else self.writes_int,
                     ins.addr, acc)
        if kind == "int":
            # minimum width over all flows: the liveness refinement may
            # treat the store as a strong kill only if every execution
            # overwrites the full 8-byte word
            prev = self.write_widths.get(ins.addr)
            self.write_widths[ins.addr] = (mem.size if prev is None
                                           else min(prev, mem.size))
        key = self._stack_aloc(ea)
        if key is not None:
            return st.stack_set(key, val)
        if isinstance(ea, Num) and ea.si.is_const:
            self._update_global(("g", ea.si.lo & ~7), val, work)
            return st
        if isinstance(ea, Num) and not ea.si.top:
            # non-constant global write: weak-update every word of the
            # symbol it starts in, or poison the region if unclampable
            keys = self._clamped_range_alocs(ea.si.lo,
                                             ea.si.hi + mem.size - 1)
            if keys is not None:
                for gkey in keys:
                    self._update_global(gkey, val, work)
                return st
            self._poison_globals(ea.si.lo, ea.si.hi + mem.size - 1, work)
            return st
        # weak update: drop only the tracked stack slots the write may
        # actually touch — global/heap writes never alias the frame
        if acc.top:
            # unknown pointer: both the frame and all globals are suspect
            self._poison_globals(None, None, work)
            return st.stack_clobber()
        if any(r[0] == "sr" for r in acc.ranges):
            return st.stack_clobber()  # unknown offset within a frame
        out = st
        for aloc in acc.alocs:
            if aloc[0] == "s":
                out = out.stack_set(aloc, TOP)
        return out

    # ------------------------------------------------------------------ #
    # the transfer function                                               #
    # ------------------------------------------------------------------ #

    def _transfer(self, ins: Instruction, st: AbsState,
                  work: list) -> list[tuple[tuple[int, int], AbsState]]:
        mn = ins.mnemonic
        if mn in ("fpvm_trap", "fpvm_patch") and ins.payload:
            ins = ins.payload["original"]
            mn = ins.mnemonic
        ops = ins.operands
        succs = self.cfg.succ.get(ins.addr, [])
        out = st

        if mn in ("mov", "movabs", "movzx", "movsx"):
            dst, src = ops
            if isinstance(src, Imm):
                val = Num(SI.const(src.value))
            elif isinstance(src, Reg):
                val = st.regs.get(canonical(src.name))
                if mn in ("movzx", "movsx") and src.size < 8:
                    val = Num(SI.range(0, (1 << (8 * src.size)) - 1, 1))
            else:
                width = src.size
                val = self._read_int_value(ins, src, st, width)
                if mn in ("movzx", "movsx") and width < 8:
                    val = Num(SI.range(0, (1 << (8 * width)) - 1, 1))
            if isinstance(dst, Reg):
                if dst.size >= 4:
                    out = st.with_regs(st.regs.set(canonical(dst.name), val))
                else:
                    out = st.with_regs(
                        st.regs.set(canonical(dst.name), Num(SI_TOP)))
            else:
                out = self._write_value(ins, dst, st, val, "int", work)

        elif mn == "lea":
            dst, src = ops
            out = st.with_regs(
                st.regs.set(canonical(dst.name), self._eval_ea(src, st)))

        elif mn in ("add", "sub"):
            dst, src = ops
            if isinstance(src, Mem):
                sval = self._read_int_value(ins, src, st, src.size)
            elif isinstance(src, Imm):
                sval = Num(SI.const(src.value))
            else:
                sval = st.regs.get(canonical(src.name))
            if isinstance(dst, Reg):
                cur = st.regs.get(canonical(dst.name))
                val = add_val(cur, sval) if mn == "add" else sub_val(cur, sval)
                out = st.with_regs(st.regs.set(canonical(dst.name), val))
            else:
                self._read_int_value(ins, dst, st, dst.size)  # RMW read
                out = self._write_value(ins, dst, st, TOP, "int", work)

        elif mn in ("and", "or", "xor", "imul", "not", "neg", "inc", "dec",
                    "shl", "shr", "sar", "idiv", "cqo",
                    "cmove", "cmovne", "cmovl", "cmovg"):
            out = self._transfer_alu(ins, mn, ops, st, work)

        elif mn in ("cmp", "test"):
            for op in ops:
                if isinstance(op, Mem):
                    self._read_int_value(ins, op, st, op.size)

        elif mn == "push":
            (src,) = ops
            if isinstance(src, Mem):
                val = self._read_int_value(ins, src, st, src.size)
            elif isinstance(src, Imm):
                val = Num(SI.const(src.value))
            else:
                val = st.regs.get(canonical(src.name))
            rsp = add_val(st.regs.get("rsp"), Num(SI.const(-8)))
            out = st.with_regs(st.regs.set("rsp", rsp))
            key = self._stack_aloc(rsp)
            if key is not None:
                out = out.stack_set(key, val)

        elif mn == "pop":
            (dst,) = ops
            rsp_val = st.regs.get("rsp")
            key = self._stack_aloc(rsp_val)
            val = st.stack_get(key) if key is not None else TOP
            rsp = add_val(rsp_val, Num(SI.const(8)))
            regs = st.regs.set("rsp", rsp)
            if isinstance(dst, Reg):
                regs = regs.set(canonical(dst.name), val)
            out = st.with_regs(regs)

        elif mn == "call":
            return self._transfer_call(ins, st, work)

        elif mn in _FP_STORES or mn == "movq":
            out = self._transfer_fp_mov(ins, mn, ops, st, work)

        elif mn in ("xorpd", "andpd", "orpd", "andnpd"):
            self.bitwise_sites.add(ins.addr)
            if isinstance(ops[1], Mem):
                acc = self._access(ops[1], st)
                self._record(self.reads_fp, ins.addr, acc)

        elif ins.info.opclass.name.startswith("FP"):
            # trap-capable FP instruction: memory operands are FP reads
            for op in ops:
                if isinstance(op, Mem):
                    self._record(self.reads_fp, ins.addr,
                                 self._access(op, st))
                elif isinstance(op, Reg) and mn.startswith("cvt"):
                    if op is ops[0]:
                        out = st.with_regs(
                            st.regs.set(canonical(op.name), Num(SI_TOP)))

        # default: no state change (nop, jcc, ucomisd reg forms, ...)
        return [((self._ctx, s), out) for s in succs]

    def _transfer_alu(self, ins, mn, ops, st: AbsState,
                      work) -> AbsState:
        if mn == "cqo":
            return st.with_regs(st.regs.set("rdx", Num(SI_TOP)))
        if mn == "idiv":
            if ops and isinstance(ops[0], Mem):
                divisor = self._read_int_value(ins, ops[0], st, ops[0].size)
            elif ops and isinstance(ops[0], Reg):
                divisor = st.regs.get(canonical(ops[0].name))
            else:
                divisor = TOP
            rax = st.regs.get("rax")
            if (isinstance(divisor, Num) and divisor.si.is_const
                    and divisor.si.lo != 0 and isinstance(rax, Num)):
                c = abs(divisor.si.lo)
                q = Num(rax.si.div_const(divisor.si.lo))
                r = Num(SI.range(-(c - 1), c - 1, 1))
                return st.with_regs(st.regs.set("rax", q).set("rdx", r))
            regs = st.regs.set("rax", Num(SI_TOP)).set("rdx", Num(SI_TOP))
            return st.with_regs(regs)
        dst = ops[0]
        if isinstance(dst, Mem):
            self._read_int_value(ins, dst, st, dst.size)
            return self._write_value(ins, dst, st, TOP, "int", work)
        for op in ops[1:]:
            if isinstance(op, Mem):
                self._read_int_value(ins, op, st, op.size)
        name = canonical(dst.name)
        cur = st.regs.get(name)
        src = ops[1] if len(ops) > 1 else None
        if mn == "xor" and isinstance(src, Reg) and \
                canonical(src.name) == name:
            return st.with_regs(st.regs.set(name, Num(SI.const(0))))
        if mn == "shl" and isinstance(src, Imm) and isinstance(cur, Num):
            return st.with_regs(
                st.regs.set(name, Num(cur.si.shl_const(src.value))))
        if mn == "imul" and isinstance(src, Imm) and isinstance(cur, Num):
            return st.with_regs(
                st.regs.set(name, Num(cur.si.mul_const(src.value))))
        if mn == "imul" and isinstance(src, Reg) and isinstance(cur, Num):
            sval = st.regs.get(canonical(src.name))
            if isinstance(sval, Num):
                return st.with_regs(
                    st.regs.set(name, Num(cur.si.mul(sval.si))))
        if mn == "neg" and isinstance(cur, Num):
            return st.with_regs(st.regs.set(name, Num(cur.si.neg())))
        return st.with_regs(st.regs.set(name, Num(SI_TOP)))

    def _transfer_fp_mov(self, ins, mn, ops, st: AbsState,
                         work) -> AbsState:
        dst, src = ops
        if mn == "movq" and isinstance(dst, Reg) and isinstance(src, Xmm):
            # direct xmm->GPR bit transfer: unconditional sink (§6.2)
            self.movq_sinks.add(ins.addr)
            return st.with_regs(
                st.regs.set(canonical(dst.name), Num(SI_TOP)))
        if isinstance(dst, Mem) and (isinstance(src, Xmm)):
            return self._write_value(ins, dst, st, TOP, "fp", work)
        if isinstance(src, Mem):
            self._record(self.reads_fp, ins.addr, self._access(src, st))
        # movq xmm, r64 (GPR->xmm bits) needs no patch: FPVM sees the
        # value when arithmetic consumes it
        return st

    def _transfer_call(self, ins, st: AbsState,
                       work) -> list[tuple[tuple[int, int], AbsState]]:
        out: list[tuple[tuple[int, int], AbsState]] = []
        ret_site = ins.next_addr
        callee = self.cfg.calls.get(ins.addr)
        extern = self.cfg.extern_calls.get(ins.addr)

        # fall-through state at the return site: havoc caller-saved regs
        regs = st.regs.havoc(CALLER_SAVED)
        if extern in ("malloc", "calloc"):
            regs = regs.set("rax", HeapAddr(ins.addr, SI.const(0)))
        ret_state = AbsState(regs, st.stack)
        if ret_site in self.binary.text_map:
            out.append(((self._ctx, ret_site), ret_state))

        # entry edge into an internal callee: argument registers flow,
        # analyzed under the call site's own k=1 context so two callers'
        # arguments never join at the callee entry
        if callee is not None:
            callee_ctx = ins.addr if self.k >= 1 else 0
            self.contexts.add(callee_ctx)
            entry_regs = st.regs.set("rsp", StackAddr(callee, SI.const(0)))
            out.append(((callee_ctx, callee), AbsState(entry_regs, {})))
        return out
