"""Worklist value-set analysis over a Binary (§4.2).

Flow-sensitive register + current-frame-stack states per instruction;
flow-insensitive (monotone) classification of memory into FP-written
and int-read cells.  Two phases:

1. the abstract interpreter runs to fixpoint, then one recording pass
   over the converged states records for every instruction the
   *access sets* of its memory writes and integer reads and the kind
   of each access (FP store = source, integer load = sink candidate,
   …); each table is then clamped once to the data symbols
   (:meth:`ValueSetAnalysis._clamp`);
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

Compiled transfer: on its first visit each text address is resolved,
once, into a *transfer closure* — register operands turned into
:class:`RegState` indices, displacements and immediates prebuilt as
abstract values, and its successor list looked up — the way
:mod:`repro.machine.predecode` compiles instructions for the
interpreter.  The worklist, the widening rule, the recording pass and
the global-word map are the engine's (:mod:`repro.analysis.fixpoint`),
which the interval-range and box-liveness passes share.
The closures run in two modes.  During the fixpoint they compute
states only: nothing reads the access tables before the recording pass
builds them, so a load only needs to know whether its address is
BOTTOM.  The recording pass runs the same closures with recording on.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter

from repro.isa.instructions import Instruction
from repro.isa.opcodes import OPCODES, is_fp_bitwise
from repro.isa.operands import Imm, Mem, Reg, Xmm
from repro.isa.registers import canonical
from repro.isa.sse import GPR, SSE_OPS
from repro.asm.program import Binary
from repro.analysis.cfg import CFG
from repro.analysis.fixpoint import Fixpoint
from repro.analysis.si import (SI_TOP, si_add_const, si_const,
                               si_div_const, si_mul, si_mul_const,
                               si_neg, si_range, si_shl_const)
from repro.analysis.domain import (
    BOTTOM,
    NUM,
    REG_INDEX,
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
    set_reg,
    sub_val,
)
from repro.analysis.report import AnalysisReport, ReadEvent

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

_new = tuple.__new__

_RAX = REG_INDEX["rax"]
_RDX = REG_INDEX["rdx"]
_RSP = REG_INDEX["rsp"]
_CALLER_SAVED = tuple(REG_INDEX[n] for n in CALLER_SAVED)

#: an integer result the domain cannot bound
_NUM_TOP = Num(SI_TOP)
_ZERO = Num(si_const(0))


class AbsState(tuple):
    """Register state + tracked stack-slot values of the current frame:
    the pair ``(regs, stack)``.

    ``stack`` maps a stack a-loc to its value.  The dict is never
    mutated once the state exists — :meth:`stack_set` and :meth:`join`
    copy before they write — so states can share it freely.
    """

    __slots__ = ()

    def __new__(cls, regs: RegState, stack: dict) -> "AbsState":
        return _new(cls, (regs, stack))

    def __getnewargs__(self):
        return tuple(self)

    regs = property(itemgetter(0))
    stack = property(itemgetter(1))  # aloc -> AbsVal

    def stack_get(self, key):
        # optimistic: a slot with no recorded store is "no value yet"
        # (BOTTOM); compiled code never reads uninitialized slots, and
        # treating them as TOP would let transient worklist orderings
        # poison the whole analysis (see module docstring)
        return self[1].get(key, BOTTOM)

    def stack_set(self, key, val) -> "AbsState":
        stack = dict(self[1])
        stack[key] = val
        return _new(AbsState, (self[0], stack))

    def stack_clobber(self) -> "AbsState":
        return _new(AbsState, (self[0], {}))

    def join(self, other: "AbsState", widen: bool = False) -> "AbsState":
        """Pointwise join; returns ``self`` itself when nothing moved.

        Slots missing on one side are BOTTOM there, so a slot only
        ``other`` holds is copied in as is.  Stack slots are joined,
        never widened (only the registers are).
        """
        regs, mine = self
        other_regs, theirs = other
        if other_regs is not regs and other_regs != regs:
            regs = regs.widen(other_regs) if widen else regs.join(other_regs)
        stack = mine
        if theirs is not mine:
            copied = False
            for k, b in theirs.items():
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
        if stack is mine and regs is self[0]:
            return self
        return _new(AbsState, (regs, stack))


def _stack_aloc(val) -> tuple | None:
    """Exact 8-byte stack a-loc for a singleton StackAddr, else None."""
    if type(val) is StackAddr:
        lo, hi, _, top = val[2]
        if lo == hi and not top:
            return ("s", val[1], lo - (lo % 8))
    return None


def _ea_fn(mem: Mem):
    """Compile a memory operand: a function from a :class:`RegState` to
    the operand's abstract effective address."""
    disp = si_const(mem.disp)[0]
    disp_val = Num(si_const(disp))
    base = None if mem.base is None else REG_INDEX[canonical(mem.base)]

    def plus_disp(v):  # add_val(v, disp_val): kind and region stay
        if v is BOTTOM or v is TOP or not disp:
            return v
        return _new(type(v), (v[0], v[1], si_add_const(v[2], disp)))

    if mem.index is None:
        if base is None:
            return lambda regs: disp_val
        return lambda regs: plus_disp(regs[base])
    index = REG_INDEX[canonical(mem.index)]
    scale = mem.scale

    def ea(regs):
        v = disp_val if base is None else plus_disp(regs[base])
        iv = regs[index]
        if type(iv) is Num:
            return add_val(v, _new(Num, (NUM, 0, si_mul_const(iv[2], scale))))
        if iv is BOTTOM or v is BOTTOM:
            return BOTTOM
        return TOP

    return ea


def _identity(st, work):
    return st


def _union(a: AccessSet, b: AccessSet) -> AccessSet:
    """Join of two access sets recorded for one instruction."""
    return AccessSet(a.alocs | b.alocs,
                     tuple(set(a.ranges) | set(b.ranges)), a.top or b.top)


class ValueSetAnalysis(Fixpoint):
    """The paper's static analyzer, operating on our ISA."""

    join = staticmethod(AbsState.join)
    value_join = staticmethod(join_vals)
    value_bottom = BOTTOM
    value_top = TOP

    def __init__(self, binary: Binary, k: int = 1) -> None:
        super().__init__(binary, CFG.build(binary))
        #: call-string depth: 1 = per-call-site callee copies, 0 = merged
        self.k = k
        self.contexts: set[int] = {0}
        #: Mem operand -> compiled effective-address function
        self._ea_fns: dict[Mem, object] = {}

        # accumulated memory classification (monotone)
        self.writes_fp: dict[int, AccessSet] = {}   # instr -> access set
        self.writes_int: dict[int, AccessSet] = {}
        self.write_widths: dict[int, int] = {}      # instr -> min store width
        self.reads_int: dict[int, ReadEvent] = {}
        self.movq_sinks: set[int] = set()
        self.bitwise_sites: set[int] = set()

        # data-symbol extents: the sorted symbol starts in .data
        self._data_end = data_end = binary.data_base + len(binary.data)
        self._sym_bounds = sorted(a for a in binary.symbols.values()
                                  if binary.data_base <= a < data_end)
        self._clamped: dict[tuple[int, int], list | None] = {}

    # ------------------------------------------------------------------ #
    def run(self) -> AnalysisReport:
        """Solve, record the access tables at the fixpoint, clamp them
        to their data symbols once, classify."""
        from repro.analysis.sources_sinks import classify

        entry = self.binary.entry
        self._solve(AbsState(RegState.entry(entry, RegState.top_state()),
                             {}))
        self._record_pass()
        clamp = self._clamp
        for table in (self.writes_fp, self.writes_int):
            for addr, acc in table.items():
                table[addr] = clamp(acc)
        for addr, ev in self.reads_int.items():
            self.reads_int[addr] = ReadEvent(addr, clamp(ev.access),
                                             ev.width)
        return classify(self)

    # ------------------------------------------------------------------ #
    # evaluation helpers                                                  #
    # ------------------------------------------------------------------ #

    def _eval_ea(self, mem: Mem, st: AbsState):
        fn = self._ea_fns.get(mem)
        if fn is None:
            fn = self._ea_fns[mem] = _ea_fn(mem)
        return fn(st[0])

    def _record(self, table: dict, addr: int, acc: AccessSet) -> None:
        old = table.get(addr)
        table[addr] = acc if old is None else _union(old, acc)

    _stack_aloc = staticmethod(_stack_aloc)

    def _load(self, addr: int, ea, size: int, st: AbsState):
        """Model an integer load from address value ``ea``: return the
        abstract loaded value (precise for tracked stack slots and
        never-written globals); when recording, record the sink
        candidate."""
        if ea is BOTTOM:
            return BOTTOM  # path not yet stable: nothing real to read
        if self._recording:
            acc = resolve_access(ea, size)
            ev = self.reads_int.get(addr)
            if ev is not None:
                acc = _union(ev.access, acc)
            self.reads_int[addr] = ReadEvent(addr, acc, size)
        kind = type(ea)
        if kind is StackAddr:
            lo, hi, _, top = ea[2]
            if lo == hi and not top:
                return st[1].get(("s", ea[1], lo - (lo % 8)), BOTTOM)
            return TOP
        # global reads: join the (flow-insensitive) tracked values over
        # the words of the data *symbol* the address starts in — value
        # tracking never crosses a-loc (symbol) boundaries, so a read
        # whose index over-approximates past its array cannot absorb
        # unrelated data (e.g. FP constants) into an address value
        if kind is Num:
            lo, hi, _, top = ea[2]
            if not top:
                keys = self._clamped_range_alocs(lo, hi + size - 1)
                if keys is not None:
                    return self._join_global_reads(addr, keys)
        return TOP

    def _symbol_end(self, lo: int) -> int:
        """End (exclusive) of the data symbol containing the data
        address ``lo``: the first symbol start above it, or the end of
        the data image."""
        bounds = self._sym_bounds
        i = bisect_right(bounds, lo)
        return bounds[i] if i < len(bounds) else self._data_end

    def _clamped_range_alocs(self, lo: int, hi: int):
        """Clamp [lo, hi] to the data symbol containing ``lo``; return
        its word a-locs if the clamped extent is small, else None.
        The result depends on the binary only and is memoized (callers
        must not mutate it)."""
        try:
            return self._clamped[lo, hi]
        except KeyError:
            pass
        keys = None
        if self.binary.data_base <= lo < self._data_end:
            end = min(hi, self._symbol_end(lo) - 1)
            base = lo & ~7
            if (end - base) // 8 + 1 <= 64:
                keys = [("g", a) for a in range(base, end + 1, 8)]
        self._clamped[lo, hi] = keys
        return keys

    def _clamp(self, acc: AccessSet) -> AccessSet:
        """Clamp widened global ranges to the extent of the data symbol
        they start in — the classic VSA use of the symbol table to
        derive a-loc boundaries [5].  A loop whose index widened to
        ±2^32 still only aliases the array it indexes, not every global
        after it."""
        if not acc.ranges:
            return acc
        data_base, data_end = self.binary.data_base, self._data_end
        ranges = []
        for r in acc.ranges:
            if r[0] == "gr" and data_base <= r[1] < data_end:
                r = ("gr", r[1], min(r[2], self._symbol_end(r[1]) - 1))
            ranges.append(r)
        return AccessSet(acc.alocs, tuple(ranges), acc.top)

    def _seed(self, gkey):
        addr = gkey[1]
        base = self.binary.data_base
        data = self.binary.data
        off = addr - base
        if 0 <= off and off + 8 <= len(data):
            return Num(si_const(int.from_bytes(data[off:off + 8], "little")))
        return TOP

    def _store(self, addr: int, ea, size: int, st: AbsState, val,
               fp: bool, work: list) -> AbsState:
        """Model a store of ``val`` to address value ``ea`` (an FP store
        when ``fp``); when recording, record the access."""
        if ea is BOTTOM:
            return st  # BOTTOM address: re-analyzed when values arrive
        if self._recording:
            acc = resolve_access(ea, size)
            if fp:
                self._record(self.writes_fp, addr, acc)
            else:
                self._record(self.writes_int, addr, acc)
                # minimum width over all flows: the liveness refinement
                # may treat the store as a strong kill only if every
                # execution overwrites the full 8-byte word
                prev = self.write_widths.get(addr)
                self.write_widths[addr] = (size if prev is None
                                           else min(prev, size))
        kind = type(ea)
        if kind is StackAddr:
            lo, hi, _, top = ea[2]
            if lo == hi and not top:
                stack = dict(st[1])
                stack["s", ea[1], lo - (lo % 8)] = val
                return _new(AbsState, (st[0], stack))
        elif kind is Num:
            lo, hi, _, top = ea[2]
            if not top:
                if lo == hi:
                    self._update_global(("g", lo & ~7), val, work)
                    return st
                # non-constant global write: weak-update every word of
                # the symbol it starts in, or poison the region if
                # unclampable
                keys = self._clamped_range_alocs(lo, hi + size - 1)
                if keys is not None:
                    for gkey in keys:
                        self._update_global(gkey, val, work)
                    return st
                self._poison_globals(lo, hi + size - 1, work)
                return st
        # weak update: drop only the tracked stack slots the write may
        # actually touch — global/heap writes never alias the frame
        acc = resolve_access(ea, size)
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
    # compiling the transfer function                                     #
    # ------------------------------------------------------------------ #

    def _compile(self, ins: Instruction):
        """``(closure, successors)`` for one instruction; the closure
        maps ``(state, work)`` to the out state (for a call: to the
        list of ``((ctx, addr), state)`` edges)."""
        mn = ins.mnemonic
        if mn == "call":
            return self._compile_call(ins), None
        succs = tuple(self.cfg.succ.get(ins.addr, ()))
        maker = _MAKERS.get(mn)
        if maker is None:
            if not ins.info.opclass.name.startswith("FP"):
                return _identity, succs  # nop, jcc, ret, ...
            maker = ValueSetAnalysis._compile_fp_op
        return maker(self, ins, mn, ins.operands), succs

    def _int_operand(self, op, addr: int):
        """``fn(state)`` giving an integer source operand's value (an
        integer load for a memory operand)."""
        if isinstance(op, Imm):
            val = Num(si_const(op.value))
            return lambda st: val
        if isinstance(op, Reg):
            i = REG_INDEX[canonical(op.name)]
            return lambda st: st[0][i]
        ea, size, load = _ea_fn(op), op.size, self._load
        return lambda st: load(addr, ea(st[0]), size, st)

    def _mem_reads(self, ops, addr: int):
        """``fn(state)`` running the integer loads of the memory
        operands among ``ops`` (value discarded), or None."""
        reads = [(_ea_fn(op), op.size) for op in ops if isinstance(op, Mem)]
        if not reads:
            return None
        load = self._load

        def run_reads(st):
            for ea, size in reads:
                load(addr, ea(st[0]), size, st)
        return run_reads

    def _compile_mov(self, ins, mn, ops):
        dst, src = ops
        addr = ins.addr
        extend = mn in ("movzx", "movsx")
        if extend and not isinstance(src, Imm) and src.size < 8:
            # zero/sign extension of a narrow source: the value's range
            # is known, but a memory source is still a load
            val = Num(si_range(0, (1 << (8 * src.size)) - 1, 1))
            reads = self._mem_reads((src,), addr)
            if reads is None:
                get = lambda st: val  # noqa: E731
            else:
                def get(st):
                    reads(st)
                    return val
        else:
            get = self._int_operand(src, addr)
        if isinstance(dst, Reg):
            d = REG_INDEX[canonical(dst.name)]
            if dst.size >= 4:
                return lambda st, work: _new(
                    AbsState, (set_reg(st[0], d, get(st)), st[1]))

            def narrow(st, work):
                get(st)  # a memory source is still read
                return _new(AbsState, (set_reg(st[0], d, _NUM_TOP), st[1]))
            return narrow
        ea, size, store = _ea_fn(dst), dst.size, self._store
        return lambda st, work: store(addr, ea(st[0]), size, st, get(st),
                                      False, work)

    def _compile_lea(self, ins, mn, ops):
        dst, src = ops
        d, ea = REG_INDEX[canonical(dst.name)], _ea_fn(src)
        return lambda st, work: _new(
            AbsState, (set_reg(st[0], d, ea(st[0])), st[1]))

    def _compile_add_sub(self, ins, mn, ops):
        dst, src = ops
        addr = ins.addr
        get = self._int_operand(src, addr)
        if isinstance(dst, Reg):
            d = REG_INDEX[canonical(dst.name)]
            op = add_val if mn == "add" else sub_val

            def add_sub(st, work):
                sval = get(st)
                regs = st[0]
                return _new(AbsState,
                            (set_reg(regs, d, op(regs[d], sval)), st[1]))
            return add_sub
        return self._compile_rmw(ins, dst, self._mem_reads((src,), addr))

    def _compile_rmw(self, ins, dst: Mem, reads):
        """Read-modify-write of memory: load, then store an unknown."""
        addr = ins.addr
        ea, size, load, store = _ea_fn(dst), dst.size, self._load, self._store

        def rmw(st, work):
            if reads is not None:
                reads(st)
            a = ea(st[0])
            load(addr, a, size, st)
            return store(addr, a, size, st, TOP, False, work)
        return rmw

    def _compile_alu(self, ins, mn, ops):
        addr = ins.addr
        if mn == "cqo":
            return lambda st, work: _new(
                AbsState, (set_reg(st[0], _RDX, _NUM_TOP), st[1]))
        if mn == "idiv":
            return self._compile_idiv(ins, ops)
        dst = ops[0]
        if isinstance(dst, Mem):
            return self._compile_rmw(ins, dst, None)
        reads = self._mem_reads(ops[1:], addr)
        d = REG_INDEX[canonical(dst.name)]
        src = ops[1] if len(ops) > 1 else None
        if (mn == "xor" and isinstance(src, Reg)
                and REG_INDEX[canonical(src.name)] == d):
            result = lambda regs: _ZERO  # noqa: E731
        elif mn in ("shl", "imul") and isinstance(src, Imm):
            c = src.value
            scale = si_shl_const if mn == "shl" else si_mul_const

            def result(regs):
                cur = regs[d]
                if type(cur) is Num:
                    return _new(Num, (NUM, 0, scale(cur[2], c)))
                return _NUM_TOP
        elif mn == "imul" and isinstance(src, Reg):
            s = REG_INDEX[canonical(src.name)]

            def result(regs):
                cur, sval = regs[d], regs[s]
                if type(cur) is Num and type(sval) is Num:
                    return _new(Num, (NUM, 0, si_mul(cur[2], sval[2])))
                return _NUM_TOP
        elif mn == "neg":
            def result(regs):
                cur = regs[d]
                if type(cur) is Num:
                    return _new(Num, (NUM, 0, si_neg(cur[2])))
                return _NUM_TOP
        else:
            result = lambda regs: _NUM_TOP  # noqa: E731

        def alu(st, work):
            if reads is not None:
                reads(st)
            regs = st[0]
            return _new(AbsState, (set_reg(regs, d, result(regs)), st[1]))
        return alu

    def _compile_idiv(self, ins, ops):
        if ops and isinstance(ops[0], (Mem, Reg)):
            get = self._int_operand(ops[0], ins.addr)
        else:
            get = lambda st: TOP  # noqa: E731

        def idiv(st, work):
            divisor = get(st)
            regs = list(st[0])
            rax = regs[_RAX]
            q = r = _NUM_TOP
            if type(divisor) is Num and type(rax) is Num:
                lo, hi, _, top = divisor[2]
                if lo == hi and not top and lo != 0:
                    c = abs(lo)
                    q = _new(Num, (NUM, 0, si_div_const(rax[2], lo)))
                    r = _new(Num, (NUM, 0, si_range(-(c - 1), c - 1, 1)))
            regs[_RAX] = q
            regs[_RDX] = r
            return _new(AbsState, (_new(RegState, regs), st[1]))
        return idiv

    def _compile_cmp(self, ins, mn, ops):
        reads = self._mem_reads(ops, ins.addr)
        if reads is None:
            return _identity

        def cmp(st, work):
            reads(st)
            return st
        return cmp

    def _compile_push(self, ins, mn, ops):
        (src,) = ops
        get = self._int_operand(src, ins.addr)

        def push(st, work):
            val = get(st)
            regs = st[0]
            rsp = add_val(regs[_RSP], _MINUS_8)
            stack = st[1]
            key = _stack_aloc(rsp)
            if key is not None:
                stack = dict(stack)
                stack[key] = val
            return _new(AbsState, (set_reg(regs, _RSP, rsp), stack))
        return push

    def _compile_pop(self, ins, mn, ops):
        (dst,) = ops
        d = REG_INDEX[canonical(dst.name)] if isinstance(dst, Reg) else None

        def pop(st, work):
            regs = list(st[0])
            rsp = regs[_RSP]
            key = _stack_aloc(rsp)
            val = st[1].get(key, BOTTOM) if key is not None else TOP
            regs[_RSP] = add_val(rsp, _PLUS_8)
            if d is not None:
                regs[d] = val
            return _new(AbsState, (_new(RegState, regs), st[1]))
        return pop

    def _compile_fp_mov(self, ins, mn, ops):
        dst, src = ops
        addr = ins.addr
        if mn == "movq" and isinstance(dst, Reg) and isinstance(src, Xmm):
            # direct xmm->GPR bit transfer: unconditional sink (§6.2)
            d = REG_INDEX[canonical(dst.name)]
            sinks = self.movq_sinks

            def movq(st, work):
                sinks.add(addr)
                return _new(AbsState, (set_reg(st[0], d, _NUM_TOP), st[1]))
            return movq
        if isinstance(dst, Mem) and isinstance(src, Xmm):
            ea, size, store = _ea_fn(dst), dst.size, self._store
            return lambda st, work: store(addr, ea(st[0]), size, st, TOP,
                                          True, work)
        # a load into an xmm register, or movq xmm, r64 (GPR->xmm
        # bits), changes no tracked state and needs no patch: FPVM sees
        # the value when arithmetic consumes it
        return _identity

    def _compile_bitwise(self, ins, mn, ops):
        addr, sites = ins.addr, self.bitwise_sites

        def bitwise(st, work):
            sites.add(addr)
            return st
        return bitwise

    def _compile_fp_op(self, ins, mn, ops):
        # trap-capable FP instruction: only a conversion into a GPR
        # changes the abstract state, leaving an unbounded number there
        if SSE_OPS[mn].dst != GPR:
            return _identity
        out = REG_INDEX[canonical(ops[0].name)]

        def cvt(st, work):
            return _new(AbsState, (set_reg(st[0], out, _NUM_TOP), st[1]))
        return cvt

    def _compile_call(self, ins):
        addr = ins.addr
        ret_site = ins.next_addr
        callee = self.cfg.calls.get(addr)
        extern = self.cfg.extern_calls.get(addr)
        heap = (HeapAddr(addr, si_const(0))
                if extern in ("malloc", "calloc") else None)
        has_ret = ret_site in self.binary.text_map
        # entry edge into an internal callee: argument registers flow,
        # analyzed under the call site's own k=1 context so two callers'
        # arguments never join at the callee entry
        callee_ctx = addr if self.k >= 1 else 0
        callee_rsp = (StackAddr(callee, si_const(0))
                      if callee is not None else None)
        contexts = self.contexts

        def call(st, work):
            out = []
            if has_ret:
                # fall-through state at the return site: havoc
                # caller-saved regs
                regs = list(st[0])
                for i in _CALLER_SAVED:
                    regs[i] = TOP
                if heap is not None:
                    regs[_RAX] = heap
                out.append(((self._ctx, ret_site),
                            _new(AbsState, (_new(RegState, regs), st[1]))))
            if callee is not None:
                contexts.add(callee_ctx)
                out.append(((callee_ctx, callee), _new(
                    AbsState, (set_reg(st[0], _RSP, callee_rsp), {}))))
            return out
        return call


_MINUS_8 = Num(si_const(-8))
_PLUS_8 = Num(si_const(8))

#: mnemonic -> transfer compiler; anything else is an identity unless
#: its opcode class is FP (then ``_compile_fp_op``)
_MAKERS = {
    **dict.fromkeys(("mov", "movabs", "movzx", "movsx"),
                    ValueSetAnalysis._compile_mov),
    "lea": ValueSetAnalysis._compile_lea,
    "add": ValueSetAnalysis._compile_add_sub,
    "sub": ValueSetAnalysis._compile_add_sub,
    **dict.fromkeys(("and", "or", "xor", "imul", "not", "neg", "inc",
                     "dec", "shl", "shr", "sar", "idiv", "cqo",
                     "cmove", "cmovne", "cmovl", "cmovg"),
                    ValueSetAnalysis._compile_alu),
    "cmp": ValueSetAnalysis._compile_cmp,
    "test": ValueSetAnalysis._compile_cmp,
    "push": ValueSetAnalysis._compile_push,
    "pop": ValueSetAnalysis._compile_pop,
    **dict.fromkeys(_FP_STORES | {"movq"}, ValueSetAnalysis._compile_fp_mov),
    **dict.fromkeys(filter(is_fp_bitwise, OPCODES),
                    ValueSetAnalysis._compile_bitwise),
}
