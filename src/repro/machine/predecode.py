"""Predecode: compile Instructions into specialized closures (threaded code).

The legacy interpreter re-derives everything per dynamic instruction:
``Machine.execute`` looks the handler up by mnemonic string, walks the
operand tuple with isinstance chains, and recomputes the memory-access
cost on every step.  This module amortizes all of that to load time —
the same lesson the paper draws for its decode cache (§4.1, "the
decode cache is critical to lowering latencies"), applied to the host
interpreter itself.

``compile_program`` maps every text-section instruction to a
zero-argument closure: operand accessors are resolved once (register
index vs. immediate vs. partially evaluated effective address), the
per-instruction cost (base + memory accesses) is folded into one
constant, and the semantic body is bound directly.  ``Machine.run``
then becomes a tight ``rip -> closure`` fetch loop with no string
dispatch or isinstance checks on the hot path.

Every closure must be observationally identical to the legacy
``Machine.execute`` path: same architectural effects, same
``instr_count``/``fp_instr_count`` increments, same cost-model charges
in the same order (floats accumulate identically), same trap-delivery
behavior.  ``tests/property/test_prop_predecode.py`` enforces this
differentially.

Binary patching (trap-and-patch §3.2, the static patcher §4.2) swaps
instructions at runtime; ``Binary.replace_instruction`` notifies the
machine, which recompiles the single affected address.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.isa.operands import Imm, Mem, Reg, Xmm
from repro.isa.registers import canonical, subreg_size
from repro.trace.events import ExternCallEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.isa.instructions import Instruction
    from repro.machine.cpu import Machine

_MASK64 = 0xFFFF_FFFF_FFFF_FFFF
_M32 = 0xFFFF_FFFF

Step = Callable[[], None]


# --------------------------------------------------------------------------- #
# operand accessor compilation                                                 #
# --------------------------------------------------------------------------- #

def _gpr_view(m: "Machine", name: str) -> Callable[[], int]:
    """Read closure with the register alias' own width semantics."""
    gpr = m.regs.gpr
    canon = canonical(name)
    size = subreg_size(name)
    if size == 8:
        return lambda: gpr[canon]
    mask = (1 << (8 * size)) - 1
    return lambda: gpr[canon] & mask


def _ea_closure(m: "Machine", mem: Mem) -> Callable[[], int]:
    """Partially evaluated effective-address computation."""
    disp = mem.disp
    if mem.base is None and mem.index is None:
        addr = disp & _MASK64
        return lambda: addr
    if mem.index is None:
        if subreg_size(mem.base) == 8:
            gpr = m.regs.gpr
            bc = canonical(mem.base)
            return lambda: (gpr[bc] + disp) & _MASK64
        base = _gpr_view(m, mem.base)
        return lambda: (base() + disp) & _MASK64
    scale = mem.scale
    if mem.base is None:
        index = _gpr_view(m, mem.index)
        return lambda: (index() * scale + disp) & _MASK64
    base = _gpr_view(m, mem.base)
    index = _gpr_view(m, mem.index)
    return lambda: (base() + index() * scale + disp) & _MASK64


def _int_reader(m: "Machine", op, size: int) -> Callable[[], int]:
    """Closure equivalent of ``Machine.read_int(op, size)``."""
    if isinstance(op, Reg):
        gpr = m.regs.gpr
        canon = canonical(op.name)
        eff = min(subreg_size(op.name), size)
        if eff == 8:
            return lambda: gpr[canon]
        mask = (1 << (8 * eff)) - 1
        return lambda: gpr[canon] & mask
    if isinstance(op, Imm):
        v = op.value & ((1 << (8 * size)) - 1)
        return lambda: v
    if isinstance(op, Mem):
        ea = _ea_closure(m, op)
        read = m.memory.read
        return lambda: read(ea(), size)
    raise TypeError(f"bad integer operand {op!r}")


def _int_writer(m: "Machine", op, size: int) -> Callable[[int], None]:
    """Closure equivalent of ``Machine.write_int(op, value, size)``."""
    if isinstance(op, Reg):
        gpr = m.regs.gpr
        canon = canonical(op.name)
        alias = subreg_size(op.name)
        eff = min(alias, size)
        emask = (1 << (8 * eff)) - 1
        if alias >= 4:
            # 8-byte stores mask to 64 bits; 4-byte stores zero-extend —
            # both collapse to a plain masked store of the low bits
            def wr(v, gpr=gpr, canon=canon, emask=emask):
                gpr[canon] = v & emask
            return wr
        amask = (1 << (8 * alias)) - 1

        def wr_merge(v, gpr=gpr, canon=canon, emask=emask, amask=amask):
            gpr[canon] = (gpr[canon] & ~amask) | (v & emask)
        return wr_merge
    if isinstance(op, Mem):
        ea = _ea_closure(m, op)
        write = m.memory.write

        def wr_mem(v, ea=ea, write=write, size=size):
            write(ea(), size, v)
        return wr_mem
    raise TypeError(f"bad integer destination {op!r}")


def _f64_reader(m: "Machine", op) -> Callable[[], int]:
    if isinstance(op, Xmm):
        lanes = m.regs.xmm[op.index]
        return lambda: lanes[0]
    if isinstance(op, Mem):
        ea = _ea_closure(m, op)
        read = m.memory.read
        return lambda: read(ea(), 8)
    raise TypeError(f"bad FP operand {op!r}")


def _f32_reader(m: "Machine", op) -> Callable[[], int]:
    if isinstance(op, Xmm):
        lanes = m.regs.xmm[op.index]
        return lambda: lanes[0] & _M32
    if isinstance(op, Mem):
        ea = _ea_closure(m, op)
        read = m.memory.read
        return lambda: read(ea(), 4)
    raise TypeError(f"bad FP operand {op!r}")


def _xmm128_reader(m: "Machine", op) -> Callable[[], tuple[int, int]]:
    if isinstance(op, Xmm):
        lanes = m.regs.xmm[op.index]
        return lambda: (lanes[0], lanes[1])
    if isinstance(op, Mem):
        ea = _ea_closure(m, op)
        read = m.memory.read

        def rd():
            a = ea()
            return read(a, 8), read(a + 8, 8)
        return rd
    raise TypeError(f"bad 128-bit operand {op!r}")


# --------------------------------------------------------------------------- #
# compilation entry points                                                     #
# --------------------------------------------------------------------------- #

def _base_cost(m: "Machine", ins: "Instruction") -> float:
    """Fold the per-step cost computation into one constant.

    Must accumulate in the same order as the legacy ``execute`` so the
    float result is bit-identical.
    """
    cost = m._cost_table[ins.mnemonic]
    mem_cycles = m.cost.platform.mem_access_cycles
    for op in ins.operands:
        if isinstance(op, Mem):
            cost = cost + mem_cycles
    return cost


def compile_program(m: "Machine") -> dict[int, Step]:
    """Compile every text-section instruction to its closure."""
    return {ins.addr: compile_instruction(m, ins) for ins in m.binary.text}


# mnemonics whose compiled closure is guaranteed to fall through to
# next_addr — never branches, halts, traps, or early-returns — so a
# straight-line run of them can be fused into one superblock closure.
# FP-arith/cmp/cvt are excluded (fault delivery may abort the step),
# as is anything handled by the generic maker.
_BLOCK_SAFE = frozenset(
    ["mov", "movabs", "movzx", "movsx", "lea", "xchg", "push", "pop",
     "add", "sub", "and", "or", "xor", "cmp", "test",
     "shl", "shr", "sar", "inc", "dec", "imul", "nop",
     "movsd", "movq", "movapd", "movupd",
     "xorpd", "andpd", "orpd", "andnpd"]
    + ["set" + cc for cc in ("e", "ne", "l", "le", "g", "ge", "b", "be",
                             "a", "ae", "p", "np")]
    + ["cmov" + cc for cc in ("e", "ne", "l", "g")]
)


def _block_at(m: "Machine", steps: dict[int, Step], addr: int) -> Step:
    """Fuse the straight-line run starting at ``addr`` into one closure.

    The chain covers every fall-through-only instruction from ``addr``
    up to and including the first "breaker" (branch, call/ret, FP op,
    generic fallback) — the breaker handles its own RIP/trap/halt, and
    control returns to the fetch loop right after it.
    """
    text_map = m.binary.text_map
    chain = []
    a = addr
    while True:
        ins = text_map.get(a)
        chain.append(steps[a])
        if ins.mnemonic not in _BLOCK_SAFE:
            break
        a = ins.next_addr
        if a not in steps:
            break
    if len(chain) == 1:
        return chain[0]
    # Hoist the accounting for the fall-through prefix into locals and
    # apply it up front: ``((cycles + C1) + C2) + ...`` is the same
    # left-associated float chain the per-step path computes (storing
    # the intermediate back to the attribute does not change rounding),
    # and no block-safe body observes the counters, so the batched
    # result is bit-identical at every point the fetch loop, a breaker,
    # or a trap handler can see.
    prefix = chain[:-1]
    bodies = tuple(s._body for s in prefix)
    costs = tuple(s._C for s in prefix)
    k = len(prefix)
    last = chain[-1]
    cost = m.cost
    buckets = cost.buckets

    def block():
        m.instr_count += k
        c = cost.cycles
        b = buckets["base"]
        for C in costs:
            c += C
            b += C
        cost.cycles = c
        buckets["base"] = b
        for body in bodies:
            body()
        last()
    return block


def compile_blocks(m: "Machine", steps: dict[int, Step]) -> dict[int, Step]:
    """Superblock table: every address gets its run-to-breaker closure."""
    return {addr: _block_at(m, steps, addr) for addr in steps}


def rebuild_blocks_around(m: "Machine", addr: int) -> None:
    """Recompile every superblock whose chain contains ``addr``.

    Called after ``Binary.replace_instruction``: blocks containing the
    patched address start at it or at any fall-through predecessor, so
    walk the contiguous block-safe run backwards and rebuild forward
    from each address in it.
    """
    text = m.binary.text
    i = m.binary.text_index(addr)
    start = i
    while start > 0:
        prev = text[start - 1]
        if (prev.next_addr != text[start].addr
                or prev.mnemonic not in _BLOCK_SAFE):
            break
        start -= 1
    for j in range(start, i + 1):
        a = text[j].addr
        m._blocks[a] = _block_at(m, m._code, a)


def compile_instruction(m: "Machine", ins: "Instruction") -> Step:
    """Compile one instruction: semantic body + accounting wrapper.

    Makers return a zero-arg *body* — architectural semantics plus the
    RIP update, no accounting.  The wrapper added here charges the
    per-step cost exactly as the legacy ``execute`` does.  The body and
    its folded cost stay reachable (``step._body`` / ``step._C``) so
    ``_block_at`` can hoist the accounting for a whole fall-through run
    and call the bodies directly.
    """
    maker = _MAKERS.get(ins.mnemonic)
    body = _make_generic(m, ins) if maker is None else maker(m, ins)
    if m.oracle is not None:
        probe = m.oracle.compile_probe(m, ins)
        if probe is not None:
            inner = body

            def body():
                probe()
                inner()
    C = _base_cost(m, ins)
    cost = m.cost
    buckets = cost.buckets

    def step():
        m.instr_count += 1
        cost.cycles += C
        buckets["base"] += C
        body()
    step._body = body
    step._C = C
    return step


def _make_generic(m: "Machine", ins: "Instruction") -> Step:
    """Pre-bound fallback: legacy handler, but no dispatch/cost rework."""
    handler = m._dispatch[ins.mnemonic]
    regs = m.regs
    nxt = ins.next_addr

    def body():
        if not handler(ins):
            regs.rip = nxt
    return body


def _fallthrough(m: "Machine", ins: "Instruction",
                 sem: Callable[[], None]) -> Step:
    """Wrap a semantic body that always falls through to next_addr."""
    regs = m.regs
    nxt = ins.next_addr

    def body():
        sem()
        regs.rip = nxt
    return body


# --------------------------------------------------------------------------- #
# integer data movement                                                        #
# --------------------------------------------------------------------------- #

def _make_mov(m, ins):
    size = m._op_size(ins)
    dst, src = ins.operands
    w = _int_writer(m, dst, size)
    r = _int_reader(m, src, size)
    regs = m.regs
    nxt = ins.next_addr

    # the hottest shapes get fully inlined bodies: 64-bit register
    # destinations collapse to direct dict traffic, memory operands to
    # a pre-resolved effective-address + bound memory method
    if isinstance(dst, Reg) and subreg_size(dst.name) == 8 and size == 8:
        gpr = m.regs.gpr
        dc = canonical(dst.name)
        if isinstance(src, Imm):
            v = src.value & _MASK64

            def body():
                gpr[dc] = v
                regs.rip = nxt
            return body
        if isinstance(src, Reg) and subreg_size(src.name) == 8:
            sc = canonical(src.name)

            def body():
                gpr[dc] = gpr[sc]
                regs.rip = nxt
            return body
        if isinstance(src, Mem):
            read = m.memory.read
            if src.index is None and src.base is not None \
                    and subreg_size(src.base) == 8:
                # [base+disp]: fold the EA computation into the step
                bc = canonical(src.base)
                disp = src.disp

                def body():
                    gpr[dc] = read((gpr[bc] + disp) & _MASK64, 8)
                    regs.rip = nxt
                return body
            ea = _ea_closure(m, src)

            def body():
                gpr[dc] = read(ea(), 8)
                regs.rip = nxt
            return body
    if isinstance(dst, Mem) and size == 8:
        write = m.memory.write
        simple = (dst.index is None and dst.base is not None
                  and subreg_size(dst.base) == 8)
        if simple:
            bc = canonical(dst.base)
            disp = dst.disp
        ea = None if simple else _ea_closure(m, dst)
        if isinstance(src, Imm):
            v = src.value & _MASK64
            if simple:
                gpr = m.regs.gpr

                def body():
                    write((gpr[bc] + disp) & _MASK64, 8, v)
                    regs.rip = nxt
                return body

            def body():
                write(ea(), 8, v)
                regs.rip = nxt
            return body
        if isinstance(src, Reg) and subreg_size(src.name) == 8:
            gpr = m.regs.gpr
            sc = canonical(src.name)
            if simple:
                def body():
                    write((gpr[bc] + disp) & _MASK64, 8, gpr[sc])
                    regs.rip = nxt
                return body

            def body():
                write(ea(), 8, gpr[sc])
                regs.rip = nxt
            return body

    def body():
        w(r())
        regs.rip = nxt
    return body


def _make_movzx(m, ins):
    dst, src = ins.operands
    ssize = src.size if isinstance(src, (Reg, Mem)) else 4
    r = _int_reader(m, src, ssize)
    w = _int_writer(m, dst, dst.size)
    regs = m.regs
    nxt = ins.next_addr

    def body():
        w(r())
        regs.rip = nxt
    return body


def _make_movsx(m, ins):
    dst, src = ins.operands
    ssize = src.size if isinstance(src, (Reg, Mem)) else 4
    r = _int_reader(m, src, ssize)
    w = _int_writer(m, dst, dst.size)
    bits = 8 * ssize
    top = 1 << (bits - 1)
    wrap = 1 << bits

    def body():
        v = r()
        if v & top:
            v -= wrap
        w(v & _MASK64)
    return _fallthrough(m, ins, body)


def _make_lea(m, ins):
    dst, src = ins.operands
    ea = _ea_closure(m, src)
    w = _int_writer(m, dst, dst.size)
    return _fallthrough(m, ins, lambda: w(ea()))


def _make_xchg(m, ins):
    a, b = ins.operands
    size = m._op_size(ins)
    ra, wa = _int_reader(m, a, size), _int_writer(m, a, size)
    rb, wb = _int_reader(m, b, size), _int_writer(m, b, size)

    def body():
        va, vb = ra(), rb()
        wa(vb)
        wb(va)
    return _fallthrough(m, ins, body)


def _make_push(m, ins):
    r = _int_reader(m, ins.operands[0], 8)
    gpr = m.regs.gpr
    write = m.memory.write

    def body():
        v = r()  # before the rsp update, so `push rsp` pushes the old value
        rsp = (gpr["rsp"] - 8) & _MASK64
        gpr["rsp"] = rsp
        write(rsp, 8, v)
    return _fallthrough(m, ins, body)


def _make_pop(m, ins):
    w = _int_writer(m, ins.operands[0], 8)
    gpr = m.regs.gpr
    read = m.memory.read

    def body():
        rsp = gpr["rsp"]
        v = read(rsp, 8)
        gpr["rsp"] = (rsp + 8) & _MASK64
        w(v)
    return _fallthrough(m, ins, body)


# --------------------------------------------------------------------------- #
# integer ALU                                                                  #
# --------------------------------------------------------------------------- #

def _alu_parts(m, ins):
    dst, src = ins.operands
    size = m._op_size(ins)
    bits = 8 * size
    mask = (1 << bits) - 1
    rd = _int_reader(m, dst, size)
    rs = _int_reader(m, src, size)
    wd = (_int_writer(m, dst, size)
          if ins.mnemonic not in ("cmp", "test") else None)
    return rd, rs, wd, bits, mask


def _make_addsub(m, ins):
    from repro.machine.cpu import _PARITY
    rd, rs, wd, bits, mask = _alu_parts(m, ins)
    regs = m.regs
    nxt = ins.next_addr
    shift = bits - 1
    if ins.mnemonic == "add":
        def body():
            a = rd()
            b = rs()
            r = (a + b) & mask
            regs.cf = 1 if r < a else 0
            sa, sr = a >> shift, r >> shift
            regs.of = 1 if (sa == b >> shift and sr != sa) else 0
            regs.zf = 1 if r == 0 else 0
            regs.sf = sr
            regs.pf = _PARITY[r & 0xFF]
            wd(r)
            regs.rip = nxt
    else:
        def body():
            a = rd()
            b = rs()
            r = (a - b) & mask
            regs.cf = 1 if a < b else 0
            sb, sr = b >> shift, r >> shift
            regs.of = 1 if (a >> shift != sb and sr == sb) else 0
            regs.zf = 1 if r == 0 else 0
            regs.sf = sr
            regs.pf = _PARITY[r & 0xFF]
            wd(r)
            regs.rip = nxt
    return body


def _make_cmp(m, ins):
    from repro.machine.cpu import _PARITY
    rd, rs, _, bits, mask = _alu_parts(m, ins)
    regs = m.regs
    nxt = ins.next_addr
    shift = bits - 1

    def body():
        a = rd()
        b = rs()
        r = (a - b) & mask
        regs.cf = 1 if a < b else 0
        sb, sr = b >> shift, r >> shift
        regs.of = 1 if (a >> shift != sb and sr == sb) else 0
        regs.zf = 1 if r == 0 else 0
        regs.sf = sr
        regs.pf = _PARITY[r & 0xFF]
        regs.rip = nxt
    return body


def _make_logic(m, ins):
    from repro.machine.cpu import _PARITY
    rd, rs, wd, bits, mask = _alu_parts(m, ins)
    regs = m.regs
    nxt = ins.next_addr
    shift = bits - 1
    mn = ins.mnemonic
    op = {"and": lambda a, b: a & b, "test": lambda a, b: a & b,
          "or": lambda a, b: a | b, "xor": lambda a, b: a ^ b}[mn]

    def body():
        r = op(rd(), rs())
        regs.cf = 0
        regs.of = 0
        regs.zf = 1 if r == 0 else 0
        regs.sf = r >> shift
        regs.pf = _PARITY[r & 0xFF]
        if wd is not None:
            wd(r)
        regs.rip = nxt
    return body


def _make_shift(m, ins):
    from repro.machine.cpu import _PARITY
    dst, src = ins.operands
    size = dst.size if isinstance(dst, Reg) else m._op_size(ins)
    bits = 8 * size
    full = (1 << bits) - 1
    cmask = 63 if bits == 64 else 31
    rd = _int_reader(m, dst, size)
    rc = _int_reader(m, src, 1)
    wd = _int_writer(m, dst, size)
    regs = m.regs
    shift = bits - 1
    mn = ins.mnemonic
    top = 1 << shift

    def body():
        count = rc() & cmask
        if count == 0:
            return
        a = rd()
        if mn == "shl":
            r = (a << count) & full
            regs.cf = (a >> (bits - count)) & 1 if count <= bits else 0
        elif mn == "shr":
            r = a >> count
            regs.cf = (a >> (count - 1)) & 1
        else:  # sar
            s = a - (1 << bits) if a & top else a
            r = (s >> count) & full
            regs.cf = (a >> (count - 1)) & 1
        regs.of = 0
        regs.zf = 1 if r == 0 else 0
        regs.sf = r >> shift
        regs.pf = _PARITY[r & 0xFF]
        wd(r)
    return _fallthrough(m, ins, body)


def _make_incdec(m, ins):
    from repro.machine.cpu import _PARITY
    size = m._op_size(ins)
    bits = 8 * size
    mask = (1 << bits) - 1
    rd = _int_reader(m, ins.operands[0], size)
    wd = _int_writer(m, ins.operands[0], size)
    regs = m.regs
    shift = bits - 1
    delta = 1 if ins.mnemonic == "inc" else -1

    def body():
        v = rd()
        r = (v + delta) & mask
        regs.zf = 1 if r == 0 else 0
        regs.sf = r >> shift
        regs.pf = _PARITY[r & 0xFF]
        sa, sr = v >> shift, r >> shift
        regs.of = 1 if sa != sr and (
            (delta > 0 and sa == 0) or (delta < 0 and sa == 1)) else 0
        wd(r)
    return _fallthrough(m, ins, body)


def _make_imul(m, ins):
    from repro.machine.cpu import _PARITY
    dst, src = ins.operands
    size = m._op_size(ins)
    bits = 8 * size
    mask = (1 << bits) - 1
    top = 1 << (bits - 1)
    wrap = 1 << bits
    rd = _int_reader(m, dst, size)
    rs = _int_reader(m, src, size)
    wd = _int_writer(m, dst, size)
    regs = m.regs
    nxt = ins.next_addr
    shift = bits - 1

    def body():
        a = rd()
        if a & top:
            a -= wrap
        b = rs()
        if b & top:
            b -= wrap
        full = a * b
        r = full & mask
        trunc = r - wrap if r & top else r
        regs.cf = regs.of = 0 if trunc == full else 1
        regs.zf = 1 if r == 0 else 0
        regs.sf = r >> shift
        regs.pf = _PARITY[r & 0xFF]
        wd(r)
        regs.rip = nxt
    return body


# --------------------------------------------------------------------------- #
# control flow                                                                 #
# --------------------------------------------------------------------------- #

def _branch_reader(m, op):
    """Closure for Machine._branch_target(op)."""
    if isinstance(op, Imm):
        t = op.value
        return lambda: t
    return _int_reader(m, op, 8)


def _make_jmp(m, ins):
    regs = m.regs
    op = ins.operands[0]
    if isinstance(op, Imm) and op.value <= ins.addr:
        # backward direct jump: a loop back edge — report it to the
        # tracing JIT's hot-loop counter (m._loop_hook, usually None)
        tgt = op.value

        def body():
            regs.rip = tgt
            hook = m._loop_hook
            if hook is not None:
                hook(tgt)
        return body
    rtgt = _branch_reader(m, op)

    def body():
        regs.rip = rtgt()
    return body


def _make_jcc(m, ins):
    from repro.machine.cpu import Machine
    regs = m.regs
    cond = Machine._COND[ins.mnemonic[1:]]
    nxt = ins.next_addr
    op = ins.operands[0]
    if isinstance(op, Imm):
        tgt = op.value
        if tgt <= ins.addr:
            # backward conditional branch: the canonical loop back edge
            def body():
                if cond(regs):
                    regs.rip = tgt
                    hook = m._loop_hook
                    if hook is not None:
                        hook(tgt)
                else:
                    regs.rip = nxt
            return body

        def body():
            regs.rip = tgt if cond(regs) else nxt
        return body
    rtgt = _branch_reader(m, op)

    def body():
        regs.rip = rtgt() if cond(regs) else nxt
    return body


def _make_setcc(m, ins):
    from repro.machine.cpu import Machine
    cond = Machine._COND[ins.mnemonic[3:]]
    w = _int_writer(m, ins.operands[0], 1)
    regs = m.regs
    nxt = ins.next_addr

    def body():
        w(1 if cond(regs) else 0)
        regs.rip = nxt
    return body


def _make_cmovcc(m, ins):
    from repro.machine.cpu import Machine
    cond = Machine._COND[ins.mnemonic[4:]]
    size = m._op_size(ins)
    r = _int_reader(m, ins.operands[1], size)
    w = _int_writer(m, ins.operands[0], size)
    regs = m.regs

    def body():
        if cond(regs):
            w(r())
    return _fallthrough(m, ins, body)


def _make_call(m, ins):
    regs = m.regs
    gpr = m.regs.gpr
    write = m.memory.write
    read = m.memory.read
    externs = m.externs
    names = m._extern_names
    tgt = _branch_reader(m, ins.operands[0])
    nxt = ins.next_addr
    site = ins.addr

    def body():
        target = tgt()
        rsp = (gpr["rsp"] - 8) & _MASK64
        gpr["rsp"] = rsp
        write(rsp, 8, nxt)
        ext = externs.get(target)
        if ext is not None:
            # m.trace is read at call time: Session may attach a sink
            # after the program was predecoded
            if m.trace is None:
                ext(m)
            else:
                before = m.cost.cycles
                ext(m)
                m.trace.emit(ExternCallEvent(
                    cycles=m.cost.cycles,
                    addr=site,
                    name=names.get(target, hex(target)),
                    cycles_spent=m.cost.cycles - before,
                ))
            rsp = gpr["rsp"]
            regs.rip = read(rsp, 8)
            gpr["rsp"] = (rsp + 8) & _MASK64
        else:
            regs.rip = target
    return body


def _make_ret(m, ins):
    from repro.machine.cpu import EXIT_ADDR
    regs = m.regs
    gpr = m.regs.gpr
    read = m.memory.read

    def body():
        rsp = gpr["rsp"]
        addr = read(rsp, 8)
        gpr["rsp"] = (rsp + 8) & _MASK64
        if addr == EXIT_ADDR:
            m.halted = True
            v = gpr["rax"] & _M32
            m.exit_code = v - (1 << 32) if v >> 31 else v
        else:
            regs.rip = addr
    return body


def _make_nop(m, ins):
    def body():
        pass
    return _fallthrough(m, ins, body)


# --------------------------------------------------------------------------- #
# SSE — trap-capable ops keep the exact _fp_event contract                     #
# --------------------------------------------------------------------------- #

def _make_f_scalar(m, ins):
    from repro.machine.cpu import Machine
    regs = m.regs
    nxt = ins.next_addr
    fn = getattr(m.fpu, Machine._SCALAR_OPS[ins.mnemonic])
    lanes = m.regs.xmm[ins.operands[0].index]
    rs = _f64_reader(m, ins.operands[1])
    fp_event = m._fp_event

    def body():
        r, fl = fn(lanes[0], rs())
        if fp_event(ins, fl):
            return
        lanes[0] = r & _MASK64
        regs.rip = nxt
    return body


def _make_f_scalar32(m, ins):
    from repro.machine.cpu import Machine
    regs = m.regs
    nxt = ins.next_addr
    fn = getattr(m.fpu, Machine._SCALAR32_OPS[ins.mnemonic])
    lanes = m.regs.xmm[ins.operands[0].index]
    rs = _f32_reader(m, ins.operands[1])
    fp_event = m._fp_event

    def body():
        r, fl = fn(lanes[0] & _M32, rs())
        if fp_event(ins, fl):
            return
        lanes[0] = ((lanes[0] & ~_M32) | r) & _MASK64
        regs.rip = nxt
    return body


def _make_f_packed(m, ins):
    from repro.machine.cpu import Machine
    regs = m.regs
    nxt = ins.next_addr
    fn = getattr(m.fpu, Machine._PACKED_OPS[ins.mnemonic])
    lanes = m.regs.xmm[ins.operands[0].index]
    rs = _xmm128_reader(m, ins.operands[1])
    fp_event = m._fp_event

    def body():
        blo, bhi = rs()
        rlo, flo = fn(lanes[0], blo)
        rhi, fhi = fn(lanes[1], bhi)
        if fp_event(ins, flo | fhi):
            return
        lanes[0] = rlo & _MASK64
        lanes[1] = rhi & _MASK64
        regs.rip = nxt
    return body


def _make_sqrtsd(m, ins):
    regs = m.regs
    nxt = ins.next_addr
    fn = m.fpu.sqrt64
    lanes = m.regs.xmm[ins.operands[0].index]
    rs = _f64_reader(m, ins.operands[1])
    fp_event = m._fp_event

    def body():
        r, fl = fn(rs())
        if fp_event(ins, fl):
            return
        lanes[0] = r & _MASK64
        regs.rip = nxt
    return body


def _make_ucomi(m, ins):
    regs = m.regs
    nxt = ins.next_addr
    fn = m.fpu.ucomi64 if ins.mnemonic == "ucomisd" else m.fpu.comi64
    lanes = m.regs.xmm[ins.operands[0].index]
    rs = _f64_reader(m, ins.operands[1])
    fp_event = m._fp_event

    def body():
        (zf, pf, cf), fl = fn(lanes[0], rs())
        if fp_event(ins, fl):
            return
        regs.zf, regs.pf, regs.cf = zf, pf, cf
        regs.of = 0
        regs.sf = 0
        regs.rip = nxt
    return body


# --------------------------------------------------------------------------- #
# SSE data movement (never faults)                                             #
# --------------------------------------------------------------------------- #

def _make_movsd(m, ins):
    dst, src = ins.operands
    xmm = m.regs.xmm
    if isinstance(dst, Xmm) and isinstance(src, Xmm):
        d, s = xmm[dst.index], xmm[src.index]

        def body():
            d[0] = s[0]
    elif isinstance(dst, Xmm):
        d = xmm[dst.index]
        ea = _ea_closure(m, src)
        read = m.memory.read

        def body():
            d[0] = read(ea(), 8)
            d[1] = 0
    else:
        s = xmm[src.index]
        ea = _ea_closure(m, dst)
        write = m.memory.write

        def body():
            write(ea(), 8, s[0])
    return _fallthrough(m, ins, body)


def _make_movq(m, ins):
    dst, src = ins.operands
    xmm = m.regs.xmm
    if isinstance(dst, Xmm):
        d = xmm[dst.index]
        if isinstance(src, Reg):
            rv = _gpr_view(m, src.name)

            def body():
                d[0] = rv()
                d[1] = 0
        elif isinstance(src, Xmm):
            s = xmm[src.index]

            def body():
                d[0] = s[0]
                d[1] = 0
        else:
            ea = _ea_closure(m, src)
            read = m.memory.read

            def body():
                d[0] = read(ea(), 8)
                d[1] = 0
    else:
        s = xmm[src.index]
        if isinstance(dst, Reg):
            w = _int_writer(m, dst, 8)

            def body():
                w(s[0])
        else:
            ea = _ea_closure(m, dst)
            write = m.memory.write

            def body():
                write(ea(), 8, s[0])
    return _fallthrough(m, ins, body)


def _make_movapd(m, ins):
    dst, src = ins.operands
    xmm = m.regs.xmm
    if isinstance(dst, Xmm):
        d = xmm[dst.index]
        rs = _xmm128_reader(m, src)

        def body():
            d[0], d[1] = rs()
    else:
        s = xmm[src.index]
        ea = _ea_closure(m, dst)
        write = m.memory.write

        def body():
            a = ea()
            write(a, 8, s[0])
            write(a + 8, 8, s[1])
    return _fallthrough(m, ins, body)


def _make_f_bitwise(m, ins):
    mn = ins.mnemonic
    lanes = m.regs.xmm[ins.operands[0].index]
    rs = _xmm128_reader(m, ins.operands[1])

    if mn == "xorpd":
        def body():
            blo, bhi = rs()
            lanes[0] ^= blo
            lanes[1] ^= bhi
    elif mn == "andpd":
        def body():
            blo, bhi = rs()
            lanes[0] &= blo
            lanes[1] &= bhi
    elif mn == "orpd":
        def body():
            blo, bhi = rs()
            lanes[0] |= blo
            lanes[1] |= bhi
    else:  # andnpd: (~dst) & src
        def body():
            blo, bhi = rs()
            lanes[0] = (~lanes[0]) & blo & _MASK64
            lanes[1] = (~lanes[1]) & bhi & _MASK64
    return _fallthrough(m, ins, body)


_MAKERS: dict[str, Callable[["Machine", "Instruction"], Step]] = {
    "mov": _make_mov, "movabs": _make_mov,
    "movzx": _make_movzx, "movsx": _make_movsx,
    "lea": _make_lea, "xchg": _make_xchg,
    "push": _make_push, "pop": _make_pop,
    "add": _make_addsub, "sub": _make_addsub, "cmp": _make_cmp,
    "and": _make_logic, "or": _make_logic, "xor": _make_logic,
    "test": _make_logic,
    "shl": _make_shift, "shr": _make_shift, "sar": _make_shift,
    "inc": _make_incdec, "dec": _make_incdec,
    "imul": _make_imul,
    "jmp": _make_jmp, "call": _make_call, "ret": _make_ret,
    "nop": _make_nop,
    "movsd": _make_movsd, "movq": _make_movq,
    "movapd": _make_movapd, "movupd": _make_movapd,
    "sqrtsd": _make_sqrtsd,
    "ucomisd": _make_ucomi, "comisd": _make_ucomi,
    "xorpd": _make_f_bitwise, "andpd": _make_f_bitwise,
    "orpd": _make_f_bitwise, "andnpd": _make_f_bitwise,
}
for _cc in ("e", "ne", "l", "le", "g", "ge", "b", "be", "a", "ae",
            "s", "ns", "p", "np"):
    _MAKERS["j" + _cc] = _make_jcc
for _cc in ("e", "ne", "l", "le", "g", "ge", "b", "be", "a", "ae", "p", "np"):
    _MAKERS["set" + _cc] = _make_setcc
for _cc in ("e", "ne", "l", "g"):
    _MAKERS["cmov" + _cc] = _make_cmovcc
for _mn in ("addsd", "subsd", "mulsd", "divsd", "minsd", "maxsd"):
    _MAKERS[_mn] = _make_f_scalar
for _mn in ("addpd", "subpd", "mulpd", "divpd", "minpd", "maxpd"):
    _MAKERS[_mn] = _make_f_packed
for _mn in ("addss", "subss", "mulss", "divss"):
    _MAKERS[_mn] = _make_f_scalar32
# everything else (idiv/cqo/cvt*/cmpsd/roundsd/fmaddsd/movss/movhpd/
# sqrtpd/hlt/int3/ud2/fpvm_trap/fpvm_patch/...) uses the pre-bound
# generic fallback via compile_instruction
