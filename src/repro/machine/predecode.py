"""Predecode: the x64 subset's scalar semantics, compiled per instruction.

Every instruction the simulated machine runs is a closure built here.
``compile_program`` maps each text-section instruction to a
zero-argument *step*: operand accessors are resolved once (register
index vs. immediate vs. partially evaluated effective address), the
per-instruction cost (``costmodel.instruction_cost``) is folded into
one constant, and the semantic body is bound directly.  ``Machine.run``
is then a tight ``rip -> closure`` fetch loop with no string dispatch
or isinstance checks on the hot path — the lesson the paper draws for
its decode cache (§4.1, "the decode cache is critical to lowering
latencies"), applied to the host interpreter itself.

A step *retires* its instruction: it counts it in ``instr_count`` (and
in ``fp_instr_count`` when the instruction consults MXCSR), charges its
cost, and runs the body.  ``fpvm_trap``/``fpvm_patch`` sites retire as
the instruction they replaced.  ``Machine.execute`` runs a body without
retiring, for the trap and patch handlers that re-execute an
instruction which already retired — so every instruction retires
exactly once.

Trap-capable FP bodies compute the result and MXCSR events first and
commit nothing when ``Machine._fp_event`` delivers a fault, leaving RIP
at the faulting instruction (the precise-fault contract of §4.1).

Two loops run these steps: the superblock loop fuses straight-line
runs (``compile_blocks``), the stepping loop (any watchdog or
instruction budget, and ``Machine.step``) runs one step at a time.
``tests/property/test_prop_predecode.py`` checks that they agree in
full state; ``tests/unit/test_predecode.py`` pins the semantics by hand.

Superblocks are built at load only at the *block leaders*: the entry
point, every direct branch or call target, and the address after every
instruction that ends a block.  Those are where the fetch loop lands
after a block, so a run of k straight-line instructions costs one
k-step block, not k overlapping ones.  Any other address the loop
enters (an indirect target, a trace side exit, a block dropped by a
patch) misses the table, and ``Machine.run`` builds its block then,
once.  A block is a pure function of the steps at and after its
address, so where and when it was built changes no count and no float
chain.

Binary patching (trap-and-patch §3.2, the static patcher §4.2) swaps
instructions at runtime; ``Binary.replace_instruction`` notifies the
machine, whose ``install_step`` recompiles the single affected address
and drops the superblocks that contain it (``rebuild_blocks_around``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.errors import MachineError
from repro.isa.opcodes import OpClass, is_fp_trapping
from repro.isa.operands import Imm, Mem, Reg, Xmm
from repro.isa.registers import canonical, subreg_size
from repro.isa.sse import (BOTH, F32, F64, FLAGS, GPR, INT, LO32, SSE_OPS,
                           XMM128)
from repro.machine.costmodel import instruction_cost
from repro.machine.traps import TrapFrame, TrapKind
from repro.trace.events import ExternCallEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.isa.instructions import Instruction
    from repro.machine.cpu import Machine

_MASK64 = 0xFFFF_FFFF_FFFF_FFFF
_M32 = 0xFFFF_FFFF

Step = Callable[[], None]

#: PF of every low byte: 1 when it has an even number of set bits
_PARITY = tuple(1 - (bin(i).count("1") & 1) for i in range(256))

#: condition-code suffix -> predicate over the flag register file
_COND = {
    "e": lambda r: r.zf == 1,
    "ne": lambda r: r.zf == 0,
    "l": lambda r: r.sf != r.of,
    "le": lambda r: r.zf == 1 or r.sf != r.of,
    "g": lambda r: r.zf == 0 and r.sf == r.of,
    "ge": lambda r: r.sf == r.of,
    "b": lambda r: r.cf == 1,
    "be": lambda r: r.cf == 1 or r.zf == 1,
    "a": lambda r: r.cf == 0 and r.zf == 0,
    "ae": lambda r: r.cf == 0,
    "s": lambda r: r.sf == 1,
    "ns": lambda r: r.sf == 0,
    "p": lambda r: r.pf == 1,
    "np": lambda r: r.pf == 0,
}


def _op_size(ins: "Instruction", default: int = 8) -> int:
    """Operand width: the first register operand's, else the first
    memory operand's, else ``default``."""
    for op in ins.operands:
        if isinstance(op, Reg):
            return op.size
    for op in ins.operands:
        if isinstance(op, Mem):
            return op.size
    return default


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
    """Read closure for an integer operand, masked to ``size`` bytes."""
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
    """Write closure for an integer destination (``size``-byte store;
    4-byte register stores zero-extend, narrower ones merge)."""
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

def compile_program(m: "Machine") -> dict[int, Step]:
    """Compile every text-section instruction to its closure."""
    return {ins.addr: compile_instruction(m, ins) for ins in m.binary.text}


# mnemonics whose compiled closure is guaranteed to fall through to
# next_addr — never branches, halts, traps, or early-returns — so a
# straight-line run of them can be fused into one superblock closure.
# FP-arith/cmp/cvt are excluded (fault delivery may abort the step).
_BLOCK_SAFE = frozenset(
    ["mov", "movabs", "movzx", "movsx", "lea", "xchg", "push", "pop",
     "add", "sub", "and", "or", "xor", "cmp", "test",
     "shl", "shr", "sar", "inc", "dec", "not", "neg", "imul", "cqo", "nop",
     "movsd", "movss", "movq", "movapd", "movupd", "movhpd",
     "xorpd", "andpd", "orpd", "andnpd"]
    + ["set" + cc for cc in ("e", "ne", "l", "le", "g", "ge", "b", "be",
                             "a", "ae", "p", "np")]
    + ["cmov" + cc for cc in ("e", "ne", "l", "g")]
)


def _block_at(m: "Machine", steps: dict[int, Step], addr: int) -> Step:
    """Fuse the straight-line run starting at ``addr`` into one closure.

    The chain covers every fall-through-only instruction from ``addr``
    up to and including the first "breaker" (branch, call/ret, FP op,
    halt, patch site) — the breaker handles its own RIP/trap/halt, and
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
    """Superblock table at load: one block per block leader.

    A leader is the entry point, the immediate target of a direct
    branch or call, or the address after any instruction that is not
    block-safe (a breaker ends a block, so the fetch loop resumes right
    after it).  One linear pass finds them.  Any other address the
    fetch loop enters (an indirect target, a trace side exit, a block
    ``rebuild_blocks_around`` dropped) misses the table, and
    ``Machine.run`` builds that block then, once.
    """
    binary = m.binary
    leaders = {binary.entry}
    for ins in binary.text:
        if ins.mnemonic in _BLOCK_SAFE:
            continue
        leaders.add(ins.next_addr)
        ops = ins.operands
        if (ops and ins.info.opclass is OpClass.CONTROL
                and isinstance(ops[0], Imm)):
            leaders.add(ops[0].value)
    return {addr: _block_at(m, steps, addr)
            for addr in leaders if addr in steps}


def rebuild_blocks_around(m: "Machine", addr: int) -> None:
    """Drop every superblock whose chain contains ``addr``.

    Called by ``Machine.install_step``: blocks containing the replaced
    address start at it or at any fall-through predecessor, so walk
    the contiguous block-safe run backwards and drop the block at each
    address in it.  The next entry at a dropped address builds its
    block again from the live steps (``Machine.run``'s miss path).
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
    blocks = m._blocks
    for j in range(start, i + 1):
        blocks.pop(text[j].addr, None)


def compile_instruction(m: "Machine", ins: "Instruction") -> Step:
    """Compile one instruction: semantic body + retirement wrapper.

    Makers return a zero-arg *body* — architectural semantics plus the
    RIP update, no accounting.  The wrapper added here retires the
    instruction (module docstring).  The body and its folded cost stay
    reachable (``step._body`` / ``step._C``) so ``_block_at`` can hoist
    the accounting for a whole fall-through run and
    ``Machine.execute`` can re-run a body without retiring it again.
    """
    body = _MAKERS[ins.mnemonic](m, ins)
    if m.oracle is not None:
        probe = m.oracle.compile_probe(m, ins)
        if probe is not None:
            inner = body

            def body():
                probe()
                inner()
    C = instruction_cost(m.cost.platform, ins)
    cost = m.cost
    buckets = cost.buckets
    retires = (ins.payload["original"]
               if ins.mnemonic in ("fpvm_trap", "fpvm_patch") else ins)
    if is_fp_trapping(retires.mnemonic):
        def step():
            m.instr_count += 1
            m.fp_instr_count += 1
            cost.cycles += C
            buckets["base"] += C
            body()
    else:
        def step():
            m.instr_count += 1
            cost.cycles += C
            buckets["base"] += C
            body()
    step._body = body
    step._C = C
    return step


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
    size = _op_size(ins)
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
    size = _op_size(ins)
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
    size = _op_size(ins)
    bits = 8 * size
    mask = (1 << bits) - 1
    rd = _int_reader(m, dst, size)
    rs = _int_reader(m, src, size)
    wd = (_int_writer(m, dst, size)
          if ins.mnemonic not in ("cmp", "test") else None)
    return rd, rs, wd, bits, mask


def _make_addsub(m, ins):
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
    dst, src = ins.operands
    size = dst.size if isinstance(dst, Reg) else _op_size(ins)
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
    size = _op_size(ins)
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
    dst, src = ins.operands
    size = _op_size(ins)
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


def _make_not(m, ins):
    size = _op_size(ins)
    rd = _int_reader(m, ins.operands[0], size)
    wd = _int_writer(m, ins.operands[0], size)
    return _fallthrough(m, ins, lambda: wd(~rd()))


def _make_neg(m, ins):
    size = _op_size(ins)
    bits = 8 * size
    mask = (1 << bits) - 1
    top = 1 << (bits - 1)
    rd = _int_reader(m, ins.operands[0], size)
    wd = _int_writer(m, ins.operands[0], size)
    regs = m.regs
    shift = bits - 1

    def body():
        v = rd()
        r = (-v) & mask
        regs.cf = 0 if v == 0 else 1
        regs.of = 1 if v == top else 0
        regs.zf = 1 if r == 0 else 0
        regs.sf = r >> shift
        regs.pf = _PARITY[r & 0xFF]
        wd(r)
    return _fallthrough(m, ins, body)


def _make_idiv(m, ins):
    """rdx:rax / src -> rax quotient (toward zero), rdx remainder."""
    addr = ins.addr
    if _op_size(ins) != 8:
        def body():
            raise MachineError("idiv modeled for 64-bit operands only")
        return body
    rs = _int_reader(m, ins.operands[0], 8)
    gpr = m.regs.gpr

    def body():
        dv = rs()
        if dv >> 63:
            dv -= 1 << 64
        if dv == 0:
            raise MachineError(f"integer divide by zero at {addr:#x}")
        d128 = (gpr["rdx"] << 64) | gpr["rax"]
        if d128 >> 127:
            d128 -= 1 << 128
        q = abs(d128) // abs(dv)  # exact; truncation toward zero
        if (d128 < 0) != (dv < 0):
            q = -q
        r = d128 - q * dv
        if not (-(1 << 63) <= q < (1 << 63)):
            raise MachineError(f"idiv overflow at {addr:#x}")
        gpr["rax"] = q & _MASK64
        gpr["rdx"] = r & _MASK64
    return _fallthrough(m, ins, body)


def _make_cqo(m, ins):
    gpr = m.regs.gpr

    def body():
        gpr["rdx"] = _MASK64 if gpr["rax"] >> 63 else 0
    return _fallthrough(m, ins, body)


# --------------------------------------------------------------------------- #
# control flow                                                                 #
# --------------------------------------------------------------------------- #

def _branch_reader(m, op):
    """Branch target closure: an immediate, else the 8-byte operand."""
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
    regs = m.regs
    cond = _COND[ins.mnemonic[1:]]
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
    cond = _COND[ins.mnemonic[3:]]
    w = _int_writer(m, ins.operands[0], 1)
    regs = m.regs
    nxt = ins.next_addr

    def body():
        w(1 if cond(regs) else 0)
        regs.rip = nxt
    return body


def _make_cmovcc(m, ins):
    cond = _COND[ins.mnemonic[4:]]
    size = _op_size(ins)
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


def _make_hlt(m, ins):
    gpr = m.regs.gpr

    def body():
        m.halted = True
        v = gpr["rax"] & _M32
        m.exit_code = v - (1 << 32) if v >> 31 else v
    return body


def _make_fault(message):
    def make(m, ins):
        text = f"{message} at {ins.addr:#x}"

        def body():
            raise MachineError(text)
        return body
    return make


def _make_fpvm_trap(m, ins):
    """A statically patched site (paper §4.2): demote, then re-execute.

    ``payload`` is ``{"kind": "sink"|"call_demote", "original": ins}``.
    Without an installed handler the patch is a transparent no-op
    (nothing can be NaN-boxed), so patched binaries stay runnable
    outside FPVM.  Either way the site retires once, as the original.
    A site kernel FPVM installed for ``ins`` replaces delivery, handler
    and re-execution at once.
    """
    original = ins.payload["original"]
    execute = m.execute
    charge_delivery = m._charge_delivery
    frame_args = (TrapKind.CORRECTNESS, ins.addr, original)
    kernels = m.site_kernels
    addr = ins.addr

    def body():
        m.correctness_trap_count += 1
        entry = kernels.get(addr)
        if entry is not None and entry[0] is ins:
            entry[1]()
            return
        handler = m.correctness_handler
        if handler is not None:
            charge_delivery("correctness", "correctness")
            handler(m, TrapFrame(*frame_args, detail=ins.payload))
        execute(original)
    return body


def _make_fpvm_patch(m, ins):
    """A patched site (§3.2-3.4): an inline check instead of a fault.

    Without an installed handler the check is a transparent execution
    of the original.  The site kernel FPVM builds at the site's first
    execution does every later one.
    """
    original = ins.payload["original"]
    execute = m.execute
    kernels = m.site_kernels
    addr = ins.addr

    def body():
        entry = kernels.get(addr)
        if entry is not None and entry[0] is ins:
            entry[1]()
            return
        handler = m.patch_handler
        if handler is None:
            execute(original)
        else:
            handler(m, ins)
    return body


# --------------------------------------------------------------------------- #
# SSE — trap-capable ops keep the exact _fp_event contract                     #
# --------------------------------------------------------------------------- #
# A clean op (flags 0) skips the call: ``_fp_event`` would record nothing and
# deliver nothing.

_SRC_READERS = {F64: _f64_reader, F32: _f32_reader, XMM128: _xmm128_reader,
                INT: lambda m, op: _int_reader(m, op, op.size)}


def _make_sse(m, ins):
    """An FP-trapping op, from its :data:`~repro.isa.sse.SSE_OPS` row.

    The row's operand shapes pick one closure shape here, at compile
    time; ``k`` is the kernel's trailing constant (the masked immediate,
    or CVT(T)SD2SI's truncation flag).
    """
    spec = SSE_OPS[ins.mnemonic]
    ops = ins.operands
    fn = getattr(m.fpu, spec.variant(ins)[1])
    k = ops[-1].value & spec.imm_mask if spec.imm_mask else spec.truncate
    rs = _SRC_READERS[spec.src](m, ops[1])
    regs = m.regs
    nxt = ins.next_addr
    fp_event = m._fp_event

    if spec.dst == GPR:
        wd = _int_writer(m, ops[0], ops[0].size)

        def body():
            r, fl = fn(rs(), k)
            if fl and fp_event(ins, fl):
                return
            wd(r)
            regs.rip = nxt
        return body

    lanes = regs.xmm[ops[0].index]
    unary = spec.args == (1,)
    if spec.dst == FLAGS:
        def body():
            (zf, pf, cf), fl = fn(lanes[0], rs())
            if fl and fp_event(ins, fl):
                return
            regs.zf, regs.pf, regs.cf = zf, pf, cf
            regs.of = 0
            regs.sf = 0
            regs.rip = nxt
    elif spec.dst == BOTH:
        if unary:
            def body():
                blo, bhi = rs()
                rlo, flo = fn(blo)
                rhi, fhi = fn(bhi)
                fl = flo | fhi
                if fl and fp_event(ins, fl):
                    return
                lanes[0] = rlo & _MASK64
                lanes[1] = rhi & _MASK64
                regs.rip = nxt
        else:
            def body():
                blo, bhi = rs()
                rlo, flo = fn(lanes[0], blo)
                rhi, fhi = fn(lanes[1], bhi)
                fl = flo | fhi
                if fl and fp_event(ins, fl):
                    return
                lanes[0] = rlo & _MASK64
                lanes[1] = rhi & _MASK64
                regs.rip = nxt
    elif spec.dst == LO32:
        if unary:
            def body():
                r, fl = fn(rs())
                if fl and fp_event(ins, fl):
                    return
                lanes[0] = ((lanes[0] & ~_M32) | r) & _MASK64
                regs.rip = nxt
        else:
            def body():
                r, fl = fn(lanes[0] & _M32, rs())
                if fl and fp_event(ins, fl):
                    return
                lanes[0] = ((lanes[0] & ~_M32) | r) & _MASK64
                regs.rip = nxt
    elif spec.args == (1, 2, 0):
        rb = _f64_reader(m, ops[2])

        def body():
            r, fl = fn(rs(), rb(), lanes[0])
            if fl and fp_event(ins, fl):
                return
            lanes[0] = r & _MASK64
            regs.rip = nxt
    elif unary and k is None:
        def body():
            r, fl = fn(rs())
            if fl and fp_event(ins, fl):
                return
            lanes[0] = r & _MASK64
            regs.rip = nxt
    elif unary:
        def body():
            r, fl = fn(rs(), k)
            if fl and fp_event(ins, fl):
                return
            lanes[0] = r & _MASK64
            regs.rip = nxt
    elif k is None:
        def body():
            r, fl = fn(lanes[0], rs())
            if fl and fp_event(ins, fl):
                return
            lanes[0] = r & _MASK64
            regs.rip = nxt
    else:
        def body():
            r, fl = fn(lanes[0], rs(), k)
            if fl and fp_event(ins, fl):
                return
            lanes[0] = r & _MASK64
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


def _make_movss(m, ins):
    dst, src = ins.operands
    xmm = m.regs.xmm
    if isinstance(dst, Xmm) and isinstance(src, Xmm):
        d, s = xmm[dst.index], xmm[src.index]

        def body():
            d[0] = (d[0] & ~_M32) | (s[0] & _M32)
    elif isinstance(dst, Xmm):
        d = xmm[dst.index]
        ea = _ea_closure(m, src)
        read = m.memory.read

        def body():
            d[0] = read(ea(), 4)
            d[1] = 0
    else:
        s = xmm[src.index]
        ea = _ea_closure(m, dst)
        write = m.memory.write

        def body():
            write(ea(), 4, s[0] & _M32)
    return _fallthrough(m, ins, body)


def _make_movhpd(m, ins):
    dst, src = ins.operands
    xmm = m.regs.xmm
    if isinstance(dst, Xmm):
        d = xmm[dst.index]
        ea = _ea_closure(m, src)
        read = m.memory.read

        def body():
            d[1] = read(ea(), 8)
    else:
        s = xmm[src.index]
        ea = _ea_closure(m, dst)
        write = m.memory.write

        def body():
            write(ea(), 8, s[1])
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
    "not": _make_not, "neg": _make_neg,
    "imul": _make_imul, "idiv": _make_idiv, "cqo": _make_cqo,
    "jmp": _make_jmp, "call": _make_call, "ret": _make_ret,
    "nop": _make_nop, "hlt": _make_hlt,
    "int3": _make_fault("breakpoint"),
    "ud2": _make_fault("undefined instruction executed"),
    "fpvm_trap": _make_fpvm_trap, "fpvm_patch": _make_fpvm_patch,
    **dict.fromkeys(SSE_OPS, _make_sse),
    "movsd": _make_movsd, "movss": _make_movss, "movq": _make_movq,
    "movapd": _make_movapd, "movupd": _make_movapd,
    "movhpd": _make_movhpd,
    "xorpd": _make_f_bitwise, "andpd": _make_f_bitwise,
    "orpd": _make_f_bitwise, "andnpd": _make_f_bitwise,
}
for _cc in _COND:
    _MAKERS["j" + _cc] = _make_jcc
for _cc in ("e", "ne", "l", "le", "g", "ge", "b", "be", "a", "ae", "p", "np"):
    _MAKERS["set" + _cc] = _make_setcc
for _cc in ("e", "ne", "l", "g"):
    _MAKERS["cmov" + _cc] = _make_cmovcc
