"""Decoding: faulting instruction → Capstone-independent FPVM ops (§4.1).

    "The hundreds of different x64 floating point instructions flatten
    down to about 40 operation types… This code keeps a cache of
    decoded instructions — a map from address to struct instruction —
    that is quickly queried to avoid decoding the same instruction
    multiple times.  This decode cache is critical to lowering
    latencies."

Our ISA plays the role of raw x64 bytes; Capstone's role is played by
the instruction objects themselves.  The decoder still performs the
same architectural flattening (scalar/packed/mem/reg forms of dozens
of mnemonics → one :class:`FPVMOp` each) and the decode cache exhibits
the same ~100% hit rate the paper reports (footnote 8), which the
Fig. 9 bench verifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MachineError
from repro.isa.instructions import Instruction
from repro.isa.operands import Mem, Reg, Xmm
from repro.isa.sse import F32, FLAGS, GPR, INT, LO32, SSE_OPS, FPVMOp

#: operand template kinds used by the binder
# ("xmm", index, lane) | ("xmm32", index) | ("mem", Mem) | ("gpr", name, size)
OperandTemplate = tuple


@dataclass(slots=True)
class DecodedInst:
    """Normalized, Capstone-independent representation of one site."""

    op: FPVMOp
    instr: Instruction
    lanes: int = 1
    #: per-lane destination template (lane index applied at bind time)
    dst: OperandTemplate | None = None
    #: source templates, in emulator argument order
    srcs: tuple[OperandTemplate, ...] = ()
    imm: int | None = None        # CMPSD predicate / ROUNDSD mode
    arith_name: str = ""          # op_cycles key ("add", "div", ...)
    reboxed: bool = False         # the sanitizer checks the result


def _source(op, shape: str) -> OperandTemplate:
    """The binder's template of a source operand read as ``shape``."""
    cls = op.__class__
    if cls is Mem:
        return ("mem", op)
    if cls is Xmm:
        return ("xmm32", op.index) if shape == F32 else ("xmm", op.index, 0)
    if cls is Reg and shape == INT:
        return ("gpr", op.name, op.size)
    raise MachineError(f"cannot decode FP operand {op!r}")


def decode_instruction(ins: Instruction) -> DecodedInst:
    """Flatten one ISA instruction into its FPVM operation type, from
    its :data:`~repro.isa.sse.SSE_OPS` row."""
    try:
        spec = SSE_OPS[ins.mnemonic]
    except KeyError:
        raise MachineError(f"FPVM cannot decode {ins.mnemonic!r} "
                           "(not a trapping FP op)") from None
    ops = ins.operands
    d = ops[0]
    # the destination's template; a compare reads it as a binary64 and
    # writes the flags
    if spec.dst == GPR:
        dst = ("gpr", d.name, d.size)
    elif spec.dst == LO32:
        dst = ("xmm32", d.index)
    else:
        dst = ("xmm", d.index, 0)
    s1 = _source(ops[1], spec.src)
    args = spec.args
    if args == (0, 1):
        srcs = (dst, s1)
    elif args == (1,):
        srcs = (s1,)
    else:  # (1, 2, 0): fmaddsd
        srcs = (s1, _source(ops[2], spec.src), dst)
    return DecodedInst(
        spec.op if spec.narrow is None else spec.variant(ins)[0],
        ins, spec.lanes, None if spec.dst == FLAGS else dst, srcs,
        ops[-1].value & spec.imm_mask if spec.imm_mask else None,
        spec.arith, spec.reboxed)


@dataclass
class DecodeCache:
    """Address-indexed decode cache with hit/miss statistics."""

    cache: dict[int, DecodedInst] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def lookup(self, ins: Instruction) -> tuple[DecodedInst, bool]:
        """Return (decoded, was_hit)."""
        d = self.cache.get(ins.addr)
        if d is not None and d.instr is ins:
            self.hits += 1
            return d, True
        self.misses += 1
        d = decode_instruction(ins)
        self.cache[ins.addr] = d
        return d, False

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
