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
from enum import Enum, auto

from repro.errors import MachineError
from repro.isa.instructions import Instruction
from repro.isa.operands import Mem, Reg, Xmm


class FPVMOp(Enum):
    """The ~40 Capstone-independent operation types (paper §4.1)."""

    ADD = auto(); SUB = auto(); MUL = auto(); DIV = auto()           # noqa: E702
    SQRT = auto(); MIN = auto(); MAX = auto(); FMA = auto()          # noqa: E702
    UCOMI = auto(); COMI = auto(); CMP_PRED = auto()                 # noqa: E702
    CVT_I32_F64 = auto(); CVT_I64_F64 = auto()                       # noqa: E702
    CVT_F64_I32 = auto(); CVT_F64_I32_TRUNC = auto()                 # noqa: E702
    CVT_F64_I64 = auto(); CVT_F64_I64_TRUNC = auto()                 # noqa: E702
    CVT_F64_F32 = auto(); CVT_F32_F64 = auto(); ROUND = auto()       # noqa: E702
    ADD32 = auto(); SUB32 = auto(); MUL32 = auto(); DIV32 = auto()   # noqa: E702


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


_SCALAR = {"addsd": (FPVMOp.ADD, "add"), "subsd": (FPVMOp.SUB, "sub"),
           "mulsd": (FPVMOp.MUL, "mul"), "divsd": (FPVMOp.DIV, "div"),
           "minsd": (FPVMOp.MIN, "min"), "maxsd": (FPVMOp.MAX, "max")}
_PACKED = {"addpd": (FPVMOp.ADD, "add"), "subpd": (FPVMOp.SUB, "sub"),
           "mulpd": (FPVMOp.MUL, "mul"), "divpd": (FPVMOp.DIV, "div"),
           "minpd": (FPVMOp.MIN, "min"), "maxpd": (FPVMOp.MAX, "max")}
_SCALAR32 = {"addss": (FPVMOp.ADD32, "add"), "subss": (FPVMOp.SUB32, "sub"),
             "mulss": (FPVMOp.MUL32, "mul"), "divss": (FPVMOp.DIV32, "div")}


def _xmm_or_mem(op, lane: int = 0) -> OperandTemplate:
    if isinstance(op, Xmm):
        return ("xmm", op.index, lane)
    if isinstance(op, Mem):
        return ("mem", op)
    raise MachineError(f"cannot decode FP operand {op!r}")


def decode_instruction(ins: Instruction) -> DecodedInst:
    """Flatten one ISA instruction into its FPVM operation type."""
    mn = ins.mnemonic
    ops = ins.operands

    if mn in _SCALAR:
        op, nm = _SCALAR[mn]
        dst = ("xmm", ops[0].index, 0)
        return DecodedInst(op, ins, 1, dst, (dst, _xmm_or_mem(ops[1])),
                           arith_name=nm)
    if mn in _PACKED:
        op, nm = _PACKED[mn]
        dst = ("xmm", ops[0].index, 0)
        return DecodedInst(op, ins, 2, dst, (dst, _xmm_or_mem(ops[1])),
                           arith_name=nm)
    if mn in _SCALAR32:
        op, nm = _SCALAR32[mn]
        dst = ("xmm32", ops[0].index)
        src = ("xmm32", ops[1].index) if isinstance(ops[1], Xmm) else ("mem", ops[1])
        return DecodedInst(op, ins, 1, dst, (dst, src), arith_name=nm)
    if mn == "sqrtsd":
        dst = ("xmm", ops[0].index, 0)
        return DecodedInst(FPVMOp.SQRT, ins, 1, dst, (_xmm_or_mem(ops[1]),),
                           arith_name="sqrt")
    if mn == "sqrtpd":
        dst = ("xmm", ops[0].index, 0)
        return DecodedInst(FPVMOp.SQRT, ins, 2, dst, (_xmm_or_mem(ops[1]),),
                           arith_name="sqrt")
    if mn == "fmaddsd":
        dst = ("xmm", ops[0].index, 0)
        return DecodedInst(
            FPVMOp.FMA, ins, 1, dst,
            (_xmm_or_mem(ops[1]), _xmm_or_mem(ops[2]), dst),
            arith_name="fma",
        )
    if mn == "ucomisd":
        return DecodedInst(FPVMOp.UCOMI, ins, 1, None,
                           (("xmm", ops[0].index, 0), _xmm_or_mem(ops[1])),
                           arith_name="compare")
    if mn == "comisd":
        return DecodedInst(FPVMOp.COMI, ins, 1, None,
                           (("xmm", ops[0].index, 0), _xmm_or_mem(ops[1])),
                           arith_name="compare")
    if mn == "cmpsd":
        dst = ("xmm", ops[0].index, 0)
        return DecodedInst(FPVMOp.CMP_PRED, ins, 1, dst,
                           (dst, _xmm_or_mem(ops[1])), imm=ops[2].value & 7,
                           arith_name="compare")
    if mn == "cvtsi2sd":
        dst = ("xmm", ops[0].index, 0)
        src = ops[1]
        if isinstance(src, Reg):
            tpl = ("gpr", src.name, src.size)
            op = FPVMOp.CVT_I32_F64 if src.size == 4 else FPVMOp.CVT_I64_F64
        else:
            tpl = ("mem", src)
            op = FPVMOp.CVT_I32_F64 if src.size == 4 else FPVMOp.CVT_I64_F64
        return DecodedInst(op, ins, 1, dst, (tpl,), arith_name="from_i64")
    if mn in ("cvttsd2si", "cvtsd2si"):
        dst_reg: Reg = ops[0]
        trunc = mn == "cvttsd2si"
        if dst_reg.size == 4:
            op = FPVMOp.CVT_F64_I32_TRUNC if trunc else FPVMOp.CVT_F64_I32
        else:
            op = FPVMOp.CVT_F64_I64_TRUNC if trunc else FPVMOp.CVT_F64_I64
        return DecodedInst(op, ins, 1, ("gpr", dst_reg.name, dst_reg.size),
                           (_xmm_or_mem(ops[1]),), arith_name="to_i64")
    if mn == "cvtsd2ss":
        dst = ("xmm32", ops[0].index)
        return DecodedInst(FPVMOp.CVT_F64_F32, ins, 1, dst,
                           (_xmm_or_mem(ops[1]),), arith_name="to_f32_bits")
    if mn == "cvtss2sd":
        dst = ("xmm", ops[0].index, 0)
        src = ("xmm32", ops[1].index) if isinstance(ops[1], Xmm) else ("mem", ops[1])
        return DecodedInst(FPVMOp.CVT_F32_F64, ins, 1, dst, (src,),
                           arith_name="from_f32_bits")
    if mn == "roundsd":
        dst = ("xmm", ops[0].index, 0)
        return DecodedInst(FPVMOp.ROUND, ins, 1, dst, (_xmm_or_mem(ops[1]),),
                           imm=ops[2].value & 3, arith_name="round_to_integral")
    raise MachineError(f"FPVM cannot decode {mn!r} (not a trapping FP op)")


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
