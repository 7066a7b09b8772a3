"""The FP-trapping SSE ops, one row each.

Every mnemonic that consults MXCSR and can fault (the ``FP_ARITH``,
``FP_CMP`` and ``FP_CVT`` classes) is described once here, and each
consumer derives what it needs from the row:

* :mod:`repro.isa.opcodes` takes the class, encoded length and base
  cycles;
* ``machine/predecode.py`` builds the interpreter step from the SoftFPU
  kernel and the operand shapes;
* ``fpvm/decoder.py`` flattens the instruction into its
  :class:`FPVMOp` and operand templates (paper §4.1: "the hundreds of
  different x64 floating point instructions flatten down to about 40
  operation types");
* the trap-site JIT, the trace JIT, the range analysis and the
  sanitizer read the op, the shapes and :attr:`SSEOp.reboxed`.

Operand shapes.  A destination is the low binary64 lane of an XMM
register (``LO64``), its low binary32 slot (``LO32``), both binary64
lanes (``BOTH``), a general-purpose register (``GPR``) or the compare
flags ZF/PF/CF (``FLAGS``).  The other operands are read as a binary64
(``F64``), a binary32 (``F32``), both lanes (``XMM128``) or a signed
integer (``INT``), from an XMM register or memory (a GPR too for
``INT``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto


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


# destination shapes
LO64, LO32, BOTH, GPR, FLAGS = "lo64", "lo32", "both", "gpr", "flags"
# source shapes
F64, F32, XMM128, INT = "f64", "f32", "xmm128", "int"


@dataclass(frozen=True, slots=True)
class SSEOp:
    """One FP-trapping mnemonic."""

    mnemonic: str
    op: FPVMOp              # the flattened FPVM operation type
    kernel: str             # the SoftFPU method
    arith: str              # the arithmetic-port op name (op_cycles key)
    dst: str                # the destination shape
    src: str                # the shape of every other operand
    #: operand indices in kernel (and emulator) argument order; index 0
    #: reads the destination register
    args: tuple[int, ...]
    opclass: str            # OpClass name: FP_ARITH | FP_CMP | FP_CVT
    length: int             # synthetic encoded length in bytes
    cycles: int             # base cost in model cycles
    lanes: int = 1          # 2 for the packed forms
    #: mask of the trailing immediate the kernel takes (the CMPSD
    #: predicate, the ROUNDSD mode); 0 for none
    imm_mask: int = 0
    truncate: bool | None = None  # CVT(T)SD2SI's truncation argument
    #: ``(op, kernel)`` for a 32-bit integer operand (CVTSI2SD's source,
    #: CVT(T)SD2SI's destination)
    narrow: tuple[FPVMOp, str] | None = None
    #: FPVM boxes the binary64 result and the sanitizer checks it (not
    #: so for flags, masks, GPRs and the never-boxed binary32 slots)
    reboxed: bool = False

    @property
    def scalar_binop(self) -> bool:
        """``dst.lo = op(dst.lo, src)`` on binary64 (ADDSD ... MAXSD)."""
        return self.dst == LO64 and self.args == (0, 1) and not self.imm_mask

    def variant(self, ins) -> tuple[FPVMOp, str]:
        """``(op, kernel)`` of ``ins``: the size rule of the integer
        conversions picks the 32-bit variant for a 4-byte operand."""
        if self.narrow is not None:
            iop = ins.operands[0 if self.dst == GPR else 1]
            if iop.size == 4:
                return self.narrow
        return self.op, self.kernel


SSE_OPS: dict[str, SSEOp] = {}


def _row(*fields, **kw) -> None:
    spec = SSEOp(*fields, **kw)
    SSE_OPS[spec.mnemonic] = spec


#: (op, name, base cycles of the sd, pd and ss forms; ss only for the first 4)
_BINOPS = ((FPVMOp.ADD, "add", 3, 3, 3), (FPVMOp.SUB, "sub", 3, 3, 3),
           (FPVMOp.MUL, "mul", 5, 5, 5), (FPVMOp.DIV, "div", 20, 25, 13),
           (FPVMOp.SQRT, "sqrt", 27, 35, 0), (FPVMOp.MIN, "min", 3, 3, 0),
           (FPVMOp.MAX, "max", 3, 3, 0))
_OPS32 = {FPVMOp.ADD: FPVMOp.ADD32, FPVMOp.SUB: FPVMOp.SUB32,
          FPVMOp.MUL: FPVMOp.MUL32, FPVMOp.DIV: FPVMOp.DIV32}

# arithmetic: scalar binary64, packed binary64, scalar binary32
for _op, _n, _c, _, _ in _BINOPS:
    _row(_n + "sd", _op, _n + "64", _n, LO64, F64,
         (1,) if _op is FPVMOp.SQRT else (0, 1), "FP_ARITH", 4, _c,
         reboxed=True)
for _op, _n, _, _c, _ in _BINOPS:
    _row(_n + "pd", _op, _n + "64", _n, BOTH, XMM128,
         (1,) if _op is FPVMOp.SQRT else (0, 1), "FP_ARITH", 4, _c, lanes=2,
         reboxed=True)
for _op, _n, _, _, _c in _BINOPS[:4]:
    _row(_n + "ss", _OPS32[_op], _n + "32", _n, LO32, F32, (0, 1), "FP_ARITH",
         4, _c)
# simplified 3-operand FMA: fmaddsd dst, s1, s2 => dst.lo = s1*s2 + dst.lo
_row("fmaddsd", FPVMOp.FMA, "fma64", "fma", LO64, F64, (1, 2, 0), "FP_ARITH",
     5, 5, reboxed=True)

# comparison
_row("ucomisd", FPVMOp.UCOMI, "ucomi64", "compare", FLAGS, F64, (0, 1),
     "FP_CMP", 4, 2)
_row("comisd", FPVMOp.COMI, "comi64", "compare", FLAGS, F64, (0, 1),
     "FP_CMP", 4, 2)
_row("cmpsd", FPVMOp.CMP_PRED, "cmp64", "compare", LO64, F64, (0, 1),
     "FP_CMP", 5, 3, imm_mask=7)

# conversion
_row("cvtsi2sd", FPVMOp.CVT_I64_F64, "cvt_i64_to_f64", "from_i64", LO64,
     INT, (1,), "FP_CVT", 4, 4,
     narrow=(FPVMOp.CVT_I32_F64, "cvt_i32_to_f64"), reboxed=True)
_row("cvttsd2si", FPVMOp.CVT_F64_I64_TRUNC, "cvt_f64_to_i64", "to_i64", GPR,
     F64, (1,), "FP_CVT", 4, 4, truncate=True,
     narrow=(FPVMOp.CVT_F64_I32_TRUNC, "cvt_f64_to_i32"))
_row("cvtsd2si", FPVMOp.CVT_F64_I64, "cvt_f64_to_i64", "to_i64", GPR, F64,
     (1,), "FP_CVT", 4, 4, truncate=False,
     narrow=(FPVMOp.CVT_F64_I32, "cvt_f64_to_i32"))
_row("cvtsd2ss", FPVMOp.CVT_F64_F32, "cvt_f64_to_f32", "to_f32_bits", LO32,
     F64, (1,), "FP_CVT", 4, 4)
_row("cvtss2sd", FPVMOp.CVT_F32_F64, "cvt_f32_to_f64", "from_f32_bits",
     LO64, F32, (1,), "FP_CVT", 4, 2, reboxed=True)
_row("roundsd", FPVMOp.ROUND, "round64", "round_to_integral", LO64, F64,
     (1,), "FP_CVT", 6, 6, imm_mask=3, reboxed=True)
