"""Mnemonic table: classification, synthetic encoding length, base cost.

The classification is the load-bearing part of the whole reproduction:

* ``FP_ARITH`` / ``FP_CMP`` / ``FP_CVT`` instructions consult MXCSR and
  **can raise precise FP faults** — these are what trap-and-emulate
  catches.
* ``FP_MOV`` and ``FP_BITWISE`` instructions move/mangle FP *bits*
  without ever consulting MXCSR — x64 will happily pass a NaN-boxed
  value through ``movq %rax, %xmm0`` or ``xorpd``; these are exactly
  the paper's "x64 FP is not fully virtualizable" holes (§4.2, Figs
  6-8) that static analysis must patch.
* ``INT_*`` instructions can load FP bit patterns as integers — the
  *sink* instructions of the VSA source/sink analysis.

Lengths are synthetic but x64-plausible; they matter for trap-and-patch
(5-byte patch constraint, §3.2) and give the binary an address space
that behaves like a real text segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto

from repro.isa.sse import SSE_OPS


class OpClass(Enum):
    INT_ALU = auto()      # add/sub/and/or/... on GPRs; sets rflags
    INT_MOV = auto()      # mov/movzx/movsx/lea
    STACK = auto()        # push/pop
    CONTROL = auto()      # jmp/jcc/call/ret
    FP_ARITH = auto()     # SSE arithmetic; consults MXCSR; can fault
    FP_CMP = auto()       # ucomisd/comisd/cmpsd; can fault
    FP_CVT = auto()       # conversions; can fault
    FP_MOV = auto()       # movsd/movq/movapd...; never faults
    FP_BITWISE = auto()   # xorpd/andpd/orpd/andnpd; never faults
    SYSTEM = auto()       # nop/hlt/int3/fpvm_trap/ud2


@dataclass(frozen=True, slots=True)
class OpInfo:
    """Static properties of a mnemonic."""

    mnemonic: str
    opclass: OpClass
    length: int   # synthetic encoded length in bytes
    cycles: int   # base (non-faulting, L1-hit) cost in model cycles
    lanes: int = 1  # 2 for packed-double forms


def _mk(table: dict[str, OpInfo], mnemonic: str, opclass: OpClass,
        length: int, cycles: int, lanes: int = 1) -> None:
    table[mnemonic] = OpInfo(mnemonic, opclass, length, cycles, lanes)


OPCODES: dict[str, OpInfo] = {}

# --- integer data movement -------------------------------------------------
_mk(OPCODES, "mov", OpClass.INT_MOV, 3, 1)
_mk(OPCODES, "movabs", OpClass.INT_MOV, 10, 1)   # mov r64, imm64
_mk(OPCODES, "movzx", OpClass.INT_MOV, 4, 1)
_mk(OPCODES, "movsx", OpClass.INT_MOV, 4, 1)
_mk(OPCODES, "lea", OpClass.INT_MOV, 4, 1)
_mk(OPCODES, "push", OpClass.STACK, 1, 2)
_mk(OPCODES, "pop", OpClass.STACK, 1, 2)
_mk(OPCODES, "xchg", OpClass.INT_MOV, 2, 2)

# --- integer ALU -------------------------------------------------------------
for _m in ("add", "sub", "and", "or", "xor", "cmp", "test"):
    _mk(OPCODES, _m, OpClass.INT_ALU, 3, 1)
for _m in ("inc", "dec", "not", "neg"):
    _mk(OPCODES, _m, OpClass.INT_ALU, 3, 1)
for _m in ("shl", "shr", "sar"):
    _mk(OPCODES, _m, OpClass.INT_ALU, 3, 1)
_mk(OPCODES, "imul", OpClass.INT_ALU, 4, 3)
_mk(OPCODES, "idiv", OpClass.INT_ALU, 3, 24)
_mk(OPCODES, "cqo", OpClass.INT_ALU, 2, 1)
for _cc in ("sete", "setne", "setl", "setle", "setg", "setge",
            "setb", "setbe", "seta", "setae", "setp", "setnp"):
    _mk(OPCODES, _cc, OpClass.INT_ALU, 3, 1)
for _cc in ("cmove", "cmovne", "cmovl", "cmovg"):
    _mk(OPCODES, _cc, OpClass.INT_ALU, 4, 1)

# --- control flow ------------------------------------------------------------
_mk(OPCODES, "jmp", OpClass.CONTROL, 2, 1)
for _cc in ("je", "jne", "jl", "jle", "jg", "jge", "jb", "jbe", "ja", "jae",
            "js", "jns", "jp", "jnp"):
    _mk(OPCODES, _cc, OpClass.CONTROL, 2, 1)
_mk(OPCODES, "call", OpClass.CONTROL, 5, 4)
_mk(OPCODES, "ret", OpClass.CONTROL, 1, 4)

# --- SSE FP arithmetic, comparison and conversion (trap-capable) -----------
for _s in SSE_OPS.values():
    _mk(OPCODES, _s.mnemonic, OpClass[_s.opclass], _s.length, _s.cycles,
        _s.lanes)

# --- SSE FP moves (never fault — NaN-boxes flow through silently) -----------
for _m in ("movsd", "movss", "movapd", "movupd"):
    _mk(OPCODES, _m, OpClass.FP_MOV, 4, 1, lanes=2 if _m.endswith("pd") else 1)
_mk(OPCODES, "movq", OpClass.FP_MOV, 4, 1)     # xmm <-> r64/m64 bit transfer
_mk(OPCODES, "movhpd", OpClass.FP_MOV, 5, 1)   # high lane <-> m64

# --- SSE FP bitwise (never fault — the §4.2 correctness hole) ---------------
for _m in ("xorpd", "andpd", "orpd", "andnpd"):
    _mk(OPCODES, _m, OpClass.FP_BITWISE, 4, 1, lanes=2)

# --- system ------------------------------------------------------------------
_mk(OPCODES, "nop", OpClass.SYSTEM, 1, 1)
_mk(OPCODES, "hlt", OpClass.SYSTEM, 1, 1)
_mk(OPCODES, "int3", OpClass.SYSTEM, 1, 1)
_mk(OPCODES, "ud2", OpClass.SYSTEM, 2, 1)
#: pseudo-instruction installed by the static patcher (e9patch stand-in);
#: same encoded length as the instruction it replaces (carried in payload)
_mk(OPCODES, "fpvm_trap", OpClass.SYSTEM, 1, 1)
#: pseudo-instruction installed by the trap-and-patch engine (§3.2):
#: inline pre/post-condition check replacing a faulting FP instruction
_mk(OPCODES, "fpvm_patch", OpClass.SYSTEM, 1, 1)


def opcode_info(mnemonic: str) -> OpInfo:
    """Look up static properties; raises KeyError for unknown mnemonics."""
    return OPCODES[mnemonic]


_FP_TRAPPING = frozenset(SSE_OPS)
_FP_BITWISE = frozenset(
    m for m, i in OPCODES.items() if i.opclass is OpClass.FP_BITWISE
)
_FP_MOV = frozenset(m for m, i in OPCODES.items() if i.opclass is OpClass.FP_MOV)


def is_fp_trapping(mnemonic: str) -> bool:
    """True if the instruction consults MXCSR and can raise an FP fault."""
    return mnemonic in _FP_TRAPPING


def is_fp_bitwise(mnemonic: str) -> bool:
    """True for the non-faulting bitwise FP ops (xorpd/andpd/...)."""
    return mnemonic in _FP_BITWISE


def is_fp_mov(mnemonic: str) -> bool:
    """True for non-faulting FP data movement."""
    return mnemonic in _FP_MOV
