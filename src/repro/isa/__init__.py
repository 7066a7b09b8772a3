"""The simulated x64-subset instruction set architecture.

The ISA is object-form rather than byte-encoded: an
:class:`~repro.isa.instructions.Instruction` carries a mnemonic, fully
resolved operands, a synthetic encoded *length* in bytes (so code
addresses, patch-size constraints, and decode behave like real x64),
and the address the assembler placed it at.

Submodules:

* :mod:`repro.isa.registers` — register names, widths, classes
* :mod:`repro.isa.operands`  — Reg/Xmm/Imm/Mem/Label operand model
* :mod:`repro.isa.opcodes`   — mnemonic table with classification
  (which instructions can raise FP exceptions, which are the
  non-faulting "correctness hole" ops, base cycle costs…)
* :mod:`repro.isa.sse`       — one row per FP-trapping SSE mnemonic,
  from which the interpreter, the FPVM decoder and the analyses derive
* :mod:`repro.isa.instructions` — the Instruction dataclass
"""

from repro.isa.registers import GPR64, XMM_COUNT, is_gpr, subreg_size
from repro.isa.operands import Imm, Label, Mem, Reg, Xmm
from repro.isa.opcodes import (
    OPCODES,
    OpClass,
    opcode_info,
    is_fp_trapping,
    is_fp_bitwise,
    is_fp_mov,
)
from repro.isa.instructions import Instruction

__all__ = [
    "GPR64",
    "XMM_COUNT",
    "is_gpr",
    "subreg_size",
    "Imm",
    "Label",
    "Mem",
    "Reg",
    "Xmm",
    "OPCODES",
    "OpClass",
    "opcode_info",
    "is_fp_trapping",
    "is_fp_bitwise",
    "is_fp_mov",
    "Instruction",
]
