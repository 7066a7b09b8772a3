"""IEEE-754 bit-level layer.

This package implements the "hardware FPU" of the simulated machine:

* :mod:`repro.ieee.bits` — pure bit manipulation of binary64/binary32
  values (pack/unpack, classification, NaN taxonomy, decomposition into
  integer significand x power of two).
* :mod:`repro.ieee.softfloat` — the operation set of the simulated SSE
  unit: each op maps operand bit patterns to ``(result_bits, flags)``
  with x64-faithful special-value semantics.  Each op answers "did this
  operation round?" with one exact value-equality check (integer
  significand arithmetic, or 2Sum for sums).  That answer is the MXCSR
  Precision (inexact) flag, which drives every FPVM trap, so it must be
  exact rather than heuristic.

Flag bit positions match the x64 MXCSR register so the machine layer
can use them directly.
"""

from repro.ieee.bits import (
    F64_SIGN_BIT,
    F64_EXP_MASK,
    F64_FRAC_MASK,
    F64_QNAN_BIT,
    f64_to_bits,
    bits_to_f64,
    f32_to_bits,
    bits_to_f32,
    is_nan64,
    is_snan64,
    is_qnan64,
    is_inf64,
    is_zero64,
    is_denormal64,
    quiet64,
    decompose64,
    compose64,
)
from repro.ieee.softfloat import Flags, SoftFPU

__all__ = [
    "F64_SIGN_BIT",
    "F64_EXP_MASK",
    "F64_FRAC_MASK",
    "F64_QNAN_BIT",
    "f64_to_bits",
    "bits_to_f64",
    "f32_to_bits",
    "bits_to_f32",
    "is_nan64",
    "is_snan64",
    "is_qnan64",
    "is_inf64",
    "is_zero64",
    "is_denormal64",
    "quiet64",
    "decompose64",
    "compose64",
    "Flags",
    "SoftFPU",
]
