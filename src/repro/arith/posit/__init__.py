"""posit — a from-scratch posit<nbits, es> implementation.

The reproduction's substitute for the Universal Numbers Library
(paper §4.3):

    "A posit number has four parts which include sign, regime,
    exponent and fraction.  Among the four, exponent and fraction
    have variable length.  The posit sizes/precisions available in
    the library can be chosen at compile-time."

* :mod:`repro.arith.posit.encoding` — decode/encode between n-bit
  posit words and exact ``(sign, mantissa, exp2)`` triples, with
  round-to-nearest-even in encoding space (posit encodings are
  monotone in value, so integer rounding of the word *is* value
  rounding) and saturation to minpos/maxpos (posits never overflow
  to NaR).
* :class:`PositArithmetic` — the FPVM port: exact integer arithmetic
  for +,−,×,÷,√,fma (then a single posit rounding), transcendentals
  via the bigfloat engine at 80-bit working precision.

Shadow values are the raw n-bit words (ints) — cheap to store, and
comparisons are just signed integer comparisons, a defining posit
property.
"""

from repro.arith.posit.adapter import PositArithmetic
from repro.arith.posit.encoding import PositEnv

__all__ = ["PositArithmetic", "PositEnv"]
