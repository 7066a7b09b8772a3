"""NaN-boxing: hiding shadow-value handles inside signaling NaNs (§2).

A binary64 signaling NaN has the exponent field all ones, the quiet
bit (fraction MSB) clear, and a nonzero remaining fraction — leaving
51 usable payload bits plus the sign bit.  FPVM encodes the handle of
a shadow value into that payload; the resulting bit pattern flows
through the program's registers and memory exactly like the double it
replaces, and *faults* the moment an MXCSR-consulting instruction
consumes it.

Handles here are keys into the :class:`~repro.fpvm.shadow.ShadowStore`
(the paper's footnote-4 variant: on a machine whose user address space
didn't fit 51 bits, "the 51 bits could simply be used as a key to a
hash lookup scheme instead of directly as a pointer").  Since all
simulated addresses are < 2^32, a pointer-style encoding would be
bit-identical in shape; the key form keeps the store's bookkeeping
explicit for the GC.

The program never observes FPVM's sNaN space ("NaN-space ownership"):
any program-generated sNaN consumed by an instruction traps into FPVM,
which — finding no shadow entry — treats it as a *universal NaN* and
emits the canonical quiet NaN.
"""

from __future__ import annotations

from repro.errors import NanBoxError
from repro.ieee.bits import (
    F64_EXP_MASK,
    F64_QNAN_BIT,
    F64_SIGN_BIT,
)

#: payload capacity (bits 0..50 of the fraction; bit 51 is the quiet bit)
PAYLOAD_BITS = 51
PAYLOAD_MASK = (1 << PAYLOAD_BITS) - 1
MAX_HANDLE = PAYLOAD_MASK  # handle 0 is reserved (would encode infinity)


class NaNBoxCodec:
    """Encode/decode shadow handles as signaling-NaN bit patterns.

    ``tag_sign`` sets the sign bit of every box FPVM creates; this
    costs nothing and lets diagnostics distinguish FPVM boxes from the
    (rare) program-made sNaN at a glance, while decode still accepts
    both (the program's own sNaNs must also trap into FPVM).
    """

    __slots__ = ("tag_sign",)

    def __init__(self, tag_sign: bool = True) -> None:
        self.tag_sign = tag_sign

    def encode(self, handle: int) -> int:
        """Box ``handle`` (1..2^51-1) into an sNaN bit pattern."""
        if not 0 < handle <= MAX_HANDLE:
            raise NanBoxError(f"handle out of range: {handle}")
        bits = F64_EXP_MASK | handle
        if self.tag_sign:
            bits |= F64_SIGN_BIT
        return bits

    @staticmethod
    def is_box(bits: int) -> bool:
        """True if ``bits`` *could* be a NaN-box (any signaling NaN).

        Whether it actually corresponds to a live shadow value is the
        store's call — the conservative GC and the emulator both do
        the membership check.  (``is_snan64``, spelled out: this test
        runs on every operand the emulator reads.)
        """
        return ((bits & F64_EXP_MASK) == F64_EXP_MASK
                and not bits & F64_QNAN_BIT and (bits & PAYLOAD_MASK) != 0)

    @staticmethod
    def decode(bits: int) -> int:
        """Extract the candidate handle from a signaling-NaN pattern."""
        return bits & PAYLOAD_MASK

    @staticmethod
    def is_candidate_word(word: int) -> bool:
        """GC scan predicate: an aligned u64 that looks like a box."""
        return (
            (word & F64_EXP_MASK) == F64_EXP_MASK
            and (word & F64_QNAN_BIT) == 0
            and (word & PAYLOAD_MASK) != 0
        )
