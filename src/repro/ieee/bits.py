"""Bit-level manipulation of IEEE-754 binary64 and binary32 values.

Everything in the simulated machine stores floating point data as raw
unsigned integers (``u64`` / ``u32``).  This module is the single place
that knows the IEEE-754 layout:

``binary64``: 1 sign bit | 11 exponent bits | 52 fraction bits
``binary32``: 1 sign bit |  8 exponent bits | 23 fraction bits

NaN taxonomy (x64 convention): a NaN whose fraction MSB (the "quiet
bit") is **set** is a quiet NaN; clear (with nonzero fraction) is a
signaling NaN.  FPVM's NaN-boxes are signaling NaNs, so these
predicates are on the hot path of the whole system.
"""

from __future__ import annotations

import struct

# ---------------------------------------------------------------------------
# binary64 layout constants
# ---------------------------------------------------------------------------

F64_SIGN_BIT = 1 << 63
F64_EXP_SHIFT = 52
F64_EXP_MASK = 0x7FF0_0000_0000_0000
F64_FRAC_MASK = 0x000F_FFFF_FFFF_FFFF
#: the "quiet" bit — fraction MSB; set => quiet NaN
F64_QNAN_BIT = 1 << 51
F64_EXP_BIAS = 1023
F64_MAX_BIASED_EXP = 0x7FF

#: canonical quiet NaN produced by x64 hardware for invalid operations
F64_DEFAULT_QNAN = 0xFFF8_0000_0000_0000

F64_POS_INF = 0x7FF0_0000_0000_0000
F64_NEG_INF = 0xFFF0_0000_0000_0000
F64_POS_ZERO = 0x0000_0000_0000_0000
F64_NEG_ZERO = 0x8000_0000_0000_0000

# ---------------------------------------------------------------------------
# binary32 layout constants
# ---------------------------------------------------------------------------

F32_SIGN_BIT = 1 << 31
F32_EXP_SHIFT = 23
F32_EXP_MASK = 0x7F80_0000
F32_FRAC_MASK = 0x007F_FFFF
F32_QNAN_BIT = 1 << 22
F32_EXP_BIAS = 127
F32_MAX_BIASED_EXP = 0xFF
F32_DEFAULT_QNAN = 0xFFC0_0000

_PACK_D = struct.Struct("<d")
_PACK_Q = struct.Struct("<Q")
_PACK_F = struct.Struct("<f")
_PACK_I = struct.Struct("<I")


# ---------------------------------------------------------------------------
# pack / unpack
# ---------------------------------------------------------------------------

def f64_to_bits(x: float) -> int:
    """Return the u64 bit pattern of a Python float (binary64)."""
    return _PACK_Q.unpack(_PACK_D.pack(x))[0]


def bits_to_f64(b: int) -> float:
    """Return the Python float whose binary64 bit pattern is ``b``."""
    return _PACK_D.unpack(_PACK_Q.pack(b & 0xFFFF_FFFF_FFFF_FFFF))[0]


def f32_to_bits(x: float) -> int:
    """Return the u32 bit pattern of ``x`` rounded to binary32."""
    return _PACK_I.unpack(_PACK_F.pack(x))[0]


def bits_to_f32(b: int) -> float:
    """Return (as a Python float) the binary32 value with bit pattern ``b``."""
    return _PACK_F.unpack(_PACK_I.pack(b & 0xFFFF_FFFF))[0]


# ---------------------------------------------------------------------------
# binary64 classification
# ---------------------------------------------------------------------------

def sign64(b: int) -> int:
    """0 for positive, 1 for negative."""
    return (b >> 63) & 1


def biased_exp64(b: int) -> int:
    return (b & F64_EXP_MASK) >> F64_EXP_SHIFT


def frac64(b: int) -> int:
    return b & F64_FRAC_MASK


def is_nan64(b: int) -> bool:
    return (b & F64_EXP_MASK) == F64_EXP_MASK and (b & F64_FRAC_MASK) != 0


def is_qnan64(b: int) -> bool:
    return is_nan64(b) and (b & F64_QNAN_BIT) != 0


def is_snan64(b: int) -> bool:
    return is_nan64(b) and (b & F64_QNAN_BIT) == 0


def is_inf64(b: int) -> bool:
    return (b & F64_EXP_MASK) == F64_EXP_MASK and (b & F64_FRAC_MASK) == 0


def is_zero64(b: int) -> bool:
    return (b & ~F64_SIGN_BIT) == 0


def is_denormal64(b: int) -> bool:
    """Denormal (subnormal) finite nonzero value."""
    return (b & F64_EXP_MASK) == 0 and (b & F64_FRAC_MASK) != 0


def is_finite64(b: int) -> bool:
    return (b & F64_EXP_MASK) != F64_EXP_MASK


def quiet64(b: int) -> int:
    """Quiet a NaN by setting its quiet bit (x64 keeps payload + sign)."""
    return b | F64_QNAN_BIT


# ---------------------------------------------------------------------------
# binary32 classification
# ---------------------------------------------------------------------------

def is_nan32(b: int) -> bool:
    return (b & F32_EXP_MASK) == F32_EXP_MASK and (b & F32_FRAC_MASK) != 0


def is_snan32(b: int) -> bool:
    return is_nan32(b) and (b & F32_QNAN_BIT) == 0


def is_inf32(b: int) -> bool:
    return (b & F32_EXP_MASK) == F32_EXP_MASK and (b & F32_FRAC_MASK) == 0


def is_zero32(b: int) -> bool:
    return (b & ~F32_SIGN_BIT) == 0


def is_denormal32(b: int) -> bool:
    return (b & F32_EXP_MASK) == 0 and (b & F32_FRAC_MASK) != 0


def quiet32(b: int) -> int:
    return b | F32_QNAN_BIT


# ---------------------------------------------------------------------------
# exact decomposition:  value == (-1)^sign * mant * 2^exp   (mant: int >= 0)
# ---------------------------------------------------------------------------

def decompose64(b: int) -> tuple[int, int, int]:
    """Decompose a finite binary64 into ``(sign, mant, exp)``.

    The represented value is exactly ``(-1)**sign * mant * 2**exp`` with
    ``mant`` a non-negative integer.  Zero decomposes to ``(s, 0, 0)``.
    Raises :class:`ValueError` for NaN/Inf — callers must special-case
    those first (the softfloat layer always does).
    """
    e = biased_exp64(b)
    if e == F64_MAX_BIASED_EXP:
        raise ValueError("cannot decompose NaN/Inf")
    s = sign64(b)
    f = frac64(b)
    if e == 0:
        if f == 0:
            return (s, 0, 0)
        # subnormal: value = f * 2^(1 - bias - 52)
        return (s, f, 1 - F64_EXP_BIAS - 52)
    return (s, f | (1 << 52), e - F64_EXP_BIAS - 52)


def compose64(sign: int, mant: int, exp: int) -> int:
    """Inverse of :func:`decompose64` for exactly-representable values.

    Requires that ``mant * 2**exp`` be representable without rounding
    (used by tests, not the arithmetic path).
    """
    if mant == 0:
        return F64_SIGN_BIT if sign else 0
    # normalize mantissa into [2^52, 2^53)
    while mant >= (1 << 53):
        if mant & 1:
            raise ValueError("value not exactly representable")
        mant >>= 1
        exp += 1
    while mant < (1 << 52):
        mant <<= 1
        exp -= 1
    biased = exp + F64_EXP_BIAS + 52
    if biased >= F64_MAX_BIASED_EXP:
        raise ValueError("overflow")
    if biased <= 0:
        # denormalize
        shift = 1 - biased
        if mant & ((1 << shift) - 1):
            raise ValueError("value not exactly representable (subnormal)")
        mant >>= shift
        biased = 0
        body = mant
    else:
        body = mant & F64_FRAC_MASK
    out = (biased << F64_EXP_SHIFT) | body
    if sign:
        out |= F64_SIGN_BIT
    return out
