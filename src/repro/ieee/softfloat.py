"""The simulated SSE scalar FPU: ops from bit patterns to (bits, flags).

Each operation takes operand *bit patterns* (u64 for binary64, u32 for
binary32) and returns ``(result_bits, flags)`` where ``flags`` uses the
MXCSR layout of :class:`Flags`.  Semantics follow the x64 SSE unit:

* NaN propagation: for arithmetic, if src1 is NaN the result is
  quiet(src1), else quiet(src2); a signaling NaN operand raises
  Invalid.  MIN/MAX forward src2 and raise Invalid on *any* NaN.
* Invalid also on inf-inf, 0*inf, 0/0, inf/inf, sqrt(negative).
* Denormal is a pre-computation flag raised by denormal operands.
* Precision (inexact) is decided *exactly*: it is the predicate that
  makes FPVM trap on every rounding instruction, so a heuristic would
  change which instructions trap.
* Overflow / Underflow are detected on the rounded result (underflow
  requires inexactness, matching masked-response hardware behaviour).

The value itself is computed with the host's binary64 hardware (Python
floats round-to-nearest-even, identical to the simulated machine's
default rounding mode), and with NumPy ``float32`` for binary32 ops so
no double rounding occurs.

Exactness is one value-equality check per operation.  A finite binary64
pattern with biased exponent field ``E`` and fraction ``f`` has the
value ``v(x) = m * 2**(E' - 1075)``, where ``m`` is ``f`` plus the hidden
bit when ``E != 0`` and ``E'`` is ``E``, or 1 when ``E`` is 0 — one form
for normals, subnormals and zeros alike.  With ``r`` the host result:

* product:  ``ma*mb * 2**(Ea+Eb-1075-Er) == mr`` (sqrt: ``r*r == a``);
* quotient: ``ma * 2**(Ea+1075-Er-Eb) == mr*mb``;

each side an integer, shifting whichever side has the non-negative
exponent.  A sum is exact iff its 2Sum error term is zero.  A binary32
value is an exact binary64, so the binary32 ops use the same checks on
the widened values.  Each op classifies NaN/Inf operands with one
exponent-field test; the special-value ladders run only behind it.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from repro.ieee import bits as B


class Flags:
    """MXCSR exception-flag bit positions (bits 0-5 of %mxcsr)."""

    IE = 1 << 0  #: invalid operation
    DE = 1 << 1  #: denormal operand
    ZE = 1 << 2  #: divide by zero
    OE = 1 << 3  #: overflow
    UE = 1 << 4  #: underflow
    PE = 1 << 5  #: precision (inexact)

    ALL = IE | DE | ZE | OE | UE | PE

    _NAMES = {IE: "IE", DE: "DE", ZE: "ZE", OE: "OE", UE: "UE", PE: "PE"}

    @classmethod
    def describe(cls, flags: int) -> str:
        """Human-readable flag set, e.g. ``"IE|PE"``."""
        if not flags:
            return "-"
        return "|".join(n for bit, n in cls._NAMES.items() if flags & bit)


_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1
_I64_INDEFINITE = 1 << 63  # x64 integer indefinite value
_I32_INDEFINITE = 1 << 31
_M64 = 0xFFFF_FFFF_FFFF_FFFF

_EXP = B.F64_EXP_MASK
_FRAC = B.F64_FRAC_MASK
_ABS = _EXP | _FRAC
#: 1023 + 52: ``v(x) = m * 2**(E' - _BIAS)``
_BIAS = 1075

_IE, _DE, _PE = Flags.IE, Flags.DE, Flags.PE
_OE_PE = Flags.OE | Flags.PE
_UE_PE = Flags.UE | Flags.PE

_pack_d = struct.Struct("<d").pack
_unpack_d = struct.Struct("<d").unpack
_pack_q = struct.Struct("<Q").pack
_unpack_q = struct.Struct("<Q").unpack
_pack_qq = struct.Struct("<QQ").pack
_unpack_dd = struct.Struct("<dd").unpack


# --------------------------------------------------------------------------- #
# exactness: one value-equality check per operation, on finite patterns       #
# --------------------------------------------------------------------------- #

def _sum_exact(fa: float, fb: float, r: float) -> bool:
    """``fa + fb == r`` exactly, where ``r`` is the binary64 ``fa + fb``.

    2Sum: when no step overflows, ``err`` is the exact rounding error
    ``fa + fb - r`` (Boldo, Graillat & Muller, TOMS 2017).  An exact sum
    makes every step exact, so ``err`` is 0 and nothing overflows; an
    inexact one leaves ``err`` nonzero, or non-finite if a step
    overflows — never 0.
    """
    s = r - fa
    return (fa - (r - s)) + (fb - s) == 0.0


def _product_exact(a: int, b: int, r: int) -> bool:
    """``v(a) * v(b) == v(r)`` exactly (the host gives ``r`` its sign)."""
    ea = (a >> 52) & 0x7FF
    ma = a & _FRAC | (ea != 0) << 52
    eb = (b >> 52) & 0x7FF
    mb = b & _FRAC | (eb != 0) << 52
    er = (r >> 52) & 0x7FF
    mr = r & _FRAC | (er != 0) << 52
    d = (ea or 1) + (eb or 1) - _BIAS - (er or 1)
    if d >= 0:
        return ma * mb << d == mr
    return ma * mb == mr << -d


def _quotient_exact(a: int, b: int, r: int) -> bool:
    """``v(a) / v(b) == v(r)`` exactly, ``b`` nonzero: ``a == r*b``."""
    ea = (a >> 52) & 0x7FF
    ma = a & _FRAC | (ea != 0) << 52
    eb = (b >> 52) & 0x7FF
    mb = b & _FRAC | (eb != 0) << 52
    er = (r >> 52) & 0x7FF
    mr = r & _FRAC | (er != 0) << 52
    d = (ea or 1) + _BIAS - (er or 1) - (eb or 1)
    if d >= 0:
        return ma << d == mr * mb
    return ma == mr * mb << -d


def _signed_mant_exp(x: int) -> tuple[int, int]:
    """Finite pattern -> ``(signed m, E' - 1075)``: ``v(x) = m * 2**e``."""
    e = (x >> 52) & 0x7FF
    m = x & _FRAC | (e != 0) << 52
    return (-m if x >> 63 else m), (e or 1) - _BIAS


def _denormal_flag(*ops: int) -> int:
    return Flags.DE if any(B.is_denormal64(o) for o in ops) else 0


def _nan_arith_result(a: int, b: int) -> tuple[int, int]:
    """NaN propagation for two-operand arithmetic (src1 priority)."""
    flags = Flags.IE if (B.is_snan64(a) or B.is_snan64(b)) else 0
    if B.is_nan64(a):
        return B.quiet64(a), flags
    return B.quiet64(b), flags


class SoftFPU:
    """Stateless collection of simulated SSE operations.

    Methods are plain functions grouped in a class for discoverability;
    an instance carries no state (rounding mode is fixed to RNE, the
    machine default — directed-rounding MXCSR modes are not modeled,
    matching the paper's prototype).
    """

    # ----------------------------------------------------------------- #
    # binary64 arithmetic                                                #
    # ----------------------------------------------------------------- #

    def add64(self, a: int, b: int) -> tuple[int, int]:
        if (a & _EXP) == _EXP or (b & _EXP) == _EXP:
            if B.is_nan64(a) or B.is_nan64(b):
                return _nan_arith_result(a, b)
            if B.is_inf64(a) and B.is_inf64(b) and (a ^ b) & B.F64_SIGN_BIT:
                return B.F64_DEFAULT_QNAN, Flags.IE
            r = B.bits_to_f64(a) + B.bits_to_f64(b)
            return B.f64_to_bits(r), _denormal_flag(a, b)
        fa, fb = _unpack_dd(_pack_qq(a, b))
        r = fa + fb
        rb = _unpack_q(_pack_d(r))[0]
        fl = _DE if (not a & _EXP and a & _FRAC or not b & _EXP and b & _FRAC) else 0
        if (rb & _EXP) == _EXP:
            return rb, fl | _OE_PE
        if _sum_exact(fa, fb, r):
            return rb, fl
        return rb, fl | (_PE if rb & _EXP else _UE_PE)

    def sub64(self, a: int, b: int) -> tuple[int, int]:
        if (a & _EXP) == _EXP or (b & _EXP) == _EXP:
            if B.is_nan64(a) or B.is_nan64(b):
                return _nan_arith_result(a, b)
            if B.is_inf64(a) and B.is_inf64(b) and \
                    not ((a ^ b) & B.F64_SIGN_BIT):
                return B.F64_DEFAULT_QNAN, Flags.IE
            r = B.bits_to_f64(a) - B.bits_to_f64(b)
            return B.f64_to_bits(r), _denormal_flag(a, b)
        fa, fb = _unpack_dd(_pack_qq(a, b))
        r = fa - fb
        rb = _unpack_q(_pack_d(r))[0]
        fl = _DE if (not a & _EXP and a & _FRAC or not b & _EXP and b & _FRAC) else 0
        if (rb & _EXP) == _EXP:
            return rb, fl | _OE_PE
        if _sum_exact(fa, -fb, r):
            return rb, fl
        return rb, fl | (_PE if rb & _EXP else _UE_PE)

    def mul64(self, a: int, b: int) -> tuple[int, int]:
        if (a & _EXP) == _EXP or (b & _EXP) == _EXP:
            if B.is_nan64(a) or B.is_nan64(b):
                return _nan_arith_result(a, b)
            if (B.is_inf64(a) and B.is_zero64(b)) or \
                    (B.is_inf64(b) and B.is_zero64(a)):
                return B.F64_DEFAULT_QNAN, Flags.IE
            r = B.bits_to_f64(a) * B.bits_to_f64(b)
            return B.f64_to_bits(r), _denormal_flag(a, b)
        fa, fb = _unpack_dd(_pack_qq(a, b))
        rb = _unpack_q(_pack_d(fa * fb))[0]
        fl = _DE if (not a & _EXP and a & _FRAC or not b & _EXP and b & _FRAC) else 0
        if (rb & _EXP) == _EXP:
            return rb, fl | _OE_PE
        if _product_exact(a, b, rb):
            return rb, fl
        return rb, fl | (_PE if rb & _EXP else _UE_PE)

    def div64(self, a: int, b: int) -> tuple[int, int]:
        if (a & _EXP) == _EXP or (b & _EXP) == _EXP or \
                not a & _ABS or not b & _ABS:
            if B.is_nan64(a) or B.is_nan64(b):
                return _nan_arith_result(a, b)
            inf_a, inf_b = B.is_inf64(a), B.is_inf64(b)
            zero_a, zero_b = B.is_zero64(a), B.is_zero64(b)
            if (inf_a and inf_b) or (zero_a and zero_b):
                return B.F64_DEFAULT_QNAN, Flags.IE
            flags = _denormal_flag(a, b)
            sign = (a ^ b) & B.F64_SIGN_BIT
            if inf_a:  # inf / finite (zero included): exact, no ZE
                return sign | B.F64_POS_INF, flags
            if zero_b:  # finite nonzero / 0 -> ZE, signed inf
                return sign | B.F64_POS_INF, flags | Flags.ZE
            return sign, flags  # inf_b or zero_a: signed zero
        fa, fb = _unpack_dd(_pack_qq(a, b))
        rb = _unpack_q(_pack_d(fa / fb))[0]
        fl = _DE if (not a & _EXP and a & _FRAC or not b & _EXP and b & _FRAC) else 0
        if (rb & _EXP) == _EXP:
            return rb, fl | _OE_PE
        if _quotient_exact(a, b, rb):
            return rb, fl
        return rb, fl | (_PE if rb & _EXP else _UE_PE)

    def sqrt64(self, a: int) -> tuple[int, int]:
        if (a & _EXP) == _EXP or not a & _ABS or a >> 63:
            if B.is_nan64(a):
                f = Flags.IE if B.is_snan64(a) else 0
                return B.quiet64(a), f
            if B.is_zero64(a):
                return a, 0  # sqrt(+-0) = +-0 exactly
            if a & B.F64_SIGN_BIT:
                return B.F64_DEFAULT_QNAN, Flags.IE
            return a, 0  # +inf
        rb = _unpack_q(_pack_d(math.sqrt(_unpack_d(_pack_q(a))[0])))[0]
        fl = 0 if a & _EXP else _DE
        if _product_exact(rb, rb, a):  # r * r == a
            return rb, fl
        return rb, fl | _PE

    def fma64(self, a: int, b: int, c: int) -> tuple[int, int]:
        """Fused multiply-add ``a*b + c`` with a single rounding."""
        if B.is_nan64(a) or B.is_nan64(b) or B.is_nan64(c):
            snan = B.is_snan64(a) or B.is_snan64(b) or B.is_snan64(c)
            for op in (a, b, c):
                if B.is_nan64(op):
                    return B.quiet64(op), Flags.IE if snan else 0
        inf_a, inf_b = B.is_inf64(a), B.is_inf64(b)
        if (inf_a and B.is_zero64(b)) or (inf_b and B.is_zero64(a)):
            return B.F64_DEFAULT_QNAN, Flags.IE
        flags = _denormal_flag(a, b, c)
        if inf_a or inf_b or B.is_inf64(c):
            sp = (a ^ b) & B.F64_SIGN_BIT
            if inf_a or inf_b:
                if B.is_inf64(c) and (c & B.F64_SIGN_BIT) != sp:
                    return B.F64_DEFAULT_QNAN, flags | Flags.IE
                return sp | B.F64_POS_INF, flags
            return c, flags
        # exact integer evaluation then a single binary64 rounding
        sa, ea = _signed_mant_exp(a)
        sb, eb = _signed_mant_exp(b)
        sc, ec = _signed_mant_exp(c)
        ep = ea + eb
        e = min(ep, ec)
        total = ((sa * sb) << (ep - e)) + (sc << (ec - e))
        if total == 0:
            # IEEE: exact zero result takes sign of c when cancelling (RNE: +0)
            prod_sign = (a ^ b) & B.F64_SIGN_BIT
            if sa * sb == 0 and sc == 0:
                zc = c & B.F64_SIGN_BIT
                rb = prod_sign & zc
            else:
                rb = 0
            return rb, flags
        try:
            rb = B.f64_to_bits(self._round_big(total, e))
        except OverflowError:  # beyond binary64: RNE overflows to inf
            sign = B.F64_SIGN_BIT if total < 0 else 0
            return sign | B.F64_POS_INF, flags | Flags.OE | Flags.PE
        sr, er = _signed_mant_exp(rb)
        exact = (total << (e - er) == sr if e >= er
                 else total == sr << (er - e))
        if not exact:
            flags |= Flags.PE
            if not rb & _EXP:
                flags |= Flags.UE
        return rb, flags

    @staticmethod
    def _round_big(mant: int, exp: int) -> float:
        """Round ``mant * 2**exp`` (any nonzero integer ``mant``) to
        binary64, RNE, in one integer rounding: to 53 significant bits,
        or to the 2**-1074 grid when the result is subnormal, so the
        final scaling is exact.  Raises ``OverflowError`` when the
        rounded value is beyond the binary64 range.
        """
        m = abs(mant)
        drop = max(m.bit_length() - 53, -1074 - exp)
        if drop > 0:
            rem = m & ((1 << drop) - 1)
            half = 1 << (drop - 1)
            m >>= drop
            if rem > half or (rem == half and m & 1):
                m += 1
            exp += drop
        r = math.ldexp(float(m), exp)
        return -r if mant < 0 else r

    def min64(self, a: int, b: int) -> tuple[int, int]:
        """x64 MINSD: NaN (either) or both-zero -> returns src2 unchanged."""
        if B.is_nan64(a) or B.is_nan64(b):
            return b, Flags.IE
        flags = _denormal_flag(a, b)
        fa, fb = B.bits_to_f64(a), B.bits_to_f64(b)
        if fa == fb:  # covers +-0: forward src2
            return b, flags
        return (a if fa < fb else b), flags

    def max64(self, a: int, b: int) -> tuple[int, int]:
        if B.is_nan64(a) or B.is_nan64(b):
            return b, Flags.IE
        flags = _denormal_flag(a, b)
        fa, fb = B.bits_to_f64(a), B.bits_to_f64(b)
        if fa == fb:
            return b, flags
        return (a if fa > fb else b), flags

    # ----------------------------------------------------------------- #
    # comparisons                                                        #
    # ----------------------------------------------------------------- #

    def ucomi64(self, a: int, b: int) -> tuple[tuple[int, int, int], int]:
        """UCOMISD: returns ((zf, pf, cf), flags); IE only on sNaN."""
        if (a & _EXP) == _EXP and a & _FRAC or (b & _EXP) == _EXP and b & _FRAC:
            f = Flags.IE if (B.is_snan64(a) or B.is_snan64(b)) else 0
            return (1, 1, 1), f
        fa, fb = _unpack_dd(_pack_qq(a, b))
        if fa > fb:
            return (0, 0, 0), 0
        if fa < fb:
            return (0, 0, 1), 0
        return (1, 0, 0), 0

    def comi64(self, a: int, b: int) -> tuple[tuple[int, int, int], int]:
        """COMISD: like UCOMISD but IE on *any* NaN."""
        if (a & _EXP) == _EXP and a & _FRAC or (b & _EXP) == _EXP and b & _FRAC:
            return (1, 1, 1), Flags.IE
        fa, fb = _unpack_dd(_pack_qq(a, b))
        if fa > fb:
            return (0, 0, 0), 0
        if fa < fb:
            return (0, 0, 1), 0
        return (1, 0, 0), 0

    def cmp64(self, a: int, b: int, predicate: int) -> tuple[int, int]:
        """CMPSD imm8 predicate -> all-ones / all-zeros u64 mask.

        Predicates 0-7: EQ, LT, LE, UNORD, NEQ, NLT, NLE, ORD.  The
        signaling predicates' IE behaviour is simplified: IE on sNaN.
        """
        nan = B.is_nan64(a) or B.is_nan64(b)
        flags = Flags.IE if (B.is_snan64(a) or B.is_snan64(b)) else 0
        if not nan:
            flags |= _denormal_flag(a, b)
        fa = None if nan else B.bits_to_f64(a)
        fb = None if nan else B.bits_to_f64(b)
        if predicate == 0:
            res = (not nan) and fa == fb
        elif predicate == 1:
            res = (not nan) and fa < fb
        elif predicate == 2:
            res = (not nan) and fa <= fb
        elif predicate == 3:
            res = nan
        elif predicate == 4:
            res = nan or fa != fb
        elif predicate == 5:
            res = nan or not (fa < fb)
        elif predicate == 6:
            res = nan or not (fa <= fb)
        elif predicate == 7:
            res = not nan
        else:
            raise ValueError(f"bad CMPSD predicate {predicate}")
        return (0xFFFF_FFFF_FFFF_FFFF if res else 0), flags

    # ----------------------------------------------------------------- #
    # conversions                                                        #
    # ----------------------------------------------------------------- #

    def cvt_i64_to_f64(self, i: int) -> tuple[int, int]:
        """CVTSI2SD from a signed 64-bit integer; an int and a float
        compare exactly, so PE is ``float(i) != i``."""
        if i >= 1 << 63:
            i -= 1 << 64
        r = float(i)
        return _unpack_q(_pack_d(r))[0], (_PE if r != i else 0)

    def cvt_i32_to_f64(self, i: int) -> tuple[int, int]:
        if i >= 1 << 31:
            i -= 1 << 32
        return B.f64_to_bits(float(i)), 0  # all i32 are exact in f64

    def cvt_f64_to_i64(self, a: int, truncate: bool) -> tuple[int, int]:
        """CVT(T)SD2SI to 64-bit; out-of-range/NaN -> indefinite + IE."""
        if (a & _EXP) == _EXP:
            return _I64_INDEFINITE, _IE
        f = _unpack_d(_pack_q(a))[0]
        v = math.trunc(f) if truncate else _round_half_even(f)
        if not _I64_MIN <= v <= _I64_MAX:
            return _I64_INDEFINITE, _IE
        return v & _M64, (_PE if v != f else 0)

    def cvt_f64_to_i32(self, a: int, truncate: bool) -> tuple[int, int]:
        if (a & _EXP) == _EXP:
            return _I32_INDEFINITE, _IE
        f = _unpack_d(_pack_q(a))[0]
        v = math.trunc(f) if truncate else _round_half_even(f)
        if not -(1 << 31) <= v <= (1 << 31) - 1:
            return _I32_INDEFINITE, _IE
        return v & 0xFFFF_FFFF, (_PE if v != f else 0)

    def cvt_f64_to_f32(self, a: int) -> tuple[int, int]:
        """CVTSD2SS; result is a u32 bit pattern."""
        if B.is_nan64(a):
            flags = Flags.IE if B.is_snan64(a) else 0
            # narrow NaN: keep sign + top fraction bits, force quiet
            r32 = ((a >> 32) & 0x8000_0000) | 0x7FC0_0000 | ((a >> 29) & 0x1FFFFF)
            return r32 & 0xFFFF_FFFF, flags
        flags = _denormal_flag(a)
        f = B.bits_to_f64(a)
        with np.errstate(all="ignore"):
            r = np.float32(f)
        r32 = B.f32_to_bits(float(r))
        if B.is_inf32(r32) and B.is_finite64(a):
            return r32, flags | Flags.OE | Flags.PE
        if float(r) != f:
            flags |= Flags.PE
            if B.is_denormal32(r32) or (B.is_zero32(r32) and not B.is_zero64(a)):
                flags |= Flags.UE
        return r32, flags

    def cvt_f32_to_f64(self, a32: int) -> tuple[int, int]:
        """CVTSS2SD; widening is always exact; IE quiets sNaN."""
        if B.is_nan32(a32):
            flags = Flags.IE if B.is_snan32(a32) else 0
            r = ((a32 & 0x8000_0000) << 32) | B.F64_EXP_MASK | B.F64_QNAN_BIT
            r |= (a32 & 0x003F_FFFF) << 29
            return r, flags
        flags = Flags.DE if B.is_denormal32(a32) else 0
        return B.f64_to_bits(B.bits_to_f32(a32)), flags

    def round64(self, a: int, mode: int) -> tuple[int, int]:
        """ROUNDSD to integral; mode: 0=RNE, 1=floor, 2=ceil, 3=trunc."""
        if B.is_nan64(a):
            f = Flags.IE if B.is_snan64(a) else 0
            return B.quiet64(a), f
        if B.is_inf64(a) or B.is_zero64(a):
            return a, 0
        f = B.bits_to_f64(a)
        if mode == 0:
            v = float(_round_half_even(f))
        elif mode == 1:
            v = float(math.floor(f))
        elif mode == 2:
            v = float(math.ceil(f))
        elif mode == 3:
            v = float(math.trunc(f))
        else:
            raise ValueError(f"bad ROUNDSD mode {mode}")
        rb = B.f64_to_bits(v)
        if v == 0.0 and f < 0:  # preserve -0 behaviour of rounding
            rb |= B.F64_SIGN_BIT
        flags = Flags.PE if v != f else 0
        return rb, flags

    # ----------------------------------------------------------------- #
    # binary32 arithmetic (enough to demonstrate the "float problem")    #
    # ----------------------------------------------------------------- #

    def _arith32(self, a32: int, b32: int, op: str) -> tuple[int, int]:
        if B.is_nan32(a32) or B.is_nan32(b32):
            flags = Flags.IE if (B.is_snan32(a32) or B.is_snan32(b32)) else 0
            nan = a32 if B.is_nan32(a32) else b32
            return B.quiet32(nan), flags
        fa = np.float32(B.bits_to_f32(a32))
        fb = np.float32(B.bits_to_f32(b32))
        flags = Flags.DE if (B.is_denormal32(a32) or B.is_denormal32(b32)) else 0
        with np.errstate(all="ignore"):
            if op == "add":
                r = fa + fb
            elif op == "sub":
                r = fa - fb
            elif op == "mul":
                r = fa * fb
            elif op == "div":
                if float(fb) == 0.0 and not B.is_inf32(a32):
                    if float(fa) == 0.0:
                        return B.F32_DEFAULT_QNAN, Flags.IE
                    sign = (a32 ^ b32) & B.F32_SIGN_BIT
                    return sign | 0x7F80_0000, flags | Flags.ZE
                r = fa / fb
            else:  # pragma: no cover - guarded by callers
                raise ValueError(op)
        if math.isnan(float(r)):
            return B.F32_DEFAULT_QNAN, flags | Flags.IE
        r32 = B.f32_to_bits(float(r))
        if B.is_inf32(r32) and not (B.is_inf32(a32) or B.is_inf32(b32)):
            return r32, flags | Flags.OE | Flags.PE
        if B.is_inf32(a32) or B.is_inf32(b32):
            return r32, flags
        # a binary32 value is an exact binary64: the binary64 checks
        # decide; a sum is exact iff its binary64 sum is exact and equal
        wa, wb, wr = float(fa), float(fb), float(r)
        if op == "add":
            s = wa + wb
            exact = s == wr and _sum_exact(wa, wb, s)
        elif op == "sub":
            s = wa - wb
            exact = s == wr and _sum_exact(wa, -wb, s)
        elif op == "mul":
            exact = _product_exact(B.f64_to_bits(wa), B.f64_to_bits(wb),
                                   B.f64_to_bits(wr))
        else:
            exact = _quotient_exact(B.f64_to_bits(wa), B.f64_to_bits(wb),
                                    B.f64_to_bits(wr))
        if not exact:
            flags |= Flags.PE
            if B.is_denormal32(r32) or (
                B.is_zero32(r32) and not (B.is_zero32(a32) and B.is_zero32(b32))
            ):
                flags |= Flags.UE
        return r32, flags

    def add32(self, a: int, b: int) -> tuple[int, int]:
        return self._arith32(a, b, "add")

    def sub32(self, a: int, b: int) -> tuple[int, int]:
        return self._arith32(a, b, "sub")

    def mul32(self, a: int, b: int) -> tuple[int, int]:
        return self._arith32(a, b, "mul")

    def div32(self, a: int, b: int) -> tuple[int, int]:
        return self._arith32(a, b, "div")


def _round_half_even(f: float) -> int:
    """Round-to-nearest-even to an integer (x64 default rounding)."""
    fl = math.floor(f)
    diff = f - fl
    if diff > 0.5:
        return fl + 1
    if diff < 0.5:
        return fl
    return fl + 1 if fl & 1 else fl
