"""The BF value type and the core correctly rounded arithmetic.

A finite nonzero ``BF`` is ``(-1)**sign * mant * 2**exp`` where
``mant`` always has exactly ``prec`` bits (normalized: its top bit is
set).  Zeros keep a sign (IEEE-style); infinities and NaN are kinded
specials.  The exponent is an unbounded Python int — like MPFR, there
is no overflow/underflow in the representation itself (MPFR's
exponent is a 64-bit integer; ours is unbounded, a strict superset).

Rounding: all core operations compute an exact (or
guard+sticky-truncated) integer result and round once with
round-to-nearest-even; directed modes (toward zero / ±inf) are also
supported for completeness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.ieee.bits import decompose64, f64_to_bits

# kinds
FINITE = 0
ZERO = 1
INF = 2
NAN = 3

# rounding modes (MPFR naming)
RNDN = "RNDN"  # nearest, ties to even
RNDZ = "RNDZ"  # toward zero
RNDU = "RNDU"  # toward +inf
RNDD = "RNDD"  # toward -inf


@dataclass(frozen=True, slots=True)
class BF:
    """An immutable arbitrary-precision binary float value."""

    kind: int
    sign: int      # 0 positive, 1 negative (meaningful for ZERO/INF too)
    mant: int      # normalized, exactly prec bits (FINITE only)
    exp: int       # value = mant * 2**exp (FINITE only)
    prec: int      # precision this value was rounded to
    #: MPFR-style ternary: sign of (stored - exact) for the rounding
    #: that produced this value; 0 when exact.  Lets to_float avoid
    #: double rounding into the binary64 subnormal range
    #: (mpfr_subnormalize needs the same side information).
    ternary: int = field(default=0, compare=False)

    # ------------------------------------------------------------------ #
    @property
    def is_nan(self) -> bool:
        return self.kind == NAN

    @property
    def is_inf(self) -> bool:
        return self.kind == INF

    @property
    def is_zero(self) -> bool:
        return self.kind == ZERO

    def signed_mant(self) -> int:
        return -self.mant if self.sign else self.mant

    def to_float(self) -> float:
        """Nearest binary64 (RNE), overflow to ±inf.

        Rounds exactly once, in integer arithmetic, at the target
        precision — 53 bits for normal results, fewer inside the
        subnormal range — then scales with an exact ldexp.  Double
        rounding can only go wrong when the stored value sits exactly
        on a tie of the coarser grid (the first rounding erred by
        < 1/2 stored-ulp, which is under the tie distance everywhere
        else); the stored ternary says which side the exact value is
        on, so we break those ties toward it (mpfr_subnormalize).
        """
        if self.kind == NAN:
            return math.nan
        if self.kind == INF:
            return -math.inf if self.sign else math.inf
        if self.kind == ZERO:
            return -0.0 if self.sign else 0.0
        m, e = self.mant, self.exp
        msb = e + m.bit_length() - 1
        if msb >= -1022:
            excess = m.bit_length() - 53     # normal: 53-bit target
        else:
            excess = -1074 - e               # subnormal: fixed ulp 2^-1074
        if excess > 0:
            dropped = m & ((1 << excess) - 1)
            m >>= excess
            e += excess
            half = 1 << (excess - 1)
            if dropped > half:
                m += 1
            elif dropped == half:
                mag_t = -self.ternary if self.sign else self.ternary
                if mag_t < 0:                # stored < exact: true value
                    m += 1                   # is above the tie point
                elif mag_t == 0 and (m & 1):
                    m += 1                   # genuine tie: ties-to-even
                # mag_t > 0: exact below the tie point — round down
        try:
            v = math.ldexp(float(m), e)
        except OverflowError:
            v = math.inf
        return -v if self.sign else v

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.kind == NAN:
            return "BF(nan)"
        if self.kind == INF:
            return f"BF({'-' if self.sign else '+'}inf)"
        if self.kind == ZERO:
            return f"BF({'-' if self.sign else '+'}0)"
        return f"BF({'-' if self.sign else ''}{self.mant}*2^{self.exp})"


def _nan(prec: int) -> BF:
    return BF(NAN, 0, 0, 0, prec)


def _inf(sign: int, prec: int) -> BF:
    return BF(INF, sign, 0, 0, prec)


def _zero(sign: int, prec: int) -> BF:
    return BF(ZERO, sign, 0, 0, prec)


class BigFloatContext:
    """Arithmetic at a fixed precision and rounding mode (MPFR-style)."""

    def __init__(self, precision: int = 200, rounding: str = RNDN) -> None:
        if precision < 2:
            raise ValueError("precision must be at least 2 bits")
        if rounding not in (RNDN, RNDZ, RNDU, RNDD):
            raise ValueError(f"unknown rounding mode {rounding!r}")
        self.prec = precision
        self.rounding = rounding

    # ------------------------------------------------------------------ #
    # construction / rounding                                             #
    # ------------------------------------------------------------------ #

    def nan(self) -> BF:
        return _nan(self.prec)

    def inf(self, sign: int = 0) -> BF:
        return _inf(sign, self.prec)

    def zero(self, sign: int = 0) -> BF:
        return _zero(sign, self.prec)

    def round_mant(self, sign: int, m: int, e: int,
                   sticky: bool = False) -> BF:
        """Round ``(-1)**sign * m * 2**e`` (m > 0 exact unless ``sticky``)
        to context precision.  ``sticky`` means bits beyond ``m`` were
        already dropped (all-zero iff sticky is False)."""
        if m == 0:
            return _zero(sign, self.prec)
        nb = m.bit_length()
        excess = nb - self.prec
        if excess <= 0:
            if sticky:
                # pad 2 bits then re-round: the sticky bit lands well
                # below the rounding position, so it can never fake a tie
                m = (m << (-excess + 2)) | 1
                e += excess - 2
                return self.round_mant(sign, m, e, sticky=False)
            return BF(FINITE, sign, m << -excess, e + excess, self.prec)
        dropped = m & ((1 << excess) - 1)
        m >>= excess
        e += excess
        ternary = 0
        if dropped != 0 or sticky:
            mode = self.rounding
            up = False
            if mode == RNDN:
                half = 1 << (excess - 1)
                if dropped > half or (
                    dropped == half and (sticky or (m & 1))
                ):
                    up = True
            elif mode == RNDU and not sign:
                up = True
            elif mode == RNDD and sign:
                up = True
            # RNDZ truncates: nothing to do
            if up:
                m += 1
                if m == (1 << self.prec):
                    m >>= 1
                    e += 1
            # magnitude moved up or down; express as sign of stored-exact
            mag_t = 1 if up else -1
            ternary = -mag_t if sign else mag_t
        return BF(FINITE, sign, m, e, self.prec, ternary)

    # ------------------------------------------------------------------ #
    # conversions in                                                      #
    # ------------------------------------------------------------------ #

    def from_float(self, x: float) -> BF:
        if math.isnan(x):
            return self.nan()
        if math.isinf(x):
            return self.inf(1 if x < 0 else 0)
        if x == 0.0:
            return self.zero(1 if math.copysign(1.0, x) < 0 else 0)
        s, m, e = decompose64(f64_to_bits(x))
        return self.round_mant(s, m, e)

    def from_int(self, i: int) -> BF:
        if i == 0:
            return self.zero()
        return self.round_mant(1 if i < 0 else 0, abs(i), 0)

    def from_mant_exp(self, sign: int, mant: int, exp: int) -> BF:
        return self.round_mant(sign, mant, exp)

    # ------------------------------------------------------------------ #
    # basic arithmetic                                                    #
    # ------------------------------------------------------------------ #

    def add(self, a: BF, b: BF) -> BF:
        if a.kind == NAN or b.kind == NAN:
            return self.nan()
        if a.kind == INF or b.kind == INF:
            if a.kind == INF and b.kind == INF and a.sign != b.sign:
                return self.nan()
            return self.inf(a.sign if a.kind == INF else b.sign)
        if a.kind == ZERO and b.kind == ZERO:
            if a.sign and b.sign:
                return self.zero(1)
            if self.rounding == RNDD and (a.sign or b.sign):
                return self.zero(1)
            return self.zero(0)
        if a.kind == ZERO:
            return self.round_mant(b.sign, b.mant, b.exp)
        if b.kind == ZERO:
            return self.round_mant(a.sign, a.mant, a.exp)
        sa, ea = a.signed_mant(), a.exp
        sb, eb = b.signed_mant(), b.exp
        # cap the alignment: the far-smaller operand only contributes a
        # sticky bit (prevents astronomically wide integers)
        gap = abs(ea - eb)
        cap = max(a.mant.bit_length(), b.mant.bit_length()) + self.prec + 4
        sticky = False
        if gap > cap:
            if ea > eb:
                sb = (1 if sb > 0 else -1)
                eb = ea - cap
                sticky = True
            else:
                sa = (1 if sa > 0 else -1)
                ea = eb - cap
                sticky = True
        e = min(ea, eb)
        total = (sa << (ea - e)) + (sb << (eb - e))
        if total == 0:
            if sticky:
                # cancellation to the sticky bit cannot actually happen
                # (the small operand is far below the large one)
                pass
            sign = 1 if (self.rounding == RNDD) else 0
            return self.zero(sign if not sticky else 0)
        return self.round_mant(1 if total < 0 else 0, abs(total), e,
                               sticky=sticky)

    def sub(self, a: BF, b: BF) -> BF:
        return self.add(a, self.neg(b))

    def neg(self, a: BF) -> BF:
        if a.kind == NAN:
            return a
        return BF(a.kind, a.sign ^ 1, a.mant, a.exp, a.prec, -a.ternary)

    def abs(self, a: BF) -> BF:
        if a.kind == NAN:
            return a
        return BF(a.kind, 0, a.mant, a.exp, a.prec,
                  -a.ternary if a.sign else a.ternary)

    def mul(self, a: BF, b: BF) -> BF:
        if a.kind == NAN or b.kind == NAN:
            return self.nan()
        sign = a.sign ^ b.sign
        if a.kind == INF or b.kind == INF:
            if a.kind == ZERO or b.kind == ZERO:
                return self.nan()
            return self.inf(sign)
        if a.kind == ZERO or b.kind == ZERO:
            return self.zero(sign)
        return self.round_mant(sign, a.mant * b.mant, a.exp + b.exp)

    def div(self, a: BF, b: BF) -> BF:
        if a.kind == NAN or b.kind == NAN:
            return self.nan()
        sign = a.sign ^ b.sign
        if a.kind == INF:
            return self.nan() if b.kind == INF else self.inf(sign)
        if b.kind == INF:
            return self.zero(sign)
        if b.kind == ZERO:
            return self.nan() if a.kind == ZERO else self.inf(sign)
        if a.kind == ZERO:
            return self.zero(sign)
        # the quotient must carry prec + 2 bits before rounding, so the
        # shift grows with how much wider the divisor is
        shift = max(0, self.prec + 2 + b.mant.bit_length()
                    - a.mant.bit_length())
        q, r = divmod(a.mant << shift, b.mant)
        return self.round_mant(sign, q, a.exp - b.exp - shift,
                               sticky=r != 0)

    def sqrt(self, a: BF) -> BF:
        if a.kind == NAN:
            return a
        if a.kind == ZERO:
            return a  # sqrt(±0) = ±0
        if a.sign:
            return self.nan()
        if a.kind == INF:
            return self.inf(0)
        m, e = a.mant, a.exp
        # want ~2*(prec+2) significant bits under the square root
        shift = 2 * (self.prec + 2) - m.bit_length()
        if shift < 0:
            shift = 0
        if (e - shift) % 2:
            shift += 1
        m <<= shift
        e -= shift
        r = math.isqrt(m)
        sticky = r * r != m
        return self.round_mant(0, r, e // 2, sticky=sticky)

    def fma(self, a: BF, b: BF, c: BF) -> BF:
        """a*b + c with a single rounding."""
        if a.kind == NAN or b.kind == NAN or c.kind == NAN:
            return self.nan()
        psign = a.sign ^ b.sign
        if a.kind == INF or b.kind == INF:
            if a.kind == ZERO or b.kind == ZERO:
                return self.nan()
            if c.kind == INF and c.sign != psign:
                return self.nan()
            return self.inf(psign)
        if c.kind == INF:
            return self.inf(c.sign)
        if a.kind == ZERO or b.kind == ZERO:
            return self.round_mant(c.sign, c.mant, c.exp) \
                if c.kind == FINITE else self.zero(
                    psign & c.sign if c.kind == ZERO else c.sign)
        pm = a.mant * b.mant
        pe = a.exp + b.exp
        prod = BF(FINITE, psign, pm, pe, pm.bit_length())
        if c.kind == ZERO:
            return self.round_mant(psign, pm, pe)
        return self.add(prod, c)

    # ------------------------------------------------------------------ #
    # comparison                                                          #
    # ------------------------------------------------------------------ #

    def cmp(self, a: BF, b: BF) -> int | None:
        """-1/0/+1, or None if unordered (±0 compare equal)."""
        if a.kind == NAN or b.kind == NAN:
            return None
        if a.kind == ZERO and b.kind == ZERO:
            return 0
        if a.kind == ZERO:
            return 1 if b.sign else -1
        if b.kind == ZERO:
            return -1 if a.sign else 1
        if a.sign != b.sign:
            return -1 if a.sign else 1
        # same sign; compare magnitudes (INF is the largest magnitude)
        if a.kind == INF or b.kind == INF:
            if a.kind == b.kind:
                return 0
            mag = 1 if a.kind == INF else -1
        else:
            sa = a.exp + a.mant.bit_length()
            sb = b.exp + b.mant.bit_length()
            if sa != sb:
                mag = 1 if sa > sb else -1
            else:
                e = min(a.exp, b.exp)
                ma = a.mant << (a.exp - e)
                mb = b.mant << (b.exp - e)
                mag = (ma > mb) - (ma < mb)
        return -mag if a.sign else mag

    # ------------------------------------------------------------------ #
    # integral conversions / rounding to integer                          #
    # ------------------------------------------------------------------ #

    def to_int(self, a: BF, mode: str = "trunc") -> int | None:
        """Exact integer conversion; None for NaN/Inf."""
        if a.kind in (NAN, INF):
            return None
        if a.kind == ZERO:
            return 0
        m, e = a.mant, a.exp
        if e >= 0:
            v = m << e
        else:
            whole = m >> -e
            frac = m & ((1 << -e) - 1)
            if mode == "trunc" or frac == 0:
                v = whole
            elif mode == "nearest":
                half = 1 << (-e - 1)
                if frac > half or (frac == half and (whole & 1)):
                    whole += 1
                v = whole
            elif mode == "floor":
                v = whole if not a.sign else whole + (1 if frac else 0)
            elif mode == "ceil":
                v = whole + (1 if frac and not a.sign else 0)
            else:  # pragma: no cover
                raise ValueError(mode)
        return -v if a.sign else v

    def round_to_integral(self, a: BF, mode: int) -> BF:
        """ROUNDSD-compatible: 0=nearest-even 1=floor 2=ceil 3=trunc."""
        if a.kind in (NAN, INF, ZERO):
            return a
        names = {0: "nearest", 1: "floor", 2: "ceil", 3: "trunc"}
        i = self.to_int(a, names[mode])
        if i == 0:
            return self.zero(a.sign)
        return self.from_int(i)

    # ------------------------------------------------------------------ #
    # decimal rendering                                                   #
    # ------------------------------------------------------------------ #

    def to_decimal_str(self, a: BF, digits: int | None = None) -> str:
        """Scientific-notation decimal rendering with ``digits``
        significant digits (default: full precision, ~prec*log10(2))."""
        if a.kind == NAN:
            return "nan"
        if a.kind == INF:
            return "-inf" if a.sign else "inf"
        if a.kind == ZERO:
            return "-0" if a.sign else "0"
        if digits is None:
            digits = max(2, int(self.prec * 0.30103) + 1)
        m, e = a.mant, a.exp
        # decimal exponent estimate
        log10 = (e + m.bit_length() - 1) * 0.3010299956639812
        d10 = int(math.floor(log10))
        # compute m * 2^e * 10^(digits-1-d10) as an integer (rounded)
        k = digits - 1 - d10
        if k >= 0:
            num = m * (10 ** k)
            scaled = num << e if e >= 0 else _div_round(num, 1 << -e)
        else:
            den = 10 ** -k
            if e >= 0:
                scaled = _div_round(m << e, den)
            else:
                scaled = _div_round(m, den << -e)
        s = str(scaled)
        # normalize digit count drift from the log10 estimate
        while len(s) > digits:
            scaled = _div_round(scaled, 10)
            d10 += 1
            s = str(scaled)
        while len(s) < digits:
            scaled *= 10
            d10 -= 1
            s = str(scaled)
        sign = "-" if a.sign else ""
        if len(s) == 1:
            body = s
        else:
            body = s[0] + "." + s[1:]
        return f"{sign}{body}e{d10:+03d}"


def _div_round(num: int, den: int) -> int:
    """Round-half-even integer division."""
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    return q
