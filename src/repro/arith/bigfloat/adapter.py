"""BigFloatArithmetic: the FPVM port of the bigfloat library (§4.3).

Cycle model: calibrated to the paper's measurements.  Footnote 9:
"200 bit MPFR operations themselves take from 93 (add) to 2175
(divide) cycles."  With L = precision/64 limbs we use

* add/sub:  40 + 17·L          (93 at 200 bits)
* mul:      90 + 44·L^1.585    (Karatsuba exponent)
* div/sqrt: 180 + 205·L²       (2172 at 200 bits)
* transcendental: ≈ series-length · mul

which reproduces Fig. 11's shape: div dominates at low precision,
everything goes polynomial as precision grows.
"""

from __future__ import annotations

from repro.ieee.bits import (
    F64_DEFAULT_QNAN,
    bits_to_f32,
    decompose64,
    f32_to_bits,
    f64_to_bits,
    is_nan64,
)
from repro.arith.interface import AlternativeArithmetic, Ordering
from repro.arith.bigfloat.number import (
    BF,
    NAN,
    ZERO,
    BigFloatContext,
)
from repro.arith.bigfloat import transcendental as T

_I64_INDEFINITE = 1 << 63
_I32_INDEFINITE = 1 << 31


class BigFloatArithmetic(AlternativeArithmetic):
    """Arbitrary-precision binary floating point (the MPFR stand-in)."""

    def __init__(self, precision: int = 200) -> None:
        self._set_precision(precision)

    def _set_precision(self, precision: int) -> None:
        self.ctx = BigFloatContext(precision)
        self.precision = precision
        self.name = f"mpfr{precision}"
        limbs = max(precision / 64.0, 1.0)
        self._costs = {
            "add": int(40 + 17 * limbs),
            "sub": int(40 + 17 * limbs),
            "mul": int(90 + 44 * limbs ** 1.585),
            "div": int(180 + 205 * limbs ** 2),
            "sqrt": int(230 + 240 * limbs ** 2),
            "fma": int(130 + 60 * limbs ** 1.585),
            "neg": 24,
            "abs": 24,
            "min": 30,
            "max": 30,
            "compare": 35,
        }
        trans = int(30 * self._costs["mul"])
        for op in ("sin", "cos", "tan", "asin", "acos", "atan", "atan2",
                   "exp", "log", "log2", "log10", "pow"):
            self._costs[op] = trans
        self._costs["fmod"] = self._costs["div"]

    # -------------------------- arithmetic ---------------------------- #

    def add(self, a: BF, b: BF) -> BF:
        return self.ctx.add(a, b)

    def sub(self, a: BF, b: BF) -> BF:
        return self.ctx.sub(a, b)

    def mul(self, a: BF, b: BF) -> BF:
        return self.ctx.mul(a, b)

    def div(self, a: BF, b: BF) -> BF:
        return self.ctx.div(a, b)

    def sqrt(self, a: BF) -> BF:
        return self.ctx.sqrt(a)

    def fma(self, a: BF, b: BF, c: BF) -> BF:
        return self.ctx.fma(a, b, c)

    def neg(self, a: BF) -> BF:
        return self.ctx.neg(a)

    def abs(self, a: BF) -> BF:
        return self.ctx.abs(a)

    def min(self, a: BF, b: BF) -> BF:
        # x64 MINSD semantics: NaN or equal -> second operand
        c = self.ctx.cmp(a, b)
        if c is None or c == 0:
            return b
        return a if c < 0 else b

    def max(self, a: BF, b: BF) -> BF:
        c = self.ctx.cmp(a, b)
        if c is None or c == 0:
            return b
        return a if c > 0 else b

    def sin(self, a: BF) -> BF:
        return T.bf_sin(self.ctx, a)

    def cos(self, a: BF) -> BF:
        return T.bf_cos(self.ctx, a)

    def tan(self, a: BF) -> BF:
        return T.bf_tan(self.ctx, a)

    def asin(self, a: BF) -> BF:
        return T.bf_asin(self.ctx, a)

    def acos(self, a: BF) -> BF:
        return T.bf_acos(self.ctx, a)

    def atan(self, a: BF) -> BF:
        return T.bf_atan(self.ctx, a)

    def atan2(self, a: BF, b: BF) -> BF:
        return T.bf_atan2(self.ctx, a, b)

    def exp(self, a: BF) -> BF:
        return T.bf_exp(self.ctx, a)

    def log(self, a: BF) -> BF:
        return T.bf_log(self.ctx, a)

    def log2(self, a: BF) -> BF:
        return T.bf_log2(self.ctx, a)

    def log10(self, a: BF) -> BF:
        return T.bf_log10(self.ctx, a)

    def pow(self, a: BF, b: BF) -> BF:
        return T.bf_pow(self.ctx, a, b)

    def fmod(self, a: BF, b: BF) -> BF:
        return T.bf_fmod(self.ctx, a, b)

    # -------------------------- conversions --------------------------- #

    def from_f64_bits(self, bits: int) -> BF:
        if is_nan64(bits):
            return self.ctx.nan()
        exp_field = bits & 0x7FF0_0000_0000_0000
        if exp_field == 0x7FF0_0000_0000_0000:
            return self.ctx.inf(1 if bits >> 63 else 0)
        s, m, e = decompose64(bits)
        if m == 0:
            return self.ctx.zero(s)
        return self.ctx.round_mant(s, m, e)

    def to_f64_bits(self, a: BF) -> int:
        if a.kind == NAN:
            return F64_DEFAULT_QNAN
        return f64_to_bits(a.to_float())

    def from_i64(self, i: int) -> BF:
        if i >= 1 << 63:
            i -= 1 << 64
        return self.ctx.from_int(i)

    def from_i32(self, i: int) -> BF:
        if i >= 1 << 31:
            i -= 1 << 32
        return self.ctx.from_int(i)

    def to_i64(self, a: BF, truncate: bool) -> int:
        v = self.ctx.to_int(a, "trunc" if truncate else "nearest")
        if v is None or not (-(1 << 63) <= v < (1 << 63)):
            return _I64_INDEFINITE
        return v & ((1 << 64) - 1)

    def to_i32(self, a: BF, truncate: bool) -> int:
        v = self.ctx.to_int(a, "trunc" if truncate else "nearest")
        if v is None or not (-(1 << 31) <= v < (1 << 31)):
            return _I32_INDEFINITE
        return v & ((1 << 32) - 1)

    def from_f32_bits(self, bits: int) -> BF:
        return self.ctx.from_float(bits_to_f32(bits))

    def to_f32_bits(self, a: BF) -> int:
        return f32_to_bits(a.to_float())

    def round_to_integral(self, a: BF, mode: int) -> BF:
        return self.ctx.round_to_integral(a, mode)

    def to_decimal_str(self, a: BF, precision: int | None = None) -> str:
        return self.ctx.to_decimal_str(a, precision)

    # -------------------------- comparisons --------------------------- #

    def compare(self, a: BF, b: BF) -> Ordering:
        c = self.ctx.cmp(a, b)
        if c is None:
            return Ordering.UNORDERED
        if c < 0:
            return Ordering.LT
        if c > 0:
            return Ordering.GT
        return Ordering.EQ

    def is_nan(self, a: BF) -> bool:
        return a.kind == NAN

    def is_zero(self, a: BF) -> bool:
        return a.kind == ZERO

    def is_negative(self, a: BF) -> bool:
        return bool(a.sign) and a.kind != NAN

    # -------------------------- cost model ---------------------------- #

    def op_cycles(self, op: str) -> int:
        return self._costs.get(op, self._costs["mul"])
