"""NSan-mode numerical sanitizing: dual-path IEEE + MPFR shadows.

Following NSan (Courbet, CC'21; see PAPERS.md), every FP operation is
executed twice: once in stock IEEE binary64 — the result the program
actually sees, so control flow, printf output and instruction counts
stay bit-identical to native — and once in an MPFR-style high
precision shadow.  After each value-producing operation the sanitizer
compares the two paths; a relative error above the threshold is a
*divergence flag*, recorded with FlowFPX-style per-site provenance
(address, mnemonic, flag count, worst error, example values).

Blame localization follows NSan: when a site flags, its shadow is
resynchronized to the IEEE value, so downstream sites report only the
error *they* introduce, not the echo of an upstream bug.

The static half lives in ``analysis/ranges.py``: sites whose shadow
is statically proven to equal the IEEE result (bit-exact) are
*exempted* — their traps short-circuit straight to vanilla
re-execution (the ``box_free_sites`` fast-path pattern), skipping
both shadow arithmetic and the divergence check entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.ieee.bits import bits_to_f64, f64_to_bits
from repro.arith.interface import AlternativeArithmetic, Ordering
from repro.arith.bigfloat import BigFloatArithmetic
from repro.arith.vanilla import VanillaArithmetic
from repro.trace.events import SanitizeFlagEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cpu import Machine


@dataclass(frozen=True)
class SanitizeConfig:
    """Sanitizer tunables (threaded through ``FPVMConfig.sanitize``)."""

    #: relative-error divergence threshold; chosen so that benign
    #: rounding accumulation (~1e-13 over our workload sizes) never
    #: flags while seeded cancellation bugs (rel err ~1) always do
    threshold: float = 1e-6
    #: MPFR shadow precision in bits (the autotune mode walks this down)
    precision: int = 200
    #: resynchronize the shadow to the IEEE value on flag (NSan-style
    #: blame localization; turning it off measures total accumulation)
    resync: bool = True
    #: skip the dual-path check at the sites the interval-range pass
    #: proves bit-exact (shadow == IEEE, so no verdict can change)
    exempt: bool = True
    #: per-site cap on emitted SanitizeFlagEvents (tables keep full counts)
    max_flag_events: int = 8


class DualValue:
    """One shadowed FP value: the IEEE double plus its MPFR shadow.

    ``shadow`` is mutable so a divergence flag can resynchronize it in
    place (the shadow store holds the same object the XMM box points
    at).
    """

    __slots__ = ("ieee", "shadow")

    def __init__(self, ieee: float, shadow) -> None:
        self.ieee = ieee
        self.shadow = shadow

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DualValue({self.ieee!r})"


def ulp_distance(a: float, b: float) -> int:
    """Ordered-bits distance between two doubles (NaN-safe: huge)."""
    if math.isnan(a) or math.isnan(b):
        return 1 << 62
    ia, ib = f64_to_bits(a), f64_to_bits(b)
    if ia >> 63:
        ia = (1 << 63) - (ia & ~(1 << 63))
    if ib >> 63:
        ib = (1 << 63) - (ib & ~(1 << 63))
    return abs(ia - ib)


def relative_error(ieee: float, shadow: float) -> float:
    """Symmetric relative error between the two paths."""
    if math.isnan(ieee) or math.isnan(shadow):
        return 0.0 if math.isnan(ieee) and math.isnan(shadow) else math.inf
    if math.isinf(ieee) or math.isinf(shadow):
        return 0.0 if ieee == shadow else math.inf
    if ieee == shadow:
        return 0.0
    return abs(ieee - shadow) / max(abs(ieee), abs(shadow), 1e-300)


class DualPathArithmetic(AlternativeArithmetic):
    """The §4.3 port that computes every operation on both paths.

    All *observable* semantics — comparisons, demotions, integer
    conversions, decimal rendering, min/max selection — are decided by
    the IEEE half alone, which is what keeps a sanitize-mode run
    bit-identical to native on the IEEE path.  The shadow half only
    ever feeds the divergence check.
    """

    def __init__(self, precision: int = 200) -> None:
        self.ieee = VanillaArithmetic()
        self.hp = BigFloatArithmetic(precision)
        self.precision = precision
        self.name = f"sanitize{precision}"

    def set_precision(self, precision: int) -> None:
        """Re-point the shadow half (used by the autotune ladder)."""
        self.hp._set_precision(precision)
        self.precision = precision
        self.name = f"sanitize{precision}"

    def shadow_as_float(self, v: DualValue) -> float:
        """The shadow's nearest binary64 (for the divergence check)."""
        return bits_to_f64(self.hp.to_f64_bits(v.shadow))

    def resync(self, v: DualValue) -> None:
        """Reset the shadow to the IEEE value (blame localization)."""
        v.shadow = self.hp.from_f64_bits(f64_to_bits(v.ieee))

    # -------------------------- arithmetic ---------------------------- #

    def _bin(method):  # noqa: N805 - decorator-style factory
        def op(self, a: DualValue, b: DualValue) -> DualValue:
            return DualValue(
                getattr(self.ieee, method)(a.ieee, b.ieee),
                getattr(self.hp, method)(a.shadow, b.shadow))
        op.__name__ = method
        return op

    def _un(method):  # noqa: N805
        def op(self, a: DualValue) -> DualValue:
            return DualValue(
                getattr(self.ieee, method)(a.ieee),
                getattr(self.hp, method)(a.shadow))
        op.__name__ = method
        return op

    add = _bin("add")
    sub = _bin("sub")
    mul = _bin("mul")
    div = _bin("div")
    atan2 = _bin("atan2")
    pow = _bin("pow")
    fmod = _bin("fmod")
    sqrt = _un("sqrt")
    neg = _un("neg")
    abs = _un("abs")
    sin = _un("sin")
    cos = _un("cos")
    tan = _un("tan")
    asin = _un("asin")
    acos = _un("acos")
    atan = _un("atan")
    exp = _un("exp")
    log = _un("log")
    log2 = _un("log2")
    log10 = _un("log10")

    del _bin, _un

    def fma(self, a: DualValue, b: DualValue, c: DualValue) -> DualValue:
        return DualValue(self.ieee.fma(a.ieee, b.ieee, c.ieee),
                         self.hp.fma(a.shadow, b.shadow, c.shadow))

    def _pick(self, a: DualValue, b: DualValue, want_min: bool) -> DualValue:
        # x64 MINSD/MAXSD semantics decided by the IEEE half: NaN or
        # equal operands forward src2; the picked operand's *shadow*
        # rides along so the dual paths never mix
        x, y = a.ieee, b.ieee
        if math.isnan(x) or math.isnan(y) or x == y:
            picked = b
        elif (x < y) == want_min:
            picked = a
        else:
            picked = b
        return DualValue(picked.ieee, picked.shadow)

    def min(self, a: DualValue, b: DualValue) -> DualValue:
        return self._pick(a, b, want_min=True)

    def max(self, a: DualValue, b: DualValue) -> DualValue:
        return self._pick(a, b, want_min=False)

    # -------------------------- conversions --------------------------- #

    def from_f64_bits(self, bits: int) -> DualValue:
        return DualValue(self.ieee.from_f64_bits(bits),
                         self.hp.from_f64_bits(bits))

    def to_f64_bits(self, a: DualValue) -> int:
        return self.ieee.to_f64_bits(a.ieee)

    def from_i64(self, i: int) -> DualValue:
        return DualValue(self.ieee.from_i64(i), self.hp.from_i64(i))

    def from_i32(self, i: int) -> DualValue:
        return DualValue(self.ieee.from_i32(i), self.hp.from_i32(i))

    def to_i64(self, a: DualValue, truncate: bool) -> int:
        return self.ieee.to_i64(a.ieee, truncate)

    def to_i32(self, a: DualValue, truncate: bool) -> int:
        return self.ieee.to_i32(a.ieee, truncate)

    def from_f32_bits(self, bits: int) -> DualValue:
        return DualValue(self.ieee.from_f32_bits(bits),
                         self.hp.from_f32_bits(bits))

    def to_f32_bits(self, a: DualValue) -> int:
        return self.ieee.to_f32_bits(a.ieee)

    def round_to_integral(self, a: DualValue, mode: int) -> DualValue:
        return DualValue(self.ieee.round_to_integral(a.ieee, mode),
                         self.hp.round_to_integral(a.shadow, mode))

    def to_decimal_str(self, a: DualValue, precision: int | None = None) -> str:
        return self.ieee.to_decimal_str(a.ieee, precision)

    # -------------------------- comparisons --------------------------- #

    def compare(self, a: DualValue, b: DualValue) -> Ordering:
        return self.ieee.compare(a.ieee, b.ieee)

    def is_nan(self, a: DualValue) -> bool:
        return self.ieee.is_nan(a.ieee)

    def is_zero(self, a: DualValue) -> bool:
        return self.ieee.is_zero(a.ieee)

    def is_negative(self, a: DualValue) -> bool:
        return self.ieee.is_negative(a.ieee)

    # -------------------------- cost model ---------------------------- #

    def op_cycles(self, op: str) -> int:
        # dual path = both executions; the divergence check itself is
        # folded into the shadow side's constant
        return self.ieee.op_cycles(op) + self.hp.op_cycles(op)

    def describe(self) -> str:
        return f"sanitize (IEEE + mpfr{self.precision} shadow)"


@dataclass
class SiteRecord:
    """Per-site provenance row of the divergence table (FlowFPX-style)."""

    addr: int
    mnemonic: str
    checks: int = 0
    flags: int = 0
    max_rel: float = 0.0
    max_ulps: int = 0
    example_ieee: float = 0.0
    example_shadow: float = 0.0

    def to_dict(self) -> dict:
        return {
            "addr": self.addr, "mnemonic": self.mnemonic,
            "checks": self.checks, "flags": self.flags,
            "max_rel": self.max_rel, "max_ulps": self.max_ulps,
            "example_ieee": self.example_ieee,
            "example_shadow": self.example_shadow,
        }


class Sanitizer:
    """Divergence checker + per-site provenance tables.

    Owned by the FPVM when its arithmetic is a
    :class:`DualPathArithmetic`; :meth:`check_value` is called by the
    emulator at each destination lane of an instruction whose
    :data:`~repro.isa.sse.SSE_OPS` row is ``reboxed`` and by the libm
    wrappers after boxing their result.
    """

    def __init__(self, arith: DualPathArithmetic, config: SanitizeConfig,
                 stats, trace=None) -> None:
        self.arith = arith
        self.config = config
        self.stats = stats
        self.trace = trace
        self.sites: dict[int, SiteRecord] = {}

    # ------------------------------------------------------------------ #

    def check_value(self, machine: "Machine", addr: int, mnemonic: str,
                    value: DualValue) -> None:
        """Compare the two paths of one freshly produced value."""
        self.stats.sanitize_checks += 1
        site = self.sites.get(addr)
        if site is None:
            site = self.sites[addr] = SiteRecord(addr, mnemonic)
        site.checks += 1
        shadow_d = self.arith.shadow_as_float(value)
        rel = relative_error(value.ieee, shadow_d)
        if rel <= self.config.threshold:
            return
        self.stats.sanitize_flags += 1
        site.flags += 1
        ulps = ulp_distance(value.ieee, shadow_d)
        if rel > site.max_rel:
            site.max_rel = rel
            site.max_ulps = ulps
            site.example_ieee = value.ieee
            site.example_shadow = shadow_d
        if self.trace is not None and site.flags <= self.config.max_flag_events:
            self.trace.emit(SanitizeFlagEvent(
                cycles=machine.cost.cycles,
                addr=addr,
                mnemonic=mnemonic,
                ieee=value.ieee,
                shadow=shadow_d,
                rel_err=rel,
                ulps=min(ulps, 1 << 62),
                count=site.flags,
            ))
        if self.config.resync:
            self.arith.resync(value)

    def flagged_sites(self) -> dict[int, SiteRecord]:
        return {a: s for a, s in self.sites.items() if s.flags > 0}

    def divergence_table(self, top: int = 0) -> list[SiteRecord]:
        """Site records sorted worst-first (flags desc, then rel err)."""
        rows = sorted(self.sites.values(),
                      key=lambda s: (s.flags, s.max_rel, s.checks),
                      reverse=True)
        return rows[:top] if top else rows
