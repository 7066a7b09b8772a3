"""Interval-range abstract interpretation for the NSan-mode sanitizer.

The sanitizer (:mod:`repro.fpvm.sanitize`) runs every value-producing
FP site dual-path — the IEEE result the program sees plus an MPFR-style
high-precision shadow — and flags sites whose relative divergence
exceeds a threshold.  Most sites can never diverge meaningfully: a
loop index converted with ``cvtsi2sd`` and scaled by a constant is
exact to a rounding, whatever the loop bounds.  This pass proves that
*statically*; the runtime skips dual-path instrumentation at the
sites proven *bit-exact* (``err == 0``: the shadow equals the IEEE
value, so skipping it changes no verdict), the box-free fast-path
pattern applied to sanitizing.

It runs on the fixpoint engine and over the ``(ctx, addr)`` keys of the
value-set analysis (:mod:`repro.analysis.vsa`), reusing the converged
VSA states for every addressing question (which stack slot, which
global word, what integer range feeds a conversion) and
:class:`repro.arith.interval.IntervalArithmetic` as the transfer-
function library for the value question.  The abstract value for one
FP location is

    ``Rng(lo, hi, err)``

where ``[lo, hi]`` is an outward-rounded interval containing every
IEEE value the location can hold, and ``err`` bounds the *relative
divergence* the sanitizer could measure between that IEEE value and
its high-precision shadow::

    |ieee - shadow| / max(|ieee|, |shadow|, 1e-300)  <=  err

— exactly the metric :func:`repro.fpvm.sanitize.relative_error`
checks, so ``err <= threshold/8`` at a site is a proof (with an 8x
safety margin over the first-order propagation slop) that the site
can never flag.  A site is proven only if additionally its interval is
finite: an overflow to IEEE infinity against a finite shadow is an
instant divergence no error bound survives.

Error transfer is first-order with explicit guards for the regimes
where first-order breaks down (operands whose interval reaches below
the 1e-300 check floor, divergent sqrt arguments straddling zero,
round-to-integer discontinuities); anything outside the trusted regime
degrades to ``err = inf``, i.e. "never exempt".  Catastrophic
cancellation is caught by construction: ``add``/``sub`` divide the
absolute divergence bound by the smallest magnitude the *result*
interval allows, which goes to the 1e-300 floor exactly when the
subtraction can cancel.

Soundness is cross-checked dynamically by
:func:`validate_sanitize_exemptions` (oracle style): a full dual-path
run — exemption disabled — must flag no statically proven site.  The
same gate reports what the exemption skipped in a default run.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter

from repro.analysis.domain import Num, add_val, combine_pointwise
from repro.analysis.fixpoint import Fixpoint
from repro.analysis.si import SI
from repro.analysis.vsa import (INTERPOSED_EXTERNS, NO_FP_EXTERNS,
                                ValueSetAnalysis)
from repro.arith.interval import IntervalArithmetic, _is_nai
from repro.isa.opcodes import is_fp_bitwise
from repro.isa.operands import Mem, Reg, Xmm
from repro.isa.registers import canonical
from repro.isa.sse import FLAGS, GPR, SSE_OPS

_IV = IntervalArithmetic()
_INF = math.inf
#: unit roundoff of binary64
_U = 2.0 ** -53
#: the sanitizer's relative-error denominator floor (keep in sync with
#: repro.fpvm.sanitize.relative_error)
_TINY = 1e-300
#: first-order error propagation is only trusted while incoming
#: relative divergence is far below 1; beyond the cap, degrade to inf
_ERR_CAP = 1e-4
#: multiplicative slack absorbing the dropped second-order terms
_SLOP = 1.01
#: integers of magnitude <= 2^53 convert to binary64 exactly
_EXACT_INT = float(1 << 53)

#: externals that neither write program-visible memory nor need FP
#: state preserved across them (libm and output are interposed; the
#: allocator family takes no FP and touches no caller data we track)
_SAFE_EXTERNS = (NO_FP_EXTERNS | INTERPOSED_EXTERNS) - {"memset"}

_SIGN_MASK = 0x8000000000000000
_ABS_MASK = 0x7FFFFFFFFFFFFFFF


# --------------------------------------------------------------------------- #
# the abstract FP value                                                        #
# --------------------------------------------------------------------------- #

class _FpTop:
    __slots__ = ()

    def __repr__(self) -> str:
        return "FPTOP"


class _FpBot:
    __slots__ = ()

    def __repr__(self) -> str:
        return "FPBOT"


FTOP = _FpTop()   # unknown value / unknown divergence
FBOT = _FpBot()   # no value yet (identity of join)


@dataclass(frozen=True, slots=True)
class Rng:
    """Interval of possible IEEE values + relative-divergence bound.

    ``err == 0.0`` is a *bit-exactness* claim, not merely a tight
    bound: every path producing this value committed no rounding, so
    the high-precision shadow equals the IEEE value exactly.  Only
    err-0 sites are safe to exempt from dual-path instrumentation —
    dropping a bit-identical shadow cannot change any
    downstream check's verdict, whereas dropping a shadow that differs
    by even one rounding (err ~ u) erases exactly the information a
    downstream cancellation would have amplified into a flag (the
    ``(big+1)-big`` pattern: the addition's u-sized rounding IS the
    bug the subtraction reveals).

    ``integral`` claims every concrete value is a mathematical integer
    — the exactness engine: integer add/sub/mul with results within
    2^53 are closed under IEEE binary64 and round nowhere.
    """

    lo: float
    hi: float
    err: float
    integral: bool = False


def _mk_rng(iv, err: float, integral: bool = False):
    """Build an Rng, normalizing the untrustworthy regimes to FTOP/inf."""
    if _is_nai(iv) or math.isnan(err):
        return FTOP
    if err > _ERR_CAP:
        err = _INF
    return Rng(iv[0], iv[1], err, integral)


def _join_fp(a, b, widen: bool = False):
    if a is FBOT:
        return b
    if b is FBOT:
        return a
    if a is FTOP or b is FTOP:
        return FTOP
    lo = min(a.lo, b.lo)
    hi = max(a.hi, b.hi)
    err = max(a.err, b.err)
    if widen:
        if b.lo < a.lo:
            lo = -_INF
        if b.hi > a.hi:
            hi = _INF
        if b.err > a.err:
            err = _INF
    return Rng(lo, hi, err, a.integral and b.integral)


def _widen_fp(a, b):
    return _join_fp(a, b, True)


def _min_abs(lo: float, hi: float) -> float:
    if lo <= 0.0 <= hi:
        return 0.0
    return min(abs(lo), abs(hi))


def _max_abs(lo: float, hi: float) -> float:
    return max(abs(lo), abs(hi))


def _abs_div(v: Rng) -> float:
    """Bound on |shadow - ieee| for a value with divergence ``v.err``."""
    if v.err == 0.0:
        return 0.0
    if v.err > _ERR_CAP:
        return _INF
    return v.err * (_max_abs(v.lo, v.hi) * _SLOP + _TINY)


# --------------------------------------------------------------------------- #
# the abstract state: xmm lane-0 values + FP stack slots of the frame          #
# --------------------------------------------------------------------------- #

_XMM_TOP = tuple(FTOP for _ in range(16))


@dataclass(frozen=True, slots=True)
class FPState:
    """Per-(ctx, addr) flow state.

    Stack slots absent from ``stack`` are *unknown* (FTOP), not
    "unwritten": unlike the VSA — which may be optimistic because
    compiled code never reads uninitialized slots — a proof pass must
    assume a callee may have written any slot it cannot see.  As in
    the VSA's ``AbsState``, the ``stack`` dict is never mutated once
    the state exists.
    """

    xmm: tuple
    stack: dict  # aloc -> Rng; FTOP slots are absent

    def xmm_get(self, i: int):
        return self.xmm[i]

    def xmm_set(self, i: int, val) -> "FPState":
        regs = list(self.xmm)
        regs[i] = val
        return FPState(tuple(regs), self.stack)

    def stack_get(self, key):
        return self.stack.get(key, FTOP)

    def stack_set(self, key, val) -> "FPState":
        stack = dict(self.stack)
        if val is FTOP:  # storing FTOP == erasing (absent means FTOP)
            stack.pop(key, None)
        else:
            stack[key] = val
        return FPState(self.xmm, stack)

    def clobber_stack(self) -> "FPState":
        return FPState(self.xmm, {})

    def join(self, other: "FPState", widen: bool = False) -> "FPState":
        """Pointwise join; returns ``self`` itself when nothing moved.

        A slot survives only if both sides hold it (absent is FTOP).
        """
        xmm = combine_pointwise(self.xmm, other.xmm,
                                _widen_fp if widen else _join_fp)
        mine, theirs = self.stack, other.stack
        stack = {}
        moved = False
        for k, a in mine.items():
            b = theirs.get(k, FTOP)
            v = a if a is b else _join_fp(a, b, widen)
            if v is FTOP:
                moved = True
            elif v == a:
                stack[k] = a
            else:
                stack[k] = v
                moved = True
        if xmm is self.xmm and not moved:
            return self
        return FPState(xmm, stack if moved else mine)


# --------------------------------------------------------------------------- #
# the analysis                                                                 #
# --------------------------------------------------------------------------- #

class RangeAnalysis(Fixpoint):
    """Worst-case rounding-divergence bounds per checked FP site."""

    join = staticmethod(FPState.join)
    value_join = staticmethod(_join_fp)
    value_bottom = FBOT
    value_top = FTOP

    def __init__(self, binary, threshold: float = 1e-6,
                 vsa: ValueSetAnalysis | None = None) -> None:
        if vsa is None:
            vsa = ValueSetAnalysis(binary)
            vsa.run()
        super().__init__(binary, vsa.cfg)
        self.threshold = threshold
        #: converged VSA of ``binary``; patching does not change it (the
        #: analysis looks through correctness traps), so the one the
        #: patcher's analysis ran before patching serves as well
        self.vsa = vsa
        #: site addr -> Rng | FTOP, joined over contexts at the fixpoint
        self.site_bounds: dict[int, object] = {}

    # ------------------------------------------------------------------ #
    def run(self) -> None:
        """Solve, then record the site bounds at the fixpoint."""
        self._solve(FPState(_XMM_TOP, {}))
        self._record_pass()

    def _compile(self, ins):
        """The mnemonic chain of :meth:`_transfer`, bound to ``ins``."""
        if ins.mnemonic == "call":
            return partial(self._transfer_call, ins), None
        return partial(self._transfer, ins), self.cfg.succ.get(ins.addr, ())

    # ------------------------------------------------------------------ #
    # memory model (addressing questions answered by the converged VSA)   #
    # ------------------------------------------------------------------ #

    def _vsa_state(self, addr: int):
        return self.vsa.state_at((self._ctx, addr))

    def _mem_cell(self, ins, mem: Mem):
        """Resolve a Mem operand to ("s", aloc) | ("g", [gkeys]) | None.

        ``None`` means the address is unknown — loads are FTOP, stores
        poison everything.
        """
        vst = self._vsa_state(ins.addr)
        if vst is None:
            return None
        ea = self.vsa._eval_ea(mem, vst)
        key = ValueSetAnalysis._stack_aloc(ea)
        if key is not None:
            return ("s", key)
        if isinstance(ea, Num) and ea.si.is_const:
            a = ea.si.lo
            if a % 8:
                return None  # misaligned double: give up on the cell
            return ("g", [("g", a)])
        if isinstance(ea, Num) and not ea.si.top:
            keys = self.vsa._clamped_range_alocs(ea.si.lo,
                                                 ea.si.hi + mem.size - 1)
            if keys is not None:
                return ("g", keys)
        return None

    def _seed(self, gkey):
        """FP seed of a data word: its initial bytes read as binary64."""
        addr = gkey[1]
        data = self.binary.data
        off = addr - self.binary.data_base
        if 0 <= off and off + 8 <= len(data):
            bits = int.from_bytes(data[off:off + 8], "little")
            v = struct.unpack("<d", struct.pack("<Q", bits))[0]
            if math.isfinite(v):
                return Rng(v, v, 0.0, v.is_integer() and abs(v) <= _EXACT_INT)
        return FTOP

    def _load(self, ins, mem: Mem, st: FPState):
        cell = self._mem_cell(ins, mem)
        if cell is None:
            return FTOP
        kind, keys = cell
        if kind == "s":
            return st.stack_get(keys)
        return self._join_global_reads(ins.addr, keys)

    def _store(self, ins, mem: Mem, st: FPState, val, work) -> FPState:
        cell = self._mem_cell(ins, mem)
        if cell is None:
            # an unknown pointer: every FP global is suspect, forever
            self._poison_globals(None, None, work)
            return st.clobber_stack()
        kind, keys = cell
        wide = mem.size > 8
        if kind == "s":
            out = st.stack_set(keys, val)
            if wide:
                out = out.stack_set((keys[0], keys[1], keys[2] + 8), FTOP)
            return out
        weak = len(keys) > 1
        for gkey in keys:
            self._update_global(gkey, FTOP if weak else val, work)
        if wide and len(keys) == 1:
            self._update_global(("g", keys[0][1] + 8), FTOP, work)
        return st

    def _clobber_mem(self, ins, mem: Mem, st: FPState, work) -> FPState:
        """An integer store: whatever FP view the cell had is gone."""
        return self._store(ins, mem, st, FTOP, work)

    # ------------------------------------------------------------------ #
    # error transfer                                                      #
    # ------------------------------------------------------------------ #

    @staticmethod
    def _exact_integer(a, b, iv) -> bool:
        """Integer +-* with the result provably within 2^53 commits no
        rounding: the result is bit-exact (err 0) and integral."""
        return (a.err == 0.0 and b.err == 0.0
                and a.integral and b.integral
                and _max_abs(*iv) <= _EXACT_INT)

    def _binop(self, mn: str, a, b):
        if a is FTOP or b is FTOP:
            return FTOP
        ia, ib = (a.lo, a.hi), (b.lo, b.hi)
        ea, eb = a.err, b.err
        if mn == "addsd" or mn == "subsd":
            iv = _IV.add(ia, ib) if mn == "addsd" else _IV.sub(ia, ib)
            if _is_nai(iv):
                return FTOP
            if self._exact_integer(a, b, iv):
                return _mk_rng(iv, 0.0, True)
            if ea == 0.0 and eb == 0.0:
                return _mk_rng(iv, _U * _SLOP)
            absr = _abs_div(a) + _abs_div(b)
            err = _U * _SLOP + absr / max(_min_abs(*iv), _TINY)
            return _mk_rng(iv, err)
        if mn == "mulsd":
            iv = _IV.mul(ia, ib)
            if _is_nai(iv):
                return FTOP
            if self._exact_integer(a, b, iv):
                return _mk_rng(iv, 0.0, True)
            if ea == 0.0 and eb == 0.0:
                return _mk_rng(iv, _U * _SLOP)
            if ea > _ERR_CAP or eb > _ERR_CAP:
                return _mk_rng(iv, _INF)
            err = (ea + eb + ea * eb + _U) * _SLOP
            # the pointwise (multiplicative) bound needs the operand's
            # IEEE magnitude to stay above the check's 1e-300 floor;
            # below it, bound the absolute divergence against the floor
            if eb and _min_abs(*ib) < _TINY:
                err += eb * _max_abs(*ia) * _SLOP
            if ea and _min_abs(*ia) < _TINY:
                err += ea * _max_abs(*ib) * _SLOP
            return _mk_rng(iv, err)
        if mn == "divsd":
            iv = _IV.div(ia, ib)
            if _is_nai(iv):
                return FTOP
            if ea == 0.0 and eb == 0.0:
                return _mk_rng(iv, _U * _SLOP)
            if ea > _ERR_CAP or eb > _ERR_CAP:
                return _mk_rng(iv, _INF)
            if eb and _min_abs(*ib) < _TINY:
                return _mk_rng(iv, _INF)  # divergent near-floor divisor
            err = ((ea + eb) / (1.0 - eb) + _U) * _SLOP
            if ea and _min_abs(*ia) < _TINY:
                err += ea / (_min_abs(*ib) * (1.0 - eb)) * _SLOP
            return _mk_rng(iv, err)
        # minsd/maxsd: x64 semantics pick one operand; the sanitizer's
        # dual value carries the picked operand's own shadow, so the
        # result's divergence is the picked operand's
        # minsd/maxsd copy one operand bit-for-bit, so err 0 operands
        # stay exact and integer-ness survives
        iv = _IV.min(ia, ib) if mn == "minsd" else _IV.max(ia, ib)
        if _is_nai(iv):
            return FTOP
        return _mk_rng(iv, max(ea, eb), a.integral and b.integral)

    def _sqrt(self, a):
        if a is FTOP:
            return FTOP
        iv = _IV.sqrt((a.lo, a.hi))
        if _is_nai(iv):
            return FTOP
        if a.err == 0.0:
            return _mk_rng(iv, _U * _SLOP)
        # a divergent argument straddling zero can push the shadow
        # negative: high-precision sqrt returns NaN against a finite
        # IEEE result — unbounded divergence
        if a.lo <= _TINY or _abs_div(a) >= a.lo:
            return _mk_rng(iv, _INF)
        return _mk_rng(iv, (a.err + _U) * _SLOP)

    def _fma(self, d, s1, s2):
        """fmaddsd dst, s1, s2: dst = s1*s2 + dst, one rounding."""
        if d is FTOP or s1 is FTOP or s2 is FTOP:
            return FTOP
        # all-integer fma within 2^53 commits no rounding at all
        ip = _IV.mul((s1.lo, s1.hi), (s2.lo, s2.hi))
        if not _is_nai(ip):
            iv = _IV.add(ip, (d.lo, d.hi))
            if (not _is_nai(iv) and d.err == 0.0 and d.integral
                    and self._exact_integer(s1, s2, iv)):
                return _mk_rng(iv, 0.0, True)
        # exact product (no intermediate rounding), then the add model
        p = self._binop("mulsd", Rng(s1.lo, s1.hi, s1.err),
                        Rng(s2.lo, s2.hi, s2.err))
        if p is FTOP:
            return FTOP
        # remove the product's rounding u (fused) but keep its
        # divergence terms; one final rounding comes from the add
        perr = max(p.err - _U * _SLOP, 0.0) if math.isfinite(p.err) \
            else _INF
        return self._binop("addsd", Rng(p.lo, p.hi, perr), d)

    def _cvtsi2sd(self, ins, src):
        lo, hi = -(1 << 63), (1 << 63) - 1
        if isinstance(src, Reg):
            vst = self._vsa_state(ins.addr)
            if vst is not None:
                v = vst.regs.get(canonical(src.name))
                if isinstance(v, Num) and not v.si.top:
                    lo, hi = v.si.lo, v.si.hi
        flo = float(lo)
        if flo > lo:
            flo = math.nextafter(flo, -_INF)
        fhi = float(hi)
        if fhi < hi:
            fhi = math.nextafter(fhi, _INF)
        err = 0.0 if max(abs(lo), abs(hi)) <= _EXACT_INT else _U * _SLOP
        return Rng(flo, fhi, err, True)

    def _roundsd(self, a):
        if a is FTOP:
            return FTOP
        lo = math.floor(a.lo) if math.isfinite(a.lo) else a.lo
        hi = math.ceil(a.hi) if math.isfinite(a.hi) else a.hi
        # rounding is a discontinuity: any incoming divergence can land
        # the two paths on different integers; identical inputs give
        # identical (always-representable) integer results
        err = 0.0 if a.err == 0.0 else _INF
        return Rng(float(lo), float(hi), err, True)

    # ------------------------------------------------------------------ #
    # site recording                                                      #
    # ------------------------------------------------------------------ #

    def _site(self, addr: int, res) -> None:
        if not self._recording:
            return
        cur = self.site_bounds.get(addr, FBOT)
        self.site_bounds[addr] = _join_fp(cur, res)

    # ------------------------------------------------------------------ #
    # the transfer function                                               #
    # ------------------------------------------------------------------ #

    def _transfer(self, ins, st: FPState, work) -> FPState:
        mn = ins.mnemonic
        ops = ins.operands
        out = st
        spec = SSE_OPS[mn] if mn in SSE_OPS else None

        if spec is not None and spec.scalar_binop:
            dst, src = ops
            a = st.xmm_get(dst.index)
            b = (st.xmm_get(src.index) if isinstance(src, Xmm)
                 else self._load(ins, src, st))
            res = self._binop(mn, a, b)
            self._site(ins.addr, res)
            out = st.xmm_set(dst.index, res)

        elif mn == "sqrtsd":
            dst, src = ops
            a = (st.xmm_get(src.index) if isinstance(src, Xmm)
                 else self._load(ins, src, st))
            res = self._sqrt(a)
            self._site(ins.addr, res)
            out = st.xmm_set(dst.index, res)

        elif mn == "fmaddsd":
            dst, s1, s2 = ops
            res = self._fma(st.xmm_get(dst.index),
                            st.xmm_get(s1.index) if isinstance(s1, Xmm)
                            else self._load(ins, s1, st),
                            st.xmm_get(s2.index) if isinstance(s2, Xmm)
                            else self._load(ins, s2, st))
            self._site(ins.addr, res)
            out = st.xmm_set(dst.index, res)

        elif mn == "cvtsi2sd":
            dst, src = ops
            res = self._cvtsi2sd(ins, src)
            self._site(ins.addr, res)
            out = st.xmm_set(dst.index, res)

        elif mn == "roundsd":
            dst, src = ops[0], ops[1]
            a = (st.xmm_get(src.index) if isinstance(src, Xmm)
                 else self._load(ins, src, st))
            res = self._roundsd(a)
            self._site(ins.addr, res)
            out = st.xmm_set(dst.index, res)

        elif spec is not None:
            # not modeled.  A sanitizer-checked site (packed, or a
            # binary32 input: outside the lane-0 binary64 domain) is
            # unbounded; GPR and flag results change no FP state
            if spec.reboxed:
                self._site(ins.addr, FTOP)
            if spec.dst not in (GPR, FLAGS):
                out = st.xmm_set(ops[0].index, FTOP)

        elif mn in ("movsd", "movapd", "movupd", "movq"):
            dst, src = ops
            if isinstance(dst, Xmm) and isinstance(src, Xmm):
                out = st.xmm_set(dst.index, st.xmm_get(src.index))
            elif isinstance(dst, Xmm) and isinstance(src, Mem):
                out = st.xmm_set(dst.index, self._load(ins, src, st))
            elif isinstance(dst, Mem) and isinstance(src, Xmm):
                out = self._store(ins, dst, st, st.xmm_get(src.index),
                                  work)
            elif isinstance(dst, Xmm):  # movq xmm, r64: raw bits
                out = st.xmm_set(dst.index, FTOP)
            # movq r64, xmm: GPRs are not FP state

        elif mn == "movss":
            dst = ops[0]
            if isinstance(dst, Xmm):
                out = st.xmm_set(dst.index, FTOP)
            elif isinstance(dst, Mem):
                out = self._clobber_mem(ins, dst, st, work)

        elif mn == "movhpd":
            dst = ops[0]
            if isinstance(dst, Mem):  # stores the (untracked) high lane
                out = self._clobber_mem(ins, dst, st, work)
            # xmm dst: lane 0 untouched

        elif is_fp_bitwise(mn):
            out = self._bitwise(ins, mn, ops, st)

        elif mn == "push":
            vst = self._vsa_state(ins.addr)
            if vst is not None:
                rsp = add_val(vst.regs.get("rsp"), Num(SI.const(-8)))
                key = ValueSetAnalysis._stack_aloc(rsp)
                if key is not None:
                    out = st.stack_set(key, FTOP)

        elif ops and isinstance(ops[0], Mem) and mn not in ("cmp", "test"):
            # any other instruction writing memory (mov/add/inc/... to
            # mem): the destination word's FP view dies
            out = self._clobber_mem(ins, ops[0], st, work)

        return out

    def _bitwise(self, ins, mn, ops, st: FPState) -> FPState:
        dst, src = ops
        if not isinstance(dst, Xmm):
            return st
        if mn == "xorpd" and isinstance(src, Xmm) and \
                src.index == dst.index:
            return st.xmm_set(dst.index, Rng(0.0, 0.0, 0.0, True))
        mask = self._static_mask(ins, src)
        a = st.xmm_get(dst.index)
        if a is not FTOP and mask == _SIGN_MASK and mn == "xorpd":
            return st.xmm_set(dst.index,
                              Rng(-a.hi, -a.lo, a.err, a.integral))
        if a is not FTOP and mask == _ABS_MASK and mn == "andpd":
            lo = _min_abs(a.lo, a.hi)
            return st.xmm_set(dst.index,
                              Rng(lo, _max_abs(a.lo, a.hi), a.err,
                                  a.integral))
        return st.xmm_set(dst.index, FTOP)

    def _static_mask(self, ins, src):
        """The constant bit pattern a bitwise op applies, if provable."""
        if not isinstance(src, Mem):
            return None
        vst = self._vsa_state(ins.addr)
        if vst is None:
            return None
        ea = self.vsa._eval_ea(src, vst)
        if not (isinstance(ea, Num) and ea.si.is_const):
            return None
        addr = ea.si.lo
        if (self._global_poisoned(addr)
                or ("g", addr & ~7) in self.global_vals):
            return None  # the mask word may have been overwritten
        off = addr - self.binary.data_base
        data = self.binary.data
        if 0 <= off and off + 8 <= len(data):
            return int.from_bytes(data[off:off + 8], "little")
        return None

    def _transfer_call(self, ins, st: FPState, work):
        out = []
        ret_site = ins.next_addr
        callee = self.cfg.calls.get(ins.addr)
        extern = self.cfg.extern_calls.get(ins.addr)
        if extern is not None and extern in _SAFE_EXTERNS:
            # xmm state dies (xmm0 return / caller-saved), frame survives
            ret_state = FPState(_XMM_TOP, st.stack)
        else:
            if callee is None:
                # an unknown extern may write FP data
                self._poison_globals(None, None, work)
            ret_state = FPState(_XMM_TOP, {})
        if ret_site in self.binary.text_map:
            out.append(((self._ctx, ret_site), ret_state))
        if callee is not None:
            # FP arguments flow into the callee in xmm registers; the
            # callee starts its own frame (k=1 context, as in the VSA)
            ctx = ins.addr if self.vsa.k >= 1 else 0
            out.append(((ctx, callee), FPState(st.xmm, {})))
        return out


# --------------------------------------------------------------------------- #
# the report                                                                   #
# --------------------------------------------------------------------------- #

@dataclass
class RangeReport:
    """Artifact of one interval-range pass (cached; do not mutate)."""

    binary_hash: str = ""
    cache_hit: bool = False
    threshold: float = 1e-6
    iterations: int = 0
    vsa_iterations: int = 0
    ranges_ms: float = 0.0
    #: sorted addrs of every statically checkable (dual-path) FP site
    checkable: tuple = ()
    #: addr -> mnemonic for the checkable sites
    mnemonics: dict = field(default_factory=dict)
    #: site addr -> (lo, hi, err) worst-case bound, or None (unbounded)
    bounds: dict = field(default_factory=dict)
    #: sites proven divergence-free (err <= threshold/8, finite range):
    #: the site itself can never flag — the soundness-gate set
    proven: frozenset = frozenset()
    #: subset proven bit-exact (err == 0): shadow == IEEE always, so
    #: skipping dual-path instrumentation cannot change any downstream
    #: verdict either — the exemption set
    exact: frozenset = frozenset()

    @property
    def prove_rate(self) -> float:
        return len(self.proven) / len(self.checkable) if self.checkable \
            else 0.0

    @property
    def exact_rate(self) -> float:
        return len(self.exact) / len(self.checkable) if self.checkable \
            else 0.0

    def summary(self, top: int = 0) -> str:
        out = [f"interval-range pass: {len(self.checkable)} checkable "
               f"sites, {len(self.proven)} proven divergence-free "
               f"({100 * self.prove_rate:.1f}%), {len(self.exact)} "
               f"bit-exact ({100 * self.exact_rate:.1f}%) at threshold "
               f"{self.threshold:g} "
               f"[{self.iterations} iterations, {self.ranges_ms:.1f}ms]"]
        rows = sorted(self.checkable)
        if top:
            rows = rows[:top]
        for addr in rows:
            b = self.bounds.get(addr)
            tag = ("EXACT " if addr in self.exact
                   else "PROVEN" if addr in self.proven else "      ")
            if b is None:
                out.append(f"  {addr:#10x} {self.mnemonics[addr]:10s} "
                           f"{tag}  range unknown")
            else:
                lo, hi, err = b
                out.append(f"  {addr:#10x} {self.mnemonics[addr]:10s} "
                           f"{tag}  [{lo:.6g}, {hi:.6g}] err<={err:.3g}")
        return "\n".join(out)

    def to_dict(self) -> dict:
        return {
            "binary_hash": self.binary_hash,
            "cache_hit": self.cache_hit,
            "threshold": self.threshold,
            "iterations": self.iterations,
            "ranges_ms": self.ranges_ms,
            "checkable": len(self.checkable),
            "proven": sorted(self.proven),
            "exact": sorted(self.exact),
            "prove_rate": self.prove_rate,
            "exact_rate": self.exact_rate,
            "bounds": {f"{a:#x}": self.bounds.get(a)
                       for a in self.checkable},
        }


#: (content-hash, threshold) -> report; matrix runs pay for one pass
_RANGES_CACHE: dict[tuple[str, float], RangeReport] = {}


def clear_ranges_cache() -> None:
    _RANGES_CACHE.clear()


def analyze_ranges(binary, *, threshold: float = 1e-6,
                   cache: bool = True,
                   vsa: ValueSetAnalysis | None = None) -> RangeReport:
    """Run the interval-range pass; returns the (cached) report.

    ``vsa`` is a converged :class:`ValueSetAnalysis` of ``binary`` to
    reuse; without one the pass runs its own.
    """
    key = (binary.content_hash(), threshold)
    if cache:
        hit = _RANGES_CACHE.get(key)
        if hit is not None:
            hit.cache_hit = True
            return hit
    t0 = perf_counter()
    ra = RangeAnalysis(binary, threshold, vsa)
    ra.run()

    report = RangeReport(binary_hash=key[0], threshold=threshold,
                         iterations=ra.iterations,
                         vsa_iterations=ra.vsa.iterations)
    checkable = []
    for ins in binary.text:
        mn = ins.mnemonic
        if mn in ("fpvm_trap", "fpvm_patch") and ins.payload:
            mn = ins.payload["original"].mnemonic
        spec = SSE_OPS.get(mn)
        if spec is not None and spec.reboxed:
            checkable.append(ins.addr)
            report.mnemonics[ins.addr] = mn
    report.checkable = tuple(sorted(checkable))
    proven = set()
    exact = set()
    margin = threshold / 8.0
    for addr in report.checkable:
        b = ra.site_bounds.get(addr)
        if isinstance(b, Rng):
            report.bounds[addr] = (b.lo, b.hi, b.err)
            if (b.err <= margin and math.isfinite(b.lo)
                    and math.isfinite(b.hi)):
                proven.add(addr)
                if b.err == 0.0:
                    exact.add(addr)
        else:
            report.bounds[addr] = None
    report.proven = frozenset(proven)
    report.exact = frozenset(exact)
    report.ranges_ms = (perf_counter() - t0) * 1e3
    report.cache_hit = False
    if cache:
        _RANGES_CACHE[key] = report
    return report


# --------------------------------------------------------------------------- #
# dynamic soundness gate (oracle style)                                        #
# --------------------------------------------------------------------------- #

@dataclass
class ExemptionValidation:
    """The exemption soundness gate for one program, with what the
    exemption skipped.  The program runs twice: with the default
    exemption (bit-exact sites skip the dual-path check) and with it
    off, where every site is checked and no proven site may flag."""

    label: str
    threshold: float
    precision: int
    proven_count: int = 0
    checkable_count: int = 0
    #: bit-exact sites: the exemption set
    exempt_count: int = 0
    #: trapped executions the exemption skipped
    exempt_execs: int = 0
    #: dual-path checks / flags with the exemption on and off
    checks_on: int = 0
    checks_off: int = 0
    flags_on: int = 0
    flags_off: int = 0
    #: proven sites checked at least once with the exemption off
    proven_trapped: list = field(default_factory=list)
    #: sites flagged with the exemption off
    flagged: list = field(default_factory=list)
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATIONS"
        return (f"{self.label} [sanitize:{self.precision} thr "
                f"{self.threshold:g}]: {status}; "
                f"{self.proven_count}/{self.checkable_count} sites proven, "
                f"{self.exempt_count} bit-exact exempt, "
                f"{self.exempt_execs} executions exempted; checks "
                f"{self.checks_on} on / {self.checks_off} off; "
                f"{len(self.proven_trapped)} proven sites trapped; flags "
                f"{self.flags_on} on / {self.flags_off} off at "
                f"{len(self.flagged)} sites")

    def to_dict(self) -> dict:
        return {
            "label": self.label, "ok": self.ok,
            "threshold": self.threshold, "precision": self.precision,
            "proven": self.proven_count, "checkable": self.checkable_count,
            "exempt": self.exempt_count, "exempt_execs": self.exempt_execs,
            "checks_on": self.checks_on, "checks_off": self.checks_off,
            "flags_on": self.flags_on, "flags_off": self.flags_off,
            "proven_trapped": [f"{a:#x}" for a in self.proven_trapped],
            "flagged_sites": [f"{a:#x}" for a in self.flagged],
            "violations": list(self.violations),
        }


def validate_sanitize_exemptions(target, *, size: str = "test",
                                 threshold: float = 1e-6,
                                 precision: int = 200
                                 ) -> ExemptionValidation:
    """Soundness gate for one workload: run the sanitizer with the
    default exemption, then with it *disabled* so every site is
    dual-path checked, and require that no statically proven site
    flagged in the second run.  Both runs share one cached analysis."""
    from repro.fpvm.runtime import FPVMConfig
    from repro.fpvm.sanitize import SanitizeConfig
    from repro.session import Session

    runs = []
    for exempt in (True, False):
        scfg = SanitizeConfig(threshold=threshold, precision=precision,
                              exempt=exempt)
        sess = Session(target, ("sanitize", precision), size=size,
                       config=FPVMConfig(sanitize=scfg),
                       label="sanitize-gate")
        sess.run()
        runs.append(sess)
    on, off = (sess.fpvm.stats for sess in runs)
    # the first Session's range pass reused its patcher's converged
    # VSA; the second finds both reports cached
    rr = runs[1].range_report
    san = runs[1].fpvm.sanitizer

    res = ExemptionValidation(
        label=(target if isinstance(target, str) else "<builder>"),
        threshold=threshold, precision=precision,
        proven_count=len(rr.proven), checkable_count=len(rr.checkable),
        exempt_count=len(rr.exact), exempt_execs=on.sanitize_exempt_execs,
        checks_on=on.sanitize_checks, checks_off=off.sanitize_checks,
        flags_on=on.sanitize_flags, flags_off=off.sanitize_flags)
    # a site has a record iff it was checked, i.e. it trapped
    res.proven_trapped = sorted(rr.proven & san.sites.keys())
    res.flagged = sorted(san.flagged_sites())
    for addr in res.flagged:
        if addr in rr.proven:
            site = san.sites[addr]
            res.violations.append(
                f"site {addr:#x} ({site.mnemonic}) was statically "
                f"proven divergence-free but flagged {site.flags}x "
                f"(max rel {site.max_rel:.3g})")
    return res


def validate_registry(*, size: str = "test", threshold: float = 1e-6,
                      precision: int = 200,
                      names=None) -> list[ExemptionValidation]:
    """Run the exemption soundness gate over the workload registry."""
    from repro.workloads import WORKLOADS

    return [validate_sanitize_exemptions(name, size=size,
                                         threshold=threshold,
                                         precision=precision)
            for name in (names or sorted(WORKLOADS))]


# --------------------------------------------------------------------------- #
# precision autotune                                                           #
# --------------------------------------------------------------------------- #

#: default shadow-precision ladder (bits); 53 and below would make the
#: shadow no better than the IEEE path itself, so the ladder stops at
#: values that still bracket the interesting transition
DEFAULT_LADDER = (200, 120, 80, 64, 56, 48, 40, 32, 24)


@dataclass
class AutotuneResult:
    """Minimal shadow precision whose verdict matches the reference."""

    label: str
    threshold: float
    reference_precision: int = 0
    minimal_precision: int = 0
    reference_flagged: tuple = ()
    #: (bits, n_flagged_sites, verdict_stable) per ladder step tried
    steps: list = field(default_factory=list)

    def summary(self) -> str:
        ref = ", ".join(f"{a:#x}" for a in self.reference_flagged) or "none"
        lines = [f"{self.label}: minimal safe shadow precision "
                 f"{self.minimal_precision} bits (reference "
                 f"{self.reference_precision} bits flags: {ref})"]
        for bits, n, stable in self.steps:
            lines.append(f"  {bits:4d} bits: {n} flagged sites "
                         f"[{'stable' if stable else 'VERDICT CHANGED'}]")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "label": self.label, "threshold": self.threshold,
            "reference_precision": self.reference_precision,
            "minimal_precision": self.minimal_precision,
            "reference_flagged": [f"{a:#x}"
                                  for a in self.reference_flagged],
            "steps": [{"bits": b, "flagged": n, "stable": s}
                      for b, n, s in self.steps],
        }


def autotune_precision(target, *, size: str = "test",
                       threshold: float = 1e-6,
                       ladder=DEFAULT_LADDER) -> AutotuneResult:
    """Walk the shadow precision down until the sanitizer's verdict
    (the set of flagged sites) changes; report the minimal precision
    that still reproduces the full-precision verdict."""
    from repro.fpvm.runtime import FPVMConfig
    from repro.fpvm.sanitize import SanitizeConfig
    from repro.session import Session

    res = AutotuneResult(
        label=(target if isinstance(target, str) else "<builder>"),
        threshold=threshold, reference_precision=ladder[0])
    reference = None
    for bits in ladder:
        scfg = SanitizeConfig(threshold=threshold, precision=bits,
                              exempt=False)
        sess = Session(target, ("sanitize", bits), size=size,
                       config=FPVMConfig(sanitize=scfg),
                       label=f"autotune:{bits}")
        sess.run()
        flagged = frozenset(sess.fpvm.sanitizer.flagged_sites())
        if reference is None:
            reference = flagged
            res.reference_flagged = tuple(sorted(flagged))
            res.minimal_precision = bits
            res.steps.append((bits, len(flagged), True))
            continue
        stable = flagged == reference
        res.steps.append((bits, len(flagged), stable))
        if not stable:
            break
        res.minimal_precision = bits
    return res
