"""The emulator: bound instructions → alternative arithmetic (§4.1/4.3).

    "The implementation for each operation type is given simply by a
    function pointer stored in a map, op_map, which indexed by the
    operation type… They first attempt to unbox the values stored in
    the source operands.  If the source registers are not NaN-boxed
    values (shadowed values), they are promoted from their double
    representation… The resulting shadow value is then stored in a
    newly allocated cell which is NaN-boxed into the pointer."

Vector forms are handled by invoking the scalar path once per bound
lane, exactly as the paper describes.

Boxing policy: by default every emulated result allocates a fresh
shadow cell (the paper's behaviour, which creates the GC pressure of
Fig. 10).  With ``box_exact_results=False`` results that demote to a
binary64 *exactly* are stored unboxed — an ablation knob benchmarked
by ``benchmarks/bench_ablations.py::test_ablation_boxing_policy``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.errors import MachineError, NanBoxError
from repro.ieee.bits import F64_DEFAULT_QNAN, is_nan64, quiet64
from repro.arith.interface import AlternativeArithmetic, Ordering
from repro.fpvm.binding import BoundInst, BoundLane, Location
from repro.fpvm.decoder import FPVMOp
from repro.fpvm.nanbox import NaNBoxCodec
from repro.fpvm.shadow import ShadowStore
from repro.trace.events import DemotionEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cpu import Machine


class Emulator:
    """op_map dispatch over one alternative arithmetic system."""

    def __init__(
        self,
        arith: AlternativeArithmetic,
        store: ShadowStore,
        codec: NaNBoxCodec,
        *,
        box_exact_results: bool = True,
    ) -> None:
        self.arith = arith
        self.store = store
        self.codec = codec
        self.box_exact_results = box_exact_results
        self.trace = None  # TraceSink | None, wired up by FPVM
        self.injector = None  # FaultInjector | None, wired up by FPVM
        self.sanitizer = None  # Sanitizer | None, wired up by FPVM

        # statistics
        self.promotions = 0
        self.unbox_hits = 0
        self.universal_nans = 0
        self.boxes_created = 0
        self.corrupted_boxes = 0
        self.ops_emulated: dict[str, int] = {}

        a = self.arith
        self._op_map: dict[FPVMOp, Callable[["Machine", BoundLane, BoundInst], None]] = {
            FPVMOp.ADD: self._mk_binop(a.add),
            FPVMOp.SUB: self._mk_binop(a.sub),
            FPVMOp.MUL: self._mk_binop(a.mul),
            FPVMOp.DIV: self._mk_binop(a.div),
            FPVMOp.MIN: self._mk_binop(a.min),
            FPVMOp.MAX: self._mk_binop(a.max),
            FPVMOp.SQRT: self._mk_unop(a.sqrt),
            FPVMOp.FMA: self._op_fma,
            FPVMOp.UCOMI: self._op_compare,
            FPVMOp.COMI: self._op_compare,
            FPVMOp.CMP_PRED: self._op_cmp_pred,
            FPVMOp.CVT_I32_F64: self._op_cvt_i32,
            FPVMOp.CVT_I64_F64: self._op_cvt_i64,
            FPVMOp.CVT_F64_I32: self._op_cvt_f2i,
            FPVMOp.CVT_F64_I32_TRUNC: self._op_cvt_f2i,
            FPVMOp.CVT_F64_I64: self._op_cvt_f2i,
            FPVMOp.CVT_F64_I64_TRUNC: self._op_cvt_f2i,
            FPVMOp.CVT_F64_F32: self._op_cvt_f64_f32,
            FPVMOp.CVT_F32_F64: self._op_cvt_f32_f64,
            FPVMOp.ROUND: self._op_round,
            FPVMOp.ADD32: self._mk_binop32(a.add),
            FPVMOp.SUB32: self._mk_binop32(a.sub),
            FPVMOp.MUL32: self._mk_binop32(a.mul),
            FPVMOp.DIV32: self._mk_binop32(a.div),
        }

    # ------------------------------------------------------------------ #
    # entry point                                                         #
    # ------------------------------------------------------------------ #

    def _resolve(self, bound: BoundInst) -> tuple[Callable, str]:
        """The op function and op-count/cost key of ``bound``."""
        fn = self._op_map.get(bound.op)
        if fn is None:
            raise MachineError(f"no emulation for {bound.op}")
        return fn, bound.decoded.arith_name or bound.op.name.lower()

    def emulate(self, machine: "Machine", bound: BoundInst) -> int:
        """Emulate all lanes; returns modeled arithmetic cycles."""
        run, cycles = self.prepare(bound)
        run(machine)
        return cycles

    def prepare(self, bound: BoundInst) -> tuple[Callable[["Machine"], None],
                                                  int]:
        """One site's :meth:`emulate`, resolved once: ``(run, cycles)``.

        ``run(machine)`` applies the op function to every lane of
        ``bound`` and counts the op; under the sanitizer it then
        compares the freshly boxed IEEE/shadow pair at every
        value-producing destination lane.  ``cycles`` is the modeled
        arithmetic cost (a port's ``op_cycles`` is fixed per op).
        """
        fn, name = self._resolve(bound)
        lanes = tuple(bound.lanes)
        n = len(lanes)
        ops = self.ops_emulated

        def run(machine: "Machine") -> None:
            for lane in lanes:
                fn(machine, lane, bound)
            ops[name] = ops.get(name, 0) + n

        san = self.sanitizer
        if san is not None and bound.op in san.checked_ops:
            apply_op = run
            dsts = tuple(lane.dst for lane in lanes if lane.dst is not None)
            instr = bound.decoded.instr
            is_box, decode, get = (self.codec.is_box, self.codec.decode,
                                   self.store.get)

            def run(machine: "Machine") -> None:
                apply_op(machine)
                for dst in dsts:
                    bits = dst.read()
                    if is_box(bits):
                        v = get(decode(bits))
                        if v is not None:
                            san.check_value(machine, instr.addr,
                                            instr.mnemonic, v)
        return run, self.arith.op_cycles(name) * n

    # ------------------------------------------------------------------ #
    # (un)boxing                                                          #
    # ------------------------------------------------------------------ #

    def unbox(self, bits: int):
        """Bits → alternative-arithmetic value (promote if unboxed)."""
        if self.codec.is_box(bits):
            inj = self.injector
            if inj is not None:
                if inj.fires("nanbox_corrupt"):
                    # bit flip in the 51-bit key.  Handles are small
                    # free-listed integers, so a flip of a high bit
                    # dangles and reads as a universal NaN below, but a
                    # flip of a low bit can name another live cell,
                    # whose value is returned undetected
                    from repro.fpvm.nanbox import PAYLOAD_BITS

                    bits ^= 1 << inj.rng("nanbox_corrupt").randrange(
                        PAYLOAD_BITS)
                    self.corrupted_boxes += 1
                if inj.fires("shadow_lookup"):
                    raise NanBoxError(
                        "injected shadow-table miss for handle "
                        f"{self.codec.decode(bits)}")
            v = self.store.get(self.codec.decode(bits))
            if v is not None:
                self.unbox_hits += 1
                return v
            # signaling NaN without a shadow value: universal ("true") NaN
            self.universal_nans += 1
            return self.arith.from_f64_bits(F64_DEFAULT_QNAN)
        if is_nan64(bits):
            return self.arith.from_f64_bits(quiet64(bits))
        self.promotions += 1
        return self.arith.from_f64_bits(bits)

    def box(self, dst: Location, value) -> None:
        """Store a result: universal NaNs stay visible as real NaNs;
        otherwise allocate a shadow cell and write the NaN-boxed handle
        (or, under the ablation policy, demote exact values in place)."""
        a = self.arith
        if a.is_nan(value):
            dst.write(F64_DEFAULT_QNAN)
            return
        if not self.box_exact_results:
            demoted = a.to_f64_bits(value)
            if not is_nan64(demoted):
                roundtrip = a.from_f64_bits(demoted)
                if (a.compare(roundtrip, value) is Ordering.EQ
                        and a.is_negative(roundtrip) == a.is_negative(value)):
                    dst.write(demoted)
                    return
        handle = self.store.alloc(value)
        self.boxes_created += 1
        dst.write(self.codec.encode(handle))

    def demote_bits(self, bits: int) -> int:
        """NaN-box bit pattern → IEEE double bits (identity otherwise)."""
        if self.codec.is_box(bits):
            v = self.store.get(self.codec.decode(bits))
            if v is not None:
                return self.arith.to_f64_bits(v)
            return F64_DEFAULT_QNAN
        return bits

    def is_live_box(self, bits: int) -> bool:
        return self.codec.is_box(bits) and self.store.contains(
            self.codec.decode(bits)
        )

    # ------------------------------------------------------------------ #
    # op implementations                                                  #
    # ------------------------------------------------------------------ #

    def _mk_binop(self, fn):
        def impl(machine: "Machine", lane: BoundLane, bound: BoundInst) -> None:
            a = self.unbox(lane.srcs[0].read())
            b = self.unbox(lane.srcs[1].read())
            self.box(lane.dst, fn(a, b))

        return impl

    def _mk_unop(self, fn):
        def impl(machine: "Machine", lane: BoundLane, bound: BoundInst) -> None:
            a = self.unbox(lane.srcs[0].read())
            self.box(lane.dst, fn(a))

        return impl

    def _op_fma(self, machine, lane: BoundLane, bound: BoundInst) -> None:
        a = self.unbox(lane.srcs[0].read())
        b = self.unbox(lane.srcs[1].read())
        c = self.unbox(lane.srcs[2].read())
        self.box(lane.dst, self.arith.fma(a, b, c))

    def _op_compare(self, machine, lane: BoundLane, bound: BoundInst) -> None:
        a = self.unbox(lane.srcs[0].read())
        b = self.unbox(lane.srcs[1].read())
        zf, pf, cf = self.arith.compare(a, b).to_rflags()
        machine.regs.set_compare_flags(zf, pf, cf)

    def _op_cmp_pred(self, machine, lane: BoundLane, bound: BoundInst) -> None:
        a = self.unbox(lane.srcs[0].read())
        b = self.unbox(lane.srcs[1].read())
        ordv = self.arith.compare(a, b)
        unord = ordv is Ordering.UNORDERED
        pred = bound.imm or 0
        if pred == 0:
            res = ordv is Ordering.EQ
        elif pred == 1:
            res = ordv is Ordering.LT
        elif pred == 2:
            res = ordv in (Ordering.LT, Ordering.EQ)
        elif pred == 3:
            res = unord
        elif pred == 4:
            res = unord or ordv is not Ordering.EQ
        elif pred == 5:
            res = unord or ordv is not Ordering.LT
        elif pred == 6:
            res = unord or ordv not in (Ordering.LT, Ordering.EQ)
        else:
            res = not unord
        lane.dst.write(0xFFFF_FFFF_FFFF_FFFF if res else 0)

    def _op_cvt_i32(self, machine, lane: BoundLane, bound: BoundInst) -> None:
        raw = lane.srcs[0].read() & 0xFFFF_FFFF
        self.box(lane.dst, self.arith.from_i32(raw))

    def _op_cvt_i64(self, machine, lane: BoundLane, bound: BoundInst) -> None:
        raw = lane.srcs[0].read()
        self.box(lane.dst, self.arith.from_i64(raw))

    _CVT_F2I_SPEC = {
        FPVMOp.CVT_F64_I32: (32, False),
        FPVMOp.CVT_F64_I32_TRUNC: (32, True),
        FPVMOp.CVT_F64_I64: (64, False),
        FPVMOp.CVT_F64_I64_TRUNC: (64, True),
    }

    def _op_cvt_f2i(self, machine, lane: BoundLane, bound: BoundInst) -> None:
        width, trunc = self._CVT_F2I_SPEC[bound.op]
        a = self.unbox(lane.srcs[0].read())
        if width == 32:
            lane.dst.write(self.arith.to_i32(a, trunc))
        else:
            lane.dst.write(self.arith.to_i64(a, trunc))

    def _op_cvt_f64_f32(self, machine, lane: BoundLane, bound) -> None:
        # binary32 results are never boxed: 23 fraction bits cannot hold
        # a useful handle — the paper's "float problem" limitation (§2).
        bits = lane.srcs[0].read()
        a = self.unbox(bits)
        out = self.arith.to_f32_bits(a)
        if self.trace is not None and self.is_live_box(bits):
            self.trace.emit(DemotionEvent(
                cycles=machine.cost.cycles,
                location="f32-dest",
                reason="float-problem",
                handle=self.codec.decode(bits),
                bits=out,
            ))
        lane.dst.write(out)

    def _op_cvt_f32_f64(self, machine, lane: BoundLane, bound) -> None:
        self.box(lane.dst, self.arith.from_f32_bits(lane.srcs[0].read()))

    def _op_round(self, machine, lane: BoundLane, bound: BoundInst) -> None:
        a = self.unbox(lane.srcs[0].read())
        self.box(lane.dst, self.arith.round_to_integral(a, bound.imm or 0))

    def _mk_binop32(self, fn):
        def impl(machine: "Machine", lane: BoundLane, bound: BoundInst) -> None:
            # "float problem": f32 slots can't be boxed, so emulation
            # promotes, computes, and demotes straight back to binary32.
            a = self.arith.from_f32_bits(lane.srcs[0].read())
            b = self.arith.from_f32_bits(lane.srcs[1].read())
            lane.dst.write(self.arith.to_f32_bits(fn(a, b)))

        return impl
