"""Dynamic soundness oracle for the static analysis (analysis v2).

The static pass claims: every instruction that can consume a live
NaN-box without faulting is patched.  The refinement sharpens the
claim: some candidate loads are *proven* box-free and left unpatched.
Neither claim is testable by construction alone, so this module checks
them differentially, FlowFPX-style:

* an **instrumented, unpatched** run observes every place a live box
  is consumed by an integer load, a ``movq r64, xmm``, a bitwise FP
  op, or an un-interposed external call;
* :func:`validate` cross-checks the observations against the static
  report — every observed site must be statically patched
  (**soundness**, zero tolerance), and the fraction of patched sites
  that never consumed a box measures over-patching (**precision**,
  the spurious-trap rate of the paper's Enzo discussion).

The probes are host-side instruments: they charge no modeled cycles
and exist only while a :class:`SoundnessOracle` is attached via
``Machine.set_oracle``.  They make exactly one kind of state change:
**demote-on-observe**.  When a probe sees a live box about to be
consumed it writes the concrete IEEE bits back in place — precisely
what the patched run's correctness handler would have done at that
site — so the instrumented run's downstream state tracks the patched
run's.  Without this, the first consumed box leaks through integer
moves and contaminates later loads with sites the static analysis
rightly never classifies (in the patched run the box dies at its
first consumption).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.isa.opcodes import is_fp_bitwise
from repro.isa.operands import Imm, Mem, Reg, Xmm
from repro.analysis.vsa import (INTERPOSED_EXTERNS, NO_FP_EXTERNS,
                                _INT_READERS)

if TYPE_CHECKING:  # pragma: no cover
    from repro.isa.instructions import Instruction
    from repro.machine.cpu import Machine


@dataclass
class Observation:
    """One site observed consuming a live NaN-box."""

    addr: int
    kind: str        # "sink" | "movq" | "bitwise" | "extern_arg"
    mnemonic: str
    count: int = 0
    #: for extern_arg: callee name and the highest boxed xmm index seen
    detail: dict = field(default_factory=dict)


class SoundnessOracle:
    """Records every consumption of a live box by non-FP machinery."""

    def __init__(self, fpvm) -> None:
        self.fpvm = fpvm
        self.observations: dict[tuple[str, int], Observation] = {}

    # ------------------------------------------------------------------ #
    def _note(self, addr: int, kind: str, mnemonic: str, **detail) -> None:
        obs = self.observations.get((kind, addr))
        if obs is None:
            obs = self.observations[(kind, addr)] = Observation(
                addr, kind, mnemonic)
        obs.count += 1
        for k, v in detail.items():
            if k == "max_xmm":
                obs.detail[k] = max(obs.detail.get(k, -1), v)
            else:
                obs.detail[k] = v

    def _boxed(self, bits: int) -> bool:
        return self.fpvm.emulator.is_live_box(bits)

    def _boxed_word(self, m: "Machine", ea: int, size: int) -> bool:
        """Is any aligned 8-byte word the access touches a live box?"""
        first = ea & ~7
        last = (ea + size - 1) & ~7
        for wa in range(first, last + 8, 8):
            try:
                if self._boxed(m.memory.read(wa, 8)):
                    return True
            except Exception:
                return False
        return False

    def _demote_word(self, m: "Machine", ea: int, size: int) -> None:
        """Demote-on-observe: replace every live box the access touches
        with its concrete IEEE bits, mirroring the patched run's
        correctness handler so downstream state stays comparable."""
        demote = self.fpvm.emulator.demote_bits
        first = ea & ~7
        last = (ea + size - 1) & ~7
        for wa in range(first, last + 8, 8):
            try:
                bits = m.memory.read(wa, 8)
                if self._boxed(bits):
                    m.memory.write(wa, 8, demote(bits))
            except Exception:
                return

    # ------------------------------------------------------------------ #
    # per-instruction inspection                                          #
    # ------------------------------------------------------------------ #

    def _read_mems(self, ins: "Instruction") -> list[Mem]:
        """The Mem operands an integer instruction *reads* — mirrors the
        VSA transfer function's read model exactly (the oracle validates
        the analysis, so both must agree on what a read is)."""
        mn = ins.mnemonic
        ops = ins.operands
        if mn in ("mov", "movabs", "movzx", "movsx"):
            return [op for op in ops[1:] if isinstance(op, Mem)]
        return [op for op in ops if isinstance(op, Mem)]

    def observe(self, m: "Machine", ins: "Instruction") -> None:
        """The probe body: runs just before ``ins`` executes."""
        mn = ins.mnemonic
        if mn == "movq":
            dst, src = ins.operands
            if isinstance(dst, Reg) and isinstance(src, Xmm):
                bits = m.regs.xmm_lo(src.index)
                if self._boxed(bits):
                    self._note(ins.addr, "movq", mn)
                    # the patched run demotes before the copy; mirror it
                    m.regs.set_xmm_lo(src.index,
                                      self.fpvm.emulator.demote_bits(bits))
            return
        if is_fp_bitwise(mn):
            hit = False
            for op in ins.operands:
                if isinstance(op, Xmm):
                    hit = (self._boxed(m.regs.xmm_lo(op.index))
                           or self._boxed(m.regs.xmm_hi(op.index)))
                elif isinstance(op, Mem):
                    hit = self._boxed_word(m, m.ea(op), 16)
                if hit:
                    self._note(ins.addr, "bitwise", mn)
                    return
            return
        if mn == "call":
            target = ins.operands[0]
            if not isinstance(target, Imm):
                return
            name = m._extern_names.get(target.value)
            if (name is None or name in INTERPOSED_EXTERNS
                    or name in NO_FP_EXTERNS):
                return
            boxed = [i for i in range(8)
                     if self._boxed(m.regs.xmm_lo(i))]
            if boxed:
                self._note(ins.addr, "extern_arg", mn, callee=name,
                           max_xmm=max(boxed))
                demote = self.fpvm.emulator.demote_bits
                for i in boxed:  # mirror the call-site demotion patch
                    m.regs.set_xmm_lo(i, demote(m.regs.xmm_lo(i)))
            return
        if mn in _INT_READERS:
            for op in self._read_mems(ins):
                ea = m.ea(op)
                if self._boxed_word(m, ea, op.size):
                    self._note(ins.addr, "sink", mn)
                    self._demote_word(m, ea, op.size)
                    return

    def compile_probe(self, m: "Machine",
                      ins: "Instruction") -> Callable[[], None] | None:
        """Predecode hook: a zero-arg probe, or None when the
        instruction can never consume a box."""
        mn = ins.mnemonic
        relevant = (
            is_fp_bitwise(mn)
            or mn == "call"
            or (mn == "movq" and isinstance(ins.operands[0], Reg)
                and isinstance(ins.operands[1], Xmm))
            or (mn in _INT_READERS and bool(self._read_mems(ins)))
        )
        if not relevant:
            return None
        return lambda: self.observe(m, ins)


# --------------------------------------------------------------------------- #
# validation: static report vs. dynamic observations                           #
# --------------------------------------------------------------------------- #

@dataclass
class ValidationResult:
    """Cross-check of one workload's static report against an
    instrumented run."""

    label: str
    arith: str
    report: object = None
    observations: list[Observation] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    #: patched sink-kind sites (sink/bitwise/movq) that never fired
    spurious_sites: list[int] = field(default_factory=list)
    patched_site_count: int = 0
    observed_site_count: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def spurious_trap_rate(self) -> float:
        """Fraction of patched sink-kind sites that never consumed a
        box during the run — the paper's wasted dynamic checks."""
        return (len(self.spurious_sites) / self.patched_site_count
                if self.patched_site_count else 0.0)

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATIONS"
        return (f"{self.label} [{self.arith}]: {status}; "
                f"{self.observed_site_count} dynamic box-consuming sites, "
                f"{self.patched_site_count} patched sites, "
                f"spurious rate {self.spurious_trap_rate:.0%}")

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "arith": self.arith,
            "ok": self.ok,
            "violations": list(self.violations),
            "observed_sites": self.observed_site_count,
            "patched_sites": self.patched_site_count,
            "spurious_sites": list(self.spurious_sites),
            "spurious_trap_rate": self.spurious_trap_rate,
            "observations": [
                {"addr": o.addr, "kind": o.kind, "mnemonic": o.mnemonic,
                 "count": o.count, **o.detail}
                for o in self.observations
            ],
        }


def validate(target, arith="mpfr:64", *, size: str = "test",
             config=None) -> ValidationResult:
    """Run the oracle cross-check for one target.

    Builds the target twice: once unpatched with the oracle attached
    (dynamic ground truth), once through the normal analyze-and-patch
    pipeline (static claim).  Every dynamically observed box-consuming
    site must be in the static patch set.

    The default arith is a boxing one (``mpfr:64``) — vanilla rarely
    NaN-boxes, so it exercises almost nothing.  An *unpatched* boxing
    run may crash once a box is consumed as a raw pointer/integer;
    observations gathered up to that point are still ground truth, so
    the crash is swallowed.
    """
    from repro.analysis import analyze
    from repro.analysis.signatures import fp_arg_count
    from repro.session import Session

    sess = Session(target, arith, size=size, patch=False, config=config,
                   label="oracle")
    oracle = SoundnessOracle(sess.fpvm)
    sess.machine.set_oracle(oracle)
    try:
        sess.run()
    except Exception:
        pass  # unpatched boxing runs may die; observations still count

    report = analyze(sess.machine.binary)
    res = ValidationResult(
        label=(target if isinstance(target, str) else "<builder>"),
        arith=arith if isinstance(arith, str) else str(arith),
        report=report,
    )
    res.observations = sorted(oracle.observations.values(),
                              key=lambda o: (o.kind, o.addr))
    res.observed_site_count = len(res.observations)

    sinks = set(report.sinks)
    pruned = set(report.pruned_sinks)
    bitwise = set(report.bitwise_sites)
    movq = set(report.movq_sites)
    externs = dict(report.extern_demote_sites)
    res.patched_site_count = len(sinks) + len(bitwise) + len(movq)

    fired: set[int] = set()
    for obs in res.observations:
        where = f"{obs.addr:#x} ({obs.mnemonic}, x{obs.count})"
        if obs.kind == "sink":
            fired.add(obs.addr)
            if obs.addr in pruned:
                res.violations.append(
                    f"sink {where}: consumed a live box but was PRUNED "
                    f"by the liveness refinement")
            elif obs.addr not in sinks:
                res.violations.append(
                    f"sink {where}: consumed a live box but was never "
                    f"classified a sink")
        elif obs.kind == "movq":
            fired.add(obs.addr)
            if obs.addr not in movq:
                res.violations.append(f"movq {where}: not patched")
        elif obs.kind == "bitwise":
            fired.add(obs.addr)
            if obs.addr not in bitwise:
                res.violations.append(f"bitwise {where}: not patched")
        elif obs.kind == "extern_arg":
            name = obs.detail.get("callee", "?")
            hi = obs.detail.get("max_xmm", 0)
            if obs.addr not in externs:
                res.violations.append(
                    f"extern call {where} to {name}: boxed xmm{hi} "
                    f"but no call-site demotion patch")
            elif hi >= fp_arg_count(name):
                res.violations.append(
                    f"extern call {where} to {name}: boxed xmm{hi} but "
                    f"signature table demotes only {fp_arg_count(name)}")
    res.spurious_sites = sorted((sinks | bitwise | movq) - fired)
    return res


def validate_registry(arith="mpfr:64", *, size: str = "test",
                      names=None) -> list[ValidationResult]:
    """Run :func:`validate` over the workload registry."""
    from repro.workloads import WORKLOADS

    return [validate(name, arith, size=size)
            for name in (names or sorted(WORKLOADS))]
