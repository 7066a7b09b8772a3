"""FPSpy mode: observe floating point behaviour without changing it.

FPVM's trap-and-emulate engine "leverages the ideas behind our FPSpy
analysis tool [19]" (paper §4.1) — FPSpy responds to the same SIGFPE
"by *recording* the execution of the faulting instruction, and then
allowing it to be executed as normal."

:class:`FPSpy` is that tool, rebuilt on this reproduction's machine:
it unmasks a chosen set of MXCSR events, records every fault (event
kind, instruction address, mnemonic), then re-executes the faulting
instruction with exceptions masked so results are bit-identical to an
untraced run.  It is both a useful profiling tool (which codes would
virtualize heavily?) and the validation baseline for the FPVM engine's
trap plumbing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import MachineError
from repro.ieee.softfloat import Flags
from repro.machine.traps import TrapFrame

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cpu import Machine

_FLAG_NAMES = ((Flags.IE, "invalid"), (Flags.DE, "denorm"),
               (Flags.ZE, "divzero"), (Flags.OE, "overflow"),
               (Flags.UE, "underflow"), (Flags.PE, "rounding"))


@dataclass
class FPSpyReport:
    """Aggregated observations from one traced run."""

    total_events: int = 0
    by_kind: Counter = field(default_factory=Counter)
    by_site: Counter = field(default_factory=Counter)      # rip -> count
    by_mnemonic: Counter = field(default_factory=Counter)
    fp_instructions: int = 0
    instructions: int = 0

    @property
    def event_rate(self) -> float:
        """Events per dynamic FP instruction — the virtualization
        pressure FPVM would face on this code."""
        if self.fp_instructions == 0:
            return 0.0
        return self.total_events / self.fp_instructions

    def hottest_sites(self, n: int = 10) -> list[tuple[int, int]]:
        return self.by_site.most_common(n)

    def summary(self) -> str:
        kinds = ", ".join(f"{k}={v}" for k, v in self.by_kind.most_common())
        return (f"FPSpy: {self.total_events} events over "
                f"{self.fp_instructions} FP instructions "
                f"({100 * self.event_rate:.1f}% would trap under FPVM); "
                f"{kinds}")


class FPSpy:
    """Record-only FP event tracer (the paper's FPSpy, rebuilt)."""

    def __init__(self, watch: int = Flags.ALL) -> None:
        self.watch = watch & Flags.ALL
        self.report = FPSpyReport()
        self.machine: "Machine | None" = None
        self._saved_masks: int | None = None

    # ------------------------------------------------------------------ #
    def install(self, machine: "Machine") -> None:
        if self.machine is not None:
            raise MachineError("FPSpy already installed")
        self.machine = machine
        self._saved_masks = machine.mxcsr.masks
        machine.mxcsr.set_masks(Flags.ALL & ~self.watch)
        machine.mxcsr.clear_flags()
        machine.fp_trap_handler = self._on_trap

    def uninstall(self) -> None:
        m = self.machine
        if m is None:
            return
        self.report.instructions = m.instr_count
        self.report.fp_instructions = m.fp_instr_count
        if self._saved_masks is not None:
            m.mxcsr.set_masks(self._saved_masks)
        m.fp_trap_handler = None
        self.machine = None

    # ------------------------------------------------------------------ #
    def _on_trap(self, machine: "Machine", frame: TrapFrame) -> None:
        """Record, then re-execute the instruction with events masked —
        the result is exactly what the untraced program computes."""
        rep = self.report
        rep.total_events += 1
        for bit, name in _FLAG_NAMES:
            if frame.fp_flags & bit:
                rep.by_kind[name] += 1
        rep.by_site[frame.rip] += 1
        rep.by_mnemonic[frame.instruction.mnemonic] += 1

        saved = machine.mxcsr.masks
        machine.mxcsr.mask_all()
        machine.execute(frame.instruction)  # cannot fault; advances rip
        machine.mxcsr.set_masks(saved)
        machine.mxcsr.clear_flags()


def spy_on(binary_or_builder, *, watch: int = Flags.ALL,
           max_instructions: int | None = None) -> FPSpyReport:
    """Convenience: run a binary under FPSpy and return the report."""
    from repro.machine.loader import load_binary

    binary = (binary_or_builder() if callable(binary_or_builder)
              else binary_or_builder)
    m = load_binary(binary)
    spy = FPSpy(watch)
    spy.install(m)
    m.run(max_instructions)
    spy.uninstall()
    return spy.report
