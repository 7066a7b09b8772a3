"""Conservative bipartite mark-and-sweep garbage collection (§4.1).

    "Every epoch (typically 1s), the garbage collector scans all
    writable program memory for data that appears to be a NaN-box.  It
    then decodes it, and sets the mark bit if it is located in the
    data structure.  It then sweeps through the set of all allocated
    values and frees their backing storage (shadow values) if they are
    not marked."

The pointer graph is bipartite (program memory may point to shadow
values; shadow values never point back), so a single scan + sweep is a
complete collection.  Roots also include the register file: ``movq``
can park a box in a GPR.

In place of wall-clock epochs (the simulation is deterministic) the
collector triggers every ``epoch_cycles`` modeled cycles, checked on
each FPVM entry.  The scan itself is vectorized with NumPy — a Python
loop over every heap word would dominate host runtime.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.ieee.bits import F64_EXP_MASK, F64_QNAN_BIT
from repro.fpvm.nanbox import PAYLOAD_MASK, NaNBoxCodec
from repro.fpvm.shadow import ShadowStore
from repro.trace.events import DegradeEvent, GCEpochEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cpu import Machine
    from repro.trace.sinks import TraceSink


@dataclass(slots=True)
class GCPassStats:
    """One collection pass (rows of the Fig. 10 bench)."""

    alive_before: int
    freed: int
    alive_after: int
    words_scanned: int
    latency_s: float
    modeled_cycles: int


@dataclass
class ConservativeGC:
    """Epoch-driven conservative collector over a shadow store."""

    store: ShadowStore
    codec: NaNBoxCodec
    epoch_cycles: int = 5_000_000
    passes: list[GCPassStats] = field(default_factory=list)
    trace: "TraceSink | None" = None
    injector: object = None  # FaultInjector | None, wired up by FPVM
    #: callback invoked with the tuple of handles each sweep reclaimed
    #: (FPVM uses it to invalidate handle-keyed caches before reuse)
    on_sweep: object = None
    sweeps_skipped: int = 0
    _last_epoch_cycles: int = 0

    # ------------------------------------------------------------------ #
    def maybe_collect(self, machine: "Machine") -> GCPassStats | None:
        """Collect iff an epoch has elapsed on the modeled clock."""
        now = machine.cost.cycles
        if now - self._last_epoch_cycles < self.epoch_cycles:
            return None
        self._last_epoch_cycles = now
        return self.collect(machine)

    # ------------------------------------------------------------------ #
    def collect(self, machine: "Machine") -> GCPassStats:
        """One full mark-and-sweep pass."""
        t0 = time.perf_counter()
        alive_before = self.store.live_count
        self.store.clear_marks()

        words = 0
        for lo, hi in self._scan_ranges(machine):
            words += self._scan_range(machine, lo, hi)
        words += self._scan_registers(machine)

        inj = self.injector
        if inj is not None and inj.fires("gc_sweep"):
            # injected sweep skip: marked state is discarded, nothing is
            # freed — graceful degradation trades memory for survival
            freed = 0
            self.sweeps_skipped += 1
            if self.trace is not None:
                self.trace.emit(DegradeEvent(
                    cycles=machine.cost.cycles,
                    stage="gc_sweep",
                    reason="injected sweep skip",
                    injected=True,
                ))
        else:
            freed = self.store.sweep()
            if freed and self.on_sweep is not None:
                self.on_sweep(self.store.last_swept)
        latency = time.perf_counter() - t0
        plat = machine.cost.platform
        cycles = (words * plat.gc_scan_word_cycles
                  + freed * plat.gc_sweep_obj_cycles)
        machine.cost.charge(cycles, "gc")
        stats = GCPassStats(
            alive_before=alive_before,
            freed=freed,
            alive_after=self.store.live_count,
            words_scanned=words,
            latency_s=latency,
            modeled_cycles=cycles,
        )
        self.passes.append(stats)
        if self.trace is not None:
            self.trace.emit(GCEpochEvent(
                cycles=machine.cost.cycles,
                words_scanned=words,
                bytes_scanned=8 * words,
                boxes_marked=stats.alive_after,
                alive_before=alive_before,
                freed=freed,
                alive_after=stats.alive_after,
                scan_cycles=cycles,
            ))
        return stats

    # ------------------------------------------------------------------ #
    def _scan_ranges(self, machine: "Machine") -> list[tuple[int, int]]:
        """Writable memory that can actually hold program data.

        The heap is scanned only up to the current break and the stack
        only from RSP — matching what a real conservative collector
        learns from /proc/self/maps + sbrk + the signal context.
        """
        ranges: list[tuple[int, int]] = []
        for seg in machine.memory.segments:
            if not seg.writable:
                continue
            lo, hi = seg.base, seg.end
            if seg.name == "heap":
                hi = min(hi, machine.heap_brk)
            elif seg.name == "stack":
                lo = max(lo, machine.regs.get_gpr("rsp") & ~7)
            if hi > lo:
                ranges.append((lo, hi))
        return ranges

    def _scan_range(self, machine: "Machine", lo: int, hi: int) -> int:
        seg = machine.memory.segment_for(lo)
        start = lo - seg.base
        end = hi - seg.base
        end -= (end - start) % 8
        if end <= start:
            return 0
        arr = np.frombuffer(bytes(seg.data[start:end]), dtype="<u8")
        # candidate = signaling NaN with nonzero payload
        cand = arr[
            ((arr & np.uint64(F64_EXP_MASK)) == np.uint64(F64_EXP_MASK))
            & ((arr & np.uint64(F64_QNAN_BIT)) == np.uint64(0))
            & ((arr & np.uint64(PAYLOAD_MASK)) != np.uint64(0))
        ]
        mark = self.store.mark
        for word in cand.tolist():
            mark(word & PAYLOAD_MASK)
        return len(arr)

    def _scan_registers(self, machine: "Machine") -> int:
        """Registers are roots: XMM lanes and (via movq) even GPRs."""
        is_cand = self.codec.is_candidate_word
        mark = self.store.mark
        n = 0
        for lanes in machine.regs.xmm:
            for word in lanes:
                n += 1
                if is_cand(word):
                    mark(word & PAYLOAD_MASK)
        for word in machine.regs.gpr.values():
            n += 1
            if is_cand(word):
                mark(word & PAYLOAD_MASK)
        return n

    # ------------------------------------------------------------------ #
    def summary(self) -> dict:
        """Aggregate pass statistics (Fig. 10 rows)."""
        if not self.passes:
            return {"passes": 0, "alive": 0, "freed": 0, "latency_us": 0.0,
                    "collect_fraction": 0.0}
        total_freed = sum(p.freed for p in self.passes)
        total_before = sum(p.alive_before for p in self.passes)
        return {
            "passes": len(self.passes),
            "alive": max(p.alive_before for p in self.passes),
            "freed": total_freed,
            "latency_us": 1e6 * sum(p.latency_s for p in self.passes)
            / len(self.passes),
            "collect_fraction": (total_freed / total_before
                                 if total_before else 0.0),
        }
