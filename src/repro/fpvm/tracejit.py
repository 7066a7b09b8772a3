"""Tracing JIT: hot-loop trace recording and chain-trace emission.

The predecode interpreter (``machine/predecode.py``) pays a dict fetch
per superblock in the fast fetch loop, and a loop body spans several
superblocks.  This module compiles hot loops into one Python function
each, PyPy-style:

1. **Hot-loop detection** — backward direct branches report their
   target through ``machine._loop_hook``; past ``threshold`` executions
   the loop header is recorded.
2. **Trace recording** — ``_record`` follows one real iteration
   instruction-by-instruction (through superblock boundaries and fpvm
   trap sites — the steps *execute* while being captured, so recording
   never perturbs architectural state).
3. **Emission** — each trace is ``exec``-compiled into one *chain*
   function installed at ``machine._blocks[header]``; the fast fetch
   loop enters it like any superblock.  The function replays the
   recorded instructions through the machine's live step table
   (``m._code``, read once per entry) with a RIP/validity check after
   every non-straight-line step.  A failed check returns to the
   interpreter at the RIP the step left, which is exactly where plain
   interpretation would be.

Replaying through the live table is what makes the tier compose with
the trap-site JIT (``fpvm/jit.py``): when that tier compiles a site it
swaps ``m._code[addr]``, and the trace picks the compiled step up on
its next call.  A run therefore produces the same stdout, counts,
traps, cycles and final registers with the trace JIT on or off.

Traces interact with the rest of the VM exactly like trap-site JIT
closures: faults and storms (``FPVM._degrade``) invalidate the
containing trace, binary patches invalidate through a patch listener,
and a GC sweep that lands mid-recording aborts the recording cleanly
(``note_sweep``) so no stale shadow state is baked in.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.isa.opcodes import is_fp_trapping
from repro.machine.predecode import _BLOCK_SAFE
from repro.trace.events import (TraceCompileEvent, TraceDeoptEvent,
                                TraceRecordEvent)

if TYPE_CHECKING:  # pragma: no cover
    from repro.fpvm.runtime import FPVM

class TraceInfo:
    __slots__ = ("header", "fn", "length", "addrs", "valid", "handler",
                 "hits", "deopts", "side_exits", "entry_fails")

    def __init__(self, header, length, addrs, handler):
        self.header = header
        self.fn = None
        self.length = length
        self.addrs = addrs
        self.valid = True
        self.handler = handler
        self.hits = 0
        self.deopts = 0
        self.side_exits = 0
        self.entry_fails = 0


class TraceJIT:
    """Hot-loop tracer for the machine an FPVM is installed on."""

    def __init__(self, fpvm: "FPVM", threshold: int = 50) -> None:
        machine = fpvm.machine
        if machine is None:
            raise ValueError("tracing JIT requires an installed FPVM")
        self.machine = machine
        self.threshold = threshold
        self.stats = fpvm.stats
        self.traces: dict[int, TraceInfo] = {}
        self.counts: dict[int, int] = {}
        self.compiles: dict[int, int] = {}
        self.record_fails: dict[int, int] = {}
        self.blacklist: set[int] = set()
        self.max_trace_len = 256
        self.max_compiles_per_loop = 4
        self._recording = False
        self._abort_reason: str | None = None
        self._detached = False
        self._retired: set[int] = set()

    # ------------------------------------------------------------------ #
    # wiring                                                              #
    # ------------------------------------------------------------------ #

    def attach(self) -> None:
        self.machine._loop_hook = self._on_back_edge
        self.machine.binary.add_patch_listener(self._on_patch)

    def detach(self, reason: str = "detach") -> None:
        """Tear down silently: retire events, restore blocks, unhook."""
        self.flush_events()
        m = self.machine
        for info in list(self.traces.values()):
            info.valid = False
            self._deinstall(info)
        self.traces.clear()
        if m._loop_hook is self._on_back_edge:
            m._loop_hook = None
        self._detached = True

    def flush_events(self) -> None:
        """Emit a retire row per live trace (end-of-run bookkeeping).

        Idempotent per trace: a session close followed by an uninstall
        must not double-report the totals.
        """
        for info in self.traces.values():
            if info.header in self._retired:
                continue
            self._retired.add(info.header)
            self._emit(TraceCompileEvent(
                header=info.header, length=info.length, mode="chain",
                action="retire", hits=info.hits, deopts=info.deopts))

    def _on_patch(self, ins) -> None:
        if not self._detached:
            self.invalidate_containing(ins.addr, "patch")

    def _emit(self, ev) -> None:
        sink = self.machine.trace
        if sink is not None:
            ev.cycles = self.machine.cost.cycles
            sink.emit(ev)

    # ------------------------------------------------------------------ #
    # hot-loop detection                                                  #
    # ------------------------------------------------------------------ #

    def _assumptions_hold(self, info: TraceInfo) -> bool:
        m = self.machine
        return m.fp_trap_handler is info.handler and m.oracle is None

    def _on_back_edge(self, tgt: int) -> None:
        if self._recording or not self.machine._in_fast_loop:
            return
        info = self.traces.get(tgt)
        if info is not None:
            if info.valid:
                # self-heal: set_oracle() replaces _blocks[header] with a
                # fresh superblock and rebuild_blocks_around() drops it —
                # reinstall as long as the trace's assumptions still hold
                m = self.machine
                if (m._blocks.get(tgt) is not info.fn
                        and self._assumptions_hold(info)):
                    m._blocks[tgt] = info.fn
                return
            self.traces.pop(tgt, None)
        if tgt in self.blacklist:
            return
        n = self.counts.get(tgt, 0) + 1
        if n < self.threshold:
            self.counts[tgt] = n
            return
        self.counts[tgt] = 0
        self._hot(tgt)

    def _hot(self, header: int) -> None:
        m = self.machine
        if m.oracle is not None or m.halted:
            return
        n = self.compiles.get(header, 0)
        if n >= self.max_compiles_per_loop:
            self.blacklist.add(header)
            return
        self._recording = True
        self._abort_reason = None
        try:
            rec = self._record(header)
        finally:
            self._recording = False
        if rec is None:
            self.stats.trace_record_aborts += 1
            self._emit(TraceRecordEvent(
                header=header, ok=False,
                reason=self._abort_reason or "abort"))
            fails = self.record_fails.get(header, 0) + 1
            self.record_fails[header] = fails
            if fails >= 3:
                self.blacklist.add(header)
            return
        self._emit(TraceRecordEvent(header=header, length=len(rec), ok=True))
        info = self._compile(header, rec)
        self.compiles[header] = n + 1
        self.traces[header] = info
        m._blocks[header] = info.fn
        self.stats.trace_loops_compiled += 1
        self._emit(TraceCompileEvent(
            header=header, length=info.length, mode="chain",
            action="compile"))

    # ------------------------------------------------------------------ #
    # recording                                                           #
    # ------------------------------------------------------------------ #

    def _record(self, header: int):
        """Capture one loop iteration by executing it step-by-step.

        The recorded steps *are* the execution — on success or abort,
        architectural state is exactly what normal interpretation would
        have produced, so control can return to the fetch loop as-is.
        """
        m = self.machine
        regs = m.regs
        text_map = m.binary.text_map
        code = m._code
        rec = []
        rip = header
        for _ in range(self.max_trace_len):
            ins = text_map.get(rip)
            step = code.get(rip)
            if ins is None or step is None:
                self._abort_reason = "unmapped-rip"
                return None
            step()
            if self._abort_reason is not None:
                # e.g. a GC sweep reclaimed shadow handles mid-recording
                return None
            if m.halted:
                self._abort_reason = "halted"
                return None
            after = regs.rip
            rec.append((ins, after))
            if after == header:
                return rec
            rip = after
        self._abort_reason = "too-long"
        return None

    def note_sweep(self, freed) -> None:
        """GC sweep notification: a recording in flight could bake state
        that refers to the just-reclaimed shadow handles — abort it."""
        if self._recording:
            self._abort_reason = "gc-sweep"

    # ------------------------------------------------------------------ #
    # compilation                                                         #
    # ------------------------------------------------------------------ #

    def _compile(self, header: int, rec) -> TraceInfo:
        """Emit ``trace()``: the recorded instructions replayed through
        the live step table.  ``C`` is read on entry, not baked in at
        compile time: the trap-site JIT swaps entries of ``m._code`` and
        ``set_oracle`` rebinds it."""
        m = self.machine
        info = TraceInfo(header, len(rec),
                         frozenset(ins.addr for ins, _ in rec),
                         m.fp_trap_handler)
        env = {"m": m, "regs": m.regs, "I": info, "H": info.handler,
               "TJ": self, "S": self.stats}
        L = []
        a = L.append
        a("def trace():")
        a("    if m.fp_trap_handler is not H or m.oracle is not None "
          "or not I.valid:")
        a("        TJ._entry_fail(I)")
        a("        return")
        a("    C = m._code")
        a("    while True:")
        a("        I.hits += 1")
        a("        S.trace_hits += 1")
        last = len(rec) - 1
        for k, (ins, after) in enumerate(rec):
            a("        C[%d]()" % ins.addr)
            if ins.mnemonic in _BLOCK_SAFE and k != last:
                continue
            # a RIP mismatch after a step that may divert through the
            # trap handler is a deopt (the handler took over)
            fp = (is_fp_trapping(ins.mnemonic)
                  or ins.mnemonic in ("fpvm_trap", "fpvm_patch"))
            a("        if m.halted or regs.rip != %d or not I.valid:" % after)
            a("            TJ._chain_exit(I, %d, %r)" % (ins.addr, fp))
            a("            return")
        exec(compile("\n".join(L), "<trace-chain@%#x>" % header, "exec"),
             env)
        info.fn = env["trace"]
        return info

    # ------------------------------------------------------------------ #
    # runtime exits                                                       #
    # ------------------------------------------------------------------ #

    def _entry_fail(self, info: TraceInfo) -> None:
        """Entry guard failed: deinstall so the fetch loop makes
        progress through the plain superblock; the back-edge hook
        reinstalls once assumptions hold again."""
        info.entry_fails += 1
        self._deinstall(info)
        if info.entry_fails > 32 and info.valid:
            self._invalidate(info, "entry-thrash")
            self.blacklist.add(info.header)

    def _chain_exit(self, info: TraceInfo, addr: int, fp_like: bool) -> None:
        if not info.valid:
            self._deopt(info, "invalidated", addr)
        elif not self.machine.halted and fp_like:
            self._deopt(info, "trap-divert", addr)
        else:
            self._side_exit(info)

    def _deopt(self, info: TraceInfo, reason: str, addr: int) -> None:
        info.deopts += 1
        self.stats.trace_deopts += 1
        self._emit(TraceDeoptEvent(header=info.header, addr=addr,
                                   reason=reason))
        if info.valid and info.deopts > 32 and info.deopts * 2 > info.hits:
            self._invalidate(info, "deopt-storm")

    def _side_exit(self, info: TraceInfo) -> None:
        info.side_exits += 1
        self.stats.trace_side_exits += 1

    # ------------------------------------------------------------------ #
    # invalidation                                                        #
    # ------------------------------------------------------------------ #

    def _deinstall(self, info: TraceInfo) -> None:
        m = self.machine
        if m._blocks.get(info.header) is info.fn:
            del m._blocks[info.header]     # the next entry rebuilds it

    def _invalidate(self, info: TraceInfo, reason: str) -> None:
        if not info.valid:
            return
        info.valid = False
        self.stats.trace_invalidations += 1
        self._deinstall(info)
        self._emit(TraceCompileEvent(
            header=info.header, length=info.length, mode="chain",
            action="invalidate", hits=info.hits, deopts=info.deopts,
            reason=reason))
        self.traces.pop(info.header, None)
        self.counts[info.header] = 0

    def invalidate_containing(self, addr: int, reason: str) -> None:
        """Invalidate every trace whose covered addresses include
        ``addr`` — faults, storms, and patches tear traces down exactly
        as they tear down trap-site JIT closures."""
        for info in list(self.traces.values()):
            if addr in info.addrs:
                self._invalidate(info, reason)

    def invalidate_all(self, reason: str) -> None:
        for info in list(self.traces.values()):
            self._invalidate(info, reason)
