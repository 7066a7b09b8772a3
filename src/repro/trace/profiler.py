"""The aggregating profiler sink and the ``trace summarize`` report.

Consumes the event stream (live, from a ring buffer, or re-read from
an NDJSON file) and aggregates the three views the paper's evaluation
implies but never exposes:

* **per-site hot spots** — which faulting sites cost the most
  virtualization cycles (decode + bind + emulate per site);
* **per-flag trap histograms** — which MXCSR causes dominate
  (the Fig. 9 "why do we trap" dimension);
* **exception-flow coverage** — FlowFPX-style: of all static
  trap-capable FP sites in the binary, which ever trapped and which
  never did.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable

from repro.trace.events import (
    AnalysisEvent,
    CacheMissEvent,
    CorrectnessTrapEvent,
    DegradeEvent,
    DemotionEvent,
    ExternCallEvent,
    GCEpochEvent,
    JitCompileEvent,
    JitHitEvent,
    PatchEvent,
    RangeAnalysisEvent,
    RunMetaEvent,
    SanitizeFlagEvent,
    TraceCompileEvent,
    TraceDeoptEvent,
    TraceEvent,
    TraceRecordEvent,
    TrapEvent,
    flag_names,
)
from repro.trace.sinks import read_ndjson


@dataclass
class SiteStats:
    """Aggregate for one faulting site."""

    addr: int
    mnemonic: str = ""
    traps: int = 0
    cycles: float = 0.0
    flags: Counter = field(default_factory=Counter)
    decode_hits: int = 0
    bind_hits: int = 0
    #: FP events absorbed by the site's compiled closure (no trap)
    jit_hits: int = 0

    @property
    def jit_fraction(self) -> float:
        total = self.jit_hits + self.traps
        return self.jit_hits / total if total else 0.0


@dataclass
class DivergenceStats:
    """Aggregate for one sanitizer-flagged site (FlowFPX provenance)."""

    addr: int
    mnemonic: str = ""
    flags: int = 0
    max_rel: float = 0.0
    max_ulps: int = 0
    example_ieee: float = 0.0
    example_shadow: float = 0.0


@dataclass
class LoopStats:
    """Aggregate for one traced loop (keyed by its header address).

    ``hits``/``deopts`` accumulate from the final totals the tracing
    JIT reports on ``invalidate``/``retire`` rows; ``deopt_reasons``
    histograms the individual :class:`TraceDeoptEvent` stream.
    """

    header: int
    mode: str = ""
    length: int = 0
    compiles: int = 0
    invalidations: int = 0
    record_aborts: int = 0
    hits: int = 0
    deopts: int = 0
    deopt_reasons: Counter = field(default_factory=Counter)

    @property
    def deopt_fraction(self) -> float:
        return self.deopts / self.hits if self.hits else 0.0


class ProfilerSink:
    """Aggregating sink: hot spots, flag histograms, coverage, GC."""

    def __init__(self) -> None:
        self.meta: RunMetaEvent | None = None
        self.sites: dict[int, SiteStats] = {}
        self.flag_histogram: Counter = Counter()
        self.gc_epochs: list[GCEpochEvent] = []
        self.extern_calls: Counter = Counter()
        self.extern_cycles: Counter = Counter()
        self.demotions: Counter = Counter()
        self.degrades: Counter = Counter()
        self.demoted_sites: set[int] = set()
        self.correctness: Counter = Counter()
        self.patches: Counter = Counter()
        self.cache_misses: Counter = Counter()
        self.jit_actions: Counter = Counter()
        self.jit_fused_hits = 0
        self.jit_boxes_elided = 0
        self.trace_loops: dict[int, LoopStats] = {}
        self.analyses: list[AnalysisEvent] = []
        # NSan-mode sanitizer: per-site divergence provenance and the
        # interval-range pass summaries (the proofs behind exemption)
        self.divergences: dict[int, DivergenceStats] = {}
        self.range_analyses: list[RangeAnalysisEvent] = []
        self.events_seen = 0

    # ------------------------------------------------------------------ #
    def emit(self, event: TraceEvent) -> None:
        self.events_seen += 1
        if type(event) is TrapEvent:
            st = self.sites.get(event.addr)
            if st is None:
                st = self.sites[event.addr] = SiteStats(event.addr,
                                                        event.mnemonic)
            st.traps += 1
            st.cycles += event.stage_cycles
            st.decode_hits += event.decode_hit
            st.bind_hits += event.bind_hit
            for name in flag_names(event.flags):
                st.flags[name] += 1
                self.flag_histogram[name] += 1
        elif type(event) is GCEpochEvent:
            self.gc_epochs.append(event)
        elif type(event) is ExternCallEvent:
            self.extern_calls[event.name] += 1
            self.extern_cycles[event.name] += event.cycles_spent
        elif type(event) is DemotionEvent:
            self.demotions[event.reason] += 1
        elif type(event) is DegradeEvent:
            self.degrades[event.stage] += 1
            if event.site_demoted:
                self.demoted_sites.add(event.addr)
        elif type(event) is CorrectnessTrapEvent:
            self.correctness[event.trap_kind] += 1
        elif type(event) is PatchEvent:
            self.patches[event.patch_kind] += 1
        elif type(event) is JitHitEvent:
            st = self.sites.get(event.addr)
            if st is None:
                st = self.sites[event.addr] = SiteStats(event.addr,
                                                        event.mnemonic)
            st.jit_hits += 1
            if event.fused:
                self.jit_fused_hits += 1
            self.jit_boxes_elided += event.boxes_elided
        elif type(event) is JitCompileEvent:
            self.jit_actions[event.action] += 1
        elif type(event) is TraceCompileEvent:
            lp = self._loop(event.header)
            if event.action == "compile":
                lp.compiles += 1
                lp.mode = event.mode
                lp.length = event.length
            else:  # "invalidate" | "retire": final totals for this trace
                lp.hits += event.hits
                lp.deopts += event.deopts
                if event.action == "invalidate":
                    lp.invalidations += 1
        elif type(event) is TraceDeoptEvent:
            self._loop(event.header).deopt_reasons[event.reason] += 1
        elif type(event) is TraceRecordEvent:
            if not event.ok:
                self._loop(event.header).record_aborts += 1
        elif type(event) is CacheMissEvent:
            self.cache_misses[event.stage] += 1
        elif type(event) is SanitizeFlagEvent:
            dv = self.divergences.get(event.addr)
            if dv is None:
                dv = self.divergences[event.addr] = DivergenceStats(
                    event.addr, event.mnemonic)
            dv.flags = max(dv.flags, event.count)
            if event.rel_err >= dv.max_rel:
                dv.max_rel = event.rel_err
                dv.example_ieee = event.ieee
                dv.example_shadow = event.shadow
            dv.max_ulps = max(dv.max_ulps, event.ulps)
        elif type(event) is RangeAnalysisEvent:
            self.range_analyses.append(event)
        elif type(event) is AnalysisEvent:
            self.analyses.append(event)
        elif type(event) is RunMetaEvent:
            self.meta = event

    def _loop(self, header: int) -> LoopStats:
        lp = self.trace_loops.get(header)
        if lp is None:
            lp = self.trace_loops[header] = LoopStats(header)
        return lp

    def close(self) -> None:
        pass

    # ------------------------------------------------------------------ #
    # views                                                               #
    # ------------------------------------------------------------------ #

    @property
    def total_traps(self) -> int:
        return sum(s.traps for s in self.sites.values())

    @property
    def total_trap_cycles(self) -> float:
        return sum(s.cycles for s in self.sites.values())

    def hot_sites(self, n: int = 10) -> list[SiteStats]:
        """Top-n sites by virtualization cycles spent at the site."""
        return sorted(self.sites.values(),
                      key=lambda s: (-s.cycles, -s.jit_hits))[:n]

    def coverage(self) -> dict:
        """FlowFPX-style exception-flow coverage of static FP sites.

        Falls back to dynamic-only data (every site that trapped) when
        the trace carries no :class:`RunMetaEvent` inventory.
        """
        trapped = set(self.sites)
        if self.meta is None or not self.meta.fp_sites:
            return {"static_sites": len(trapped), "trapped": len(trapped),
                    "never_trapped": [], "fraction": 1.0 if trapped else 0.0}
        inventory = {int(addr): mn for addr, mn in self.meta.fp_sites}
        never = sorted(a for a in inventory if a not in trapped)
        n = len(inventory)
        return {
            "static_sites": n,
            "trapped": sum(1 for a in inventory if a in trapped),
            "never_trapped": [(a, inventory[a]) for a in never],
            "fraction": (sum(1 for a in inventory if a in trapped) / n
                         if n else 0.0),
        }

    def gc_summary(self) -> dict:
        eps = self.gc_epochs
        if not eps:
            return {"epochs": 0, "freed": 0, "words_scanned": 0,
                    "scan_cycles": 0.0}
        return {
            "epochs": len(eps),
            "freed": sum(e.freed for e in eps),
            "words_scanned": sum(e.words_scanned for e in eps),
            "scan_cycles": sum(e.scan_cycles for e in eps),
            "max_alive": max(e.alive_before for e in eps),
        }

    # ------------------------------------------------------------------ #
    # rendering                                                           #
    # ------------------------------------------------------------------ #

    def render(self, top: int = 10) -> str:
        out: list[str] = []
        if self.meta is not None:
            out.append(f"run: {self.meta.label or '<unnamed>'} "
                       f"[{self.meta.arith}] mode={self.meta.mode} "
                       f"platform={self.meta.platform}")
        out.append(f"events: {self.events_seen}  traps: {self.total_traps}  "
                   f"trap cycles: {self.total_trap_cycles:.0f}")

        out.append("")
        out.append(f"per-site hot spots (top {top} by virtualization cycles):")
        out.append(f"  {'addr':>10s} {'mnemonic':10s} {'traps':>8s} "
                   f"{'jit':>8s} {'jit%':>6s} {'cycles':>12s} "
                   f"{'share':>7s}  flags")
        total = self.total_trap_cycles or 1.0
        for s in self.hot_sites(top):
            fl = ",".join(f"{k}:{v}" for k, v in s.flags.most_common())
            out.append(f"  {s.addr:#10x} {s.mnemonic:10s} {s.traps:8d} "
                       f"{s.jit_hits:8d} {100 * s.jit_fraction:5.1f}% "
                       f"{s.cycles:12.0f} {100 * s.cycles / total:6.1f}%  "
                       f"{fl}")

        out.append("")
        out.append("per-flag trap histogram:")
        peak = max(self.flag_histogram.values(), default=1)
        for name, count in self.flag_histogram.most_common():
            bar = "#" * max(1, round(40 * count / peak))
            out.append(f"  {name:3s} {count:10d} {bar}")
        if not self.flag_histogram:
            out.append("  (no FP traps recorded)")

        cov = self.coverage()
        out.append("")
        out.append(f"exception-flow coverage: {cov['trapped']}/"
                   f"{cov['static_sites']} static FP sites trapped "
                   f"({100 * cov['fraction']:.0f}%)")
        for addr, mn in cov["never_trapped"]:
            out.append(f"  never trapped: {addr:#x} ({mn})")

        gc = self.gc_summary()
        out.append("")
        out.append(f"gc: {gc['epochs']} epochs, {gc['freed']} shadows freed, "
                   f"{gc['words_scanned']} words scanned, "
                   f"{gc['scan_cycles']:.0f} cycles")

        if self.correctness:
            parts = ", ".join(f"{k}×{v}"
                              for k, v in self.correctness.most_common())
            out.append(f"correctness traps: {parts}")
        if self.demotions:
            parts = ", ".join(f"{k}×{v}"
                              for k, v in self.demotions.most_common())
            out.append(f"demotions: {parts}")
        if self.degrades:
            parts = ", ".join(f"{k}×{v}"
                              for k, v in self.degrades.most_common())
            out.append(f"degradations: {parts}")
            if self.demoted_sites:
                sites = ", ".join(f"{a:#x}"
                                  for a in sorted(self.demoted_sites))
                out.append(f"storm-demoted sites: {sites}")
        if self.patches:
            parts = ", ".join(f"{k}×{v}"
                              for k, v in self.patches.most_common())
            out.append(f"patches: {parts}")
        if self.analyses:
            out.append("")
            out.append("static analysis (per analyzed binary):")
            out.append(f"  {'hash':8s} {'cache':>5s} {'ctxs':>5s} "
                       f"{'sinks':>6s} {'pruned':>7s} {'prune%':>7s} "
                       f"{'vsa ms':>8s} {'refine ms':>10s}")
            for a in self.analyses:
                cand = a.sinks + a.pruned_sinks
                rate = a.pruned_sinks / cand if cand else 0.0
                out.append(
                    f"  {a.binary_hash[:8]:8s} "
                    f"{'hit' if a.cache_hit else 'miss':>5s} "
                    f"{a.contexts:5d} {a.sinks:6d} {a.pruned_sinks:7d} "
                    f"{100 * rate:6.1f}% {a.vsa_ms:8.1f} {a.refine_ms:10.1f}")
        if self.divergences:
            out.append("")
            out.append("sanitizer divergence (per flagged site):")
            out.append(f"  {'addr':>10s} {'mnemonic':10s} {'flags':>7s} "
                       f"{'max rel':>10s} {'max ulps':>9s}  "
                       f"example (ieee vs shadow)")
            for dv in sorted(self.divergences.values(),
                             key=lambda d: (-d.flags, -d.max_rel)):
                out.append(
                    f"  {dv.addr:#10x} {dv.mnemonic:10s} {dv.flags:7d} "
                    f"{dv.max_rel:10.3g} {dv.max_ulps:9d}  "
                    f"{dv.example_ieee:.17g} vs {dv.example_shadow:.17g}")
        if self.range_analyses:
            out.append("")
            out.append("interval-range pass (per analyzed binary):")
            out.append(f"  {'hash':8s} {'cache':>5s} {'iters':>6s} "
                       f"{'sites':>6s} {'proven':>7s} {'prove%':>7s} "
                       f"{'ms':>8s}")
            for r in self.range_analyses:
                out.append(
                    f"  {r.binary_hash[:8]:8s} "
                    f"{'hit' if r.cache_hit else 'miss':>5s} "
                    f"{r.iterations:6d} {r.checkable:6d} {r.proven:7d} "
                    f"{100 * r.prove_rate:6.1f}% {r.ranges_ms:8.1f}")
        total_jit = sum(s.jit_hits for s in self.sites.values())
        if total_jit or self.jit_actions:
            parts = ", ".join(f"{k}×{v}"
                              for k, v in self.jit_actions.most_common())
            events = total_jit + self.total_traps
            rate = total_jit / events if events else 0.0
            out.append(f"jit: {total_jit} hits ({self.jit_fused_hits} fused), "
                       f"patched-site hit rate {100 * rate:.1f}%"
                       + (f", actions: {parts}" if parts else ""))
        if self.trace_loops:
            out.append("")
            out.append("traced loops (tracing JIT):")
            out.append(f"  {'header':>10s} {'mode':5s} {'len':>4s} "
                       f"{'compiles':>8s} {'hits':>10s} {'deopts':>7s} "
                       f"{'deopt%':>7s}  reasons")
            for lp in sorted(self.trace_loops.values(),
                             key=lambda l: -l.hits):
                rs = ",".join(f"{k}:{v}"
                              for k, v in lp.deopt_reasons.most_common())
                out.append(
                    f"  {lp.header:#10x} {lp.mode or '-':5s} {lp.length:4d} "
                    f"{lp.compiles:8d} {lp.hits:10d} {lp.deopts:7d} "
                    f"{100 * lp.deopt_fraction:6.1f}%  {rs}")
        if self.extern_calls:
            parts = ", ".join(
                f"{name}×{n} ({self.extern_cycles[name]:.0f}cy)"
                for name, n in self.extern_calls.most_common(8))
            out.append(f"extern calls: {parts}")
        if self.cache_misses:
            parts = ", ".join(f"{k}:{v}"
                              for k, v in sorted(self.cache_misses.items()))
            out.append(f"cache misses: {parts}")
        return "\n".join(out)


def summarize_events(events: Iterable[TraceEvent], top: int = 10) -> str:
    """Aggregate an event stream and render the text report."""
    prof = ProfilerSink()
    for ev in events:
        prof.emit(ev)
    return prof.render(top)


def summarize_file(path: str | Path | IO[str], top: int = 10) -> str:
    """Render the report for a recorded NDJSON trace file."""
    return summarize_events(read_ndjson(path), top)
