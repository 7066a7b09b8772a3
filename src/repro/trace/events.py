"""The typed trace-event vocabulary.

Every event is a slotted dataclass with JSON-safe fields (ints,
floats, strings, lists, bools, ``None``) so the NDJSON encoding is a
loss-free round trip::

    event == event_from_dict(event.to_dict())

``cycles`` is the modeled-clock timestamp (``machine.cost.cycles`` at
emission); wall-clock never appears in events, keeping traces
deterministic and diffable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar

from repro.ieee.softfloat import Flags

#: MXCSR sticky-flag bits in canonical order (name, bit)
_FLAG_BITS = (("IE", Flags.IE), ("DE", Flags.DE), ("ZE", Flags.ZE),
              ("OE", Flags.OE), ("UE", Flags.UE), ("PE", Flags.PE))


def flag_names(flags: int) -> list[str]:
    """Decode an MXCSR sticky-flag word into its set flag names."""
    return [name for name, bit in _FLAG_BITS if flags & bit]


@dataclass(slots=True)
class TraceEvent:
    """Base event: a timestamped record on the modeled clock."""

    kind: ClassVar[str] = "event"

    cycles: float = 0.0

    def to_dict(self) -> dict:
        """Flat JSON-safe dict, tagged with the event kind."""
        d = {"kind": self.kind}
        for f in fields(self):
            d[f.name] = getattr(self, f.name)
        return d


@dataclass(slots=True)
class TrapEvent(TraceEvent):
    """One serviced FP event (fault delivery or patch slow path).

    ``path`` is ``"fault"`` for SIGFPE-style delivery (§3.1) and
    ``"patch"`` for a trap-and-patch inline check that failed its
    postcondition and fell back to emulation (§3.2).
    """

    kind: ClassVar[str] = "trap"

    addr: int = 0
    mnemonic: str = ""
    flags: int = 0
    path: str = "fault"
    decode_cycles: float = 0.0
    bind_cycles: float = 0.0
    emulate_cycles: float = 0.0
    decode_hit: bool = False
    bind_hit: bool = False

    @property
    def flag_names(self) -> list[str]:
        return flag_names(self.flags)

    @property
    def stage_cycles(self) -> float:
        return self.decode_cycles + self.bind_cycles + self.emulate_cycles


@dataclass(slots=True)
class GCEpochEvent(TraceEvent):
    """One conservative mark-and-sweep pass (Fig. 10 row, per epoch)."""

    kind: ClassVar[str] = "gc_epoch"

    words_scanned: int = 0
    bytes_scanned: int = 0
    boxes_marked: int = 0
    alive_before: int = 0
    freed: int = 0
    alive_after: int = 0
    scan_cycles: float = 0.0


@dataclass(slots=True)
class CorrectnessTrapEvent(TraceEvent):
    """A statically patched sink / call-demotion site fired (§4.2)."""

    kind: ClassVar[str] = "correctness_trap"

    addr: int = 0
    mnemonic: str = ""
    trap_kind: str = "sink"      # "sink" | "call_demote"
    demotions: int = 0


@dataclass(slots=True)
class DemotionEvent(TraceEvent):
    """One NaN-boxed value demoted back to an IEEE double.

    ``location`` names the storage slot ("xmm3[0]", "mem:0x1000008",
    "gpr:xmm-arg0", "printf-arg", "fwrite-buf", "f32-dest");
    ``provenance`` says what the bits were before demotion
    ("shadow" — a live box with backing storage, "universal-nan" — a
    dangling box treated as a true NaN, "plain" — already a double).
    ``handle`` is the shadow-store handle for "shadow" provenance.
    """

    kind: ClassVar[str] = "demotion"

    location: str = ""
    reason: str = ""             # "sink" | "call" | "printf" | "fwrite" | ...
    provenance: str = "shadow"
    handle: int = 0
    bits: int = 0                # resulting IEEE-754 bit pattern


@dataclass(slots=True)
class DegradeEvent(TraceEvent):
    """One graceful-degradation action taken by the recovery ladder.

    Emitted when a recoverable fault in the trap pipeline (an injected
    fault, an :class:`~repro.errors.ArithmeticPortError` from the
    arithmetic port, a dangling NaN-box) forced FPVM to demote the
    faulting operands to IEEE doubles and re-execute the instruction
    under vanilla semantics — or when a protective action (GC sweep,
    extern-call demotion) was skipped under fault injection.

    ``stage`` names the VM stage that faulted ("decode", "bind",
    "emulate", "gc_sweep", "shadow_lookup", "nanbox_corrupt",
    "extern_demote", "libm"); ``site_demoted`` is True when the storm
    detector permanently short-circuited this trap site.
    """

    kind: ClassVar[str] = "degrade"

    addr: int = 0
    mnemonic: str = ""
    stage: str = ""
    reason: str = ""
    injected: bool = False
    site_demoted: bool = False
    operands_demoted: int = 0


@dataclass(slots=True)
class PatchEvent(TraceEvent):
    """A binary patch installed (statically or at run time).

    ``patch_kind``: "trap-and-patch" (runtime §3.2), "static"
    (§3.3 up-front), or the static patcher's correctness-trap kinds
    "sink" / "bitwise" / "movq" / "call_demote" (§4.2); under
    conservative patching, refinement-pruned sinks that were patched
    anyway appear as "sink_pruned".
    """

    kind: ClassVar[str] = "patch"

    addr: int = 0
    mnemonic: str = ""
    patch_kind: str = ""
    source: str = "runtime"      # "runtime" | "patcher"


@dataclass(slots=True)
class ExternCallEvent(TraceEvent):
    """A call that left the simulated binary for a native external."""

    kind: ClassVar[str] = "extern_call"

    addr: int = 0                # call-site address
    name: str = ""
    cycles_spent: float = 0.0    # modeled cycles charged by the external


@dataclass(slots=True)
class RunMetaEvent(TraceEvent):
    """Run header: configuration plus the static FP-site inventory.

    ``fp_sites`` lists every trap-capable FP instruction in the text
    section as ``[addr, mnemonic]`` pairs — the denominator of the
    FlowFPX-style exception-flow coverage report.
    """

    kind: ClassVar[str] = "run_meta"

    label: str = ""
    arith: str = ""
    mode: str = ""
    platform: str = ""
    patched: bool = True
    fp_sites: list = None        # list[[addr, mnemonic]]

    def __post_init__(self) -> None:
        if self.fp_sites is None:
            self.fp_sites = []


@dataclass(slots=True)
class CacheMissEvent(TraceEvent):
    """A decode- or bind-cache miss (cold site entering the caches)."""

    kind: ClassVar[str] = "cache_miss"

    stage: str = "decode"        # "decode" | "bind"
    addr: int = 0
    mnemonic: str = ""


@dataclass(slots=True)
class JitCompileEvent(TraceEvent):
    """A trap site compiled to / fused into / evicted from the JIT.

    ``action`` is ``"compile"`` (site reached its trap threshold and
    got a specialized closure), ``"fuse"`` (adjacent patched sites
    chained into a fused shadow kernel; ``chain_len`` > 1), or
    ``"invalidate"`` (a fault or demotion tore the closure down and
    restored the interpreter step).
    """

    kind: ClassVar[str] = "jit_compile"

    addr: int = 0
    mnemonic: str = ""
    action: str = "compile"      # "compile" | "fuse" | "invalidate"
    chain_len: int = 1
    traps_seen: int = 0
    reason: str = ""


@dataclass(slots=True)
class JitHitEvent(TraceEvent):
    """One FP event absorbed by a compiled trap-site closure.

    Emitted instead of a :class:`TrapEvent`: the site emulated inline
    with no fault delivery.  ``fused`` marks execution inside a fused
    shadow kernel; ``boxes_elided`` counts intermediate results that
    stayed register-resident (no ShadowStore allocation).
    """

    kind: ClassVar[str] = "jit_hit"

    addr: int = 0
    mnemonic: str = ""
    fused: bool = False
    chain_len: int = 1
    boxes_elided: int = 0


@dataclass(slots=True)
class AnalysisEvent(TraceEvent):
    """One static-analysis run's summary (§4.2 v2).

    Emitted by the Session once per analyzed binary, after the
    analyzer/patcher step.  Carries the pass timings, the sink /
    refinement-prune counts, the context-sensitivity stats, and
    whether the report came from the content-hash cache.
    """

    kind: ClassVar[str] = "analysis"

    binary_hash: str = ""
    cache_hit: bool = False
    vsa_ms: float = 0.0
    refine_ms: float = 0.0
    instructions: int = 0
    functions: int = 0
    contexts: int = 0
    vsa_iterations: int = 0
    fp_store_sites: int = 0
    int_load_sites: int = 0
    sinks: int = 0
    pruned_sinks: int = 0
    bitwise_sites: int = 0
    movq_sites: int = 0
    extern_demote_sites: int = 0


@dataclass(slots=True)
class TraceRecordEvent(TraceEvent):
    """One hot-loop trace-recording attempt by the tracing JIT.

    ``ok`` marks a successful recording (``length`` instructions from
    the loop header back to itself); failures carry ``reason``
    ("gc-sweep" — a collection reclaimed shadow handles mid-recording
    and the trace was discarded rather than baking stale handles in,
    "too-long", "halted", "unmapped-rip").
    """

    kind: ClassVar[str] = "trace_record"

    header: int = 0
    length: int = 0
    ok: bool = True
    reason: str = ""


@dataclass(slots=True)
class TraceCompileEvent(TraceEvent):
    """A loop trace compiled, invalidated, or retired.

    ``mode`` is always ``"chain"`` (the recorded instructions replayed
    through the live step table); the field stays so saved traces keep
    their shape.
    ``action`` is ``"compile"``, ``"invalidate"`` (fault / patch /
    deopt storm tore the trace down; ``reason`` says why), or
    ``"retire"`` (runtime detached with the trace still live —
    carries the final hit/deopt totals).
    """

    kind: ClassVar[str] = "trace_compile"

    header: int = 0
    length: int = 0
    mode: str = "chain"
    action: str = "compile"      # "compile" | "invalidate" | "retire"
    hits: int = 0
    deopts: int = 0
    reason: str = ""


@dataclass(slots=True)
class TraceDeoptEvent(TraceEvent):
    """One guard failure that deoptimized a trace to the interpreter.

    ``addr`` is the guarded instruction (execution resumes there, or at
    the branch target for post-branch exits); ``reason`` names the
    failed guard ("nonfinite", "div-zero", "cvt-range", "neg-sqrt",
    "trap-divert", "invalidated").  Ordinary loop exits through branch
    guards are side exits, not deopts, and emit no event.
    """

    kind: ClassVar[str] = "trace_deopt"

    header: int = 0
    addr: int = 0
    reason: str = ""


@dataclass(slots=True)
class BatchEvent(TraceEvent):
    """Summary of one SoA batched run (:meth:`Session.run_batch`).

    ``dispatches`` counts vectorized instruction dispatches — each
    retired one instruction for every in-batch lane — and
    ``instr_count`` is the per-lane instruction count those dispatches
    reached before the batch drained.  ``spilled_lanes`` lanes left
    lockstep (branch divergence, faults, FPVM traps, watchdogs) and
    completed on the scalar interpreter over ``spill_events`` events.
    """

    kind: ClassVar[str] = "batch"

    lanes: int = 0
    dispatches: int = 0
    spill_events: int = 0
    spilled_lanes: int = 0
    instr_count: int = 0
    wall_s: float = 0.0


@dataclass(slots=True)
class SanitizeFlagEvent(TraceEvent):
    """One dual-path divergence flagged by the numerical sanitizer.

    The IEEE result the program sees and the high-precision shadow
    disagreed beyond the configured threshold at ``addr`` (an FP trap
    site, or a libm import address for interposed calls).  ``rel_err``
    is the symmetric relative error, ``ulps`` the ordered-bits ulp
    distance between the IEEE result and the shadow's nearest double.
    ``count`` is this site's running flag total; emission is capped
    per site, so the per-site tables in :class:`ProfilerSink` carry
    the full counts.
    """

    kind: ClassVar[str] = "sanitize_flag"

    addr: int = 0
    mnemonic: str = ""
    ieee: float = 0.0
    shadow: float = 0.0
    rel_err: float = 0.0
    ulps: int = 0
    count: int = 0


@dataclass(slots=True)
class RangeAnalysisEvent(TraceEvent):
    """One interval-range pass summary (the sanitizer's static half).

    Emitted by the Session after ``analysis/ranges.py`` runs: of
    ``checkable`` value-producing FP trap sites, ``proven`` were
    statically shown to stay within the divergence threshold; only
    their bit-exact subset is exempted from dual-path instrumentation.
    """

    kind: ClassVar[str] = "range_analysis"

    binary_hash: str = ""
    cache_hit: bool = False
    ranges_ms: float = 0.0
    iterations: int = 0
    checkable: int = 0
    proven: int = 0
    prove_rate: float = 0.0
    threshold: float = 0.0


#: kind tag -> event class (the NDJSON decode registry)
EVENT_KINDS: dict[str, type] = {
    cls.kind: cls
    for cls in (TrapEvent, GCEpochEvent, CorrectnessTrapEvent,
                DemotionEvent, DegradeEvent, PatchEvent, ExternCallEvent,
                RunMetaEvent, CacheMissEvent, JitCompileEvent, JitHitEvent,
                AnalysisEvent, TraceRecordEvent, TraceCompileEvent,
                TraceDeoptEvent, BatchEvent, SanitizeFlagEvent,
                RangeAnalysisEvent)
}


def event_from_dict(d: dict) -> TraceEvent:
    """Inverse of :meth:`TraceEvent.to_dict` (NDJSON record → event)."""
    d = dict(d)
    kind = d.pop("kind", None)
    cls = EVENT_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown trace event kind {kind!r}")
    unknown = d.keys() - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"{kind!r} event has unknown fields "
                         f"{sorted(unknown)}")
    return cls(**d)
