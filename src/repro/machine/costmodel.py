"""Cycle cost model and platform presets.

The paper's performance results (Figs. 9, 12, 14) are cycle-accounting
results: the cost of a virtualized FP instruction is the sum of
hardware fault delivery, kernel processing + signal dispatch to user
space, FPVM's decode/bind/emulate stages, GC amortization, and (where
static patches exist) correctness-trap overhead.  We model each
component explicitly so the benches can print the same breakdown.

Constants are calibrated to the paper's published components:

* Fig. 9: total virtualization cost 12k-24k cycles on the R815.
* Fig. 14 (quoting [24]): kernel-level trap delivery is 7-30x cheaper
  than user-level delivery.
* §6.2: a hypothetical user->user "pipeline interrupt" could reach
  ~10-100 cycles (measured TSX RTM abort ~100 cycles).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.opcodes import OPCODES, is_fp_trapping
from repro.isa.operands import Mem


@dataclass(frozen=True)
class Platform:
    """Trap-delivery and FPVM-stage costs for one machine (cycles)."""

    name: str
    ghz: float
    #: microarchitectural exception cost (pipeline flush, IDT walk)
    hw_trap_cycles: int
    #: kernel exception processing up to the point a kernel handler runs
    kernel_trap_cycles: int
    #: extra cost to deliver SIGFPE to a user handler + sigreturn
    user_dispatch_cycles: int
    #: memory-operand penalty per access (pipelined L1 hit)
    mem_access_cycles: float = 0.5
    #: reciprocal throughput scaling for non-FP instructions: the real
    #: workloads are -O2 binaries on 3-4-wide superscalar cores, so the
    #: integer/control scaffolding around each FP op retires several
    #: per cycle.  Without this, our -O0-shaped codegen would dilute
    #: the FP-trap density and compress every Fig. 12 slowdown.
    int_issue_scale: float = 0.2
    #: decode-cache hit / miss costs (paper: hit rate ~100%, cost tiny)
    decode_hit_cycles: int = 40
    decode_miss_cycles: int = 4000
    #: operand binding (resolve pointers, normalize op)
    bind_cycles: int = 300
    #: bind-cache hit: refresh memory effective addresses only (same
    #: order as a decode-cache hit — both stages amortize to a lookup)
    bind_hit_cycles: int = 40
    #: emulator machinery per emulated instruction, excluding the
    #: arithmetic system itself (§5.3: stripping delivery+correctness
    #: leaves ~4,000 cycles dominated by emulation and GC)
    emulate_base_cycles: int = 2500
    #: software pre/post condition check of an inlined patch (§3.2)
    patch_check_cycles: int = 25
    #: the same check emitted by the compiler and folded into the
    #: surrounding code by the optimizer (§3.4: "run-time overhead …
    #: low (<binary approaches)")
    compiler_check_cycles: int = 12
    #: correctness-trap demotion handler body
    correctness_handler_cycles: int = 450
    #: correctness trap answered by the static analysis fast path: the
    #: liveness refinement proved the site box-free, so the handler is
    #: a site-set membership test and an immediate return
    analysis_fast_path_cycles: int = 30
    #: GC: per scanned word / per swept object
    gc_scan_word_cycles: int = 2
    gc_sweep_obj_cycles: int = 12
    #: guard executed on every run of a JIT-patched trap site — the
    #: e9patch-style rewritten call site's operand-shape check (§4.2)
    jit_check_cycles: int = 30
    #: compiled trap-site closure body: inlined decode+bind+box with no
    #: fault delivery, no handler dispatch, no cache probes
    jit_emulate_cycles: int = 350

    @property
    def user_trap_total(self) -> int:
        """Full cost of delivering one FP fault to the user-level FPVM."""
        return (self.hw_trap_cycles + self.kernel_trap_cycles
                + self.user_dispatch_cycles)

    @property
    def kernel_trap_total(self) -> int:
        """Delivery cost if FPVM ran as a kernel service (§6.1)."""
        return self.hw_trap_cycles + self.kernel_trap_cycles

    def scenario_delivery(self, scenario: str) -> int:
        """Trap delivery cost under a §6 deployment scenario."""
        if scenario == "user":
            return self.user_trap_total
        if scenario == "kernel":
            return self.kernel_trap_total
        if scenario == "hrt":
            # pure-kernel execution model: no privilege transition at all
            return self.hw_trap_cycles
        if scenario == "pipeline":
            # hypothetical user->user fast delivery (§6.2), ~10 cycles
            return 10
        raise ValueError(f"unknown delivery scenario {scenario!r}")


#: Dell R815: 4x 16-core AMD Opteron 6272, 2.1 GHz (paper's main testbed).
#: Kernel-level delivery is ~8x cheaper than the full user SIGFPE path
#: (Fig. 14 quotes 7-30x across platforms).
R815 = Platform(
    name="R815", ghz=2.1,
    hw_trap_cycles=600, kernel_trap_cycles=550, user_dispatch_cycles=8150,
)

#: Dell 7220 (7720): Intel Xeon E3-1505M v6, 3.0 GHz (~14x)
P7220 = Platform(
    name="7220", ghz=3.0,
    hw_trap_cycles=240, kernel_trap_cycles=200, user_dispatch_cycles=5760,
)

#: Dell R730xd: 2x Xeon E5-2695 v3, 2.3 GHz (~13x)
R730XD = Platform(
    name="R730xd", ghz=2.3,
    hw_trap_cycles=280, kernel_trap_cycles=250, user_dispatch_cycles=6470,
)

PLATFORMS: dict[str, Platform] = {p.name: p for p in (R815, P7220, R730XD)}


def instruction_cost(platform: Platform, ins) -> float:
    """Base cycles one execution of ``ins`` charges on ``platform``.

    Only the trap-capable FP classes carry architectural latency; FP
    moves/bitwise are pipelined exactly like integer traffic, scaled
    by superscalar issue width.  Each memory operand adds one
    pipelined L1 access, summed left to right so every engine that
    charges this constant accumulates bit-identical cycles.
    """
    cycles = OPCODES[ins.mnemonic].cycles
    if is_fp_trapping(ins.mnemonic):
        cost = float(cycles)
    else:
        cost = max(cycles * platform.int_issue_scale, 0.2)
    for op in ins.operands:
        if isinstance(op, Mem):
            cost = cost + platform.mem_access_cycles
    return cost


@dataclass
class CostModel:
    """Mutable cycle accumulator attached to a running machine."""

    platform: Platform = R815
    cycles: float = 0.0
    #: per-category accounting for the Fig. 9 breakdown
    buckets: dict[str, float] = field(default_factory=dict)

    def charge(self, cycles: float, bucket: str = "base") -> None:
        self.cycles += cycles
        self.buckets[bucket] = self.buckets.get(bucket, 0.0) + cycles

    def reset(self) -> None:
        self.cycles = 0.0
        self.buckets.clear()
