"""The FPVM runtime: install, trap, emulate, interpose, collect (§4).

``FPVM`` plays the role of the paper's LD_PRELOAD library: it installs
itself as the machine's SIGFPE handler, unmasks every MXCSR exception
so that any rounding/overflow/underflow/denormal/NaN event faults,
interposes on libm and output functions (the "math wrapper" and
"output wrapper" of Figs. 4/5), and services the correctness traps the
static patcher planted (§4.2).

All four §3 approaches are implemented as execution modes:

* ``trap-and-emulate`` (§3.1, default) — every event pays hardware
  fault delivery, then decode/bind/emulate.
* ``trap-and-patch`` (§3.2) — the first fault at a site rewrites it
  into an inline software pre/post-condition check; later executions
  at that site avoid fault delivery entirely (fast path ~tens of
  cycles) and call into the emulator only when a check fails.
* ``static`` (§3.3) — the binary-transformation approach: *every*
  trap-capable FP site is patched with the inline check up front and
  the hardware exception masks stay set — "at runtime, no hardware
  checks are used at all".  Every site pays the software check on
  every execution, trapping or not.
* compiler-based (§3.4) — binaries compiled with
  ``compile_source(..., instrument_fp=True)`` arrive *pre-patched* by
  the code generator; run them under ``mode="static"``.  Their checks
  are cheaper (``compiler_check_cycles``): the compiler inlines and
  optimizes them instead of bolting on a binary trampoline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.errors import ArithmeticPortError, MachineError, NanBoxError
from repro.faults.injector import FaultInjector, FaultPlan, InjectedFault
from repro.ieee.bits import bits_to_f64
from repro.isa.instructions import Instruction
from repro.isa.opcodes import is_fp_trapping
from repro.arith.interface import AlternativeArithmetic
from repro.machine.costmodel import check_cycles
from repro.machine.libc import LIBM_FUNCTIONS, _printf_impl
from repro.machine.predecode import _ea_closure
from repro.machine.traps import TrapFrame
from repro.fpvm.binding import BindCache, XmmLoc
from repro.fpvm.decoder import DecodeCache
from repro.fpvm.emulator import Emulator
from repro.fpvm.gc import ConservativeGC
from repro.fpvm.nanbox import NaNBoxCodec
from repro.fpvm.shadow import ShadowStore
from repro.fpvm.stats import FPVMStats
from repro.trace.events import (CorrectnessTrapEvent, DegradeEvent,
                                DemotionEvent, PatchEvent, TrapEvent)

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cpu import Machine
    from repro.trace.sinks import TraceSink


@dataclass(frozen=True)
class FPVMConfig:
    """All FPVM tunables in one place.

    Spelled ``FPVM(arith, FPVMConfig(...))`` or
    ``Session(..., config=...)``.
    """

    mode: str = "trap-and-emulate"
    box_exact_results: bool = True
    gc_epoch_cycles: int = 5_000_000
    printf_shadow_digits: int | None = None
    #: trace sink threaded through runtime/emulator/GC/binder
    #: (``None`` keeps every hot path on the zero-cost no-trace branch)
    trace: "TraceSink | None" = None
    #: fault plan threaded through runtime/emulator/GC (``None`` = no
    #: injector at all; a zero-rule plan is the bit-identical control)
    faults: "FaultPlan | None" = None
    #: degradations at one trap site before the storm detector
    #: permanently demotes it to vanilla execution (0 disables)
    storm_threshold: int = 8
    #: trap-site JIT: serviced traps at one site (with a stable operand
    #: shape) before it is compiled to a specialized closure and patched
    #: into the dispatch loop (0 disables; trap-and-emulate mode only)
    jit_threshold: int = 0
    #: tracing JIT: backward-branch executions at one loop header before
    #: the loop body is trace-recorded and compiled to a single Python
    #: function (0 disables; trap-and-emulate mode only)
    trace_jit_threshold: int = 0
    #: sanitizer tunables; only consulted when the arithmetic is a
    #: DualPathArithmetic (``None`` uses SanitizeConfig defaults)
    sanitize: "object | None" = None


#: faults the degradation ladder recovers from (anything else escapes)
RECOVERABLE_FAULTS = (InjectedFault, ArithmeticPortError, NanBoxError)

#: libm name -> (arith method name, arity); floor/ceil map to ROUND modes
_LIBM_MAP: dict[str, tuple[str, int]] = {
    "sin": ("sin", 1), "cos": ("cos", 1), "tan": ("tan", 1),
    "asin": ("asin", 1), "acos": ("acos", 1), "atan": ("atan", 1),
    "exp": ("exp", 1), "log": ("log", 1), "log2": ("log2", 1),
    "log10": ("log10", 1), "sqrt": ("sqrt", 1), "fabs": ("abs", 1),
    "atan2": ("atan2", 2), "pow": ("pow", 2), "fmod": ("fmod", 2),
    "fmin": ("min", 2), "fmax": ("max", 2),
}


def _sink_mems(ins: Instruction) -> list:
    """The memory operands a sink instruction reads: all of them but a
    pure destination."""
    from repro.isa.operands import Mem

    return [op for i, op in enumerate(ins.operands)
            if isinstance(op, Mem)
            and not (i == 0 and len(ins.operands) > 1
                     and ins.mnemonic not in ("cmp", "test", "push"))]


class FPVM:
    """A floating point virtual machine bound to one arithmetic system."""

    def __init__(
        self,
        arith: AlternativeArithmetic,
        config: FPVMConfig | None = None,
    ) -> None:
        if config is None:
            config = FPVMConfig()
        if config.mode not in ("trap-and-emulate", "trap-and-patch", "static"):
            raise ValueError(f"unknown FPVM mode {config.mode!r}")
        self.config = config
        self.arith = arith
        self.mode = config.mode
        self.trace = config.trace
        self.codec = NaNBoxCodec()
        self.store = ShadowStore()
        self.emulator = Emulator(arith, self.store, self.codec,
                                 box_exact_results=config.box_exact_results)
        self.gc = ConservativeGC(self.store, self.codec,
                                 epoch_cycles=config.gc_epoch_cycles)
        self.gc.on_sweep = self._on_gc_sweep
        self.emulator.trace = self.trace
        self.gc.trace = self.trace
        self.injector = (FaultInjector(config.faults)
                         if config.faults is not None else None)
        self.emulator.injector = self.injector
        self.gc.injector = self.injector
        self.decode_cache = DecodeCache()
        self.bind_cache = BindCache()
        self.bind_cache.trace = self.trace
        self.stats = FPVMStats()
        self.printf_shadow_digits = config.printf_shadow_digits
        self.machine: "Machine | None" = None
        self._saved_externs: dict[int, Callable] = {}
        self._saved_masks: int | None = None
        self._patched_sites: set[int] = set()
        #: storm detector: per-site degradation counts, and the sites
        #: it has permanently demoted to vanilla execution
        self._site_degrades: dict[int, int] = {}
        self._demoted_sites: set[int] = set()
        #: sink sites the liveness refinement proved box-free; their
        #: correctness traps short-circuit past the demotion scan
        #: (populated by apply_analysis — only reachable when a pruned
        #: site was patched anyway, i.e. conservative patching)
        self._box_free_sites: frozenset[int] = frozenset()
        #: NSan-mode sanitizer: created iff the arithmetic runs both
        #: paths; the emulator hook then checks every produced value
        self.sanitizer = None
        self._sanitize_exempt: frozenset[int] = frozenset()
        from repro.fpvm.sanitize import DualPathArithmetic, SanitizeConfig, \
            Sanitizer
        if isinstance(arith, DualPathArithmetic):
            scfg = config.sanitize or SanitizeConfig(
                precision=arith.precision)
            if scfg.precision != arith.precision:
                arith.set_precision(scfg.precision)
            self.sanitizer = Sanitizer(arith, scfg, self.stats,
                                       trace=self.trace)
            self.emulator.sanitizer = self.sanitizer
        #: trap-site JIT (§4.2 call-site rewriting applied to the
        #: emulation round-trip); only the faulting mode benefits.
        #: Compiled sites bypass Emulator.emulate, where the sanitizer
        #: checks each value, so sanitize runs keep every trap.
        if (config.jit_threshold > 0 and config.mode == "trap-and-emulate"
                and self.sanitizer is None):
            from repro.fpvm.jit import TrapSiteJIT
            self.jit: "TrapSiteJIT | None" = TrapSiteJIT(
                self, config.jit_threshold)
        else:
            self.jit = None
        #: tracing JIT — created at install time (needs the machine's
        #: compiled step table); None until then / when disabled
        self.tracejit = None

    # ------------------------------------------------------------------ #
    # install / uninstall                                                 #
    # ------------------------------------------------------------------ #

    def install(self, machine: "Machine") -> None:
        """Insert FPVM under the running process (the LD_PRELOAD moment)."""
        if self.machine is not None:
            raise MachineError("FPVM already installed")
        self.machine = machine
        if self.trace is not None and machine.trace is None:
            machine.trace = self.trace
        machine.fp_trap_handler = self._on_fp_trap
        machine.correctness_handler = self._on_correctness_trap
        machine.patch_handler = self._on_patch_site
        self._saved_masks = machine.mxcsr.masks
        if self.mode == "static":
            # §3.3: transform the binary, leave the hardware masked —
            # software condition checks replace hardware exceptions
            for ins in list(machine.binary.text):
                self._install_patch(machine, ins)
            machine.mxcsr.mask_all()
        else:
            machine.mxcsr.unmask_all()
        machine.mxcsr.clear_flags()
        self._interpose_externs(machine)
        if (self.config.trace_jit_threshold > 0
                and self.mode == "trap-and-emulate"
                and getattr(machine, "_blocks", None) is not None):
            from repro.fpvm.tracejit import TraceJIT
            self.tracejit = TraceJIT(self, self.config.trace_jit_threshold)
            self.tracejit.attach()

    def apply_analysis(self, report) -> None:
        """Register static-analysis facts with the runtime (§4.2 v2).

        The box-liveness refinement's pruned sinks are *proven* never
        to load a live box.  Under conservative patching those sites
        still carry correctness traps; registering them here turns each
        such trap into a membership test instead of an operand demotion
        scan.  A no-op for ``report=None`` (unpatched sessions).
        """
        if report is None:
            return
        self._box_free_sites = frozenset(report.pruned_sinks)
        if self.jit is not None:
            # the storm detector / JIT treat these like permanently
            # short-circuited sites: never worth compiling or counting
            self.jit.box_free_sites = self._box_free_sites

    def apply_range_analysis(self, report) -> None:
        """Register interval-range proofs: the *bit-exact* sites (shadow
        provably equals IEEE) skip dual-path instrumentation entirely
        (their traps short-circuit to vanilla re-execution).  Dropping
        such a shadow is a no-op, so no check changes verdict.  A no-op
        when the sanitizer is absent, exemption is disabled, or
        ``report`` is None.
        """
        if (report is None or self.sanitizer is None
                or not self.sanitizer.config.exempt):
            return
        self._sanitize_exempt = frozenset(report.exact)

    def uninstall(self) -> None:
        """Remove FPVM; leaves any still-boxed memory demoted in place."""
        m = self.machine
        if m is None:
            return
        if self.tracejit is not None:
            self.tracejit.detach("uninstall")
            self.tracejit = None
        if self.jit is not None:
            self.jit.invalidate_all(m, "uninstall")
        m.site_kernels.clear()
        self.demote_all_memory(m)
        m.fp_trap_handler = None
        m.correctness_handler = None
        m.patch_handler = None
        if self._saved_masks is not None:
            m.mxcsr.set_masks(self._saved_masks)
        for addr, impl in self._saved_externs.items():
            m.externs[addr] = impl
        self._saved_externs.clear()
        self.machine = None

    # ------------------------------------------------------------------ #
    # SIGFPE path (trap-and-emulate §3.1/4.1)                             #
    # ------------------------------------------------------------------ #
    # Every trap is served by a *site kernel*: the decode -> bind ->
    # emulate pipeline with everything constant per site resolved once,
    # plus the stages this run's configuration selects.  A site's first
    # trap (and its first after a degrade dropped the kernel) arrives
    # here: decode and bind resolve through the caches, charging what a
    # miss costs, and the kernel built from the result serves the rest
    # of the trap.  Later traps run the kernel straight from the fault
    # path, delivery included (Machine.site_kernels).

    def _on_fp_trap(self, machine: "Machine", frame: TrapFrame) -> None:
        ins = frame.instruction
        self.stats.record_trap_flags(frame.fp_flags)
        machine.mxcsr.clear_flags()  # sticky flags reset for next instr
        if (ins.addr in self._sanitize_exempt
                or ins.addr in self._demoted_sites):
            self._short_circuit(machine, ins)
            return
        plat = machine.cost.platform
        inj = self.injector
        stage = "decode"
        try:
            if inj is not None:
                inj.fire("decode", ins.mnemonic)
            decoded, hit = self.decode_cache.lookup(ins)
            self.stats.record_decode(hit)
            decode_c = (plat.decode_hit_cycles if hit
                        else plat.decode_miss_cycles)
            machine.cost.charge(decode_c, "decode")
            stage = "bind"
            if inj is not None:
                inj.fire("bind", ins.mnemonic)
            bound, bhit = self.bind_cache.lookup(machine, decoded)
            self.stats.record_bind(bhit)
            bind_c = plat.bind_hit_cycles if bhit else plat.bind_cycles
            machine.cost.charge(bind_c, "bind")
        except RECOVERABLE_FAULTS as exc:
            self._degrade(machine, ins, getattr(exc, "stage", stage), exc)
            self.gc.maybe_collect(machine)
            return
        serve = self._build_fp_kernel(machine, ins, decoded, bound)
        serve(frame.fp_flags, (decode_c, bind_c, hit, bhit))

    def _short_circuit(self, machine: "Machine", ins: Instruction) -> None:
        """§4.1 short-circuiting: the interval-range pass proved the
        site bit-exact (its shadow equals IEEE), or the storm detector
        demoted it permanently as a safety valve.  Operands are demoted
        first — vanilla execution on raw NaN-box bits would poison the
        result with NaNs."""
        if ins.addr in self._sanitize_exempt:
            self.stats.sanitize_exempt_execs += 1
        else:
            self.stats.short_circuit_execs += 1
        self._demote_operands(machine, ins)
        self._execute_vanilla(machine, ins)
        self.gc.maybe_collect(machine)

    def _build_fp_kernel(self, machine: "Machine", ins: Instruction,
                         decoded, bound,
                         path: str = "fault") -> Callable[[int, tuple], None]:
        """Build the kernel of FP site ``ins`` and return its *serve*
        stage: emulation and what follows it, given the event's flags
        and its ``(decode cycles, bind cycles, decode hit, bind hit)``.

        Under trap-and-emulate the kernel, which adds delivery and the
        decode/bind hit path in front of serve, takes the site's later
        traps.  The stages a configuration adds: a fault plan's
        decode/bind/emulate hooks, the sanitizer's checks (inside the
        emulator's prepared op), a trace sink's TrapEvent, and then
        trap-and-patch's patch or the trap-site JIT's trap count.
        A patched site's kernel (``path="patch"``, built by
        :meth:`_on_patch_site`) calls serve when its check fails;
        its TrapEvent says so, and it adds neither a patch nor a count.
        """
        m = machine
        cost = m.cost
        charge = cost.charge
        plat = cost.platform
        regs = m.regs
        addr, mn, nxt = ins.addr, ins.mnemonic, ins.next_addr
        inj = self.injector
        degrade = self._degrade
        maybe_collect = self.gc.maybe_collect
        emulate, arith_cycles = self.emulator.prepare(bound)
        emulate_c = plat.emulate_base_cycles + arith_cycles

        after = []
        if self.trace is not None:
            emit = self.trace.emit

            def emit_trap(flags: int, resolved: tuple) -> None:
                decode_c, bind_c, hit, bhit = resolved
                emit(TrapEvent(
                    cycles=cost.cycles, addr=addr, mnemonic=mn,
                    flags=flags, path=path, decode_cycles=decode_c,
                    bind_cycles=bind_c, emulate_cycles=emulate_c,
                    decode_hit=hit, bind_hit=bhit))
            after.append(emit_trap)
        if path == "fault" and self.mode == "trap-and-patch":
            after.append(lambda flags, resolved: self._install_patch(m, ins))
        elif path == "fault" and self.jit is not None:
            note_trap = self.jit.note_trap
            after.append(lambda flags, resolved: note_trap(m, ins, decoded))

        def serve(flags: int, resolved: tuple) -> None:
            try:
                if inj is not None:
                    inj.fire("emulate", mn)
                emulate(m)
            except RECOVERABLE_FAULTS as exc:
                degrade(m, ins, getattr(exc, "stage", "emulate"), exc)
                maybe_collect(m)
                return
            charge(emulate_c, "emulate")
            regs.rip = nxt
            for stage in after:
                stage(flags, resolved)
            maybe_collect(m)

        if path == "patch" or self.mode != "trap-and-emulate":
            return serve
        hw, kd = m.delivery_split()
        decode_c, bind_c = plat.decode_hit_cycles, plat.bind_hit_cycles
        hit_path = (decode_c, bind_c, True, True)
        refreshers = self.bind_cache.cache[addr][2]
        buckets = cost.buckets
        mx = m.mxcsr
        stats = self.stats
        record_flags = stats.record_trap_flags
        decode_cache = self.decode_cache
        bind_cache = self.bind_cache

        def kernel(flags: int) -> bool:
            m.fp_trap_count += 1
            cost.cycles += hw
            buckets["hw_delivery"] += hw
            cost.cycles += kd
            buckets["kernel_delivery"] += kd
            record_flags(flags)
            mx.flags = 0
            try:
                if inj is not None:
                    inj.fire("decode", mn)
                decode_cache.hits += 1
                stats.decode_hits += 1
                cost.cycles += decode_c
                buckets["decode"] += decode_c
                if inj is not None:
                    inj.fire("bind", mn)
                bind_cache.hits += 1
                for refresh in refreshers:
                    refresh(m)
                stats.bind_hits += 1
                cost.cycles += bind_c
                buckets["bind"] += bind_c
            except RECOVERABLE_FAULTS as exc:
                degrade(m, ins, exc.stage, exc)
                maybe_collect(m)
                return True
            serve(flags, hit_path)
            return True

        self._install_kernel(m, ins, kernel)
        return serve

    def _install_kernel(self, machine: "Machine", site: Instruction,
                        kernel: Callable) -> None:
        """Serve later traps at ``site`` with ``kernel`` — unless the
        binary holds another instruction there (the original a patched
        site re-executes shares its address)."""
        if machine.binary.text_map.get(site.addr) is site:
            machine.site_kernels[site.addr] = (site, kernel)

    def _on_gc_sweep(self, freed) -> None:
        # handles are free-listed, so a reclaimed one can recur with
        # identical bits: a trace recording in flight may have captured
        # steps holding it, and aborting the recording keeps stale
        # handles out of compiled traces
        if self.tracejit is not None:
            self.tracejit.note_sweep(freed)

    # ------------------------------------------------------------------ #
    # graceful degradation ladder                                         #
    # ------------------------------------------------------------------ #

    def _degrade(self, machine: "Machine", ins: Instruction, stage: str,
                 exc: BaseException) -> None:
        """Recover from a pipeline fault by falling back to IEEE.

        The faulting instruction's operands are demoted to plain
        doubles, then the instruction re-executes under vanilla masked
        semantics — the run survives with locally-vanilla results
        instead of dying.  A per-site storm detector permanently
        demotes sites that keep degrading.
        """
        if self.jit is not None:
            # a fault/demotion at a patched site kills its closure (the
            # compiled step's own fault exit already did this; covers
            # degradations reached through other paths too)
            self.jit.invalidate_site(machine, ins.addr, "degrade")
        # the site's next trap builds a fresh kernel
        machine.site_kernels.pop(ins.addr, None)
        if self.tracejit is not None:
            # same contract for loop traces: a degraded instruction
            # inside a trace invalidates the whole trace
            self.tracejit.invalidate_containing(ins.addr, "degrade")
        demoted = self._demote_operands(machine, ins)
        self._execute_vanilla(machine, ins)
        self.stats.degradations += 1

        site_demoted = False
        threshold = self.config.storm_threshold
        if threshold > 0:
            count = self._site_degrades.get(ins.addr, 0) + 1
            self._site_degrades[ins.addr] = count
            if count >= threshold and ins.addr not in self._demoted_sites:
                self._demoted_sites.add(ins.addr)
                self.stats.sites_short_circuited += 1
                site_demoted = True
        if self.trace is not None:
            self.trace.emit(DegradeEvent(
                cycles=machine.cost.cycles,
                addr=ins.addr,
                mnemonic=ins.mnemonic,
                stage=stage,
                reason=f"{type(exc).__name__}: {exc}",
                injected=isinstance(exc, InjectedFault),
                site_demoted=site_demoted,
                operands_demoted=demoted,
            ))

    def _execute_vanilla(self, machine: "Machine", ins: Instruction) -> None:
        """Re-execute one instruction under stock IEEE semantics.

        Exceptions are masked for the duration so the instruction
        cannot re-trap; ``machine.execute`` charges base cycles and
        advances RIP exactly as an unvirtualized execution would, and
        the trapped instruction still retires once.
        """
        saved_masks = machine.mxcsr.masks
        machine.mxcsr.mask_all()
        try:
            machine.execute(ins)
        finally:
            machine.mxcsr.set_masks(saved_masks)
            machine.mxcsr.clear_flags()

    def _demote_operands(self, machine: "Machine", ins: Instruction) -> int:
        """Demote every boxed operand of ``ins`` to an IEEE double.

        Works straight off the architectural operands (no decode/bind
        needed — the fault may *be* a decode or bind failure): XMM
        registers demote both lanes, memory operands demote the
        containing aligned word.
        """
        from repro.isa.operands import Mem, Xmm

        n = 0
        for op in ins.operands:
            if isinstance(op, Xmm):
                for lane in (0, 1):
                    bits = machine.regs.xmm[op.index][lane]
                    if self.emulator.is_live_box(bits):
                        machine.regs.xmm[op.index][lane] = (
                            self.emulator.demote_bits(bits))
                        n += 1
            elif isinstance(op, Mem):
                word_addr = machine.ea(op) & ~7
                try:
                    bits = machine.memory.read(word_addr, 8)
                except MachineError:
                    continue
                if self.emulator.is_live_box(bits):
                    machine.memory.write(
                        word_addr, 8, self.emulator.demote_bits(bits))
                    n += 1
        return n

    # ------------------------------------------------------------------ #
    # patched sites (§3.2 trap-and-patch, §3.3 static, §3.4 compiler)     #
    # ------------------------------------------------------------------ #

    def _install_patch(self, machine: "Machine", ins: Instruction) -> None:
        if ins.addr in self._patched_sites or not is_fp_trapping(ins.mnemonic):
            return
        patch = Instruction("fpvm_patch", (), ins.addr, ins.length,
                            payload={"original": ins})
        machine.binary.replace_instruction(ins.addr, patch)
        self._patched_sites.add(ins.addr)
        self.stats.patch_sites_installed += 1
        if self.trace is not None:
            self.trace.emit(PatchEvent(
                cycles=machine.cost.cycles,
                addr=ins.addr,
                mnemonic=ins.mnemonic,
                patch_kind=self.mode,
                source="runtime",
            ))

    def _on_patch_site(self, machine: "Machine", patch: Instruction) -> None:
        """A patched site's first execution, and its first after a
        degrade dropped its kernel: charge the check, resolve decode
        and bind through the caches, then build the site's kernel and
        run its *check* stage for this execution.  The kernel adds the
        check charge and the decode/bind hit path in front, and takes
        the site's later executions.  A storm-demoted site's kernel
        short-circuits.

        Precondition: no source operand is NaN(-boxed).  If it holds,
        the original runs with exceptions masked, then the sticky flags
        are postcondition-checked; a boxed source or a raised flag
        restores the destination (x64 FP destinations are also
        sources) and falls back to :meth:`_build_fp_kernel`'s serve.
        """
        m = machine
        original: Instruction = patch.payload["original"]
        cost = m.cost
        check_c = check_cycles(cost.platform, patch)
        cost.charge(check_c, "patch_check")
        if original.addr in self._demoted_sites:
            def demoted() -> None:
                cost.charge(check_c, "patch_check")
                self._short_circuit(m, original)
            self._install_kernel(m, patch, demoted)
            return self._short_circuit(m, original)
        decoded, dhit = self.decode_cache.lookup(original)
        self.stats.record_decode(dhit)
        bound, bhit = self.bind_cache.lookup(m, decoded)
        self.stats.record_bind(bhit)
        serve = self._build_fp_kernel(m, original, decoded, bound, "patch")
        buckets = cost.buckets
        mx = m.mxcsr
        step = m.reexec_step(original)
        base_c = step._C
        original_body = step._body
        lanes = bound.lanes
        src_reads = tuple(loc.read for lane in lanes for loc in lane.srcs)
        dsts = tuple(lane.dst for lane in lanes if lane.dst is not None)
        is_box = self.codec.is_box
        stats = self.stats
        decode_cache = self.decode_cache
        bind_cache = self.bind_cache
        refreshers = bind_cache.cache[original.addr][2]

        def bind_hit() -> None:
            bind_cache.hits += 1
            for refresh in refreshers:
                refresh(m)
            stats.bind_hits += 1

        def check(dhit: bool) -> None:
            flags = 0
            if not any([is_box(read()) for read in src_reads]):
                saved = [dst.read() for dst in dsts]
                saved_masks, saved_flags = mx.masks, mx.flags
                mx.mask_all()
                mx.flags = 0
                # the original cannot fault here; it advances RIP
                cost.cycles += base_c
                buckets["base"] += base_c
                original_body()
                flags = mx.flags
                mx.set_masks(saved_masks)
                mx.flags = saved_flags
                if not flags:
                    stats.patch_fast_path += 1
                    return
                for dst, bits in zip(dsts, saved):
                    dst.write(bits)
                stats.record_trap_flags(flags)
            stats.patch_slow_path += 1
            bind_hit()  # regs may have moved: the hit refreshes the EAs
            serve(flags, (0.0, 0.0, dhit, True))

        def kernel() -> None:
            cost.cycles += check_c
            buckets["patch_check"] += check_c
            decode_cache.hits += 1
            stats.decode_hits += 1
            bind_hit()
            check(True)

        self._install_kernel(m, patch, kernel)
        check(dhit)

    # ------------------------------------------------------------------ #
    # correctness traps (§4.2)                                            #
    # ------------------------------------------------------------------ #

    def _on_correctness_trap(self, machine: "Machine",
                             frame: TrapFrame) -> None:
        self._build_correctness_kernel(machine, frame)()

    def _build_correctness_kernel(self, machine: "Machine",
                                  frame: TrapFrame) -> Callable[[], None]:
        """Build the kernel of a correctness site and return its handler
        stage: count, charge, then demote what the original is about to
        consume (a trace sink adds a CorrectnessTrapEvent).  The kernel
        adds delivery in front and the original's re-execution after,
        and takes the site's later traps in every mode."""
        m = machine
        original = frame.instruction
        detail = frame.detail or {}
        plat = m.cost.platform
        cost = m.cost
        charge = cost.charge
        stats = self.stats
        maybe_collect = self.gc.maybe_collect
        if (detail.get("kind", "sink") == "sink"
                and not detail.get("demote_xmm")
                and original.addr in self._box_free_sites):
            # the liveness refinement proved this load box-free; the
            # handler is a set lookup, no demotion scan
            handler_c, demote = plat.analysis_fast_path_cycles, None
        else:
            handler_c = plat.correctness_handler_cycles
            demote = self._demoter(m, original, detail)
            if self.trace is not None:
                demote = self._emitting_demoter(m, original, detail, demote)

        def handle() -> None:
            stats.correctness_traps += 1
            charge(handler_c, "correctness_handler")
            if demote is None:
                stats.analysis_short_circuits += 1
            else:
                demote()
                maybe_collect(m)

        site = m.binary.text_map.get(frame.rip)
        if (site is None or site.mnemonic != "fpvm_trap"
                or site.payload.get("original") is not original):
            return handle
        hw, kd = m.delivery_split()
        step = m.reexec_step(original)
        base_c = step._C
        original_body = step._body
        buckets = cost.buckets

        def kernel() -> None:
            cost.cycles += hw
            buckets["correctness"] += hw
            cost.cycles += kd
            buckets["correctness"] += kd
            handle()
            cost.cycles += base_c
            buckets["base"] += base_c
            original_body()

        self._install_kernel(m, site, kernel)
        return handle

    def _demoter(self, machine: "Machine", ins: Instruction,
                 detail: dict) -> Callable[[], None]:
        """What a correctness trap at ``ins`` demotes, with the sink
        operands' effective addresses compiled once.

        A ``sink`` demotes the memory words ``ins`` reads and, with
        ``demote_xmm`` (the bitwise-FP/movq holes), its XMM lanes; a
        ``call_demote`` demotes the FP argument registers.
        """
        kind = detail.get("kind", "sink")
        if kind == "call_demote":
            nfp = detail.get("nfp", 8)
            return lambda: self._demote_fp_arg_registers(machine, nfp)
        if kind != "sink":  # pragma: no cover - patcher emits two kinds
            raise MachineError(f"unknown correctness trap kind {kind!r}")
        eas = tuple(_ea_closure(machine, op) for op in _sink_mems(ins))
        xmm = detail.get("demote_xmm", False)
        demote_word = self._demote_sink_word

        def demote() -> None:
            if xmm:
                self._demote_sink_xmm(machine, ins)
            for ea in eas:
                demote_word(machine, ea() & ~7)
        return demote

    def _emitting_demoter(self, machine: "Machine", ins: Instruction,
                          detail: dict,
                          demote: Callable[[], None]) -> Callable[[], None]:
        """``demote`` followed by the trap's CorrectnessTrapEvent."""
        stats = self.stats
        emit = self.trace.emit
        kind = detail.get("kind", "sink")

        def demote_and_emit() -> None:
            before = stats.correctness_demotions + stats.call_site_demotions
            demote()
            emit(CorrectnessTrapEvent(
                cycles=machine.cost.cycles,
                addr=ins.addr,
                mnemonic=ins.mnemonic,
                trap_kind=kind,
                demotions=(stats.correctness_demotions
                           + stats.call_site_demotions - before),
            ))
        return demote_and_emit

    def _emit_demotion(self, machine: "Machine", location: str, reason: str,
                       bits: int, demoted: int) -> None:
        self.trace.emit(DemotionEvent(
            cycles=machine.cost.cycles, location=location, reason=reason,
            handle=self.codec.decode(bits), bits=demoted))

    def _demote_sink_xmm(self, machine: "Machine", ins: Instruction) -> None:
        from repro.isa.operands import Xmm

        for op in ins.operands:
            if isinstance(op, Xmm):
                for lane in (0, 1):
                    bits = machine.regs.xmm[op.index][lane]
                    if self.emulator.is_live_box(bits):
                        demoted = self.emulator.demote_bits(bits)
                        machine.regs.xmm[op.index][lane] = demoted
                        self.stats.correctness_demotions += 1
                        if self.trace is not None:
                            self._emit_demotion(
                                machine, f"xmm{op.index}[{lane}]", "sink",
                                bits, demoted)

    def _demote_sink_word(self, machine: "Machine", word_addr: int) -> None:
        try:
            bits = machine.memory.read(word_addr, 8)
        except MachineError:
            return
        if self.emulator.is_live_box(bits):
            demoted = self.emulator.demote_bits(bits)
            machine.memory.write(word_addr, 8, demoted)
            self.stats.correctness_demotions += 1
            if self.trace is not None:
                self._emit_demotion(machine, f"mem:{word_addr:#x}", "sink",
                                    bits, demoted)

    def _demote_fp_arg_registers(self, machine: "Machine", nfp: int) -> None:
        """Demote boxed xmm0..xmm{nfp-1} before an external call."""
        inj = self.injector
        if inj is not None and inj.fires("extern_demote"):
            # injected demotion skip: the callee sees raw NaN-box bits
            # and (masked) computes with NaNs — degraded, not dead
            self.stats.degradations += 1
            if self.trace is not None:
                self.trace.emit(DegradeEvent(
                    cycles=machine.cost.cycles,
                    addr=machine.regs.rip,
                    stage="extern_demote",
                    reason="injected pre-call demotion skip",
                    injected=True,
                ))
            return
        for i in range(nfp):
            bits = machine.regs.xmm_lo(i)
            if self.emulator.is_live_box(bits):
                demoted = self.emulator.demote_bits(bits)
                machine.regs.set_xmm_lo(i, demoted)
                self.stats.call_site_demotions += 1
                if self.trace is not None:
                    self._emit_demotion(machine, f"xmm{i}[0]", "call",
                                        bits, demoted)

    # ------------------------------------------------------------------ #
    # libm / output interposition (the LD_PRELOAD shim, Figs. 4/5/8)      #
    # ------------------------------------------------------------------ #

    def _interpose_externs(self, machine: "Machine") -> None:
        for name, addr in machine.binary.imports.items():
            if name in LIBM_FUNCTIONS and name in _LIBM_MAP:
                wrapper = self._make_libm_wrapper(name, addr)
            elif name == "floor" or name == "ceil":
                wrapper = self._make_round_wrapper(
                    1 if name == "floor" else 2, name)
            elif name == "printf":
                wrapper = self._printf_wrapper
            elif name == "fwrite":
                wrapper = self._fwrite_wrapper
            else:
                continue
            self._saved_externs[addr] = machine.externs[addr]
            machine.externs[addr] = wrapper
            if self.trace is not None:
                # the import-table hook is a binary patch too (the
                # LD_PRELOAD shim moment)
                self.trace.emit(PatchEvent(
                    cycles=machine.cost.cycles,
                    addr=addr,
                    mnemonic=name,
                    patch_kind="interpose",
                    source="runtime",
                ))

    def _make_libm_wrapper(self, name: str, addr: int):
        method, arity = _LIBM_MAP[name]
        fn = getattr(self.arith, method)

        def wrapper(machine: "Machine") -> None:
            self.stats.libm_interposed_calls += 1
            try:
                inj = self.injector
                if inj is not None:
                    inj.fire("emulate", f"libm {name}")
                a = self.emulator.unbox(machine.regs.xmm_lo(0))
                if arity == 2:
                    b = self.emulator.unbox(machine.regs.xmm_lo(1))
                    r = fn(a, b)
                else:
                    r = fn(a)
            except RECOVERABLE_FAULTS as exc:
                self._degrade_libm_call(machine, name, addr, arity, exc)
                return
            machine.cost.charge(self.arith.op_cycles(method), "emulate")
            self.emulator.box(XmmLoc(machine, 0, 0), r)
            machine.regs.set_xmm_hi(0, 0)
            if self.sanitizer is not None:
                # interposed call sites are keyed by import address
                self.sanitizer.check_value(machine, addr, name, r)

        return wrapper

    def _degrade_libm_call(self, machine: "Machine", name: str, addr: int,
                           arity: int, exc: BaseException) -> None:
        """Recover a failed interposed libm call: demote the argument
        registers and hand off to the saved vanilla implementation."""
        demoted = 0
        for i in range(arity):
            bits = machine.regs.xmm_lo(i)
            if self.emulator.is_live_box(bits):
                machine.regs.set_xmm_lo(i, self.emulator.demote_bits(bits))
                demoted += 1
        self._saved_externs[addr](machine)
        self.stats.degradations += 1
        if self.trace is not None:
            self.trace.emit(DegradeEvent(
                cycles=machine.cost.cycles,
                addr=addr,
                mnemonic=name,
                stage=getattr(exc, "stage", "emulate"),
                reason=f"{type(exc).__name__}: {exc}",
                injected=isinstance(exc, InjectedFault),
                operands_demoted=demoted,
            ))

    def _make_round_wrapper(self, mode: int, name: str):
        def wrapper(machine: "Machine") -> None:
            self.stats.libm_interposed_calls += 1
            a = self.emulator.unbox(machine.regs.xmm_lo(0))
            r = self.arith.round_to_integral(a, mode)
            machine.cost.charge(
                self.arith.op_cycles("round_to_integral"), "emulate")
            self.emulator.box(XmmLoc(machine, 0, 0), r)
            machine.regs.set_xmm_hi(0, 0)

        return wrapper

    def _printf_wrapper(self, machine: "Machine") -> None:
        """Hijacked printf: demote (or fully render) shadowed FP args (§2)."""

        def fp_decode(bits: int):
            if self.emulator.is_live_box(bits):
                self.stats.printf_demotions += 1
                demoted = self.emulator.demote_bits(bits)
                if self.trace is not None:
                    self._emit_demotion(machine, "printf-arg", "printf",
                                        bits, demoted)
                if self.printf_shadow_digits is not None:
                    v = self.store.get(self.codec.decode(bits))
                    return self.arith.to_decimal_str(
                        v, self.printf_shadow_digits)
                return bits_to_f64(demoted)
            return bits_to_f64(self.emulator.demote_bits(bits))

        _printf_impl(machine, fp_decode)

    def _fwrite_wrapper(self, machine: "Machine") -> None:
        """Hijacked fwrite: demote boxed words in the outgoing buffer.

        This is the conversion-at-serialization-point strategy of §2
        ("losing all the promoted values" — the buffer written to the
        file holds demoted doubles, not shadow contents).
        """
        ptr = machine.regs.get_gpr("rdi")
        size = machine.regs.get_gpr("rsi")
        nmemb = machine.regs.get_gpr("rdx")
        n = size * nmemb
        for off in range(0, n & ~7, 8):
            bits = machine.memory.read(ptr + off, 8)
            if self.emulator.is_live_box(bits):
                demoted = self.emulator.demote_bits(bits)
                machine.memory.write(ptr + off, 8, demoted)
                if self.trace is not None:
                    self._emit_demotion(machine, f"mem:{ptr + off:#x}",
                                        "fwrite", bits, demoted)
        self._saved_externs[
            machine.binary.imports["fwrite"]
        ](machine)

    # ------------------------------------------------------------------ #
    # wholesale demotion (used at uninstall / program exit)               #
    # ------------------------------------------------------------------ #

    def demote_all_memory(self, machine: "Machine") -> int:
        """Demote every live box in registers + writable memory in place."""
        n = 0
        for i in range(len(machine.regs.xmm)):
            for lane in (0, 1):
                bits = machine.regs.xmm[i][lane]
                if self.emulator.is_live_box(bits):
                    machine.regs.xmm[i][lane] = self.emulator.demote_bits(bits)
                    n += 1
        for name, bits in machine.regs.gpr.items():
            if self.emulator.is_live_box(bits):
                machine.regs.gpr[name] = self.emulator.demote_bits(bits)
                n += 1
        for lo, hi in self.gc._scan_ranges(machine):
            for addr in range(lo, hi & ~7, 8):
                bits = machine.memory.read(addr, 8)
                if self.emulator.is_live_box(bits):
                    machine.memory.write(addr, 8,
                                         self.emulator.demote_bits(bits))
                    n += 1
        return n
