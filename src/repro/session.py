"""The Session facade: one object that owns a whole FPVM run.

``Session`` is the single entry point the CLI, the harness, and the
figure scripts share (the historical ``run_native`` / ``run_under_fpvm``
wrappers are gone — a native run is ``Session(target, None)``):
build the binary, run the static analyzer/patcher, load the machine,
construct and install the FPVM, and — when tracing is enabled — wire
one :class:`~repro.trace.sinks.TraceSink` through every layer
(machine, runtime, emulator, GC, bind cache) and stamp the stream with
a :class:`~repro.trace.events.RunMetaEvent` header carrying the static
FP-site inventory.

::

    from repro.session import Session
    from repro.trace import NDJSONSink

    s = Session("lorenz", arith="mpfr:200", trace=NDJSONSink("t.ndjson"))
    result = s.run()
    s.close()

A native (no-FPVM) run is a Session with ``arith=None``.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable

from repro.asm.program import Binary
from repro.arith import AlternativeArithmetic, from_spec
from repro.errors import MachineError
from repro.analysis import analyze_and_patch
from repro.fpvm.runtime import FPVM, FPVMConfig
from repro.harness.experiment import BatchResult, RunResult
from repro.isa.opcodes import is_fp_trapping
from repro.machine.batch import BatchMachine, LaneSpec
from repro.machine.costmodel import PLATFORMS, Platform, R815
from repro.machine.loader import load_binary
from repro.trace.events import (AnalysisEvent, PatchEvent,
                                RangeAnalysisEvent, RunMetaEvent)

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace.sinks import TraceSink


def _resolve_builder(target) -> tuple[Callable[[], Binary], str]:
    """Accept a Binary, a builder callable, or a workload name."""
    if isinstance(target, Binary):
        return (lambda: target), ""
    if isinstance(target, str):
        from repro.workloads import get_workload

        spec = get_workload(target)
        return (lambda size="bench": spec.build(size)), target
    return target, ""


class Session:
    """One configured simulated execution, native or under FPVM.

    Parameters
    ----------
    target:
        A :class:`Binary`, a zero-argument builder callable, or a
        built-in workload name (built at ``size``).
    arith:
        An :class:`AlternativeArithmetic`, a spec (``"mpfr:200"`` or
        ``("mpfr", 200)``), or ``None`` for a native run.
    config:
        The :class:`FPVMConfig`; ``trace`` is a shorthand that
        attaches a sink to (a copy of) the config.
    conservative:
        Patch refinement-pruned sinks too (the analysis-v1 behavior).
        The runtime still knows those sites are box-free and answers
        their traps on the analysis fast path.
    oracle:
        A :class:`~repro.analysis.oracle.SoundnessOracle` to attach to
        the machine before the run (usually with ``patch=False``).
    stdin:
        Bytes (or latin-1 ``str``) fed to the guest's ``getchar``
        extern — the scalar counterpart of ``LaneSpec.stdin``.
    params:
        ``{symbol: value}`` pokes applied to named 8-byte data symbols
        before execution (floats as IEEE binary64 bits, ints raw) —
        the scalar counterpart of ``LaneSpec.params``.  Unknown
        symbols raise :class:`~repro.errors.MachineError`.
    """

    def __init__(
        self,
        target,
        arith: AlternativeArithmetic | str | tuple | None = None,
        *,
        config: FPVMConfig | None = None,
        trace: "TraceSink | None" = None,
        platform: Platform | str = R815,
        size: str = "bench",
        patch: bool = True,
        conservative: bool = False,
        delivery_scenario: str = "user",
        label: str = "",
        oracle=None,
        stdin: bytes | str = b"",
        params=None,
    ) -> None:
        if isinstance(platform, str):
            platform = PLATFORMS[platform]
        builder, name = _resolve_builder(target)
        if isinstance(target, str):
            binary = builder(size)
        else:
            binary = builder()
        if arith is not None and not isinstance(arith,
                                                AlternativeArithmetic):
            arith = from_spec(arith)
        if config is None:
            config = FPVMConfig()
        if trace is not None:
            from dataclasses import replace

            config = replace(config, trace=trace)
        self.config = config
        self.trace = config.trace
        self.label = label or name
        self.platform = platform
        self.arith = arith
        self.patched = patch and arith is not None
        self.binary = binary
        self.delivery_scenario = delivery_scenario
        self._oracle = oracle

        # static FP-site inventory, taken before the patcher rewrites
        # sites: the denominator of the exception-flow coverage report
        fp_sites = [[ins.addr, ins.mnemonic] for ins in binary.text
                    if is_fp_trapping(ins.mnemonic)]

        self.conservative = conservative
        self.analysis = vsa = None
        if self.patched:
            # the converged VSA stays local: the sanitizer's range pass
            # below reuses it, and it dies with this constructor
            self.analysis, vsa = analyze_and_patch(
                binary, conservative=conservative, keep_vsa=True)
        self.machine = load_binary(binary, platform=platform)
        self.machine.delivery_scenario = delivery_scenario
        self.machine.trace = self.trace
        if stdin:
            self.machine.stdin = (stdin.encode("latin-1")
                                  if isinstance(stdin, str) else bytes(stdin))
        if params:
            from repro.ieee.bits import f64_to_bits

            for pname, val in dict(params).items():
                addr = binary.symbols.get(pname)
                if addr is None:
                    raise MachineError(f"unknown data symbol {pname!r}")
                bits = (f64_to_bits(val) if isinstance(val, float)
                        else int(val) & 0xFFFF_FFFF_FFFF_FFFF)
                self.machine.memory.write(addr, 8, bits)
        if oracle is not None:
            self.machine.set_oracle(oracle)

        if self.trace is not None:
            self.trace.emit(RunMetaEvent(
                label=self.label,
                arith=arith.describe() if arith is not None else "native",
                mode=config.mode if arith is not None else "native",
                platform=platform.name,
                patched=self.patched,
                fp_sites=fp_sites,
            ))
            if self.analysis is not None:
                rep = self.analysis
                self.trace.emit(AnalysisEvent(
                    binary_hash=rep.binary_hash,
                    cache_hit=rep.cache_hit,
                    vsa_ms=rep.vsa_ms,
                    refine_ms=rep.refine_ms,
                    instructions=rep.instructions,
                    functions=rep.functions,
                    contexts=rep.contexts,
                    vsa_iterations=rep.vsa_iterations,
                    fp_store_sites=rep.fp_store_sites,
                    int_load_sites=rep.int_load_sites,
                    sinks=len(rep.sinks),
                    pruned_sinks=len(rep.pruned_sinks),
                    bitwise_sites=len(rep.bitwise_sites),
                    movq_sites=len(rep.movq_sites),
                    extern_demote_sites=len(rep.extern_demote_sites),
                ))
                patch_groups = [
                    ("sink", rep.sinks),
                    ("bitwise", rep.bitwise_sites),
                    ("movq", rep.movq_sites),
                    ("call_demote",
                     [addr for addr, _ in rep.extern_demote_sites]),
                ]
                if conservative:
                    patch_groups.append(("sink_pruned", rep.pruned_sinks))
                for patch_kind, addrs in patch_groups:
                    for addr in addrs:
                        ins = binary.text_map.get(addr)
                        self.trace.emit(PatchEvent(
                            addr=addr,
                            mnemonic=ins.mnemonic if ins is not None else "",
                            patch_kind=patch_kind,
                            source="patcher",
                        ))

        self.fpvm: FPVM | None = None
        self.range_report = None
        if arith is not None:
            self.fpvm = FPVM(arith, config)
            self.fpvm.install(self.machine)
            self.fpvm.apply_analysis(self.analysis)
            if self.fpvm.sanitizer is not None:
                # interval-range pass: statically prove sites
                # divergence-free so the dual-path check skips them
                # (when exemption is on; with it off the proofs are what
                # the exemption gate checks the full run against)
                from repro.analysis.ranges import analyze_ranges

                rr = analyze_ranges(
                    binary,
                    threshold=self.fpvm.sanitizer.config.threshold,
                    vsa=vsa)
                self.fpvm.apply_range_analysis(rr)
                self.range_report = rr
                if self.trace is not None:
                    self.trace.emit(RangeAnalysisEvent(
                        binary_hash=rr.binary_hash,
                        cache_hit=rr.cache_hit,
                        ranges_ms=rr.ranges_ms,
                        iterations=rr.iterations,
                        checkable=len(rr.checkable),
                        proven=len(rr.proven),
                        prove_rate=rr.prove_rate,
                        threshold=rr.threshold,
                    ))

        self._result: RunResult | None = None
        #: structured crash records from the last failed :meth:`run`
        self.crash_records: list[dict] = []

    # ------------------------------------------------------------------ #

    def run(self, max_instructions: int | None = None, *,
            max_cycles: float | None = None,
            final_gc: bool = True,
            crash_report_path=None) -> RunResult:
        """Execute to completion (or a watchdog limit).

        ``max_instructions`` and ``max_cycles`` both raise a typed
        :class:`~repro.errors.WatchdogExpired` when exceeded.  An
        unrecoverable :class:`~repro.errors.MachineError` is contained:
        a structured crash report is built from the still-live machine
        state (written as NDJSON to ``crash_report_path`` when given,
        always kept on :attr:`crash_records`) before the error
        propagates.
        """
        m = self.machine
        if max_cycles is not None:
            m.cycle_watchdog = max_cycles
        t0 = time.perf_counter()
        try:
            m.run(max_instructions)
        except MachineError as exc:
            from repro.faults.crashreport import (build_crash_report,
                                                  write_crash_report)

            ring = self.trace if hasattr(self.trace, "events") else None
            self.crash_records = build_crash_report(
                exc, m, self.fpvm, ring=ring, label=self.label)
            if crash_report_path is not None:
                write_crash_report(crash_report_path, self.crash_records)
            raise
        wall = time.perf_counter() - t0
        if self.fpvm is not None and final_gc:
            self.fpvm.gc.collect(m)
        result = RunResult(
            stdout="".join(m.stdout),
            exit_code=m.exit_code,
            instr_count=m.instr_count,
            fp_instr_count=m.fp_instr_count,
            fp_traps=m.fp_trap_count,
            correctness_traps=m.correctness_trap_count,
            cycles=m.cost.cycles,
            buckets=dict(m.cost.buckets),
            wall_s=wall,
            fpvm=self.fpvm,
            machine=m,
            final_regs=m.regs.snapshot(),
        )
        result.analysis = self.analysis
        self._result = result
        return result

    def run_batch(self, specs, *, final_gc: bool = True) -> BatchResult:
        """Execute N parameterized lanes of this binary in SoA lockstep.

        ``specs`` is a sequence of :class:`~repro.machine.batch.LaneSpec`
        (or plain dicts with the same fields).  All lanes share one
        arithmetic configuration — the Session's own — so "mixed arith"
        batches are expressed as separate Sessions.  Each returned lane
        is bit-identical to a scalar :meth:`run` of the same lane:
        lanes that diverge (branches, faults, FPVM traps, watchdogs)
        are spilled to the scalar interpreter mid-flight.

        Scalar :meth:`run` is exactly the N=1 special case of this
        surface: both produce :class:`RunResult` objects with the same
        fields and semantics.
        """
        if self._oracle is not None:
            raise MachineError(
                "run_batch does not support a soundness oracle; "
                "oracle probes are scalar per-instruction hooks")
        specs = [s if isinstance(s, LaneSpec) else LaneSpec(**s)
                 for s in specs]
        t0 = time.perf_counter()
        bm = BatchMachine(
            self.binary, specs,
            platform=self.platform,
            arith=self.arith,
            config=self.config,
            analysis=self.analysis,
            delivery_scenario=self.delivery_scenario,
            final_gc=final_gc,
        )
        lanes = bm.run()
        wall = time.perf_counter() - t0
        for res, spec in zip(lanes, specs):
            res.analysis = self.analysis
            res.spec = spec
        result = BatchResult(
            lanes=lanes,
            dispatches=bm.dispatches,
            spill_events=bm.spill_events,
            spilled_lanes=bm.spilled_lanes,
            wall_s=wall,
        )
        if self.trace is not None:
            from repro.trace.events import BatchEvent

            self.trace.emit(BatchEvent(
                lanes=len(specs),
                dispatches=bm.dispatches,
                spill_events=bm.spill_events,
                spilled_lanes=bm.spilled_lanes,
                instr_count=bm.instr_count,
                wall_s=wall,
            ))
        return result

    @property
    def result(self) -> RunResult | None:
        """The last :meth:`run` result (``None`` before the first run)."""
        return self._result

    def close(self) -> None:
        """Flush/close the attached trace sink, if any."""
        if self.fpvm is not None and self.fpvm.tracejit is not None:
            # retire rows for still-live loop traces (hits/deopt totals)
            self.fpvm.tracejit.flush_events()
        if self.trace is not None:
            self.trace.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
