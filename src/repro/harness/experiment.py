"""Run a Binary natively or under FPVM and collect every statistic the
evaluation section needs.

The module also provides the parallel experiment matrix: every cell of
the workload × arithmetic × platform sweep is an independent,
deterministic simulation, so :func:`run_matrix` fans the cells out over
a ``multiprocessing`` pool (``fork`` start method; falls back to a
serial loop on single-CPU hosts or when forking is unavailable).
Cells and their results are plain picklable data — a
:class:`RunResult` holds live machine/FPVM objects and cannot cross a
process boundary, so workers distill each run into a
:class:`CellResult` in-process.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from repro.machine.costmodel import PLATFORMS, R815
from repro.machine.cpu import Machine
from repro.fpvm.runtime import FPVM, FPVMConfig


@dataclass
class RunResult:
    """Everything measured from one simulated execution."""

    stdout: str
    exit_code: int
    instr_count: int
    fp_instr_count: int
    fp_traps: int
    correctness_traps: int
    cycles: int
    buckets: dict[str, int] = field(default_factory=dict)
    wall_s: float = 0.0
    fpvm: FPVM | None = None
    machine: Machine | None = None
    #: RegFile.snapshot() at halt — populated by Session.run and the
    #: batched backend so lanes can be compared bit-for-bit
    final_regs: dict | None = None
    #: a contained MachineError (batch lanes carry their own failure
    #: instead of aborting sibling lanes); None on success
    error: str | None = None
    error_type: str = ""
    analysis = None
    #: the LaneSpec this result answers (batch lanes only; None for
    #: scalar runs)
    spec = None

    @property
    def ok(self) -> bool:
        """True when the run completed without a contained error."""
        return self.error is None

    @property
    def seconds_modeled(self) -> float:
        """Modeled wall-clock on the platform (cycles / frequency)."""
        plat = self.machine.cost.platform if self.machine else R815
        return self.cycles / (plat.ghz * 1e9)


@dataclass
class BatchResult:
    """Result of one :meth:`Session.run_batch` call.

    ``lanes`` holds one :class:`RunResult` per :class:`LaneSpec`, in
    spec order; each is bit-identical to what a scalar ``Session.run``
    of that lane would produce.  The remaining fields are batch-level
    statistics from the SoA interpreter.
    """

    lanes: list[RunResult]
    #: vectorized dispatches retired while >= 1 lane was in the batch
    dispatches: int = 0
    #: LaneDivergence / post-commit spill events
    spill_events: int = 0
    #: lanes that left lockstep and completed on the scalar interpreter
    spilled_lanes: int = 0
    wall_s: float = 0.0

    def __len__(self) -> int:
        return len(self.lanes)

    def __iter__(self):
        return iter(self.lanes)

    def __getitem__(self, i: int) -> RunResult:
        return self.lanes[i]

    @property
    def spill_rate(self) -> float:
        """Fraction of lanes that finished scalar rather than in-batch."""
        return self.spilled_lanes / len(self.lanes) if self.lanes else 0.0

    @property
    def ok(self) -> bool:
        return all(r.error is None for r in self.lanes)


def slowdown(native, virtualized) -> float:
    """Modeled wall-clock slowdown factor (the Fig. 12 metric)."""
    if native.cycles == 0:
        return float("inf")
    return virtualized.cycles / native.cycles


# --------------------------------------------------------------------------- #
# the parallel experiment matrix                                               #
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class MatrixCell:
    """One independent cell of the workload × arithmetic × platform sweep.

    ``arith`` is a picklable spec tuple — ``None`` for a native run,
    ``("vanilla",)``, ``("mpfr", precision)``, or ``("posit", n, es)``
    — materialized by :func:`repro.arith.from_spec` inside the worker.
    """

    workload: str
    size: str = "bench"
    arith: tuple | None = None
    platform: str = "R815"
    mode: str = "trap-and-emulate"
    delivery_scenario: str = "user"
    patch: bool = True
    gc_epoch_cycles: int = 5_000_000
    box_exact_results: bool = True
    predecode: bool = True
    #: fault-injection plan (a frozen, picklable FaultPlan) and the
    #: degradation ladder's storm threshold — the chaos-campaign knobs
    fault_plan: object = None
    storm_threshold: int = 8
    #: per-cell watchdogs, raised as typed WatchdogExpired in-worker
    max_instructions: int | None = None
    max_cycles: float | None = None
    #: per-cell guest inputs (picklable: params as (name, value) pairs)
    #: — the serving tier expresses every job as a cell, so jobs carry
    #: their stdin stream and data-symbol pokes through the matrix
    stdin: bytes = b""
    params: tuple = ()
    label: str = ""


@dataclass
class CellResult:
    """Plain-data distillation of one cell run (picklable)."""

    cell: MatrixCell
    stdout: str
    exit_code: int
    instr_count: int
    fp_instr_count: int
    fp_traps: int
    correctness_traps: int
    cycles: float
    buckets: dict = field(default_factory=dict)
    wall_s: float = 0.0
    #: fig9_breakdown + cache hit rates (FPVM cells only)
    fig9: dict | None = None
    decode_cache_hit_rate: float = 0.0
    bind_cache_hit_rate: float = 0.0
    #: crash isolation: a cell that died carries the error here (and
    #: its structured crash records) instead of aborting the matrix
    error: str | None = None
    error_type: str = ""
    crash_records: list = field(default_factory=list)
    retries: int = 0
    #: robustness accounting (fault-injected cells)
    degradations: int = 0
    sites_short_circuited: int = 0
    faults_fired: dict = field(default_factory=dict)
    fault_occurrences: dict = field(default_factory=dict)

    @property
    def survived(self) -> bool:
        """True when the cell produced a result (possibly degraded)."""
        return self.error is None


def _make_session(cell: MatrixCell):
    from repro.session import Session

    platform = PLATFORMS[cell.platform]
    inputs = {"stdin": cell.stdin, "params": dict(cell.params)}
    if cell.arith is None:
        return Session(cell.workload, None, platform=platform,
                       size=cell.size, predecode=cell.predecode,
                       label=cell.label, **inputs)
    config = FPVMConfig(
        mode=cell.mode,
        gc_epoch_cycles=cell.gc_epoch_cycles,
        box_exact_results=cell.box_exact_results,
        faults=cell.fault_plan,
        storm_threshold=cell.storm_threshold,
    )
    return Session(cell.workload, cell.arith, config=config,
                   platform=platform, size=cell.size,
                   patch=cell.patch,
                   delivery_scenario=cell.delivery_scenario,
                   predecode=cell.predecode, label=cell.label, **inputs)


def _distill(cell: MatrixCell, res) -> CellResult:
    """RunResult (live objects) → CellResult (plain picklable data)."""
    out = CellResult(
        cell=cell,
        stdout=res.stdout,
        exit_code=res.exit_code,
        instr_count=res.instr_count,
        fp_instr_count=res.fp_instr_count,
        fp_traps=res.fp_traps,
        correctness_traps=res.correctness_traps,
        cycles=res.cycles,
        buckets=dict(res.buckets),
        wall_s=res.wall_s,
        fig9=(res.fpvm.stats.fig9_breakdown(res.machine)
              if res.fpvm is not None else None),
    )
    if res.fpvm is not None:
        out.decode_cache_hit_rate = res.fpvm.decode_cache.hit_rate
        out.bind_cache_hit_rate = res.fpvm.bind_cache.hit_rate
        st = res.fpvm.stats
        out.degradations = (st.degradations
                            + res.fpvm.gc.sweeps_skipped
                            + res.fpvm.emulator.corrupted_boxes)
        out.sites_short_circuited = st.sites_short_circuited
        if res.fpvm.injector is not None:
            out.faults_fired = dict(res.fpvm.injector.fired)
            out.fault_occurrences = dict(res.fpvm.injector.occurrences)
    return out


def run_cell(cell: MatrixCell) -> CellResult:
    """Worker entry point: run one cell and distill the result.

    Module-level (not a closure) so a ``multiprocessing`` pool can
    pickle it; all statistics that need live machine/FPVM objects are
    computed here, inside the worker.
    """
    session = _make_session(cell)
    res = session.run(cell.max_instructions, max_cycles=cell.max_cycles)
    return _distill(cell, res)


def run_cell_guarded(cell: MatrixCell) -> CellResult:
    """Like :func:`run_cell`, but a dying cell is contained: any
    exception becomes ``CellResult.error`` plus structured crash
    records instead of unwinding into (and killing) the pool worker."""
    from repro.faults.crashreport import build_crash_report

    session = None
    try:
        session = _make_session(cell)
        res = session.run(cell.max_instructions, max_cycles=cell.max_cycles)
        return _distill(cell, res)
    except Exception as exc:  # noqa: BLE001 - containment is the point
        machine = session.machine if session is not None else None
        fpvm = session.fpvm if session is not None else None
        ring = (session.trace if session is not None
                and hasattr(session.trace, "events") else None)
        records = build_crash_report(exc, machine, fpvm, ring=ring,
                                     cell=cell, label=cell.label)
        out = CellResult(
            cell=cell,
            stdout=("".join(machine.stdout) if machine is not None else ""),
            exit_code=-1,
            instr_count=machine.instr_count if machine is not None else 0,
            fp_instr_count=(machine.fp_instr_count
                            if machine is not None else 0),
            fp_traps=machine.fp_trap_count if machine is not None else 0,
            correctness_traps=(machine.correctness_trap_count
                               if machine is not None else 0),
            cycles=machine.cost.cycles if machine is not None else 0,
            error=str(exc),
            error_type=type(exc).__name__,
            crash_records=records,
        )
        if fpvm is not None:
            st = fpvm.stats
            out.degradations = (st.degradations + fpvm.gc.sweeps_skipped
                                + fpvm.emulator.corrupted_boxes)
            out.sites_short_circuited = st.sites_short_circuited
            if fpvm.injector is not None:
                out.faults_fired = dict(fpvm.injector.fired)
                out.fault_occurrences = dict(fpvm.injector.occurrences)
        return out


def _default_jobs() -> int:
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def run_matrix(cells, jobs: int | None = None, *,
               timeout_s: float | None = None,
               retries: int = 0,
               capture_errors: bool = True) -> list[CellResult]:
    """Run every cell, fanning out over processes when it pays off.

    Results come back in input order.  Each cell is a deterministic,
    independent simulation, so the fan-out is bit-identical to the
    serial loop.  ``jobs`` defaults to ``REPRO_JOBS`` or the CPU
    count; anything ≤ 1 (or any pool failure, e.g. a platform without
    ``fork``) runs serially.

    Crash isolation: with ``capture_errors`` (the default) a cell that
    raises — or whose worker dies, or that exceeds the per-cell
    ``timeout_s`` wall-clock limit — yields a :class:`CellResult` with
    ``error`` set instead of aborting the whole matrix.  Failed or
    timed-out cells are retried up to ``retries`` times, each round on
    a fresh pool so a wedged worker cannot poison its successors.
    """
    cells = list(cells)
    worker = run_cell_guarded if capture_errors else run_cell
    n = jobs if jobs is not None else _default_jobs()
    n = min(n, len(cells))
    if n > 1:
        try:
            results = _run_matrix_pooled(cells, worker, n,
                                         timeout_s=timeout_s,
                                         retries=retries,
                                         capture_errors=capture_errors)
            if results is not None:
                return results
        except (ImportError, ValueError, OSError):
            pass  # no fork on this platform / resources: run serial
    results = [worker(c) for c in cells]
    if capture_errors and retries > 0:
        for i, res in enumerate(results):
            attempt = 0
            while res.error is not None and attempt < retries:
                attempt += 1
                res = worker(cells[i])
                res.retries = attempt
            results[i] = res
    return results


def _run_matrix_pooled(cells, worker, n, *, timeout_s, retries,
                       capture_errors) -> list[CellResult] | None:
    """Pool fan-out with per-cell timeouts and per-round isolation.

    Returns ``None`` when a pool cannot be created at all (caller
    falls back to the serial loop).  Each retry round gets a fresh
    pool: a cell whose worker hung past ``timeout_s`` leaves its
    zombie behind when the round's pool is terminated, so later
    rounds start clean.
    """
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    results: list[CellResult | None] = [None] * len(cells)
    pending = list(range(len(cells)))
    for round_no in range(retries + 1):
        if not pending:
            break
        failed: list[int] = []
        with ctx.Pool(processes=min(n, len(pending))) as pool:
            handles = [(i, pool.apply_async(worker, (cells[i],)))
                       for i in pending]
            for i, handle in handles:
                try:
                    res = handle.get(timeout_s)
                except mp.TimeoutError:
                    if not capture_errors:
                        raise
                    res = _timeout_result(cells[i], timeout_s)
                except Exception as exc:  # worker died mid-cell
                    if not capture_errors:
                        raise
                    res = _worker_death_result(cells[i], exc)
                res.retries = round_no
                results[i] = res
                if res.error is not None:
                    failed.append(i)
            pool.terminate()
        pending = failed if round_no < retries else []
    return [r for r in results if r is not None] \
        if all(r is not None for r in results) else None


def _empty_error_result(cell: MatrixCell, error_type: str,
                        message: str) -> CellResult:
    return CellResult(
        cell=cell, stdout="", exit_code=-1, instr_count=0,
        fp_instr_count=0, fp_traps=0, correctness_traps=0, cycles=0,
        error=message, error_type=error_type,
        crash_records=[{"kind": "crash", "error": error_type,
                        "message": message, "label": cell.label}],
    )


def _timeout_result(cell: MatrixCell, timeout_s: float) -> CellResult:
    return _empty_error_result(
        cell, "CellTimeout",
        f"cell exceeded {timeout_s:g}s wall-clock timeout")


def _worker_death_result(cell: MatrixCell, exc: Exception) -> CellResult:
    return _empty_error_result(
        cell, type(exc).__name__,
        f"worker died before returning a result: {exc}")
