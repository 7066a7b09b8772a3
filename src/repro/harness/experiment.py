"""Run a Binary natively or under FPVM and collect every statistic the
evaluation section needs.

The module also provides the parallel experiment matrix: every cell of
the workload × arithmetic × platform sweep is an independent,
deterministic simulation, so :func:`run_matrix` fans the cells out over
the crash-isolated :class:`~repro.harness.pool.WorkerPool`, or loops
serially in-process for ``jobs <= 1``.  Cells and their results are
plain picklable data — a :class:`RunResult` holds live machine/FPVM
objects and cannot cross a process boundary, so :func:`run_cell`, the
one containment wrapper for guest runs, distills each run into a
:class:`CellResult` in the process that ran it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from repro.errors import ReproError
from repro.machine.costmodel import PLATFORMS
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
    #: fault-injection plan (a frozen, picklable FaultPlan) and the
    #: degradation ladder's storm threshold — the chaos-campaign knobs
    fault_plan: object = None
    storm_threshold: int = 8
    #: per-cell watchdogs, raised as typed WatchdogExpired in-worker
    max_instructions: int | None = None
    max_cycles: float | None = None
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
    if cell.arith is None:
        return Session(cell.workload, None, platform=platform,
                       size=cell.size, label=cell.label)
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
                   label=cell.label)


def run_cell(cell: MatrixCell) -> CellResult:
    """Run one cell and distill it into a plain-data
    :class:`CellResult`, containing any exception.

    A guest that dies — while its session is built or while it runs —
    yields ``error`` plus structured crash records (labelled by
    ``cell.label``) and the partial counters its machine reached,
    instead of unwinding into the worker.  Every statistic that needs
    live machine/FPVM objects is computed here, inside the process that
    ran the guest.  This is also the matrix's
    :class:`~repro.harness.pool.WorkerPool` job function.
    """
    from repro.faults.crashreport import build_crash_report

    session = None
    try:
        session = _make_session(cell)
        res = session.run(cell.max_instructions, max_cycles=cell.max_cycles)
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
    except Exception as exc:  # noqa: BLE001 - containment is the point
        machine = session.machine if session is not None else None
        ring = (session.trace if session is not None
                and hasattr(session.trace, "events") else None)
        records = build_crash_report(
            exc, machine, session.fpvm if session is not None else None,
            ring=ring, cell=cell, label=cell.label)
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
    fpvm = session.fpvm if session is not None else None
    if fpvm is not None:
        st = fpvm.stats
        out.degradations = (st.degradations + fpvm.gc.sweeps_skipped
                            + fpvm.emulator.corrupted_boxes)
        out.sites_short_circuited = st.sites_short_circuited
        if fpvm.injector is not None:
            out.faults_fired = dict(fpvm.injector.fired)
            out.fault_occurrences = dict(fpvm.injector.occurrences)
    return out


def _failed_cell(cell: MatrixCell, error_type: str,
                 message: str) -> CellResult:
    """The pool's result for a cell whose worker never returned one."""
    if error_type == "JobTimeout":
        error_type = "CellTimeout"
    return CellResult(
        cell=cell, stdout="", exit_code=-1, instr_count=0,
        fp_instr_count=0, fp_traps=0, correctness_traps=0, cycles=0,
        error=message, error_type=error_type,
        crash_records=[{"kind": "crash", "error": error_type,
                        "message": message, "label": cell.label}],
    )


def _default_jobs() -> int:
    env = os.environ.get("REPRO_JOBS")
    if not env:
        return os.cpu_count() or 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ReproError(
            f"REPRO_JOBS must be an integer, got {env!r}") from None


def run_matrix(cells, jobs: int | None = None, *,
               timeout_s: float | None = None,
               retries: int = 0) -> list[CellResult]:
    """Run every cell, fanning out over worker processes when ``jobs``
    (default: ``REPRO_JOBS`` or the CPU count) is above 1.

    Results come back in input order.  Each cell is a deterministic,
    independent simulation, so the fan-out matches the serial loop
    field for field (all but ``wall_s`` and ``retries``).

    Crash isolation: a cell that raises yields a :class:`CellResult`
    with ``error`` set instead of aborting the matrix.  On the
    :class:`~repro.harness.pool.WorkerPool` a cell whose worker dies,
    or that runs longer than ``timeout_s`` after dispatch (its worker
    is SIGKILLed), is retried up to ``retries`` times; a contained
    exception is deterministic and returns at once.  The serial loop
    (``jobs <= 1``) runs in-process, so it has no timeout and nothing
    to retry.
    """
    cells = list(cells)
    n = min(jobs if jobs is not None else _default_jobs(), len(cells))
    if n <= 1:
        return [run_cell(c) for c in cells]
    from repro.harness.pool import JobRecord, WorkerPool

    pool = WorkerPool(n, run_cell, _failed_cell, job_timeout_s=timeout_s,
                      retries=retries)
    records = [JobRecord(i, cell) for i, cell in enumerate(cells)]
    pool.start()
    try:
        for rec in records:
            pool.submit(rec)
        results = [rec.wait() for rec in records]
    finally:
        pool.stop()
    for rec, res in zip(records, results):
        res.retries = rec.attempts - 1
    return results
