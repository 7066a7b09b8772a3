"""Chaos campaigns: sweep workloads × arithmetics × fault stages.

A campaign is an ordinary experiment matrix whose cells carry
:class:`~repro.faults.injector.FaultPlan`\\ s: for every workload ×
arithmetic pair there is one zero-fault control cell plus one cell per
injectable VM stage.  Cells run through the isolated
:func:`~repro.harness.experiment.run_matrix` (per-cell timeouts,
bounded retries, crash containment), so the worst a fault can do is a
structured crash report — the campaign itself always completes.

Determinism: per-cell seeds derive from the campaign seed with
``zlib.crc32`` over the cell coordinates (*not* Python's ``hash``,
which is salted per-process), so the same campaign seed reproduces the
identical survival table run after run, across processes.
"""

from __future__ import annotations

import zlib

from repro.faults.injector import STAGES, FaultPlan, FaultRule
from repro.harness.experiment import CellResult, MatrixCell, run_matrix

#: per-stage triggers: (probability, max_fires) — protective-action
#: stages fire every occurrence (the degradation is cheap and silent),
#: pipeline stages fire often enough to trip the storm detector
_STAGE_TRIGGERS: dict[str, tuple[float, int | None]] = {
    "decode": (0.05, None),
    "bind": (0.05, None),
    "emulate": (0.05, None),
    "gc_sweep": (1.0, None),
    "shadow_lookup": (0.05, None),
    "nanbox_corrupt": (0.02, None),
    "extern_demote": (1.0, None),
}


def _cell_seed(seed: int, workload: str, arith: tuple, stage: str) -> int:
    key = f"{workload}:{arith}:{stage}".encode()
    return (seed * 0x1_0000_0000) ^ zlib.crc32(key)


def chaos_cells(
    workloads,
    ariths,
    *,
    seed: int = 0,
    stages=STAGES,
    size: str = "test",
    storm_threshold: int = 8,
    max_instructions: int | None = 5_000_000,
    max_cycles: float | None = None,
) -> list[MatrixCell]:
    """Build the campaign matrix: control + one cell per fault stage."""
    cells: list[MatrixCell] = []
    for workload in workloads:
        for arith in ariths:
            arith = tuple(arith) if not isinstance(arith, tuple) else arith
            plans = [("control", FaultPlan(
                seed=_cell_seed(seed, workload, arith, "control")))]
            for stage in stages:
                prob, cap = _STAGE_TRIGGERS[stage]
                plans.append((stage, FaultPlan(
                    seed=_cell_seed(seed, workload, arith, stage),
                    rules=(FaultRule(stage, probability=prob,
                                     max_fires=cap),),
                )))
            for label, plan in plans:
                cells.append(MatrixCell(
                    workload=workload,
                    size=size,
                    arith=arith,
                    fault_plan=plan,
                    storm_threshold=storm_threshold,
                    max_instructions=max_instructions,
                    max_cycles=max_cycles,
                    label=label,
                ))
    return cells


def run_campaign(cells, *, jobs: int | None = None,
                 timeout_s: float | None = 120.0,
                 retries: int = 1) -> list[CellResult]:
    """Run a chaos matrix under full crash isolation."""
    return run_matrix(cells, jobs, timeout_s=timeout_s, retries=retries)


def _outcome(res: CellResult) -> str:
    if res.error is not None:
        return f"crashed:{res.error_type}"
    if res.sites_short_circuited:
        return "degraded+demoted"
    if res.degradations:
        return "degraded"
    return "ok"


def survival_table(results) -> str:
    """Render the campaign's survival/degradation table.

    Deterministic for a given seed: every column is modeled state
    (cycles, counters), never wall-clock.
    """
    header = ("workload", "arith", "stage", "fired", "degr", "demoted",
              "cycles", "outcome")
    rows = [header]
    for res in results:
        cell = res.cell
        arith = ":".join(str(x) for x in (cell.arith or ("native",)))
        fired = sum(res.faults_fired.values())
        rows.append((
            cell.workload,
            arith,
            cell.label or "-",
            str(fired),
            str(res.degradations),
            str(res.sites_short_circuited),
            f"{res.cycles:.0f}",
            _outcome(res),
        ))
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for j, row in enumerate(rows):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths))
                     .rstrip())
        if j == 0:
            lines.append("  ".join("-" * w for w in widths))
    survived = sum(1 for r in results if r.survived)
    lines.append("")
    lines.append(f"survived {survived}/{len(results)} cells "
                 f"({sum(1 for r in results if r.error is not None)} "
                 "contained crashes)")
    return "\n".join(lines)
