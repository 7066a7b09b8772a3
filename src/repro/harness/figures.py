"""Generators for every table and figure of the evaluation (§5).

Each ``fig*`` function returns plain data structures (and can render a
text table) so the pytest-benchmark harness, the examples, and
EXPERIMENTS.md all consume the same code paths.
"""

from __future__ import annotations

import time

from repro.machine.costmodel import PLATFORMS, Platform, R815
from repro.arith.bigfloat import BigFloatArithmetic, BigFloatContext
from repro.errors import ReproError
from repro.fpvm.runtime import FPVMConfig
from repro.harness.experiment import (CellResult, MatrixCell, run_matrix,
                                      slowdown)
from repro.session import Session
from repro.workloads import WORKLOADS

#: benchmarks in the paper's Fig. 9/10 order
FIG9_CODES = ("miniaero", "enzo", "lorenz", "nas_cg", "fbench", "three_body")
#: rows of Fig. 12 (ours have one size each — "Class T")
FIG12_CODES = ("fbench", "lorenz", "three_body", "miniaero", "nas_is",
               "nas_ep", "nas_cg", "nas_mg", "nas_lu", "enzo")


def _matrix_data(cells, jobs: int | None) -> list[CellResult]:
    """``run_matrix`` results as figure data: a failed cell has no
    counters worth plotting, so it stops the figure by name."""
    results = run_matrix(cells, jobs=jobs)
    for res in results:
        if res.error is not None:
            c = res.cell
            arith = ":".join(str(x) for x in (c.arith or ("native",)))
            raise ReproError(
                f"cell {c.workload}/{arith}/{c.platform} failed: "
                f"{res.error_type}: {res.error}")
    return results


# --------------------------------------------------------------------------- #
# Fig. 9 — average cost of virtualizing an FP instruction + breakdown          #
# --------------------------------------------------------------------------- #

def fig9_trap_cost(codes=FIG9_CODES, size: str = "bench",
                   precision: int = 200, platform: Platform = R815,
                   jobs: int | None = None) -> dict:
    """Per-benchmark average virtualization cost (cycles) by component.

    Each benchmark is an independent cell; ``run_matrix`` fans them out
    over processes (``jobs`` defaults to ``REPRO_JOBS``/CPU count).
    """
    cells = [MatrixCell(workload=name, size=size,
                        arith=("mpfr", precision), platform=platform.name)
             for name in codes]
    rows: dict[str, dict[str, float]] = {}
    for cell, res in zip(cells, _matrix_data(cells, jobs)):
        breakdown = dict(res.fig9)
        breakdown["decode_cache_hit_rate"] = res.decode_cache_hit_rate
        breakdown["bind_cache_hit_rate"] = res.bind_cache_hit_rate
        rows[cell.workload] = breakdown
    return rows


def render_fig9(rows: dict) -> str:
    comps = ["hardware overhead", "kernel overhead", "decode", "bind",
             "emulate", "garbage collection", "correctness overhead",
             "correctness handler", "total"]
    out = [f"{'benchmark':12s} " + " ".join(f"{c[:9]:>10s}" for c in comps)]
    for name, row in rows.items():
        out.append(f"{name:12s} " + " ".join(
            f"{row.get(c, 0.0):10.0f}" for c in comps))
    return "\n".join(out)


# --------------------------------------------------------------------------- #
# Fig. 10 — garbage collector statistics                                       #
# --------------------------------------------------------------------------- #

def fig10_gc(codes=FIG9_CODES, size: str = "bench",
             precision: int = 200,
             gc_epoch_cycles: int = 3_000_000) -> dict:
    """alive / freed / latency per benchmark (plus collection fraction).

    Fig. 10 dynamics need paper-like epochs: long enough that garbage
    from emulated temporaries dwarfs the persistent live set (the
    paper's 1 s epoch at 2.1 GHz is ~2e9 cycles)."""
    rows: dict[str, dict] = {}
    config = FPVMConfig(gc_epoch_cycles=gc_epoch_cycles)
    for name in codes:
        res = Session(name, ("mpfr", precision), size=size,
                      config=config).run()
        rows[name] = res.fpvm.gc.summary()
        rows[name]["boxes_created"] = res.fpvm.emulator.boxes_created
    return rows


def render_fig10(rows: dict) -> str:
    out = [f"{'benchmark':12s} {'passes':>7s} {'alive':>8s} {'freed':>9s} "
           f"{'latency(us)':>12s} {'collected':>10s}"]
    for name, r in rows.items():
        out.append(f"{name:12s} {r['passes']:7d} {r['alive']:8d} "
                   f"{r['freed']:9d} {r['latency_us']:12.1f} "
                   f"{100 * r['collect_fraction']:9.1f}%")
    return "\n".join(out)


# --------------------------------------------------------------------------- #
# Fig. 11 — MPFR op cost vs precision                                          #
# --------------------------------------------------------------------------- #

def fig11_mpfr_precision(
    precisions=(32, 64, 128, 256, 512, 1024, 2048, 4096, 8192),
    samples: int = 200,
    ghz: float = 2.1,
) -> dict:
    """Measured host time per bigfloat op, expressed in model cycles.

    Reproduces the Fig. 11 shape: add grows ~linearly in limb count
    while mul/div/sqrt grow polynomially, so the precision at which
    the arithmetic dominates FPVM's ~12k-cycle virtualization cost is
    op-dependent (division crosses first).
    """
    out: dict[int, dict[str, float]] = {}
    for prec in precisions:
        ctx = BigFloatContext(prec)
        third = ctx.div(ctx.from_int(1), ctx.from_int(3))
        e_ish = ctx.div(ctx.from_int(271828), ctx.from_int(100000))
        ops = {
            "add": lambda: ctx.add(third, e_ish),
            "sub": lambda: ctx.sub(third, e_ish),
            "mul": lambda: ctx.mul(third, e_ish),
            "div": lambda: ctx.div(third, e_ish),
        }
        row: dict[str, float] = {}
        for op, fn in ops.items():
            t0 = time.perf_counter()
            for _ in range(samples):
                fn()
            host_s = (time.perf_counter() - t0) / samples
            row[op] = host_s * ghz * 1e9  # host-measured "cycles"
        # the calibrated model the FPVM cost accounting actually uses
        arith = BigFloatArithmetic(prec)
        row["model_add"] = arith.op_cycles("add")
        row["model_div"] = arith.op_cycles("div")
        out[prec] = row
    return out


def render_fig11(rows: dict) -> str:
    out = [f"{'prec(bits)':>10s} {'add':>12s} {'sub':>12s} {'mul':>12s} "
           f"{'div':>12s} {'model add':>10s} {'model div':>10s}"]
    for prec, r in rows.items():
        out.append(f"{prec:10d} {r['add']:12.0f} {r['sub']:12.0f} "
                   f"{r['mul']:12.0f} {r['div']:12.0f} "
                   f"{r['model_add']:10d} {r['model_div']:10d}")
    return "\n".join(out)


# --------------------------------------------------------------------------- #
# Fig. 12 — wall-clock slowdowns per benchmark x machine                       #
# --------------------------------------------------------------------------- #

def fig12_slowdowns(codes=FIG12_CODES, size: str = "bench",
                    precision: int = 200,
                    platforms=("R815", "7220", "R730xd"),
                    jobs: int | None = None) -> dict:
    """Modeled slowdown factors (FPVM+MPFR vs native) per platform.

    The full workload × platform × {native, FPVM} matrix is flattened
    into independent cells and dispatched through ``run_matrix``.
    """
    cells = []
    for name in codes:
        for pname in platforms:
            cells.append(MatrixCell(workload=name, size=size, arith=None,
                                    platform=pname))
            cells.append(MatrixCell(workload=name, size=size,
                                    arith=("mpfr", precision),
                                    platform=pname))
    results = _matrix_data(cells, jobs)
    by_key = {(r.cell.workload, r.cell.platform, r.cell.arith is None): r
              for r in results}
    rows: dict[str, dict[str, float]] = {}
    for name in codes:
        row: dict[str, float] = {
            "paper_R815": WORKLOADS[name].paper_slowdown_r815}
        for pname in platforms:
            nat = by_key[(name, pname, True)]
            vir = by_key[(name, pname, False)]
            row[pname] = slowdown(nat, vir)
        rows[name] = row
    return rows


def render_fig12(rows: dict) -> str:
    plats = [k for k in next(iter(rows.values())) if k != "paper_R815"]
    out = [f"{'benchmark':12s} " + " ".join(f"{p:>9s}" for p in plats)
           + f" {'paper R815':>11s}"]
    for name, row in rows.items():
        out.append(f"{name:12s} " + " ".join(
            f"{row[p]:8.0f}x" for p in plats)
            + f" {row['paper_R815']:10.0f}x")
    return "\n".join(out)


# --------------------------------------------------------------------------- #
# Fig. 13 — Lorenz trajectories under IEEE / Vanilla / MPFR                    #
# --------------------------------------------------------------------------- #

def fig13_lorenz(size: str = "S", precision: int = 200) -> dict:
    """The §5.4 experiment: Vanilla must match bit-for-bit; MPFR must
    diverge (chaotic sensitivity to rounding)."""
    nat = Session("lorenz", None, size=size).run()
    van = Session("lorenz", "vanilla", size=size).run()
    mp = Session("lorenz", ("mpfr", precision), size=size).run()
    return {
        "ieee": nat.stdout,
        "vanilla": van.stdout,
        "mpfr": mp.stdout,
        "vanilla_identical": nat.stdout == van.stdout,
        "mpfr_diverged": nat.stdout != mp.stdout,
    }


# --------------------------------------------------------------------------- #
# Fig. 14 — user- vs kernel-level exception delivery                           #
# --------------------------------------------------------------------------- #

def fig14_trap_delivery() -> dict:
    """Delivery cost per platform and §6 deployment scenario (cycles)."""
    rows: dict[str, dict[str, int]] = {}
    for name, plat in PLATFORMS.items():
        rows[name] = {
            "user": plat.scenario_delivery("user"),
            "kernel": plat.scenario_delivery("kernel"),
            "hrt": plat.scenario_delivery("hrt"),
            "pipeline": plat.scenario_delivery("pipeline"),
            "user_over_kernel": round(
                plat.scenario_delivery("user")
                / plat.scenario_delivery("kernel"), 2),
        }
    return rows


def fig14_scenario_slowdowns(workload: str = "lorenz", size: str = "bench",
                             precision: int = 200) -> dict:
    """End-to-end slowdown of one workload under each §6 scenario."""
    nat = Session(workload, None, size=size).run()
    out: dict[str, float] = {}
    for scenario in ("user", "kernel", "hrt", "pipeline"):
        vir = Session(workload, ("mpfr", precision), size=size,
                      delivery_scenario=scenario).run()
        out[scenario] = slowdown(nat, vir)
    return out


def render_fig14(rows: dict) -> str:
    out = [f"{'platform':10s} {'user':>8s} {'kernel':>8s} {'hrt':>8s} "
           f"{'pipeline':>9s} {'user/kern':>10s}"]
    for name, r in rows.items():
        out.append(f"{name:10s} {r['user']:8d} {r['kernel']:8d} "
                   f"{r['hrt']:8d} {r['pipeline']:9d} "
                   f"{r['user_over_kernel']:10.1f}")
    return "\n".join(out)


# --------------------------------------------------------------------------- #
# Fig. 3 / §3.2 — trap-and-emulate vs trap-and-patch microcomparison           #
# --------------------------------------------------------------------------- #

def fig3_patch_vs_trap(workload: str = "lorenz", size: str = "bench",
                       precision: int = 200) -> dict:
    """Compare the two dynamic approaches on one workload.

    Under trap-and-patch the *first* event at a site pays fault
    delivery, later ones only the inline check; for sites whose checks
    pass (operands clean, result exact) the fast path skips emulation
    entirely."""
    nat = Session(workload, None, size=size).run()
    out: dict[str, dict] = {}
    for mode in ("trap-and-emulate", "trap-and-patch"):
        res = Session(workload, ("mpfr", precision), size=size,
                      config=FPVMConfig(mode=mode)).run()
        out[mode] = {
            "slowdown": slowdown(nat, res),
            "cycles": res.cycles,
            "fault_deliveries": res.fp_traps,
            "patch_sites": res.fpvm.stats.patch_sites_installed,
            "patch_fast_path": res.fpvm.stats.patch_fast_path,
            "patch_slow_path": res.fpvm.stats.patch_slow_path,
            "stdout": res.stdout,
        }
    out["identical_output"] = (
        out["trap-and-emulate"]["stdout"] == out["trap-and-patch"]["stdout"]
    )
    return out
