"""Workload registry: name → builder + metadata + paper expectations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.asm.program import Binary
from repro.workloads import enzo, fbench, lorenz, miniaero, numbugs, three_body
from repro.workloads.nas import cg, ep, is_, lu, mg


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark/test code."""

    name: str
    build: Callable[[str], Binary]
    description: str
    #: Fig. 12 R815 slowdown reported by the paper (shape reference)
    paper_slowdown_r815: float | None = None
    sizes: tuple = ("test", "bench", "S")


WORKLOADS: dict[str, WorkloadSpec] = {}


def _reg(spec: WorkloadSpec) -> None:
    WORKLOADS[spec.name] = spec


_reg(WorkloadSpec("fbench", fbench.build,
                  "Walker's trig-heavy optical ray-tracing benchmark",
                  paper_slowdown_r815=1808.0))
_reg(WorkloadSpec("lorenz", lorenz.build,
                  "Lorenz attractor simulator (chaotic ODE, Fig. 13)",
                  paper_slowdown_r815=268.0))
_reg(WorkloadSpec("three_body", three_body.build,
                  "planar three-body gravitational simulation",
                  paper_slowdown_r815=789.0))
_reg(WorkloadSpec("miniaero", miniaero.build,
                  "compressible Navier-Stokes finite-volume mini-app",
                  paper_slowdown_r815=1811.0))
_reg(WorkloadSpec("nas_is", is_.build,
                  "NAS IS: integer bucket sort (FP only in key gen)",
                  paper_slowdown_r815=204.0))
_reg(WorkloadSpec("nas_ep", ep.build,
                  "NAS EP: Gaussian deviates via Marsaglia polar method",
                  paper_slowdown_r815=396.0))
_reg(WorkloadSpec("nas_cg", cg.build,
                  "NAS CG: sparse conjugate gradient eigenvalue estimate",
                  paper_slowdown_r815=12169.0))
_reg(WorkloadSpec("nas_mg", mg.build,
                  "NAS MG: multigrid V-cycle Poisson solver",
                  paper_slowdown_r815=5163.0))
_reg(WorkloadSpec("nas_lu", lu.build,
                  "NAS LU: dense LU factorization + triangular solves",
                  paper_slowdown_r815=10773.0))
_reg(WorkloadSpec("enzo", enzo.build,
                  "Enzo stand-in: particle-mesh cosmology step with "
                  "bit-level state hashing in the hot loop",
                  paper_slowdown_r815=1976.0))
# seeded numerical bugs (not paper benchmarks: no Fig. 12 slowdown) —
# the sanitizer's true-positive corpus; see repro.workloads.numbugs
_reg(WorkloadSpec("numbugs_cancel", numbugs.build_cancel,
                  "seeded bug: catastrophic cancellation (big+1)-big"))
_reg(WorkloadSpec("numbugs_sum", numbugs.build_sum,
                  "seeded bug: naive summation into a 1e12 base "
                  "vs a Kahan-compensated copy"))
_reg(WorkloadSpec("numbugs_var", numbugs.build_var,
                  "seeded bug: one-pass textbook variance "
                  "(sumsq - sum^2/n) cancellation"))


def get_workload(name: str) -> WorkloadSpec:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; available: {sorted(WORKLOADS)}"
        ) from None
