"""The four workloads of the end-to-end benchmark: job lists made from
the seed, repeatable set-up, one timed job, and the output checks.

A job is one user-visible unit of work — build a ``Session`` and run it
(or ``run_batch`` it) — timed from the outside.  The program only ever
sees inputs generated from the seed: the Fig. 12 cell order, the salt
that makes each cold-start binary new, lorenz's ``rho`` under the JITs
and the per-lane parameters of the batched sweeps.
"""

from __future__ import annotations

import gc
import hashlib
import random
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from time import perf_counter

from repro.analysis import analyze_and_patch, clear_cache
from repro.analysis.ranges import clear_ranges_cache
from repro.arith import from_spec
from repro.compiler.driver import compile_source
from repro.fpvm.runtime import FPVMConfig
from repro.machine.batch import LaneSpec
from repro.session import Session
from repro.workloads import WORKLOADS as REGISTRY
from repro.workloads import lorenz, numbugs

WORKLOADS = ("fig12_warm", "cold_oneshot", "jit_registry", "batch_sweep")

#: rows of the paper's Fig. 12 except miniaero, nas_cg and nas_lu: their
#: cold static analysis is 13 of the 22 s a warm set-up of all ten takes
#: on a 2-core Xeon VM, more than a run can spend.  enzo stays: it is
#: the program whose correctness traps move the slowdown.
FIG12_PROGRAMS = ("fbench", "lorenz", "three_body", "nas_is", "nas_ep",
                  "nas_mg", "enzo")
#: native, the §5.2 validation port, the Fig. 12 precision, posits
FIG12_ARITHS = (None, "vanilla", "mpfr:200", "posit:32:2")
#: first-run MPFR jobs, chosen so three rounds fit one run
COLD_MPFR = ("fbench", "lorenz", "three_body", "nas_ep")
#: the `repro sanitize` smoke set: each seeded bug must flag, the two
#: clean programs must not
COLD_SANITIZE = ("numbugs_cancel", "numbugs_sum", "numbugs_var", "lorenz",
                 "fbench")
#: programs where the trap-site JIT hits (all but nas_cg) and the trace
#: JIT compiles loops (nas_cg: 10)
JIT_PROGRAMS = ("fbench", "lorenz", "three_body", "nas_cg", "numbugs_sum")
BATCH_LANES = 64
#: lorenz in Monte-Carlo shape: the whole trajectory, final state only
MONTE_CARLO = dict(steps=1000, dt=0.005, sample=1000)

#: golden fields per workload; cold-start cycles are left out because
#: the salt word moves the GC's scan cost slightly
GOLDEN_FIELDS = {
    "fig12_warm": ("stdout_sha256", "exit_code", "instrs", "fp_instrs",
                   "fp_traps", "correctness_traps", "cycles"),
    "cold_oneshot": ("stdout_sha256", "instrs", "correctness_traps",
                     "flagged_sites"),
}
#: both JIT tiers, with thresholds a bench-size run gets past early
JIT_CONFIG = FPVMConfig(jit_threshold=4, trace_jit_threshold=8)
#: what a JIT run must share with the JIT-off run of the same input
JIT_FIELDS = ("stdout_sha256", "exit_code", "instrs", "fp_instrs")


@dataclass(frozen=True)
class Job:
    """One timed unit of work; ``key`` names it across rounds."""

    key: str
    program: str
    arith: str | None = None
    size: str = "test"
    #: appended as an unused global: a binary no cache has seen
    salt: int | None = None
    #: (symbol, value) pokes of the scalar run
    params: tuple = ()
    #: one params tuple per lane (batch jobs)
    lanes: tuple = ()
    #: lanes re-run on the scalar interpreter by the output check
    checked_lanes: tuple = ()
    jit: bool = False


@dataclass
class Context:
    """What set-up prepares for the timed rounds and the checks."""

    #: this workload's golden entries (job key -> fingerprint fields)
    golden: dict
    golden_fields: tuple = ()
    #: program -> native modeled cycles of the same input
    native_cycles: dict = field(default_factory=dict)
    #: job key (or (key, lane)) -> reference fingerprint
    refs: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """One executed job: times, simulated work and check failures."""

    job: Job
    wall_s: float = 0.0
    run_s: float = 0.0
    #: simulated instructions (lanes x instructions for a batch)
    instrs: int = 0
    cycles: float = 0.0
    fingerprint: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)


# --------------------------------------------------------------------------- #
# job lists                                                                    #
# --------------------------------------------------------------------------- #

def base_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's jobs in canonical order, with per-run inputs."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "fig12_warm":
        return [Job(f"{p}/{a or 'native'}", p, a)
                for p in FIG12_PROGRAMS for a in FIG12_ARITHS]
    if workload == "cold_oneshot":
        return ([Job(f"{p}/mpfr:64", p, "mpfr:64") for p in COLD_MPFR]
                + [Job(f"{p}/sanitize:200", p, "sanitize:200")
                   for p in COLD_SANITIZE])
    if workload == "jit_registry":
        rho = rng.uniform(24.0, 32.0)
        return [Job(f"{p}/mpfr:64+jit", p, "mpfr:64", "bench",
                    params=(("rho", rho),) if p == "lorenz" else (),
                    jit=True)
                for p in JIT_PROGRAMS]
    if workload == "batch_sweep":
        out = []
        for key, size in (("lorenz_mc/batch64", "montecarlo"),
                          ("lorenz/batch64", "bench")):
            lanes = tuple((("sigma", rng.uniform(9.0, 11.0)),
                           ("rho", rng.uniform(20.0, 30.0)),
                           ("beta", rng.uniform(2.4, 2.9)))
                          for _ in range(BATCH_LANES))
            checked = tuple(sorted(rng.sample(range(BATCH_LANES), 2)))
            out.append(Job(key, "lorenz", None, size, lanes=lanes,
                           checked_lanes=checked))
        return out
    raise ValueError(f"unknown workload {workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")


def round_jobs(workload: str, seed: int, rnd: int,
               smoke: bool = False) -> list[Job]:
    """Jobs of round ``rnd``: a pure function of (workload, seed, rnd).

    Fig. 12 cells run in a seeded shuffled order; every cold-start job
    gets a fresh seeded salt.  ``smoke`` keeps the first two jobs.
    """
    jobs = base_jobs(workload, seed)
    if smoke:
        jobs = jobs[:2]
    rng = random.Random(f"{workload}/{seed}/{rnd}")
    if workload == "fig12_warm":
        rng.shuffle(jobs)
    elif workload == "cold_oneshot":
        jobs = [replace(j, salt=rng.getrandbits(62)) for j in jobs]
    return jobs


# --------------------------------------------------------------------------- #
# sources                                                                      #
# --------------------------------------------------------------------------- #

def registry_source(name: str, size: str) -> str:
    """The fpc source the registry compiles for ``name`` at ``size``."""
    module = sys.modules[REGISTRY[name].build.__module__]
    if module is numbugs:
        kind = name.split("_", 1)[1].upper()
        template = getattr(numbugs, f"{kind}_TEMPLATE")
        sizes = getattr(numbugs, f"{kind}_SIZES")
    else:
        template, sizes = module.SOURCE_TEMPLATE, module.SIZES
    return template.format(**sizes[size])


def _target(job: Job, tracer):
    """A Binary compiled here, or the registry name Session builds."""
    if job.salt is not None:
        source = (registry_source(job.program, job.size)
                  + f"\nlong bench_salt = {job.salt};\n")
    elif job.size == "montecarlo":
        source = lorenz.SOURCE_TEMPLATE.format(**MONTE_CARLO)
    else:
        return job.program
    if tracer is not None:
        return tracer.wrap("compiler.build", compile_source)(source)
    return compile_source(source)


# --------------------------------------------------------------------------- #
# one job                                                                      #
# --------------------------------------------------------------------------- #

def _build(job: Job, tracer=None, params=None):
    """Build the job's Session (the first half of a job)."""
    kwargs = {"size": "bench" if job.size == "montecarlo" else job.size}
    if job.jit:
        kwargs["config"] = JIT_CONFIG
    params = dict(job.params) if params is None else params
    if params:
        kwargs["params"] = params
    target = _target(job, tracer)
    if tracer is None:
        return Session(target, job.arith, **kwargs)
    session = tracer.wrap("session.build", Session)(
        target, tracer.arith(job.arith), **kwargs)
    tracer.instrument_session(session)
    return session


def fingerprint(session, result) -> dict:
    """The observable outputs the checks compare."""
    san = session.fpvm.sanitizer if session.fpvm is not None else None
    return {
        "stdout_sha256": hashlib.sha256(result.stdout.encode()).hexdigest(),
        "exit_code": result.exit_code,
        "instrs": result.instr_count,
        "fp_instrs": result.fp_instr_count,
        "fp_traps": result.fp_traps,
        "correctness_traps": result.correctness_traps,
        "cycles": result.cycles,
        "flagged_sites": len(san.flagged_sites()) if san is not None else 0,
    }


def run_job(job: Job, ctx: Context, tracer=None) -> Outcome:
    """Time one job from the outside, then check its outputs.

    An exception is a failed job, not a failed benchmark: it is
    reported and the round goes on.
    """
    out = Outcome(job)
    if job.salt is not None:
        clear_cache()            # a first run finds no in-process report
        clear_ranges_cache()
    specs = [LaneSpec(params=dict(p)) for p in job.lanes]
    span = tracer.span("job", job=job.key) if tracer else nullcontext()
    try:
        t0 = perf_counter()
        with span:
            session = _build(job, tracer)
            t1 = perf_counter()
            result = session.run_batch(specs) if specs else session.run()
            t2 = perf_counter()
            session.close()
        out.wall_s = perf_counter() - t0
        out.run_s = t2 - t1
    except Exception as exc:  # noqa: BLE001 - a failed job is a data point
        traceback.print_exc(file=sys.stderr)
        out.errors.append(f"{type(exc).__name__}: {exc}")
        return out
    if tracer is not None:
        tracer.count_run(session, result)
    if specs:
        out.instrs = sum(r.instr_count for r in result.lanes)
        out.errors += _check_batch(job, ctx, result)
    else:
        out.instrs = result.instr_count
        out.cycles = result.cycles
        out.fingerprint = fingerprint(session, result)
        out.errors += check(job, ctx, out.fingerprint)
    return out


# --------------------------------------------------------------------------- #
# checks                                                                       #
# --------------------------------------------------------------------------- #

def _diff(fields, got: dict, want: dict | None, what: str) -> list[str]:
    if want is None:
        return [f"no {what} entry"]
    return [f"{f}: got {got.get(f)!r}, {what} has {want.get(f)!r}"
            for f in fields if got.get(f) != want.get(f)]


def check(job: Job, ctx: Context, fp: dict) -> list[str]:
    """Compare one scalar job's fingerprint with its reference."""
    if job.jit:
        return _diff(JIT_FIELDS, fp, ctx.refs.get(job.key), "JIT-off run")
    if not ctx.golden_fields:
        return []
    return _diff(ctx.golden_fields, fp, ctx.golden.get(job.key), "golden")


def check_round(outcomes: list[Outcome]) -> None:
    """Round-level check: FPVM+Vanilla prints exactly what the native
    run prints (paper §5.2).  Failures are added to the vanilla job."""
    by_key = {o.job.key: o for o in outcomes}
    for o in outcomes:
        if o.job.arith != "vanilla" or o.errors:
            continue
        native = by_key.get(f"{o.job.program}/native")
        if native is None or native.errors:
            continue
        if (o.fingerprint["stdout_sha256"]
                != native.fingerprint["stdout_sha256"]):
            o.errors.append("vanilla stdout differs from native stdout")


def _lane_ref(result) -> dict:
    return {"stdout": result.stdout, "instrs": result.instr_count,
            "cycles": result.cycles, "final_regs": result.final_regs}


def _check_batch(job: Job, ctx: Context, batch) -> list[str]:
    errors = [f"lane {i}: {r.error_type}: {r.error}"
              for i, r in enumerate(batch.lanes) if r.error is not None]
    for i in job.checked_lanes:
        got, want = _lane_ref(batch.lanes[i]), ctx.refs[(job.key, i)]
        errors += [f"lane {i} {f} differs from its scalar run"
                   for f in want if got[f] != want[f]]
    return errors


# --------------------------------------------------------------------------- #
# set-up                                                                       #
# --------------------------------------------------------------------------- #

def setup(workload: str, jobs: list[Job], golden: dict) -> Context:
    """Everything before the first timed job, from cold in-process
    caches: builds, static analysis (where the workload is warm),
    imports of the arithmetic ports, and the references the checks and
    ``slowdown_x`` need.  Repeatable: each call starts from scratch."""
    clear_cache()
    clear_ranges_cache()
    ctx = Context(golden=golden.get(workload, {}),
                  golden_fields=GOLDEN_FIELDS.get(workload, ()))
    for arith in {j.arith for j in jobs if j.arith is not None}:
        from_spec(arith)                    # lazy port imports
    # gc.collect() after each reference run: a Session is cyclic
    # garbage, and peak RSS must not depend on when Python's GC runs
    if workload == "batch_sweep":
        for job in jobs:
            for i in job.checked_lanes:
                scalar = _build(replace(job, lanes=()),
                                params=dict(job.lanes[i])).run()
                ctx.refs[(job.key, i)] = _lane_ref(scalar)
                gc.collect()
        return ctx
    for job in jobs:
        if job.program in ctx.native_cycles:
            continue                        # once per program
        ctx.native_cycles[job.program] = Session(
            job.program, None, size=job.size,
            params=dict(job.params) or None).run().cycles
        if workload == "fig12_warm":
            analyze_and_patch(REGISTRY[job.program].build(job.size))
        elif workload == "cold_oneshot":
            ours = compile_source(registry_source(job.program, job.size))
            if (ours.content_hash()
                    != REGISTRY[job.program].build(job.size).content_hash()):
                raise RuntimeError(f"registry_source({job.program!r}) no "
                                   "longer matches the registry build")
        gc.collect()
    if workload == "jit_registry":
        for job in jobs:
            ref = _build(replace(job, jit=False))
            ctx.refs[job.key] = fingerprint(ref, ref.run())
            gc.collect()
    return ctx
