#!/usr/bin/env python3
"""Run the interpreter micro benchmark suite and distill the numbers
future PRs track into ``BENCH_interp.json``.

Runs ``benchmarks/bench_micro.py`` under pytest-benchmark with
``--benchmark-json``, then reduces the raw statistics to the perf
trajectory this repo cares about:

* ``predecode_instrs_per_sec`` / ``legacy_instrs_per_sec`` — simulated
  instruction throughput under the compiled fast path vs. the in-tree
  per-step dispatch (their ratio is ``predecode_speedup``)
* ``seed_instrs_per_sec`` — the same loop measured on the seed commit
  (checked out in a git worktree); carried over from the previous
  BENCH_interp.json unless re-measured with ``--seed-baseline N``.
  ``speedup_vs_seed`` is the ISSUE 1 ≥3× acceptance number.
* ``trap_roundtrip_ns`` — one full FPVM fault → decode → bind →
  emulate round-trip, measured by calling the hot site's dispatch
  closure directly in steady state (no loop scaffolding in the mean)
* ``jit_roundtrip_ns`` — the same event serviced by the site's
  compiled (patched) closure instead
* ``patched_site_hit_rate`` — fraction of emulated FP events the
  patched sites absorb on the whole-program FP loop
* ``fp_loop_jit_speedup`` — whole-program FP-loop speedup with the
  JIT on vs. pure trap-servicing (fused kernels + boxing elision)
* ``gc_scan_words_per_sec`` — conservative GC scan rate
* ``gc_incremental_words_per_epoch`` — words rescanned per epoch by
  the incremental collector at steady state (dirty pages only)
* ``patched_site_count`` / ``spurious_trap_rate`` — static-analysis
  precision over the oracle workload set: how many correctness traps
  the analysis installs and what fraction never consume a box during
  an instrumented run (lower is better; the liveness refinement
  exists to push this down)

* ``batch_speedup_n64`` — wall-clock ratio of 64 sequential scalar
  runs of a parameterized lorenz sweep (per-lane ``rho``) over one
  64-lane SoA batched run (``Session.run_batch``); the ISSUE 7 ≥5×
  acceptance number
* ``batch_divergence_spill_rate`` — fraction of those lanes that left
  the batch for the scalar interpreter (0 on the healthy sweep;
  divergence correctness is covered by ``test_prop_batch.py``)

* ``jobs_per_sec`` / ``serve_p50_ms`` / ``serve_p99_ms`` /
  ``serve_shed_rate`` / ``serve_lost_jobs`` — the serving tier under
  worker-kill chaos (``benchmarks/bench_serve.py``): throughput and
  tail latency of the ``repro serve`` daemon while a seeded monkey
  SIGKILLs busy workers; ``serve_lost_jobs`` must stay 0

* ``sanitize_prove_rate`` / ``sanitize_overhead_x`` /
  ``sanitize_exempt_overhead_x`` — the NSan-mode sanitizer: fraction
  of checkable FP sites the interval-range pass proves
  divergence-free, and the modeled-cycle cost of dual-path checking
  without and with aggressive static exemption

The output file is schema-versioned (``"schema": 6``): it keeps a
``records`` list, one appended entry per invocation, so the perf
trajectory across PRs stays in the file.  Schema 3 added the
``trace_jit_speedup`` / ``trace_deopt_rate`` metrics (no longer
measured: they timed an optimizing trace emitter that has since been
deleted), schema 4 the batched-execution metrics, schema 5 the
serving-tier metrics, schema 6 the sanitizer metrics; records from
older schemas are carried over unchanged.

Usage:  python benchmarks/run_benchmarks.py [--seed-baseline N]
                                            [--batch-lanes N]
        (from the repo root)
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RAW = ROOT / ".benchmark_raw.json"
OUT = ROOT / "BENCH_interp.json"


def run_suite() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    cmd = [
        sys.executable, "-m", "pytest", "benchmarks/bench_micro.py",
        "--benchmark-only", f"--benchmark-json={RAW}",
        "--benchmark-disable-gc",
        "-q", "-p", "no:cacheprovider",
    ]
    subprocess.run(cmd, cwd=ROOT, env=env, check=True)
    try:
        return json.loads(RAW.read_text())
    finally:
        RAW.unlink(missing_ok=True)


def distill(data: dict) -> dict:
    by_name: dict[str, dict] = {}
    for bench in data.get("benchmarks", []):
        by_name[bench["name"].split("[")[0]] = bench

    def rate(name: str, key: str) -> float | None:
        bench = by_name.get(name)
        if bench is None:
            return None
        n = bench.get("extra_info", {}).get(key)
        mean = bench["stats"]["mean"]
        if not n or not mean:
            return None
        return n / mean

    def extra(name: str, key: str):
        return by_name.get(name, {}).get("extra_info", {}).get(key)

    out: dict[str, float | None] = {
        "predecode_instrs_per_sec": rate("test_simulator_throughput",
                                         "instr_count"),
        "legacy_instrs_per_sec": rate("test_simulator_throughput_legacy",
                                      "instr_count"),
        "gc_scan_words_per_sec": rate("test_gc_scan_speed", "words_scanned"),
        "gc_incremental_words_per_epoch": extra("test_gc_incremental_scan",
                                                "words_scanned"),
        "patched_site_hit_rate": extra("test_fp_loop_jit",
                                       "patched_site_hit_rate"),
    }

    def mean(name: str) -> float | None:
        return by_name.get(name, {}).get("stats", {}).get("mean")

    # the roundtrip benches call one servicing closure per round;
    # events_per_call normalizes the fused kernel (2 events per call)
    def roundtrip_ns(name: str) -> float | None:
        t = mean(name)
        n = extra(name, "events_per_call") or 1
        return 1e9 * t / n if t else None

    out["trap_roundtrip_ns"] = roundtrip_ns("test_trap_roundtrip")
    out["jit_roundtrip_ns"] = roundtrip_ns("test_jit_roundtrip")
    lt, lj = mean("test_fp_loop_trap"), mean("test_fp_loop_jit")
    out["fp_loop_jit_speedup"] = lt / lj if lt and lj else None
    pre, leg = out["predecode_instrs_per_sec"], out["legacy_instrs_per_sec"]
    out["predecode_speedup"] = pre / leg if pre and leg else None
    return out


#: workloads the precision metrics are measured on — small enough for
#: CI, and between them they cover the spurious-trap spectrum (fbench
#: ~0%, nas_lu mid, enzo the paper's pathological over-patching case)
ANALYSIS_WORKLOADS = ("fbench", "nas_lu", "enzo")


def analysis_metrics(names=ANALYSIS_WORKLOADS) -> dict:
    """Static-analysis precision via the dynamic soundness oracle."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.analysis.oracle import validate

    patched = spurious = 0
    for name in names:
        res = validate(name, "mpfr:64", size="test")
        patched += res.patched_site_count
        spurious += len(res.spurious_sites)
    return {
        "patched_site_count": patched,
        "spurious_trap_rate": spurious / patched if patched else None,
    }


def batch_metrics(lanes: int = 64) -> dict:
    """64-lane SoA batched lorenz sweep vs the same sweep run scalar.

    The recorded key is always ``batch_speedup_n64``; ``lanes`` only
    exists so ``repro bench --batch N`` can do quicker local runs.
    """
    import time

    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.compiler import compile_source
    from repro.ieee.bits import f64_to_bits
    from repro.session import LaneSpec, Session
    from repro.workloads import lorenz

    # Monte-Carlo shape: integrate the whole trajectory, print only the
    # final state (sample == steps) — per-lane printf externs would
    # otherwise dominate and hide the lockstep dispatch win
    binary = compile_source(lorenz.SOURCE_TEMPLATE.format(
        steps=1000, dt=0.005, sample=1000))
    specs = [LaneSpec(params={"rho": 20.0 + 0.125 * i}, label=f"l{i}")
             for i in range(lanes)]

    t0 = time.perf_counter()
    batch = Session(binary, None).run_batch(specs)
    t_batch = time.perf_counter() - t0
    assert batch.ok, "batched lorenz sweep failed"

    t0 = time.perf_counter()
    for i, spec in enumerate(specs):
        s = Session(binary, None)
        s.machine.memory.write(s.binary.symbols["rho"], 8,
                               f64_to_bits(spec.params["rho"]))
        ref = s.run()
        lane = batch[i]
        assert lane.stdout == ref.stdout and lane.cycles == ref.cycles, (
            f"lane {spec.label} not bit-identical to its scalar run")
    t_scalar = time.perf_counter() - t0

    if lanes != 64:
        print(f"  (batch sweep ran with {lanes} lanes, not 64)")
    return {
        "batch_speedup_n64": t_scalar / t_batch,
        "batch_divergence_spill_rate": batch.spill_rate,
    }


#: sanitize metrics are measured on the seeded-bug workloads plus one
#: clean benchmark so the prove rate reflects both easy (integer /
#: conversion) and hard (loop-carried transcendental) sites
SANITIZE_WORKLOADS = ("numbugs_cancel", "numbugs_sum", "numbugs_var",
                      "fbench")


def sanitize_metrics(names=SANITIZE_WORKLOADS) -> dict:
    """NSan-mode sanitizer cost and static-proof leverage (schema 6).

    * ``sanitize_prove_rate`` — pooled fraction of checkable FP sites
      the interval-range pass proves divergence-free across the
      workload set
    * ``sanitize_overhead_x`` — modeled-cycle ratio of a full
      dual-path sanitize run (exemption off) over the native run on
      ``numbugs_var``
    * ``sanitize_exempt_overhead_x`` — the same ratio with aggressive
      static exemption on; the gap to ``sanitize_overhead_x`` is what
      the ranges pass buys at runtime
    """
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.analysis.ranges import analyze_ranges
    from repro.fpvm.runtime import FPVMConfig
    from repro.fpvm.sanitize import SanitizeConfig
    from repro.session import Session

    proven = checkable = 0
    for name in names:
        sess = Session(name, None, size="test")
        rr = analyze_ranges(sess.binary)
        proven += len(rr.proven)
        checkable += len(rr.checkable)

    def cycles(arith, scfg=None) -> int:
        cfg = FPVMConfig(sanitize=scfg) if scfg else None
        return Session("numbugs_var", arith, size="bench",
                       config=cfg).run().cycles

    native = cycles(None)
    full = cycles(("sanitize", 200),
                  SanitizeConfig(exempt=False))
    exempt = cycles(("sanitize", 200),
                    SanitizeConfig(aggressive=True))
    return {
        "sanitize_prove_rate": proven / checkable if checkable else None,
        "sanitize_overhead_x": full / native if native else None,
        "sanitize_exempt_overhead_x": exempt / native if native else None,
    }


def read_records(path: Path = OUT) -> list[dict]:
    """Past records from ``BENCH_interp.json``, any schema version.

    Schema 1 was a single ``{"metrics": ...}`` document; schemas 2+
    keep a ``records`` list with one appended entry per invocation
    (schema 3 added the tracing-JIT metrics to new records).
    """
    try:
        prev = json.loads(path.read_text())
    except (OSError, ValueError):
        return []
    if prev.get("schema", 1) >= 2:
        return list(prev.get("records", []))
    if "metrics" in prev:  # schema 1: wrap the single document
        return [{"machine": prev.get("machine"),
                 "datetime": prev.get("datetime"),
                 "metrics": prev["metrics"]}]
    return []


def seed_baseline(argv: list[str]) -> float | None:
    """--seed-baseline N, else the value recorded in the previous run."""
    if "--seed-baseline" in argv:
        i = argv.index("--seed-baseline") + 1
        if i >= len(argv):
            raise SystemExit("--seed-baseline requires a number")
        return float(argv[i])
    records = read_records()
    if records:
        return records[-1]["metrics"].get("seed_instrs_per_sec")
    return None


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    lanes = 64
    if "--batch-lanes" in argv:
        i = argv.index("--batch-lanes") + 1
        if i >= len(argv):
            raise SystemExit("--batch-lanes requires a number")
        lanes = int(argv[i])
    seed = seed_baseline(argv)
    data = run_suite()
    metrics = distill(data)
    metrics["seed_instrs_per_sec"] = seed
    pre = metrics["predecode_instrs_per_sec"]
    metrics["speedup_vs_seed"] = pre / seed if pre and seed else None
    metrics.update(analysis_metrics())
    metrics.update(batch_metrics(lanes))
    metrics.update(sanitize_metrics())
    from bench_serve import serve_metrics

    metrics.update(serve_metrics())
    records = read_records()
    records.append({
        "machine": data.get("machine_info", {}).get("python_version"),
        "datetime": data.get("datetime"),
        "metrics": metrics,
    })
    doc = {
        "schema": 6,
        "suite": "benchmarks/bench_micro.py",
        "records": records,
    }
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {OUT} ({len(records)} records)")
    for k, v in metrics.items():
        print(f"  {k:30s} {v if v is None else f'{v:,.3f}'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
