#!/usr/bin/env python3
"""Advisory perf gate: fail if throughput regressed vs the committed
``BENCH_interp.json``.

Runs the micro suite, distills the same metrics ``run_benchmarks.py``
records, and compares the throughput-critical ones against the latest
committed record.  Exits non-zero when any watched metric regressed by
more than ``--threshold`` (default 30%).  Nothing is written to
``BENCH_interp.json`` — this is a smoke check, not a measurement run.

Usage:  python benchmarks/check_regression.py [--threshold 0.30]
        (from the repo root)
"""

from __future__ import annotations

import sys

from bench_serve import serve_metrics
from run_benchmarks import (analysis_metrics, batch_metrics, distill,
                            read_records, run_suite, sanitize_metrics)

#: (metric, higher_is_better)
WATCHED = (
    ("predecode_instrs_per_sec", True),
    ("trap_roundtrip_ns", False),
    ("jit_roundtrip_ns", False),
    # analysis precision: installed correctness traps and the fraction
    # that never fire — a jump means the refinement lost ground
    ("patched_site_count", False),
    ("spurious_trap_rate", False),
    # SoA batched execution: 64-lane lorenz sweep vs 64 scalar runs
    # (schema 4) — a drop means lockstep dispatch lost its leverage;
    # the spill rate is informational (0 baseline is skipped)
    ("batch_speedup_n64", True),
    ("batch_divergence_spill_rate", False),
    # the serving tier under worker-kill chaos (schema 5): completed
    # jobs/sec and the p99 submit-to-answer latency of `repro serve`
    ("jobs_per_sec", True),
    ("serve_p99_ms", False),
    # NSan-mode sanitizer (schema 6): static-proof leverage and the
    # modeled-cycle cost of dual-path checking — a prove-rate drop
    # means the interval pass lost precision, an overhead jump means
    # the dual-path hot path got slower
    ("sanitize_prove_rate", True),
    ("sanitize_overhead_x", False),
    ("sanitize_exempt_overhead_x", False),
)


def check(baseline: dict, current: dict, threshold: float) -> list[str]:
    failures = []
    for metric, higher_is_better in WATCHED:
        base = baseline.get(metric)
        cur = current.get(metric)
        if not base or not cur or base <= 0 or cur <= 0:
            print(f"  {metric:30s} skipped (baseline={base}, current={cur})")
            continue
        change = (cur / base - 1.0) if higher_is_better else (base / cur - 1.0)
        status = "ok" if change >= -threshold else "REGRESSED"
        print(f"  {metric:30s} {base:14,.1f} -> {cur:14,.1f} "
              f"({change:+.1%}) {status}")
        if change < -threshold:
            failures.append(metric)
    return failures


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    threshold = 0.30
    if "--threshold" in argv:
        i = argv.index("--threshold") + 1
        if i >= len(argv):
            raise SystemExit("--threshold requires a number")
        threshold = float(argv[i])
    records = read_records()
    if not records:
        print("no committed BENCH_interp.json baseline; nothing to check")
        return 0
    baseline = records[-1]["metrics"]
    current = distill(run_suite())
    current.update(analysis_metrics())
    current.update(batch_metrics())
    current.update(sanitize_metrics())
    current.update(serve_metrics())
    print(f"perf check vs committed baseline (threshold {threshold:.0%}):")
    failures = check(baseline, current, threshold)
    if failures:
        print(f"regressed: {', '.join(failures)}")
        return 1
    print("no regressions beyond threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
