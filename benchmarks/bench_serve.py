#!/usr/bin/env python3
"""Serving-tier load benchmark: throughput, tail latency, and shed
rate of the ``repro serve`` daemon under worker-kill chaos.

Boots a daemon on an ephemeral port, drives it with the closed-loop
load generator (N client threads submitting lorenz jobs back to back)
while a seeded chaos monkey SIGKILLs busy workers, and reports:

* ``jobs_per_sec``   — completed jobs per second under chaos
* ``serve_p50_ms`` / ``serve_p99_ms`` — submit-to-answer latency
* ``serve_shed_rate`` — fraction of completed jobs demoted to
  vanilla-precision by the admission valve
* ``serve_lost_jobs`` — accepted jobs that never got an answer
  (the robustness acceptance number: must be 0)

Run it standalone::

    PYTHONPATH=src python benchmarks/bench_serve.py [seconds]
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

JOB = {"workload": "lorenz", "size": "test", "arith": "mpfr:64",
       "no_cache": True}


def serve_metrics(duration_s: float = 6.0, *, workers: int = 2,
                  concurrency: int = 4, kills: int = 2) -> dict:
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.serve import (ServeChaosPlan, ServeConfig, generate_load,
                             start_in_thread)

    handle = start_in_thread(ServeConfig(
        workers=workers, queue_limit=16, shed_watermark=8,
        job_timeout_s=60.0, retries=3, backoff_s=0.02))
    try:
        client = handle.client()
        # one warm-up job fills the per-worker analysis caches
        status, doc = client.submit(JOB)
        assert status == 200 and doc["ok"], "serve warm-up job failed"

        monkey = ServeChaosPlan(
            kills=kills, interval_s=duration_s / (kills + 1),
            initial_delay_s=0.3, seed=11).monkey(handle.daemon.pool)
        monkey.start()
        report = generate_load(client, JOB, duration_s=duration_s,
                               concurrency=concurrency)
        monkey.stop()

        health = client.health()
        assert health["lost"] == 0, f"daemon lost jobs: {health}"
        return {
            "jobs_per_sec": report["jobs_per_sec"],
            "serve_p50_ms": report["p50_ms"],
            "serve_p99_ms": report["p99_ms"],
            "serve_shed_rate": report["shed_rate"],
            "serve_lost_jobs": report["lost"] + health["lost"],
            "serve_worker_deaths": health["pool"]["worker_deaths"],
        }
    finally:
        handle.stop()


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    duration = float(argv[0]) if argv else 6.0
    metrics = serve_metrics(duration)
    for k, v in metrics.items():
        print(f"  {k:24s} {v:,.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
