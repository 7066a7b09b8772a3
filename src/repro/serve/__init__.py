"""repro.serve — FPVM as a crash-isolated, load-shedding daemon.

The paper frames FPVM as transparent infrastructure that arbitrary
existing binaries run *under*; this package makes that literal: a
long-running asyncio daemon (``repro serve``) accepts (binary,
arith-spec, stdin, limits) jobs from many tenants over a local
socket/HTTP API and returns stdout + stats + an optional NDJSON trace.
The robustness core is the point — a misbehaving guest binary must
never take the daemon with it:

* :mod:`repro.serve.jobs`   — the validated job protocol (wire JSON ↔
  :class:`JobRequest`) and the result-cache key;
* :mod:`repro.serve.worker` — the in-worker executor: one job runs in
  one pool process under
  :func:`~repro.harness.experiment.run_contained`, the containment
  wrapper every matrix cell also runs under (typed watchdogs,
  structured crash records tagged ``job_id``/``tenant``), with warm
  analysis-cache reuse across requests;
* :class:`JobRecord`/:class:`WorkerPool` — re-exported from
  :mod:`repro.harness.pool`, the one crash-isolated process pool (the
  experiment matrix runs on it too): per-job process isolation,
  per-job timeout → SIGKILL → bounded retry with exponential backoff
  on a fresh worker, and a reaper that respawns crashed workers
  without losing queued jobs;
* :mod:`repro.serve.cache`  — result caching keyed on
  (:meth:`Binary.content_hash`, normalized arith spec, guest inputs),
  extending the analysis report cache one level up;
* :mod:`repro.serve.daemon` — admission control with a bounded queue
  and structured 429-style rejections, load-shedding that drives the
  graceful-degradation ladder as an SLO valve (under queue pressure
  new jobs are demoted to vanilla-precision execution *before* any
  are dropped, one :class:`~repro.trace.events.ServeShedEvent` per
  shed), a startup self-test, and ``/health`` reporting
  pool/queue/cache state;
* :mod:`repro.serve.chaos`  — chaos plans aimed at the serving tier
  (a seeded monkey that SIGKILLs workers mid-job);
* :mod:`repro.serve.client` — a blocking HTTP client plus the
  load-generator used by the benchmark and the CI smoke job.

Serving telemetry flows through the same typed trace bus as the VM
itself (``ServeJobEvent`` / ``ServeShedEvent`` / ``ServeWorkerEvent``,
aggregated by the :class:`~repro.trace.profiler.ProfilerSink` serving
table).
"""

from repro.serve.jobs import JobError, JobRequest
from repro.serve.cache import ResultCache
from repro.harness.pool import JobRecord, WorkerPool
from repro.serve.daemon import Daemon, ServeConfig, start_in_thread
from repro.serve.chaos import ChaosMonkey, ServeChaosPlan
from repro.serve.client import ServeClient, generate_load

__all__ = [
    "JobError",
    "JobRequest",
    "ResultCache",
    "JobRecord",
    "WorkerPool",
    "Daemon",
    "ServeConfig",
    "start_in_thread",
    "ChaosMonkey",
    "ServeChaosPlan",
    "ServeClient",
    "generate_load",
]
