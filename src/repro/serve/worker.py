"""The in-worker job executor.

Runs inside a pool worker process: one :class:`JobRequest` in, one
JSON-safe result dict out, *never* an exception.  Containment is
:func:`~repro.harness.experiment.run_contained`, the same wrapper every
matrix cell runs under: a guest binary that dies yields a result with
``error`` set plus structured crash records tagged with the job's
``job_id``/``tenant``; only a hard process death (chaos SIGKILL,
``os._exit``) escapes, and that is the pool tender's problem, not ours.

Warm reuse across requests: workers are long-lived processes, so the
process-wide analysis report cache (keyed on
:meth:`Binary.content_hash`) makes every job after the first for a
given binary skip the VSA entirely — the serving tier's analysis
amortization.  The run itself is deterministic, so a retried job on a
fresh worker is bit-identical to its first attempt.
"""

from __future__ import annotations

import io
import os
import time

from repro.serve.jobs import JobRequest


def _chaos(req: JobRequest) -> None:
    """Serve-tier fault injection: misbehave on request (tests/chaos)."""
    knobs = dict(req.chaos)
    sleep_s = knobs.get("sleep_s")
    if sleep_s:
        time.sleep(float(sleep_s))
    if knobs.get("exit"):
        # a guest that takes the whole worker process down (the real
        # analogue: a segfault in native FPVM); bypasses containment
        os._exit(17)
    if knobs.get("raise"):
        raise RuntimeError("injected serve-tier fault")


def execute_job(req: JobRequest, *, job_id: int = 0) -> dict:
    """Run one job to completion inside this worker process."""
    from repro.compiler import compile_source
    from repro.harness.experiment import MatrixCell, run_contained
    from repro.session import Session
    from repro.trace.sinks import NDJSONSink

    cell = MatrixCell(req.workload, size=req.size, arith=req.arith,
                      max_instructions=req.max_instructions,
                      max_cycles=req.max_cycles, stdin=req.stdin,
                      params=req.params, label=f"job{job_id}")
    buf = io.StringIO() if req.trace else None
    session = None

    def make_session():
        nonlocal session
        _chaos(req)
        target = req.workload or (lambda: compile_source(req.source))
        session = Session(target, req.arith, size=req.size,
                          trace=NDJSONSink(buf) if buf is not None else None,
                          stdin=req.stdin, params=dict(req.params),
                          label=cell.label)
        return session

    res = run_contained(cell, make_session, job_id=job_id,
                        tenant=req.tenant)
    if session is not None:
        session.close()
    ok = res.error is None
    return {
        "ok": ok,
        "stdout": res.stdout,
        "exit_code": res.exit_code,
        "instr_count": res.instr_count,
        "fp_instr_count": res.fp_instr_count,
        "fp_traps": res.fp_traps,
        "correctness_traps": res.correctness_traps,
        "cycles": res.cycles,
        "degradations": res.degradations,
        "sites_short_circuited": res.sites_short_circuited,
        "binary_hash": (session.binary.content_hash()
                        if session is not None else ""),
        "arith": req.arith_text,
        "error": res.error,
        "error_type": res.error_type,
        "crash_records": res.crash_records,
        "trace_ndjson": buf.getvalue() if ok and buf is not None else None,
    }
