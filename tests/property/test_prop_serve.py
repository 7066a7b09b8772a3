"""Property: the serving tier's exactly-once guarantee under chaos.

For any batch of jobs and any chaos plan that kills ``k < pool_size``
workers mid-campaign, every submitted job completes exactly once and
each result is bit-identical to executing the same job fault-free in
this process (same ``execute_job``, no pool, no kills).
"""

import threading
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.pool import JobRecord, WorkerPool
from repro.serve.jobs import JobRequest, error_result
from repro.serve.worker import execute_job

POOL_SIZE = 3

_SRC = """
long main() {{
    double x = {seed};
    for (long i = 0; i < {iters}; i = i + 1) {{
        x = x / 3.0 + {step};
    }}
    printf("%.17g\\n", x);
    return 0;
}}
"""


def _job(iters: int, seed_tenths: int, step_tenths: int) -> JobRequest:
    return JobRequest.from_wire({
        "source": _SRC.format(seed=f"{seed_tenths / 10:.1f}",
                              iters=iters,
                              step=f"{step_tenths / 10:.1f}"),
        "arith": "mpfr:64",
        "chaos": {"sleep_s": 0.05},   # keep jobs killable mid-flight
    })


jobs_strategy = st.lists(
    st.tuples(st.integers(1, 30), st.integers(5, 30),
              st.integers(5, 30)),
    min_size=3, max_size=7)


@settings(max_examples=5, deadline=None)
@given(jobs=jobs_strategy,
       kills=st.integers(1, POOL_SIZE - 1),
       chaos_seed=st.integers(0, 2**16))
def test_chaos_kills_never_lose_or_duplicate_jobs(jobs, kills,
                                                  chaos_seed):
    requests = [_job(*spec) for spec in jobs]
    # fault-free reference: the exact same executor, in this process
    reference = [execute_job(req, job_id=1000 + i)
                 for i, req in enumerate(requests)]
    for ref in reference:
        assert ref["ok"], ref["error"]

    pool = WorkerPool(POOL_SIZE, execute_job, error_result,
                      job_timeout_s=60.0, retries=4, backoff_s=0.01)
    pool.start()
    completions: dict[int, int] = {}
    count_lock = threading.Lock()
    try:
        records = []
        for i, req in enumerate(requests):
            rec = JobRecord(i + 1, req)

            def count(r, _i=i):
                with count_lock:
                    completions[_i] = completions.get(_i, 0) + 1

            rec.add_done_callback(count)
            records.append(rec)
            pool.submit(rec)

        # kill k workers mid-campaign, preferring busy ones
        import random

        rng = random.Random(chaos_seed)
        killed = 0
        deadline = time.time() + 30
        while killed < kills and time.time() < deadline:
            busy = pool.busy_indices()
            victim = rng.choice(busy) if busy else None
            if pool.kill_worker(index=victim, busy_only=bool(busy),
                                reason="property-chaos") is not None:
                killed += 1
                time.sleep(0.02)
            else:
                time.sleep(0.005)

        for i, rec in enumerate(records):
            result = rec.wait(120)
            assert result is not None, f"job {i} never completed"
            assert result["ok"], (i, result["error"])
            ref = reference[i]
            assert result["stdout"] == ref["stdout"]
            assert result["exit_code"] == ref["exit_code"]
            assert result["instr_count"] == ref["instr_count"]
            assert result["fp_instr_count"] == ref["fp_instr_count"]
            assert result["fp_traps"] == ref["fp_traps"]
            assert result["binary_hash"] == ref["binary_hash"]
    finally:
        pool.stop()

    # exactly once: one completion callback per job, no duplicates
    assert completions == {i: 1 for i in range(len(records))}
    assert killed == kills
