"""The crash-isolated worker pool: a worker that dies mid-job is
respawned and its job retried, a job that keeps killing its worker
fails with a structured error, a worker that dies while idle is
respawned before the next dispatch, and every job completes exactly
once."""

import os
import signal
import threading

from repro.harness.pool import JobRecord, WorkerPool


def _die_once(marker):
    """Job function: SIGKILL the worker on the first attempt only."""
    if not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return ("ok", os.getpid())


def _always_die(payload):
    os.kill(os.getpid(), signal.SIGKILL)


def _pid(payload):
    return os.getpid()


def _failed(payload, error_type, message):
    return ("failed", error_type, message)


def _run(pool, payload):
    rec = JobRecord(1, payload)
    pool.submit(rec)
    assert rec.wait(30.0) is not None, "job never completed"
    return rec


class TestWorkerDeath:
    def _pool(self, job_fn, retries=2):
        pool = WorkerPool(1, job_fn, _failed, job_timeout_s=30.0,
                          retries=retries, backoff_s=0.01)
        pool.start()
        return pool

    def test_killed_worker_respawns_and_job_retries(self, tmp_path):
        pool = self._pool(_die_once)
        try:
            first = pool._slots[0].proc.pid
            rec = _run(pool, str(tmp_path / "died"))
        finally:
            pool.stop()
        status, pid = rec.result
        assert status == "ok" and pid != first
        assert rec.attempts == 2

    def test_worker_that_always_dies_exhausts_retries(self):
        pool = self._pool(_always_die, retries=2)
        try:
            rec = _run(pool, None)
        finally:
            pool.stop()
        status, error_type, message = rec.result
        assert (status, error_type) == ("failed", "WorkerDied")
        assert "after 3 attempts" in message
        assert rec.attempts == 3

    def test_idle_death_respawns_before_next_dispatch(self):
        pool = self._pool(_pid)
        try:
            assert _run(pool, None).result == pool._slots[0].proc.pid
            dead = pool._slots[0].proc
            os.kill(dead.pid, signal.SIGKILL)
            dead.join(5.0)
            assert not dead.is_alive()
            rec = _run(pool, None)
        finally:
            pool.stop()
        assert rec.result != dead.pid
        assert rec.attempts == 1  # respawned before dispatch, not retried


class TestJobRecord:
    def test_first_complete_wins(self):
        rec = JobRecord(1, None)
        assert rec.complete({"ok": True, "n": 1})
        assert not rec.complete({"ok": True, "n": 2})
        assert rec.result["n"] == 1

    def test_concurrent_completes_once(self):
        rec = JobRecord(1, None)
        wins = []
        barrier = threading.Barrier(8)

        def racer(i):
            barrier.wait()
            if rec.complete({"winner": i}):
                wins.append(i)

        threads = [threading.Thread(target=racer, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1
        assert rec.result["winner"] == wins[0]

    def test_wait_returns_result(self):
        rec = JobRecord(1, None)
        threading.Timer(0.02, rec.complete, ({"ok": True},)).start()
        assert rec.wait(5.0) == {"ok": True}
